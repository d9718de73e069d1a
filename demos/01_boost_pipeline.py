"""
Boosting a soft prediction map end to end
=========================================

Builds a small two-region prediction with a noisy boundary, then walks
through the pieces the booster composes: per-pixel confidence, the
adaptive weight map, regional votes, and the final blend. Finishes by
writing the result to a tensor file and a viewable PGM.
"""

import tempfile
from pathlib import Path

import numpy as np

from segboost import (
    VicinitySpec,
    adaptive_weights,
    argmax_labels,
    boost,
    boost_report,
    confidence,
    labels_to_gray,
    read_tensor,
    write_pgm,
    write_tensor,
)

rng = np.random.default_rng(7)

# two islands of class 1 and 2 on a class-0 background, with the
# boundary pixels smeared toward uniform so they carry low confidence
h = w = 24
labels = np.zeros((h, w), dtype=np.int64)
labels[4:12, 3:14] = 1
labels[13:21, 10:20] = 2

pred = np.full((h, w, 3), 0.02, dtype=np.float64)
for k in range(3):
    pred[labels == k, k] = 0.96
edge = np.zeros((h, w), dtype=bool)
edge[1:, :] |= labels[1:, :] != labels[:-1, :]
edge[:, 1:] |= labels[:, 1:] != labels[:, :-1]
pred[edge] = rng.dirichlet([2.0, 2.0, 2.0], size=int(edge.sum()))
pred /= pred.sum(axis=2, keepdims=True)
pred = pred.astype(np.float32)

conf = confidence(pred)
weights = adaptive_weights(conf)
print(f"confidence range  [{conf.min():.4f}, {conf.max():.4f}]")
print(f"weight on boundary {weights[edge].mean():.4f}, interior {weights[~edge].mean():.4f}")

# low-weight pixels lean on their neighborhood vote, high-weight pixels
# keep their own one-hot argmax
vicinity = VicinitySpec(5, 5, "clip")
for policy in ("ruv", "uniform", "none"):
    report = boost_report(pred, vicinity, policy)
    print(f"policy={policy:7s} changed {report.changed_fraction:6.1%} of argmaxes, "
          f"mean weight {report.mean_weight:.3f}")

boosted = boost(pred, vicinity, "ruv")
flipped = argmax_labels(boosted.data) != argmax_labels(pred)
print(f"flipped pixels sit on the boundary: {bool(flipped[~edge].sum() == 0)}")

# round-trip the boosted map through the binary tensor format, then render
# the hardened labels as an 8-bit PGM; the directory goes away afterwards
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp)
    blob = write_tensor(boosted.data)
    (out / "boosted.ten1").write_bytes(blob)
    again = read_tensor((out / "boosted.ten1").read_bytes())
    print(f"tensor file round-trip bit-exact: {again.tobytes() == boosted.data.tobytes()}")

    gray = labels_to_gray(argmax_labels(boosted.data), 3)
    (out / "boosted.pgm").write_bytes(write_pgm(gray))
    print(f"wrote {out / 'boosted.pgm'} ({len(write_pgm(gray))} bytes)")
