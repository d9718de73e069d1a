"""Seeded inputs and independent output references for the benchmark.

Nothing here imports segboost: inputs are what a user would hand the
package, and the references recompute its documented formulas with plain
NumPy so a wrong output cannot also corrupt the check.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

CLASSES = 19  # Cityscapes label set
VOID = 65535
_CHUNK_ROWS = 64  # row block for the generator
_REF_ROWS = 16  # row block for the references; keeps their memory far below boost's


def _interp_matrix(out_len: int, grid_len: int) -> np.ndarray:
    """Linear interpolation weights from ``grid_len`` knots onto ``out_len`` samples."""
    pos = np.linspace(0.0, grid_len - 1.0, out_len)
    lo = np.minimum(pos.astype(np.int64), grid_len - 2)
    frac = (pos - lo).astype(np.float32)
    m = np.zeros((out_len, grid_len), dtype=np.float32)
    rows = np.arange(out_len)
    m[rows, lo] = 1.0 - frac
    m[rows, lo + 1] = frac
    return m


def add_smooth_scores(rng: np.random.Generator, scores: np.ndarray, cell: int, scale: float) -> None:
    """Add ``scale`` x per-class fields to ``scores`` in place: Gaussian knots every ``cell`` px, bilinearly upsampled.

    The upsampled field is added one row block at a time, so no full-size temporary exists.
    """
    height, width, _ = scores.shape
    gh, gw = height // cell + 2, width // cell + 2
    knots = rng.standard_normal((gh, gw, CLASSES)).astype(np.float32)
    ry = _interp_matrix(height, gh) * np.float32(scale)
    across = np.einsum("wj,ijk->iwk", _interp_matrix(width, gw), knots).reshape(gh, width * CLASSES)
    flat = scores.reshape(height, width * CLASSES)
    for r0 in range(0, height, _CHUNK_ROWS):
        flat[r0 : r0 + _CHUNK_ROWS] += ry[r0 : r0 + _CHUNK_ROWS] @ across


def softmax_inplace(scores: np.ndarray, sharpness: float) -> np.ndarray:
    """Row-wise float32 softmax, in place, block by block to bound memory."""
    for r0 in range(0, scores.shape[0], _CHUNK_ROWS):
        block = scores[r0 : r0 + _CHUNK_ROWS]
        block *= sharpness
        block -= block.max(axis=2, keepdims=True)
        np.exp(block, out=block)
        block /= block.sum(axis=2, keepdims=True)
    return scores


def prob_map(rng: np.random.Generator, height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A soft prediction and its truth labels.

    Truth is the argmax of a smooth score field (regions about 32 px
    across). The prediction perturbs that field with a finer smooth field
    and softens it, so region interiors are confident, boundaries are
    uncertain, and the argmax disagrees with truth along some boundaries.
    Everything is built in the one output array, so the generator's
    memory peak stays near the map's own size.
    """
    scores = np.zeros((height, width, CLASSES), dtype=np.float32)
    add_smooth_scores(rng, scores, cell=32, scale=1.0)
    truth = np.argmax(scores, axis=2).astype(np.uint16)
    add_smooth_scores(rng, scores, cell=8, scale=0.2)
    pred = softmax_inplace(scores, sharpness=10.0)
    # About 1% void truth pixels in short horizontal runs, as from an unlabeled border.
    starts = rng.integers(0, height * width, size=height * width // 400)
    for off in range(4):
        truth.reshape(-1)[np.minimum(starts + off, height * width - 1)] = VOID
    return pred, truth


def ten1_bytes(arr: np.ndarray) -> bytes:
    """TEN1 encoding (magic, dtype code, rank, u64 dims, little-endian payload)."""
    code = {np.dtype("<f4"): 0, np.dtype("<u2"): 1, np.dtype("<u1"): 2}[arr.dtype]
    header = struct.pack("<4sBB", b"TEN1", code, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    return header + np.ascontiguousarray(arr).tobytes()


def parse_ten1(data: bytes) -> np.ndarray:
    """Decode TEN1 bytes; raises ValueError on any malformed header or size."""
    magic, code, ndim = struct.unpack_from("<4sBB", data, 0)
    if magic != b"TEN1" or code not in (0, 1, 2):
        raise ValueError(f"bad TEN1 header {data[:6]!r}")
    dims = struct.unpack_from(f"<{ndim}Q", data, 6)
    dtype = (np.dtype("<f4"), np.dtype("<u2"), np.dtype("<u1"))[code]
    payload = memoryview(data)[6 + 8 * ndim :]
    if len(payload) != int(np.prod(dims, dtype=np.int64)) * dtype.itemsize:
        raise ValueError(f"TEN1 payload of {len(payload)} bytes does not fit dims {dims}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims)


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).data).hexdigest()


def pgm_bytes(labels: np.ndarray, classes: int) -> bytes:
    """Binary PGM of a void-free label map with ``gray = label * 254 // (K - 1)``."""
    gray = (labels.astype(np.int64) * 254 // (classes - 1)).astype(np.uint8)
    h, w = labels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + gray.tobytes()


def _window_bounds(n: int, radius: int) -> tuple[np.ndarray, np.ndarray]:
    idx = np.arange(n)
    return np.clip(idx - radius, 0, n), np.clip(idx + radius + 1, 0, n)


def boost_references(pred: np.ndarray, combos) -> dict:
    """The ``ruv`` booster recomputed from its documented formula, for each (window, border) in ``combos``.

    ``labels = argmax p``; ``votes`` = one-hot class counts over the
    window divided by the in-bounds (``clip``) or full (``zero``) window
    size; ``conf = sum p ln p``; ``W`` = min-max of conf; output
    ``float32(W * onehot + (1 - W) * votes)`` with the blend in float64.
    Rows are processed in blocks of ``_REF_ROWS``; each block's counts
    come from an int32 summed-area table of just the rows its windows
    reach, so the memory on top of ``pred`` stays a few MiB. Under
    ``clip`` every row must sum to 1 within 1e-5.

    Returns ``{(window, border): (SHA-256 of the output bytes, argmax of the output as uint16)}``.
    """
    h, w, k = pred.shape
    classes = np.arange(k)
    labels = np.argmax(pred, axis=2).astype(np.uint8)
    conf = np.empty((h, w))
    for r0 in range(0, h, _REF_ROWS):
        p = pred[r0 : r0 + _REF_ROWS].astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            conf[r0 : r0 + _REF_ROWS] = np.where(p > 0.0, p * np.log(p), 0.0).sum(axis=2)
    lo, hi = conf.min(), conf.max()
    if hi == lo:
        weights = np.ones((h, w), np.float32)
    else:
        conf -= lo
        conf /= hi - lo
        weights = conf.astype(np.float32)
    del conf
    reach = max(window for window, _ in combos) // 2
    bounds = {window: (_window_bounds(h, window // 2), _window_bounds(w, window // 2)) for window, _ in combos}
    shas = {combo: hashlib.sha256() for combo in combos}
    hard = {combo: np.empty((h, w), np.uint16) for combo in combos}
    for r0 in range(0, h, _REF_ROWS):
        rows = slice(r0, min(r0 + _REF_ROWS, h))
        s0, s1 = max(r0 - reach, 0), min(r0 + _REF_ROWS + reach, h)
        sat = np.zeros((s1 - s0 + 1, w + 1, k), dtype=np.int32)
        np.cumsum(labels[s0:s1, :, None] == classes, axis=0, dtype=np.int32, out=sat[1:, 1:])
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        wt = weights[rows].astype(np.float64)[:, :, None]
        onehot = (labels[rows, :, None] == classes).astype(np.float64)
        for window, border in combos:
            (r_lo, r_hi), (c_lo, c_hi) = bounds[window]
            top, bottom = sat[r_lo[rows] - s0], sat[r_hi[rows] - s0]
            counts = bottom[:, c_hi] - top[:, c_hi] - bottom[:, c_lo] + top[:, c_lo]
            if border == "clip":
                denom = ((r_hi[rows] - r_lo[rows])[:, None] * (c_hi - c_lo)[None, :])[:, :, None]
            else:
                denom = np.int64(window * window)
            votes = (counts / denom).astype(np.float32)
            out = (wt * onehot + (1.0 - wt) * votes.astype(np.float64)).astype(np.float32)
            if border == "clip" and np.abs(out.sum(axis=2, dtype=np.float64) - 1.0).max() > 1e-5:
                raise AssertionError(f"clip rows in block {r0} do not sum to 1 for window {window}")
            shas[(window, border)].update(out.data)
            hard[(window, border)][rows] = np.argmax(out, axis=2)
    return {combo: (shas[combo].hexdigest(), hard[combo]) for combo in combos}
