"""Uncertainty-boosted soft pseudo labels.

The pipeline: take a model's probability map, harden it to a one-hot
pseudo label, build a per-pixel regional class distribution from that
label field, and blend the two convexly per pixel with weights from the
confidence plane,

    boosted = W * one_hot + (1 - W) * votes.

Confident pixels keep their one-hot label; unconfident pixels are pulled
toward the class distribution of their own neighborhood. Policies:

* ``ruv``     - regional votes over a centered window (the real booster),
* ``uniform`` - region-agnostic uniform votes (ablation baseline, known
  to degrade results),
* ``none``    - pass the one-hot label through untouched.

The blend runs in float64 and is rounded to float32 once, so rows at
weight exactly 0 or 1 reproduce the votes / one-hot rows bit-for-bit and
every entry stays inside the [min, max] envelope of its two sources. It
never builds a float64 one-hot: it scales a float64 copy of the votes by
``1 - W`` and adds ``W`` at each pixel's label index, which for weights in
[0, 1] and non-negative votes gives the same bits as the formula above.

One internal pipeline serves :func:`boost`, :func:`boost_report` and the
simulator, and it takes the class axis. The public functions pass their
single ``(H, W, K)`` map as a class-last stack of one, which the pipeline
walks in row bands: no full-size temporary exists beside the float32
output, so the traced peak at 1024x2048x19 is about 1.4x the input. The
simulator passes its class-major ``(2, K, batch, H, W)`` probabilities as
they are, and there each class-axis stage runs K whole-plane operations.
Every image of a stack gets the bytes a call of its own would give, in
either layout and at any band height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import _image_weights, _neg_entropy
from .tensors import (ValidationError, _argmax, _check_planes, _check_shape, _one_hot_planes, one_hot,
                      validate_probmap)
from .voting import VicinitySpec, vote_integral

POLICIES = ("ruv", "uniform", "none")


@dataclass(frozen=True)
class BoostedLabel:
    """Soft pseudo label plus the settings that produced it."""

    data: np.ndarray  # (H, W, K) float32
    vicinity: VicinitySpec
    policy: str

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def classes(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class BoostReport:
    """Observables worth inspecting before retraining on boosted labels."""

    changed_fraction: float  # pixels whose argmax moved
    mean_weight: float
    mean_confidence: float
    class_vote_mass: np.ndarray  # (K,) mean vote per class
    boosted: BoostedLabel  # the label these numbers describe
    labels: np.ndarray  # (H, W) uint16 argmax of the boosted label


def blend(p_oh: np.ndarray, votes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-pixel convex combination ``W * p_oh + (1 - W) * votes`` as float32.

    ``p_oh`` is a one-hot map: each row has at most one non-zero entry,
    which counts as 1, and none on a void pixel. A row with more raises
    :class:`ValidationError`.
    """
    p_oh = np.asarray(p_oh)
    votes = np.asarray(votes)
    weights = np.asarray(weights)
    if p_oh.shape != votes.shape:
        raise ValidationError(f"shape mismatch: one-hot {p_oh.shape} vs votes {votes.shape}")
    if weights.shape != p_oh.shape[:2]:
        raise ValidationError(
            f"weights shape {weights.shape} does not match map shape {p_oh.shape[:2]}"
        )
    k = p_oh.shape[2]
    hot = p_oh != 0
    count = hot.sum(axis=2)
    if (count > 1).any():
        r, c = np.argwhere(count > 1)[0]
        raise ValidationError(f"one-hot row at pixel ({r}, {c}) has {count[r, c]} non-zero entries")
    labels = np.where(count == 1, (hot * np.arange(k)).sum(axis=2), k)  # k marks a void pixel
    out = np.empty(votes.shape, dtype=np.float32)
    _blend(labels, np.array(votes, dtype=np.float64, order="C"), weights, out)
    return out


def _blend(labels: np.ndarray, mixed: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """The :func:`blend` kernel: write ``W`` at each pixel's label plus ``(1 - W) * votes`` into ``out``.

    ``mixed`` is a C-ordered float64 copy of the ``(..., K)`` votes, which
    this scales by ``1 - W`` in place before adding ``W`` at the label index
    of each pixel; a label of K or more (void) gets nothing. For votes that
    are not -0.0 that is the float64 formula over a one-hot of the labels,
    rounded once into the float32 ``out``: adding ``W * 0`` could not change
    a bit.
    """
    k = mixed.shape[-1]
    w = weights.reshape(-1).astype(np.float64)
    flat = mixed.reshape(-1, k)  # a view: mixed is C-ordered
    flat *= (1.0 - w)[:, None]
    labels = labels.reshape(-1)
    hit = np.flatnonzero(labels < k)
    flat[hit, labels[hit]] += w[hit]
    out[...] = mixed


def _blend_planes(p_oh: np.ndarray, votes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`blend` of ``(K, ..., H, W)`` one-hot and vote planes with ``(..., H, W)`` weights.

    It adds ``W * one_hot`` unmasked: the scaled votes are never -0.0 and
    ``W * 0`` is +0.0, so the planes off the label gain no bit.
    """
    mixed = np.multiply(1.0 - weights.astype(np.float64), votes, dtype=np.float64)
    mixed += p_oh * weights
    return mixed.astype(np.float32)


# Rows per band of the class-last pipeline; no output byte depends on it.
_BAND_ROWS = 64


def _run(stack, vicinity: VicinitySpec, policy: str, report: bool, axis: int = -1):
    """Boost a stack of maps with its class ``axis``, each stage once for each image row.

    Returns ``(labels, boosted, confidence, weights, vote_mass,
    boosted_labels)``. Confidence and weights are ``None`` under ``none``
    unless ``report`` asks for them; ``vote_mass``, the ``(N, K)`` mean
    vote per class of each image, and ``boosted_labels``, the argmax of
    the boosted maps, come only from a class-last stack with ``report``.

    A class-last stack, ``(N, H, W, K)`` with ``axis=-1``, is walked in row
    bands of ``_BAND_ROWS``, image by image, and every output comes tall:
    ``(N*H, W, ...)``, so for one image in the ``(H, W, ...)`` shapes. Pass 1
    validates each band and keeps only its argmax and confidence planes;
    a band that fails makes :func:`validate_probmap` check the whole stack,
    so the message names the stack's first fault. The min-max weights are
    then taken per image. Pass 2 builds each band's one-hot, window sums
    and votes over the band and a halo of the window's row radius, blends
    them straight into the preallocated float32 output, takes the boosted
    argmax and adds the votes to the vote mass pixel by pixel, in the order
    of ``votes.mean(axis=(0, 1), dtype=np.float64)`` for two classes or
    more. (For one class numpy sums pairwise, which gives the same bits
    wherever the float64 sum is exact, as it is for every window that fits
    a map of fewer than 2**28 pixels.) Window counts are integers and
    confidence is per pixel, so no output byte depends on the band height.

    A class-major stack has its pixel axes last, as the simulator's
    ``(2, K, batch, H, W)``, and is boosted whole, see :func:`_run_planes`.
    """
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    if axis != -1:
        return _run_planes(stack, vicinity, policy, report, axis)
    n, h, w, k = stack.shape
    tall = stack.reshape(n * h, w, k)
    bands = [slice(i * h + r0, i * h + min(r0 + _BAND_ROWS, h)) for i in range(n) for r0 in range(0, h, _BAND_ROWS)]
    weigh = policy != "none" or report
    labels = np.empty((n * h, w), dtype=np.uint16)
    conf = np.empty((n * h, w)) if weigh else None
    for rows in bands:
        band = tall[rows]
        try:  # one check for NaN, range and row sums; the kernels below skip it
            validate_probmap(band)
        except ValidationError:
            validate_probmap(tall)
            raise
        labels[rows] = _argmax(band)
        if weigh:
            conf[rows] = _neg_entropy(band)
    weights = _image_weights(conf.reshape(n, h, w)).reshape(n * h, w) if weigh else None
    data = np.empty((n * h, w, k), dtype=np.float32)
    vote_mass = np.zeros((n, k)) if report else None
    after = np.empty((n * h, w), dtype=np.uint16) if report else None
    reach = vicinity.height // 2
    for rows in bands:
        image, top = divmod(rows.start, h)
        if policy == "ruv":
            lo, hi = rows.start - min(reach, top), min(rows.stop + reach, (image + 1) * h)
            votes = vote_integral(one_hot(labels[lo:hi], k), vicinity)[rows.start - lo:rows.stop - lo]
        elif policy == "uniform":
            votes = np.float32(1.0 / k)  # the value of vote_uniform
        else:
            votes = one_hot(labels[rows], k)
        if weigh:
            # Row 0 carries the running vote mass, so one reduction continues its pixel-by-pixel sum.
            mixed = np.empty((1 + (rows.stop - rows.start) * w, k))
            band_votes = mixed[1:].reshape(data[rows].shape)
            band_votes[...] = votes
            if report:
                mixed[0] = vote_mass[image]
                vote_mass[image] = np.add.reduce(mixed, axis=0)
        if policy == "none":
            data[rows] = votes
        else:
            _blend(labels[rows], band_votes, weights[rows], data[rows])
        if report:
            after[rows] = _argmax(data[rows])
        votes = mixed = band_votes = None  # freed before the next band takes the same sizes again
    if report:
        vote_mass /= h * w
    return labels, data, conf, weights, vote_mass, after


def _run_planes(stack, vicinity: VicinitySpec, policy: str, report: bool, axis: int):
    """:func:`_run` of a class-major stack, whose pixel axes are last; the outputs keep its layout.

    Each class-axis stage runs K whole-plane operations, and every output
    holds the bytes of the class-last pipeline on the same maps (labels,
    confidence and weights without the class axis). Votes come from one
    window-sum pass over the one-hot laid out as ``(H, W, channels)``, one
    channel per image and class; window sums never mix channels, so no
    image bleeds into another.
    """
    k, (h, w) = stack.shape[axis], stack.shape[-2:]
    pred = _check_planes(stack, axis)
    labels = _argmax(pred, axis)
    p_oh = _one_hot_planes(labels, k)  # (K, ..., H, W)
    conf = weights = None
    if policy == "none":
        votes = p_oh.astype(np.float32)
    elif policy == "uniform":
        votes = np.full(p_oh.shape, 1.0 / k, dtype=np.float32)
    else:
        grid = np.moveaxis(p_oh.view(np.uint8), (-2, -1), (0, 1))
        votes = vote_integral(grid.reshape(h, w, math.prod(grid.shape[2:])), vicinity).reshape(grid.shape)
        votes = np.moveaxis(votes, (0, 1), (-2, -1))
    if policy != "none" or report:
        conf = _neg_entropy(pred, axis)
        weights = _image_weights(conf)
    data = votes if policy == "none" else _blend_planes(p_oh, votes, weights)
    return labels, np.moveaxis(data, 0, axis), conf, weights, None, None


def boost(
    pred: np.ndarray,
    vicinity: VicinitySpec = VicinitySpec(),
    policy: str = "ruv",
) -> BoostedLabel:
    """Produce an uncertainty-boosted soft pseudo label from a probability map.

    Parameters
    ----------
    pred : (H, W, K) float array, rows normalized; the same map that defines
        the pseudo label also drives the confidence plane; NaN, values outside
        [0, 1] or a row sum off 1 by more than 1e-4 raise :class:`ValidationError`
    vicinity : voting window spec (ignored by policies without a region)
    policy : one of ``ruv``, ``uniform``, ``none``

    Returns
    -------
    :class:`BoostedLabel` whose rows are convex combinations of the one-hot
    label and the vote distribution (under border mode ``clip`` they sum
    to 1).
    """
    data = _run(_check_shape(pred)[None], vicinity, policy, report=False)[1]
    return BoostedLabel(data, vicinity, policy)


def boost_report(
    pred: np.ndarray,
    vicinity: VicinitySpec = VicinitySpec(),
    policy: str = "ruv",
) -> BoostReport:
    """Boost a map once and summarize it; ``boosted`` is the label, ``labels`` its argmax."""
    before, data, conf, weights, vote_mass, after = _run(_check_shape(pred)[None], vicinity, policy, report=True)
    return BoostReport(
        changed_fraction=float(np.mean(before != after)),
        mean_weight=float(weights.mean(dtype=np.float64)),
        mean_confidence=float(conf.mean()),
        class_vote_mass=vote_mass[0],
        boosted=BoostedLabel(data, vicinity, policy),
        labels=after,
    )
