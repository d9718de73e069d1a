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
never builds a float64 one-hot: it scales the votes by ``1 - W`` and adds
``W`` at the set one-hot entries, which for weights in [0, 1] and
non-negative votes gives the same bits as the formula above.

One internal pipeline serves :func:`boost`, :func:`boost_report` and the
simulator, and it takes the class axis. The public functions pass their
single ``(H, W, K)`` map as a class-last stack of one; the simulator
passes its class-major ``(2, K, batch, H, W)`` probabilities as they are,
and there each class-axis stage runs K whole-plane operations. Every
image of a stack gets the bytes a call of its own would give, in either
layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import _image_weights, _neg_entropy
from .tensors import (ValidationError, _argmax, _check_planes, _check_shape, _one_hot_planes, one_hot,
                      validate_probmap)
from .voting import VicinitySpec, vote_integral, vote_uniform

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
    """Per-pixel convex combination ``W * p_oh + (1 - W) * votes`` as float32."""
    p_oh = np.asarray(p_oh)
    votes = np.asarray(votes)
    weights = np.asarray(weights)
    if p_oh.shape != votes.shape:
        raise ValidationError(f"shape mismatch: one-hot {p_oh.shape} vs votes {votes.shape}")
    if weights.shape != p_oh.shape[:2]:
        raise ValidationError(
            f"weights shape {weights.shape} does not match map shape {p_oh.shape[:2]}"
        )
    w = weights.astype(np.float64)[:, :, None]
    mixed = np.multiply(1.0 - w, votes, dtype=np.float64)
    # One-hot entries are exactly 0 or 1: add W where set, and elsewhere skip
    # adding W * 0, which could not change a bit.
    np.add(mixed, w, out=mixed, where=p_oh.astype(bool))
    return mixed.astype(np.float32)


def _blend_planes(p_oh: np.ndarray, votes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """:func:`blend` of ``(K, ..., H, W)`` one-hot and vote planes with ``(..., H, W)`` weights.

    It adds ``W * one_hot`` unmasked: the scaled votes are never -0.0 and
    ``W * 0`` is +0.0, so the planes off the label gain no bit.
    """
    mixed = np.multiply(1.0 - weights.astype(np.float64), votes, dtype=np.float64)
    mixed += p_oh * weights
    return mixed.astype(np.float32)


def _run(stack, vicinity: VicinitySpec, policy: str, report: bool, axis: int = -1):
    """Boost a stack of maps with its class ``axis``, each stage once for all its images.

    Returns ``(labels, boosted, confidence, weights, votes)``. A class-last
    stack, ``(N, H, W, K)`` with ``axis=-1``, takes the class-last kernels
    (``np.argmax``, :func:`one_hot`, :func:`blend`) on the tall
    ``(N*H, W, K)`` view, and every output comes tall, so for one image in
    the ``(H, W, ...)`` shapes. A class-major stack has its pixel axes last,
    as the simulator's ``(2, K, batch, H, W)``, and each class-axis stage
    runs K whole-plane operations; the outputs keep the stack's layout
    (labels, confidence and weights without the class axis). Every array
    holds the bytes the other layout gives for the same maps.

    Votes come from one window-sum pass over the one-hot laid out as
    ``(H, W, channels)``, one channel per image and class; window sums
    never mix channels, so no image bleeds into another. The min-max
    weights are per image. Under ``none`` the votes are the one-hot label,
    and confidence and weights are ``None`` unless ``report`` asks for them.
    """
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    # One check for NaN, range and row sums; the kernels below skip it.
    last = axis == -1
    if last:
        n, h, w, k = stack.shape
        pred = validate_probmap(stack.reshape(n * h, w, k))
    else:
        k, (h, w) = stack.shape[axis], stack.shape[-2:]
        pred = _check_planes(stack, axis)
    labels = _argmax(pred, axis)
    p_oh = one_hot(labels, k) if last else _one_hot_planes(labels, k)  # (N*H, W, K) or (K, ..., H, W)
    conf = weights = None
    if policy == "none":
        votes = p_oh.astype(np.float32)
    elif policy == "uniform":
        votes = vote_uniform(p_oh) if last else np.full(p_oh.shape, 1.0 / k, dtype=np.float32)
    else:
        pixel_axes = (1, 2) if last else (-2, -1)  # of (N, H, W, K) or (K, ..., H, W)
        grid = np.moveaxis(p_oh.reshape(n, h, w, k) if last else p_oh.view(np.uint8), pixel_axes, (0, 1))
        votes = vote_integral(grid.reshape(h, w, math.prod(grid.shape[2:])), vicinity).reshape(grid.shape)
        votes = np.moveaxis(votes, (0, 1), pixel_axes).reshape(p_oh.shape)
    if policy != "none" or report:
        conf = _neg_entropy(pred, axis)
        weights = _image_weights(conf.reshape(n, h, w)).reshape(conf.shape) if last else _image_weights(conf)
    if policy == "none":
        data = votes
    else:
        data = (blend if last else _blend_planes)(p_oh, votes, weights)
    if not last:
        data, votes = np.moveaxis(data, 0, axis), np.moveaxis(votes, 0, axis)
    return labels, data, conf, weights, votes


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
    before, data, conf, weights, votes = _run(_check_shape(pred)[None], vicinity, policy, report=True)
    after = _argmax(data)
    return BoostReport(
        changed_fraction=float(np.mean(before != after)),
        mean_weight=float(weights.mean(dtype=np.float64)),
        mean_confidence=float(conf.mean()),
        class_vote_mass=votes.mean(axis=(0, 1), dtype=np.float64),
        boosted=BoostedLabel(data, vicinity, policy),
        labels=after,
    )
