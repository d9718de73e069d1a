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
every entry stays inside the [min, max] envelope of its two sources.

One internal pipeline serves :func:`boost`, :func:`boost_report`, the
simulator and ``segboost boost``, and it takes the class axis. The public
functions pass their single ``(H, W, K)`` map as a class-last stack of
one; the simulator passes its class-major ``(2, K, batch, H, W)``
probabilities as they are. Either way the pipeline walks the stack in
bands of rows, with one kernel per stage for both layouts, so no map-size
temporary exists beside the float32 output. It takes each band through
one getter and gives each boosted band to one sink, so the command line
reads the bands from its TEN1 file and writes them to its output file,
and holds no map-size array at all: at 1024x2048x19 its traced peak is
about 0.5x the input. On two CPUs or more, each pass of more than one band
starts a helper thread, splits its bands with it, two bands in flight
while numpy's kernels release the GIL, and joins it before the pass
ends, so no thread outlives a call: at 1024x2048x19 the traced peak is
about 1.4x the input, and a call takes about half its one-thread time.
The threads of a pass never wait on each other. A stack of one band, as
the simulator's are, starts no thread. Every image of a stack gets the
bytes a call of its own would give, in either layout, at any band height
and on any number of threads. :func:`boost_report` counts its
``class_vote_mass`` only when it is first read, with one more vote pass
over the bands of the input's argmax on the reading thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .confidence import _image_weights, _neg_entropy
from .tensors import ValidationError, _argmax, _check_shape, _is_probmap, _one_hot, validate_probmap
from .voting import VicinitySpec, _band_votes

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
    boosted: BoostedLabel  # the label these numbers describe
    labels: np.ndarray  # (H, W) uint16 argmax of the boosted label
    _before: np.ndarray = field(repr=False)  # (H, W) uint16 argmax of the input

    @cached_property
    def class_vote_mass(self) -> np.ndarray:
        """(K,) float64 mean vote per class, counted when first read: one more vote pass, on this thread.

        The bands of the input's argmax add their votes to a running sum in
        band order, each band's one float64 buffer reduced with that sum as
        its leading row, so one reduction adds them pixel by pixel in the
        order of ``votes.mean(axis=(0, 1), dtype=np.float64)`` for two
        classes or more. (For one class numpy sums pairwise, which gives the
        same bits wherever the float64 sum is exact, as it is for every
        window that fits a map of fewer than 2**28 pixels.) No byte depends
        on the band height.
        """
        (h, w), k = self._before.shape, self.boosted.classes
        mass = np.zeros(k)
        for r0 in range(0, h, _BAND_ROWS):
            rows = slice(r0, min(r0 + _BAND_ROWS, h))
            votes = _votes(self._before, rows, k, -1, self.boosted.vicinity, self.boosted.policy)[1]
            tally = np.empty((1 + (rows.stop - rows.start) * w, k))
            tally[0] = mass
            tally[1:].reshape(rows.stop - rows.start, w, k)[...] = votes
            mass = np.add.reduce(tally, axis=0)
        return mass / (h * w)


def blend(p_oh: np.ndarray, votes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-pixel convex combination ``W * p_oh + (1 - W) * votes`` as float32.

    ``p_oh`` is a one-hot map: each row has at most one non-zero entry,
    which counts as 1, and none on a void pixel. A row with more, or a
    weight that is not a number in [0, 1], raises :class:`ValidationError`.
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
    hot = p_oh != 0
    count = hot.sum(axis=2)
    if (count > 1).any():
        r, c = np.argwhere(count > 1)[0]
        raise ValidationError(f"one-hot row at pixel ({r}, {c}) has {count[r, c]} non-zero entries")
    outside = ~((weights >= 0) & (weights <= 1))  # NaN too
    if outside.any():
        r, c = np.argwhere(outside)[0]
        raise ValidationError(f"weight {weights[r, c]!s} at pixel ({r}, {c}) is not in [0, 1]")
    out = np.empty(votes.shape)  # float64 holds W exactly whatever the weights' dtype
    _blend(hot, np.array(votes, dtype=np.float64), weights[:, :, None], out)
    return out.astype(np.float32)


def _blend(hot: np.ndarray, mixed: np.ndarray, weights: np.ndarray, out: np.ndarray) -> None:
    """The :func:`blend` kernel: ``W * hot + (1 - W) * votes`` in float64, rounded once into ``out``.

    ``hot`` is a bool one-hot, ``mixed`` a float64 copy of the votes, which
    this scales by ``1 - W`` in place, and ``weights`` has the class axis
    at length 1. ``out`` first takes ``W * hot``, exactly ``W`` or 0 in a
    dtype that holds ``W``, so no map-size temporary is made. For votes
    that are not -0.0 the scaled votes are not either, and adding +0.0 off
    the label changes no bit.
    """
    mixed *= 1.0 - weights.astype(np.float64)
    np.multiply(hot, weights, out=out)
    mixed += out
    out[...] = mixed


# Rows per band of the pipeline, and the most bands in flight: the calling thread and
# _THREADS - 1 helper threads of its own run the bands of each pass. No output byte depends on either.
_BAND_ROWS = 32
_THREADS = min(2, os.cpu_count() or 1)


def _split(count: int, band) -> None:
    """Run ``band(i)`` for each ``i`` in ``range(count)``, thread ``t`` of T taking bands t, t + T, ...

    T is ``min(_THREADS, count)``, and at least 1: thread 0 is the caller,
    which starts the other T - 1 for this call and joins them before it
    returns or raises what a band raised, so no thread outlives the call.
    The threads never wait on each other within the call. Once a band
    raises, every other thread stops before its next band; when all have
    stopped, the caller raises the exception of the lowest band that raised.
    """
    threads = max(min(_THREADS, count), 1)
    raised = {}
    stopped = False

    def share(t: int) -> None:
        nonlocal stopped
        try:
            for i in range(t, count, threads):
                if stopped:
                    break
                band(i)
        except BaseException as exc:  # raised again on the caller
            raised[i] = exc
            stopped = True

    helpers = [threading.Thread(target=share, args=(t,), name="segboost-bands") for t in range(1, threads)]
    try:
        for helper in helpers:
            helper.start()
        share(0)
        for helper in helpers:
            helper.join()
    finally:
        stopped = True  # after an interrupt, a helper still in its share ends it at its next band
    if raised:
        raise raised[min(raised)]


def _votes(labels: np.ndarray, rows: slice, k: int, axis: int, vicinity: VicinitySpec, policy: str):
    """``(hot, votes)`` for the image ``rows`` of a label stack, in the maps' layout with the class ``axis``.

    ``hot`` is the bool one-hot of those rows; ``votes`` are what ``policy``
    blends with it there: for ``ruv`` the window votes counted over the
    one-hot of the rows and a halo of the window's row radius, for
    ``uniform`` the scalar 1/K, for ``none`` the one-hot itself.
    """
    h, w = labels.shape[-2:]
    pixel = (-3, -2) if axis == -1 else (-2, -1)  # the row and column axes of the maps
    cols = (slice(None),) * -pixel[1]  # the index of the axes after the rows
    reach = vicinity.height // 2 if policy == "ruv" else 0
    lo, hi = max(rows.start - reach, 0), min(rows.stop + reach, h)
    block = _one_hot(labels[..., lo:hi, :], k, axis)
    own = slice(rows.start - lo, rows.stop - lo)
    hot = block[(..., own) + cols]
    if policy == "ruv":  # the pixel axes first, one channel per image and class
        grid = np.moveaxis(block, pixel, (0, 1))
        votes = _band_votes(grid.reshape(hi - lo, w, math.prod(grid.shape[2:])), vicinity, own)
        return hot, np.moveaxis(votes.reshape((rows.stop - rows.start, w) + grid.shape[2:]), (0, 1), pixel)
    if policy == "uniform":
        return hot, np.float32(1.0 / k)  # the value of vote_uniform
    return hot, hot


def _run(stack, vicinity: VicinitySpec, policy: str, report: bool, axis: int = -1, sink=None):
    """Boost a stack of maps with its class ``axis``, each stage once for each image row.

    The stack is ``(N, H, W, K)`` with ``axis=-1``, or class-major with its
    pixel axes last, as the simulator's ``(2, K, batch, H, W)`` with
    ``axis=1``. Returns ``(labels, boosted, confidence, weights,
    boosted_labels)`` in its layout: ``boosted`` has the stack's shape and
    the planes drop the class axis. Weights are ``None`` under ``none``
    unless ``report`` asks for them; ``confidence``, each image's mean with
    the plane axes at length 1, and ``boosted_labels``, the argmax of the
    boosted maps, come with ``report``. A map with no pixels that needs
    weights is rejected before any band.

    The stack is read only through its ``shape`` and the one band getter
    ``stack[..., rows, :, ...]``: an array gives a view of its rows, and a
    :class:`~segboost.tensors._Ten1Rows` reads them from a TEN1 file. Each
    finished band goes to one sink: by default the preallocated float32
    output. With ``sink``, once pass 1 has passed, ``sink()`` is called on
    the calling thread. If it returns ``put``, no map-size output exists
    and ``boosted`` is ``None``: each band is boosted into a band-sized
    float32 buffer and handed to ``put(rows, band)`` on the thread that ran
    it. If it returns ``None``, the bands fill the float32 output as by
    default. Pass 2 reads only the label and weight planes, never the stack.

    Bands slice the row axis of all images at once, ``_BAND_ROWS`` rows
    each, and each pass runs its bands on up to ``_THREADS`` threads: the
    caller and helpers that it starts and joins within the pass (see
    :func:`_split`). The bands of a pass write disjoint rows, and numpy
    releases the GIL in their kernels. Pass 1 checks each band and keeps
    only its argmax and confidence planes; once a band fails and every
    thread has stopped, :func:`validate_probmap` checks the whole stack,
    class-last, so the message names the stack's first fault. The min-max
    weights are then taken per image. Pass 2 builds each band's one-hot
    over the band and a halo of the window's row radius, counts votes for
    the band's rows (see :func:`_votes`), blends a float64 copy of them into
    the band's float32 output and, with ``report``, takes the boosted
    argmax. No band waits for another, and no band adds into a sum that
    another band shares. Window counts are integers and confidence is per
    pixel, so no output byte depends on the band height or the thread count.
    """
    if policy not in POLICIES:
        raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
    planes = list(stack.shape)
    k = planes.pop(axis)
    h, w = planes[-2:]
    cols = (slice(None),) * (2 if axis == -1 else 1)  # the index of the axes after the rows
    weigh = policy != "none" or report
    if weigh and not h * w:  # before any band: a map with no pixels has no confidence range to weight by
        raise ValidationError(f"confidence plane of shape {(h, w)} has no pixels")
    bands = [slice(r0, min(r0 + _BAND_ROWS, h)) for r0 in range(0, h if w else 0, _BAND_ROWS)]
    labels = np.empty(planes, dtype=np.uint16)
    conf = np.empty(planes) if weigh else None

    def check(i):
        rows = bands[i]
        band = stack[(..., rows) + cols]
        if not _is_probmap(band, axis):  # one check for NaN, range and row sums; the kernels below skip it
            raise ValidationError("probability map failed validation")  # should the whole-stack check pass
        labels[..., rows, :] = _argmax(band, axis)
        if weigh:
            conf[..., rows, :] = _neg_entropy(band, axis)

    try:
        _split(len(bands), check)
    except ValidationError:  # a band failed, and every thread has stopped
        last = np.moveaxis(stack[(..., slice(None)) + cols], axis, -1)
        validate_probmap(last.reshape((-1,) + last.shape[-2:]))
        raise
    weights = _image_weights(conf) if weigh else None
    # each image's mean confidence, so that no confidence plane is held through pass 2
    conf = np.array([c.mean() for c in conf.reshape(-1, h, w)]).reshape(planes[:-2] + [1, 1]) if report else None
    if weigh:  # the weights with a class axis of length 1
        wide = list(stack.shape)
        wide[axis] = 1
        wide = weights.reshape(wide)
    put = None if sink is None else sink()
    data = np.empty(stack.shape, dtype=np.float32) if put is None else None
    after = np.empty(planes, dtype=np.uint16) if report else None

    def vote(i):
        rows = bands[i]
        hot, votes = _votes(labels, rows, k, axis, vicinity, policy)
        out = np.empty(hot.shape, dtype=np.float32) if put else data[(..., rows) + cols]
        if policy == "none":
            out[...] = votes
        else:
            mixed = np.empty(out.shape)
            mixed[...] = votes
            _blend(hot, mixed, wide[(..., rows) + cols], out)
        if report:
            after[..., rows, :] = _argmax(out, axis)
        if put:
            put(rows, out)

    _split(len(bands), vote)
    return labels, data, conf, weights, after


def _summary(before: np.ndarray, conf: np.ndarray, weights: np.ndarray, after: np.ndarray) -> dict:
    """``changed_fraction``, ``mean_weight`` and ``mean_confidence`` of one image's outputs from :func:`_run`."""
    return dict(
        changed_fraction=float(np.mean(before != after)),
        mean_weight=float(weights.mean(dtype=np.float64)),
        mean_confidence=conf.item(),  # the (1, 1) mean
    )


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
    return BoostedLabel(data[0], vicinity, policy)


def boost_report(
    pred: np.ndarray,
    vicinity: VicinitySpec = VicinitySpec(),
    policy: str = "ruv",
) -> BoostReport:
    """Boost a map once and summarize it; ``boosted`` is the label, ``labels`` its argmax."""
    before, data, conf, weights, after = (a[0] for a in _run(_check_shape(pred)[None], vicinity, policy, report=True))
    return BoostReport(
        **_summary(before, conf, weights, after),
        boosted=BoostedLabel(data, vicinity, policy),
        labels=after,
        _before=before,
    )
