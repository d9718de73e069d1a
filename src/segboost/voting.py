"""Regional vote maps: per-pixel class frequencies over a centered window.

Given a one-hot pseudo label, each pixel receives the distribution of
classes voted by its ``h_v x w_v`` rectangular neighborhood. Two border
conventions are supported:

* ``clip``  - the window is clipped to the image and counts are divided
  by the in-bounds window size, so every pixel gets an exact probability
  distribution (this is the default),
* ``zero``  - out-of-bounds neighbors vote for nothing and counts are
  divided by the fixed window size ``h_v * w_v``, mimicking a
  zero-padded constant-kernel convolution; border rows then sum to the
  in-bounds fraction of the window rather than to 1.

All counting is integer and the division happens once at the end, so the
reference path (:func:`vote_naive`) and the summed-area-table path
(:func:`vote_integral`) produce bit-identical float32 output, whatever the
table's width or the threads the work is split across: the booster counts
its row bands on two threads, each from a table over the band and its halo.
Its bool one-hot's table is only as wide as the window area needs (``uint8``
up to 255 pixels) and may wrap around: unsigned sums are exact modulo
2**bits, so a window sum that fits the dtype comes out exact. The
reference path counts each window and measures its in-bounds area in its
own loop; it shares only that final division with the path it checks.

Void pixels (all-zero one-hot rows) contribute nothing to numerators;
denominators are not reduced for them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import ValidationError, _is_int

BORDER_MODES = ("clip", "zero")


@dataclass
class OpCounter:
    """Tally of scalar arithmetic performed, for complexity assertions.

    Each voting routine reports exactly how many scalar additions,
    subtractions, multiplications, and divisions its array operations
    execute, which makes window-size-independence testable without
    wall-clock timing.
    """

    ops: int = 0

    def tally(self, n: int) -> None:
        self.ops += int(n)


@dataclass(frozen=True)
class VicinitySpec:
    """Centered voting window: odd height/width and a border mode."""

    height: int = 5
    width: int = 5
    border: str = "clip"

    def __post_init__(self):
        for name, v in (("height", self.height), ("width", self.width)):
            if not _is_int(v):
                raise ValidationError(f"vicinity {name} must be an integer, got {v!r}")
            if v < 1 or v % 2 == 0:
                raise ValidationError(
                    f"vicinity {name} must be odd and >= 1, got {v} (no centered window exists)"
                )
        if self.border not in BORDER_MODES:
            raise ValidationError(f"border mode must be one of {BORDER_MODES}, got {self.border!r}")

    @property
    def size(self) -> int:
        return self.height * self.width


def _check_one_hot(p_oh: np.ndarray) -> np.ndarray:
    p_oh = np.asarray(p_oh)
    if p_oh.ndim != 3 or p_oh.shape[2] < 1:
        raise ValidationError(f"one-hot map must be (H, W, K), got shape {p_oh.shape}")
    if not np.issubdtype(p_oh.dtype, np.integer):
        raise ValidationError(f"one-hot map must be integer-typed, got {p_oh.dtype}")
    return p_oh


def _window_sums(values: np.ndarray, r_rows: int, r_cols: int, dtype, rows: slice = slice(None)):
    """Sums of ``(H, W, ...)`` values over centered windows clipped to the image, for ``rows`` of it.

    Returns the sums in ``dtype`` and the in-bounds window areas, int64 and
    ``(len(rows), W)``. The table covers all H rows, so rows outside
    ``rows`` add to the windows of rows inside but get no sums of their own.
    The summed-area table (Crow 1984) is two cumulative sums in
    ``dtype``, rows then columns, written into a buffer padded by the window
    radius: zeros at the top and left, the last table row and column
    repeated at the bottom and right. Every clipped window corner is then a
    plain slice of the buffer, and the four corners are combined in place as
    ``((bottom_hi - top_hi) - bottom_lo) + top_lo``, the same order as the
    clipped-index formula, so float tables keep their bits.

    The row sums are a copy and a running ``np.add`` of each whole row onto
    the one above it: the same additions in the same order as ``np.cumsum``
    down the rows, so the same bits, without its walk down the table at a
    stride of a whole row. The column sums are ``np.cumsum``.
    """
    h, w = values.shape[:2]
    # A radius past the image edge clips to the same corners as one at the edge.
    rr, rc = min(r_rows, h), min(r_cols, w)
    sat = np.zeros((h + 2 * rr + 1, w + 2 * rc + 1) + values.shape[2:], dtype=dtype)
    body = sat[rr + 1:rr + 1 + h, rc + 1:rc + 1 + w]
    body[...] = values
    for i in range(1, h):
        np.add(body[i - 1], body[i], out=body[i])
    np.cumsum(body, axis=1, out=body, dtype=dtype)  # without dtype, numpy sums a narrow integer in int64
    sat[:, rc + 1 + w:] = sat[:, rc + w:rc + w + 1]
    sat[rr + 1 + h:] = sat[rr + h:rr + h + 1]
    top, stop, _ = rows.indices(h)
    lo_r, hi_r = slice(top, stop), slice(2 * rr + 1 + top, 2 * rr + 1 + stop)
    lo_c, hi_c = slice(0, w), slice(2 * rc + 1, 2 * rc + 1 + w)
    sums = np.subtract(sat[hi_r, hi_c], sat[lo_r, hi_c])
    sums -= sat[hi_r, lo_c]
    sums += sat[lo_r, lo_c]
    row_at, col_at = np.arange(top, stop), np.arange(w)
    r_span = np.minimum(row_at + r_rows + 1, h) - np.maximum(row_at - r_rows, 0)
    c_span = np.minimum(col_at + r_cols + 1, w) - np.maximum(col_at - r_cols, 0)
    return sums, r_span[:, None] * c_span[None, :]


def _finish(counts: np.ndarray, area: np.ndarray, v: VicinitySpec, ops: OpCounter | None):
    # Integer counts / exact float64 divisor, in float64, rounded once into
    # float32; shared by both paths so bit-identity reduces to equality
    # of the integer counts, whatever their width.
    clip = v.border == "clip"
    if ops is not None:
        ops.tally(counts.size + (3 * area.size if clip else 0))  # area: 2 subtractions + 1 product
    votes = np.empty(counts.shape, dtype=np.float32)  # the area plane is cast once, not at each of its K uses
    np.divide(counts, area.astype(np.float64)[:, :, None] if clip else np.float64(v.size), out=votes)
    return votes


def vote_naive(p_oh: np.ndarray, v: VicinitySpec, ops: OpCounter | None = None) -> np.ndarray:
    """Regional vote map by direct per-pixel counting (reference path).

    Each window is clipped to the image, summed and measured here, with no
    summed-area table. Output float32 ``(H, W, K)``.
    """
    p_oh = _check_one_hot(p_oh)
    h, w, k = p_oh.shape
    rh, rw = v.height // 2, v.width // 2
    counts = np.empty((h, w, k), dtype=np.int64)
    area = np.empty((h, w), dtype=np.int64)
    total = 0
    for i in range(h):
        r0, r1 = max(i - rh, 0), min(i + rh + 1, h)
        for j in range(w):
            c0, c1 = max(j - rw, 0), min(j + rw + 1, w)
            counts[i, j] = p_oh[r0:r1, c0:c1].sum(axis=(0, 1), dtype=np.int64)
            area[i, j] = size = (r1 - r0) * (c1 - c0)
            total += (size - 1) * k
    if ops is not None:
        ops.tally(total)
    return _finish(counts, area, v, ops)


def vote_integral(p_oh: np.ndarray, v: VicinitySpec, ops: OpCounter | None = None) -> np.ndarray:
    """Regional vote map via per-class summed-area tables; bit-identical to vote_naive.

    The arithmetic volume depends only on the map shape, never on the
    window size: two cumulative sums build the table and four corner
    lookups recover each window sum.
    """
    p_oh = _check_one_hot(p_oh)
    h, w, k = p_oh.shape
    if ops is not None:
        ops.tally((h - 1) * w * k + h * (w - 1) * k)  # the two cumulative sums
        ops.tally(3 * h * w * k)  # corner combination
    return _band_votes(p_oh, v, slice(None), ops)


def _band_votes(p_oh: np.ndarray, v: VicinitySpec, rows: slice, ops: OpCounter | None = None) -> np.ndarray:
    """:func:`vote_integral` of ``rows`` of an ``(H, W, K)`` integer or bool one-hot whose other rows are a halo.

    Halo rows vote into the windows of ``rows`` but are not voted on: the
    table covers the whole block, and corners are combined and divided only
    for ``rows``. A block clipped to the image at a window's row radius
    around ``rows`` gives those rows the bytes of the whole image's votes.
    """
    h, w = p_oh.shape[:2]
    if p_oh.dtype == bool:  # each count is at most the window area: the table may wrap (see the module text)
        dtype = np.uint8 if v.size <= 255 else np.uint32 if v.size < 2**32 else np.uint64  # uint16 sums slower
    else:  # any integer map; a 0/1 map's counts are at most h * w, so int32 cannot overflow below 2**31 pixels
        dtype = np.int32 if h * w < 2**31 else np.int64
    counts, area = _window_sums(p_oh, v.height // 2, v.width // 2, dtype, rows)
    return _finish(counts, area, v, ops)


def vote_uniform(p_oh: np.ndarray) -> np.ndarray:
    """Region-agnostic alternative: every pixel gets the uniform distribution.

    Kept as the degraded baseline booster for ablations; it ignores the
    image's own label field entirely.
    """
    p_oh = _check_one_hot(p_oh)
    h, w, k = p_oh.shape
    return np.full((h, w, k), 1.0 / k, dtype=np.float32)
