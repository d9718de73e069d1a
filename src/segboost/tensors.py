"""Dense map containers, one-hot/argmax transforms, and the TEN1 byte format.

Conventions used throughout the package:

* probability maps are ``(H, W, K)`` float arrays (float32 on disk; any
  float dtype in memory, reductions run in float64),
* label maps are ``(H, W)`` uint16 arrays; the value ``IGNORE_LABEL``
  (65535) marks void pixels that take no part in voting or metrics,
* one-hot maps are ``(H, W, K)`` uint8 arrays with rows summing to 1
  (0 for void pixels).

Everything here is a pure function over immutable inputs (the private
TEN1 readers and writers only read or write the stream they are given);
nothing else keeps state, so all of it is safe to call from multiple
threads. The band reader and writer of a stream, ``_Ten1Rows``, holds a
lock of its own, so bands of one stream may be read or written from
several threads.
"""

from __future__ import annotations

import io
import struct
from numbers import Integral

import numpy as np

IGNORE_LABEL = 65535  # 2**16 - 1, reserved; labels must stay below it

_MAGIC = b"TEN1"
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<u2"), 2: np.dtype("<u1")}
_CODE_FOR_KIND = {"f4": 0, "u2": 1, "u1": 2}
_TEN1_HEADER_MAX = 6 + 8 * 255  # magic, dtype and rank bytes, then up to 255 dims


class TensorFormatError(ValueError):
    """Malformed TEN1 bytes; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ValidationError(ValueError):
    """Input data violates a documented precondition."""


class LabelRangeError(ValidationError):
    """A label value is negative or out of range for the requested class count."""

    def __init__(self, row: int, col: int, value: int, classes: int):
        problem = "is negative" if value < 0 else f"is >= class count {classes}"
        super().__init__(f"label {value} at pixel ({row}, {col}) {problem}")
        self.pixel = (row, col)
        self.value = value


def _is_int(value) -> bool:
    """True for Python and NumPy integers, but not for bools."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_classes(classes, most: int = IGNORE_LABEL - 1) -> None:
    """Raise ``ValidationError`` unless ``classes`` is an integer (not a bool) from 1 to ``most``."""
    if not (_is_int(classes) and 1 <= classes <= most):
        raise ValidationError(f"class count must be an integer from 1 to {most}, got {classes!r}")


def _check_labels(labels, classes: int) -> np.ndarray:
    """The label map as an array, after checking it is 2-D and integer.

    Raises :class:`LabelRangeError` naming the first pixel whose label is
    neither in ``[0, classes)`` nor ``IGNORE_LABEL``.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValidationError(f"label map must be 2-D, got shape {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValidationError(f"label map must be integer-typed, got {labels.dtype}")
    bad = (labels != IGNORE_LABEL) & (labels >= classes)
    if labels.dtype.kind == "i":  # only signed maps can hold a negative label
        bad |= labels < 0
    if bad.any():
        r, c = np.argwhere(bad)[0]
        raise LabelRangeError(int(r), int(c), int(labels[r, c]), classes)
    return labels


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    """Expand a label map into a per-pixel one-hot map.

    Parameters
    ----------
    labels : (H, W) integer array, values in [0, classes) or IGNORE_LABEL
    classes : number of classes K, an integer from 1 to IGNORE_LABEL - 1

    Returns
    -------
    (H, W, K) uint8 array. Rows of void pixels are all zero.

    Raises :class:`LabelRangeError` naming the first pixel whose label is
    negative or ``>= classes``.
    """
    _check_classes(classes)
    return _one_hot(_check_labels(labels, classes), classes).view(np.uint8)


def _one_hot(labels: np.ndarray, classes: int, axis: int = -1) -> np.ndarray:
    """The bool one-hot of a label array whose labels are class indices or void, class ``axis`` inserted."""
    pos = axis % (labels.ndim + 1)
    # The class indices take the labels' dtype where it holds them all: a compare that casts is 2-3x slower.
    index = np.arange(classes, dtype=np.result_type(labels.dtype, np.min_scalar_type(classes - 1)))
    index = index.reshape((classes,) + (1,) * (labels.ndim - pos))
    return labels.reshape(labels.shape[:pos] + (1,) + labels.shape[pos:]) == index


def _over_classes(op, x: np.ndarray, dtype=None, axis: int = -1) -> np.ndarray:
    """``op.reduce(x, axis=-1)`` of a float array, for ``np.maximum`` or ``np.add``, with the same bits.

    The class axis is short, and reducing over it costs numpy a loop per
    row, so this runs K operations on whole columns instead. A running
    maximum is exact in any order. numpy adds fewer than 8 elements in
    order, starting from +0.0; 8 or more it sums pairwise, so those keep
    ``sum``. ``dtype`` is the accumulator, as in ``sum``. A class-major
    array passes its class ``axis`` (``-2`` for ``(..., K, n)``) and gets
    the bits of the class-last reduction, with the other axes in order;
    numpy sums pairwise only along the innermost axis, so for 8 or more
    classes it is copied class-last.
    """
    order = list(range(x.ndim))
    order.append(order.pop(axis))
    rows = x.transpose(order)  # np.moveaxis(x, axis, -1) at about a quarter of its call cost
    k = rows.shape[-1]
    if op is np.add and k >= 8:
        return (rows if axis == -1 else rows.copy()).sum(axis=-1, dtype=dtype)
    out = rows[..., 0].astype(dtype or x.dtype)
    if op is np.add:
        out += 0.0  # turns a -0.0 first column into +0.0, as numpy's start does
    for j in range(1, k):
        op(out, rows[..., j], out=out)
    return out


def _check_shape(pred) -> np.ndarray:
    """The map as an array, after :func:`_check_map_kind` of its shape and dtype."""
    pred = np.asarray(pred)
    _check_map_kind(pred.shape, pred.dtype)
    return pred


def _check_map_kind(shape: tuple, dtype: np.dtype) -> None:
    """Raise ``ValidationError`` unless a map is (H, W, K), K a valid class count, and of real numbers."""
    if len(shape) != 3 or shape[2] < 1:
        raise ValidationError(f"probability map must be (H, W, K), got shape {shape}")
    if dtype.kind not in "biuf":
        raise ValidationError(f"probability map must be bool, integer or float, got dtype {dtype}")
    _check_classes(shape[2])  # labels are uint16, with IGNORE_LABEL reserved


def _check_map(pred) -> np.ndarray:
    """The map as an array, after checking it is (H, W, K) with no NaN."""
    pred = _check_shape(pred)
    nan = np.isnan(pred)
    if nan.any():
        r, c, k = np.argwhere(nan)[0]
        raise ValidationError(f"NaN probability at pixel ({r}, {c}), class {k}")
    return pred


def argmax_labels(pred: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of a probability map; ties go to the lowest class index.

    Raises :class:`ValidationError` if the map contains NaN.
    """
    return _argmax(_check_map(pred))


def _argmax(pred: np.ndarray, axis: int = -1) -> np.ndarray:
    """The argmax kernel over the class ``axis``, for a map already checked for NaN.

    A class-last map takes ``np.argmax``. Along any other axis it runs K
    whole-plane steps: a strict ``>`` compare of each class plane with the
    running maximum, so ties keep the lowest index, as in ``np.argmax``.
    Class ``j`` exceeds every earlier label, so a ``maximum`` writes it
    where its plane wins.
    """
    if axis == -1:
        return np.argmax(pred, axis=-1).astype(np.uint16)
    plane = (slice(None),) * (axis % pred.ndim)  # class j is pred[plane + (j,)]
    best = pred[plane + (0,)]
    labels = np.zeros(best.shape, dtype=np.uint16)
    for j in range(1, pred.shape[axis]):
        np.maximum(labels, (pred[plane + (j,)] > best) * np.uint16(j), out=labels)
        best = np.maximum(best, pred[plane + (j,)])
    return labels


def _check_values(pred) -> np.ndarray:
    """The map as an array, after checking it is (H, W, K) with no NaN and every value in [0, 1]."""
    pred = _check_map(pred)
    outside = (pred < 0) | (pred > 1)
    if outside.any():
        r, c, k = np.argwhere(outside)[0]
        raise ValidationError(
            f"probability {pred[r, c, k]!s} at pixel ({r}, {c}), class {k} outside [0, 1]"
        )
    return pred


def _is_probmap(pred: np.ndarray, axis: int = -1) -> bool:
    """The check of :func:`validate_probmap`, naming no fault, for an array of any layout with class ``axis``."""
    in_range = (pred >= 0).all() and (pred <= 1).all()  # False on NaN
    return bool(in_range and not (np.abs(_over_classes(np.add, pred, np.float64, axis) - 1.0) > 1e-4).any())


def validate_probmap(pred: np.ndarray) -> np.ndarray:
    """Check probability-map invariants and return the array unchanged.

    Values must sit in [0, 1] with no NaN, and the per-pixel class sums
    must fall within 1e-4 of 1. The error names the first NaN, else the
    first value outside [0, 1], else the first row sum off 1.
    """
    pred = _check_shape(pred)
    if not _is_probmap(pred):
        sums = _over_classes(np.add, _check_values(pred), np.float64)
        r, c = np.argwhere(np.abs(sums - 1.0) > 1e-4)[0]
        raise ValidationError(
            f"class sum {sums[r, c]:.6f} at pixel ({r}, {c}) not within 1e-4 of 1"
        )
    return pred


def _ten1_header(dtype, shape) -> bytes:
    """The TEN1 header of an array of ``dtype`` and ``shape``; a dtype or rank TEN1 cannot hold raises."""
    kind = np.dtype(dtype).newbyteorder("<").str.lstrip("<|=")
    if kind not in _CODE_FOR_KIND:
        raise ValidationError(f"unsupported dtype {np.dtype(dtype)}; use float32, uint16, or uint8")
    if len(shape) > 255:
        raise ValidationError("tensor rank exceeds 255")
    return struct.pack(f"<4sBB{len(shape)}Q", _MAGIC, _CODE_FOR_KIND[kind], len(shape), *shape)


def _write_ten1(stream, arr: np.ndarray) -> None:
    """Write an array to a binary stream as TEN1: its header, then its C-ordered little-endian buffer."""
    arr = np.asarray(arr)
    header = _ten1_header(arr.dtype, arr.shape)
    arr = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"), order="C")  # keeps a 0-d array 0-d
    stream.write(header)
    stream.write(arr.data)


def write_tensor(arr: np.ndarray) -> bytes:
    """Serialize an array to TEN1 bytes.

    Layout: ``b"TEN1"``, 1 dtype byte (0=f32, 1=u16, 2=u8), 1 ndim byte,
    ndim little-endian u64 dims, then the row-major little-endian payload.
    """
    out = io.BytesIO()
    _write_ten1(out, arr)
    return out.getvalue()


def _ten1_head(head: bytes, size: int) -> tuple[np.dtype, tuple, int, int]:
    """``(dtype, dims, count, start)`` of the TEN1 header at the front of ``size`` bytes that begin with ``head``.

    ``head`` holds the header, or all of the bytes if there are fewer;
    ``count`` elements of ``dtype`` begin at offset ``start``. Raises
    :class:`TensorFormatError` unless the header is whole and valid; the
    payload is not checked.
    """
    if size < 6:
        raise TensorFormatError("truncated header", size)
    magic, code, ndim = struct.unpack_from("<4sBB", head, 0)
    if magic != _MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}", 0)
    if code not in _DTYPE_CODES:
        raise TensorFormatError(f"unknown dtype code {code}", 4)
    dims_end = 6 + 8 * ndim
    if size < dims_end:
        raise TensorFormatError(f"truncated dims: need {dims_end} header bytes", size)
    dims = struct.unpack_from(f"<{ndim}Q", head, 6)
    count = 1
    for d in dims:
        count *= d
    return _DTYPE_CODES[code], dims, count, dims_end


def _ten1_layout(head: bytes, size: int) -> tuple[np.dtype, tuple, int, int]:
    """:func:`_ten1_head` of ``size`` bytes, which also raises unless the payload fills the rest exactly."""
    dtype, dims, count, start = _ten1_head(head, size)
    expected_end = start + count * dtype.itemsize
    if size != expected_end:
        kind = "truncated" if size < expected_end else "oversized"
        raise TensorFormatError(
            f"{kind} payload: expected {count} elements ending at byte {expected_end}, "
            f"got {size - start} payload bytes",
            min(size, expected_end),
        )
    return dtype, dims, count, start


def _seek_layout(stream) -> tuple[np.dtype, tuple, int, int]:
    """:func:`_ten1_layout` of a seekable stream, sized by seeking and read no further than its header."""
    size = stream.seek(0, io.SEEK_END)
    stream.seek(0)
    return _ten1_layout(stream.read(min(size, _TEN1_HEADER_MAX)), size)


def _fill(stream, arr: np.ndarray) -> int:
    """Read from the stream's position into ``arr``'s buffer until it is full or the stream ends; the bytes read."""
    view = arr.reshape(-1).view(np.uint8)
    done = 0
    while done < view.size:
        got = stream.readinto(view[done:])
        if not got:
            break
        done += got
    return done


def _fill_at(stream, arr: np.ndarray, offset: int) -> None:
    """Fill ``arr`` from ``offset`` of a seekable stream; bytes that end first raise a truncated payload there."""
    stream.seek(offset)
    done = _fill(stream, arr)
    if done < arr.nbytes:  # the file shrank after its size was read
        raise TensorFormatError("truncated payload", offset + done)


def _ten1_array(dtype: np.dtype, dims: tuple, count: int) -> np.ndarray:
    """A fresh array for a payload of ``count`` elements; dims numpy cannot hold raise a format error."""
    try:  # an empty tensor can still name dims numpy cannot hold; its reshape names the fault
        return np.empty(dims, dtype=dtype) if count else np.empty(0, dtype=dtype).reshape(dims).copy()
    except ValueError as exc:
        raise TensorFormatError(f"dims {dims} not representable: {exc}", 6) from None


def _read_ten1(stream) -> np.ndarray:
    """The tensor in a binary stream of TEN1 bytes, read as :func:`read_tensor` reads them.

    A seekable stream is sized before anything is allocated, and its
    payload is read straight into a fresh array. A pipe is read through its
    header into a fresh array of the size the header names; what is left of
    it is then drained and counted, so that a short or long payload, or dims
    numpy cannot allocate, raise what :func:`read_tensor` of its bytes does.
    """
    if stream.seekable():
        dtype, dims, count, start = _seek_layout(stream)
        arr = _ten1_array(dtype, dims, count)
        _fill_at(stream, arr, start)
        return arr
    head = np.empty(6, dtype=np.uint8)
    head = head[:_fill(stream, head)].tobytes()
    if len(head) == 6:  # the dims, as many as the rank byte names
        tail = np.empty(8 * head[5], dtype=np.uint8)
        head += tail[:_fill(stream, tail)].tobytes()
    dtype, dims, count, start = _ten1_head(head, len(head))
    try:
        arr, failed = _ten1_array(dtype, dims, count), None
    except (TensorFormatError, MemoryError) as exc:  # raised only if the stream holds the payload it names
        arr, failed = np.empty(0, dtype=np.uint8), exc
    size = start + _fill(stream, arr)
    rest = bytearray(1 << 16)
    while got := stream.readinto(rest):
        size += got
    _ten1_layout(head, size)
    if failed:
        raise failed
    return arr


class _Ten1Rows:
    """The tensor of a seekable TEN1 stream as a stack of one, read and written a band of rows at a time.

    ``shape`` is ``(1,) + dims``. Indexing with ``(..., rows, :, ...)``,
    ``rows`` a slice of the tensor's first axis, reads those rows into a
    fresh array of that shape, and ``write(rows, band)`` writes a band of
    those rows there. One lock keeps each seek with its read or write, so
    any thread may do either; a read that comes up short raises a
    truncated-payload :class:`TensorFormatError` at the offset where the
    bytes ended.
    """

    def __init__(self, stream, dtype: np.dtype, dims: tuple, start: int):
        import math
        import threading  # loaded by the booster already; importing this module loads nothing new

        self.stream, self.dtype, self.shape, self.start = stream, dtype, (1,) + tuple(dims), start
        self._row_bytes = dtype.itemsize * math.prod(dims[1:])
        self._lock = threading.Lock()

    def __getitem__(self, index) -> np.ndarray:
        start, stop, _ = index[1 - len(self.shape)].indices(self.shape[1])
        band = np.empty((1, stop - start) + self.shape[2:], dtype=self.dtype)
        with self._lock:
            _fill_at(self.stream, band, self.start + start * self._row_bytes)
        return band

    def write(self, rows: slice, band: np.ndarray) -> None:
        data = np.ascontiguousarray(band, dtype=self.dtype)
        with self._lock:
            self.stream.seek(self.start + rows.start * self._row_bytes)
            self.stream.write(data.data)


def read_tensor(data: bytes) -> np.ndarray:
    """Parse TEN1 bytes back into an array; the exact inverse of write_tensor."""
    return _read_ten1(io.BytesIO(data))
