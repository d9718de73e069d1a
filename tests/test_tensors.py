"""Label/probability map transforms and the TEN1 byte format."""

import io
import os
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segboost import (
    IGNORE_LABEL,
    LabelRangeError,
    TensorFormatError,
    ValidationError,
    argmax_labels,
    boost,
    boost_report,
    confidence,
    one_hot,
    read_tensor,
    validate_probmap,
    write_tensor,
)
from segboost.cli import _write_file
from segboost.tensors import _read_ten1, _seek_layout, _ten1_header, _Ten1Rows


class TestOneHot:
    def test_basic_expansion(self):
        labels = np.array([[0, 2], [1, 1]], dtype=np.uint16)
        oh = one_hot(labels, 3)
        assert oh.shape == (2, 2, 3)
        assert oh.dtype == np.uint8
        np.testing.assert_array_equal(oh.sum(axis=2), 1)
        np.testing.assert_array_equal(oh[0, 1], [0, 0, 1])

    def test_void_rows_are_zero(self):
        labels = np.array([[0, IGNORE_LABEL]], dtype=np.uint16)
        oh = one_hot(labels, 2)
        np.testing.assert_array_equal(oh[0, 1], [0, 0])
        np.testing.assert_array_equal(oh[0, 0], [1, 0])

    def test_out_of_range_names_pixel_and_value(self):
        labels = np.array([[0, 0], [0, 7]], dtype=np.uint16)
        with pytest.raises(LabelRangeError) as info:
            one_hot(labels, 3)
        assert info.value.pixel == (1, 1)
        assert info.value.value == 7
        assert "(1, 1)" in str(info.value)

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_negative_label_names_pixel_and_value(self, dtype):
        labels = np.array([[0, 1], [-1, 0]], dtype=dtype)
        with pytest.raises(LabelRangeError) as info:
            one_hot(labels, 3)
        assert info.value.pixel == (1, 0)
        assert info.value.value == -1
        assert "(1, 0)" in str(info.value)

    def test_negative_label_in_plain_list_rejected(self):
        # -1 used to index from the end and set the last class
        with pytest.raises(LabelRangeError, match=r"\(0, 0\)"):
            one_hot([[-1, 0]], 3)

    def test_rejects_bad_class_count(self):
        labels = np.zeros((2, 2), dtype=np.uint16)
        with pytest.raises(ValidationError):
            one_hot(labels, 0)
        with pytest.raises(ValidationError):
            one_hot(labels, IGNORE_LABEL)
        # 2.5 used to build 3 classes, and True one
        for classes in (2.5, True):
            with pytest.raises(ValidationError, match="class count"):
                one_hot(labels, classes)

    @pytest.mark.parametrize("labels", [[[0.5, 1.0]], [[True, False]]], ids=["float", "bool"])
    def test_rejects_labels_that_are_not_integers(self, labels):
        # 0.5 used to give an all-zero row, read as void, and 1.0 class 1
        with pytest.raises(ValidationError, match="integer"):
            one_hot(np.array(labels), 3)

    def test_argmax_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h, w, k = rng.integers(1, 12, size=3)
            labels = rng.integers(0, k, size=(h, w)).astype(np.uint16)
            oh = one_hot(labels, int(k))
            np.testing.assert_array_equal(argmax_labels(oh.astype(np.float32)), labels)

    @pytest.mark.parametrize("dtype", [np.uint16, np.int64, np.uint32])
    def test_matches_index_assignment_with_voids(self, dtype):
        rng = np.random.default_rng(5)
        for classes in (1, 3, 19, 300):
            labels = rng.integers(0, classes, size=(9, 13))
            labels[rng.random((9, 13)) < 0.2] = IGNORE_LABEL
            want = np.zeros((9, 13, classes), dtype=np.uint8)
            rows, cols = np.nonzero(labels != IGNORE_LABEL)
            want[rows, cols, labels[rows, cols]] = 1
            got = one_hot(labels.astype(dtype), classes)
            assert got.dtype == np.uint8 and got.flags.c_contiguous and got.flags.writeable
            assert got.tobytes() == want.tobytes()


class TestArgmaxLabels:
    def test_ties_take_lowest_index(self):
        pred = np.array([[[0.4, 0.4, 0.2]]], dtype=np.float32)
        assert argmax_labels(pred)[0, 0] == 0

    def test_dtype_is_u16(self):
        pred = np.zeros((2, 2, 4), dtype=np.float32)
        pred[..., 3] = 1.0
        out = argmax_labels(pred)
        assert out.dtype == np.uint16
        np.testing.assert_array_equal(out, 3)

    def test_nan_rejected_with_location(self):
        pred = np.ones((2, 2, 2), dtype=np.float32) * 0.5
        pred[1, 0, 1] = np.nan
        with pytest.raises(ValidationError, match=r"\(1, 0\)"):
            argmax_labels(pred)


class TestValidateProbmap:
    def test_accepts_valid(self):
        pred = np.full((3, 3, 4), 0.25, dtype=np.float32)
        assert validate_probmap(pred) is pred

    def test_range_message_prints_a_plain_number(self):
        with pytest.raises(ValidationError) as info:
            validate_probmap(np.full((1, 1, 2), 2.0))
        assert str(info.value) == "probability 2.0 at pixel (0, 0), class 0 outside [0, 1]"

    def test_rejects_negative_and_above_one(self):
        pred = np.full((2, 2, 2), 0.5)
        pred[0, 0, 0] = -0.1
        pred[0, 0, 1] = 1.1
        with pytest.raises(ValidationError, match="outside"):
            validate_probmap(pred)

    def test_rejects_unnormalized_rows(self):
        pred = np.full((2, 2, 2), 0.4)
        with pytest.raises(ValidationError, match="sum"):
            validate_probmap(pred)

    def test_rejects_nan(self):
        pred = np.full((2, 2, 2), 0.5)
        pred[1, 1, 0] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            validate_probmap(pred)


class TestClassCount:
    """A map's class count must leave every class a uint16 label below IGNORE_LABEL."""

    @pytest.mark.parametrize("run", [boost, boost_report, validate_probmap, argmax_labels, confidence])
    def test_more_classes_than_labels_rejected(self, run):
        pred = np.zeros((1, 2, IGNORE_LABEL), dtype=np.float32)  # class 65534 would be labelled void
        pred[..., -1] = 1.0
        with pytest.raises(ValidationError, match="class count must be an integer from 1 to 65534, got 65535"):
            run(pred)

    def test_the_largest_class_count_keeps_its_labels(self):
        pred = np.zeros((1, 2, IGNORE_LABEL - 1), dtype=np.float32)
        pred[0, 0, 0] = pred[0, 1, -1] = 1.0
        assert argmax_labels(pred).tolist() == [[0, IGNORE_LABEL - 2]]


class TestTen1Format:
    def test_round_trip_all_dtypes(self):
        rng = np.random.default_rng(11)
        arrays = [
            rng.random((5, 7, 3)).astype(np.float32),
            rng.integers(0, 60000, size=(4, 9)).astype(np.uint16),
            rng.integers(0, 255, size=(3, 3, 2)).astype(np.uint8),
            np.arange(6, dtype=np.float32),
        ]
        for arr in arrays:
            back = read_tensor(write_tensor(arr))
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

    def test_bit_exact_including_nan_payload(self):
        arr = np.array([np.nan, -np.inf, np.inf, -0.0, 1.5], dtype=np.float32)
        blob = write_tensor(arr)
        back = read_tensor(blob)
        # compare raw bytes: NaN payloads must survive untouched
        assert back.tobytes() == arr.tobytes()
        assert write_tensor(back) == blob

    def test_header_layout(self):
        arr = np.zeros((2, 3), dtype=np.uint16)
        blob = write_tensor(arr)
        assert blob[:4] == b"TEN1"
        assert blob[4] == 1  # u16 code
        assert blob[5] == 2  # rank
        assert int.from_bytes(blob[6:14], "little") == 2
        assert int.from_bytes(blob[14:22], "little") == 3
        assert len(blob) == 22 + 2 * 3 * 2

    def test_bad_magic_offset_zero(self):
        with pytest.raises(TensorFormatError) as info:
            read_tensor(b"NOPE" + bytes(10))
        assert info.value.offset == 0

    def test_unknown_dtype_code_offset_four(self):
        blob = bytearray(write_tensor(np.zeros(2, dtype=np.uint8)))
        blob[4] = 9
        with pytest.raises(TensorFormatError) as info:
            read_tensor(bytes(blob))
        assert info.value.offset == 4

    def test_truncated_header(self):
        with pytest.raises(TensorFormatError):
            read_tensor(b"TEN1")

    def test_truncated_dims(self):
        blob = write_tensor(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(TensorFormatError, match="dims"):
            read_tensor(blob[:10])

    def test_truncated_and_oversized_payload(self):
        blob = write_tensor(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(TensorFormatError, match="truncated"):
            read_tensor(blob[:-1])
        with pytest.raises(TensorFormatError, match="oversized"):
            read_tensor(blob + b"\x00")

    def test_rejects_unsupported_dtype(self):
        with pytest.raises(ValidationError, match="dtype"):
            write_tensor(np.zeros(3, dtype=np.int32))

    def test_result_owns_its_memory(self):
        arr = np.arange(4, dtype=np.uint16)
        back = read_tensor(write_tensor(arr))
        back[0] = 9  # must not raise: buffer is writable, not a frozen view
        assert back[0] == 9

    def test_rank_zero_round_trip(self):
        arr = np.array(1.5, dtype=np.float32)
        blob = write_tensor(arr)
        assert blob == b"TEN1\x00\x00" + arr.tobytes()  # no dims, one element
        back = read_tensor(blob)
        assert back.shape == () and back.dtype == np.float32 and back[()] == 1.5
        assert write_tensor(back) == blob


_CODES = {"f4": 0, "u2": 1, "u1": 2}


def _ten1_oracle(arr: np.ndarray) -> bytes:
    """TEN1 bytes of ``arr`` by the format's definition: a struct-packed header, then the C-order little-endian data."""
    little = arr.astype(arr.dtype.newbyteorder("<"))
    header = struct.pack(f"<4sBB{arr.ndim}Q", b"TEN1", _CODES[little.dtype.str[1:]], arr.ndim, *arr.shape)
    return header + little.tobytes()


@st.composite
def _ten1_arrays(draw):
    """Arrays of rank 0-4 in each TEN1 dtype and either byte order, whole or as a non-contiguous view."""
    dtype = np.dtype(draw(st.sampled_from(["<", ">"])) + draw(st.sampled_from(list(_CODES))))
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=4)))
    arr = draw(arrays(dtype, shape))  # floats include NaN and signed zeros
    view = draw(st.sampled_from(["whole", "every other row", "transpose"]))
    if view == "every other row" and arr.ndim:
        return arr[::2]
    return arr.T if view == "transpose" else arr


class TestTen1Codec:
    """``write_tensor`` and the CLI's file writer give the format's bytes for any array, and read back to it."""

    @given(arr=_ten1_arrays())
    def test_bytes_match_the_format_and_read_back(self, arr):
        want = _ten1_oracle(arr)
        blob = write_tensor(arr)
        assert blob == want
        back = read_tensor(blob)
        assert back.shape == arr.shape and back.dtype == arr.dtype.newbyteorder("<")
        assert back.tobytes() == want[6 + 8 * arr.ndim:]
        assert back.flags.owndata and back.flags.writeable

    @given(arr=_ten1_arrays())
    def test_cli_file_matches_the_format_and_reads_back(self, arr):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "t.ten1"
            _write_file(str(path), arr)
            assert path.read_bytes() == _ten1_oracle(arr)
            with open(path, "rb", buffering=0) as f:
                back = _read_ten1(f)
        assert back.shape == arr.shape and back.tobytes() == arr.astype(back.dtype).tobytes()


def _read_or_format_error(blob: bytes) -> None:
    """read_tensor must return an array or raise TensorFormatError, nothing else."""
    try:
        read_tensor(blob)
    except TensorFormatError:
        pass


class TestTen1Properties:
    @given(st.binary(max_size=64))
    def test_random_bytes_raise_only_format_errors(self, blob):
        _read_or_format_error(blob)

    @given(code=st.integers(0, 255), ndim=st.integers(0, 4), tail=st.binary(max_size=48))
    def test_random_body_after_magic_raises_only_format_errors(self, code, ndim, tail):
        _read_or_format_error(b"TEN1" + bytes([code, ndim]) + tail)

    @given(shape=st.lists(st.integers(0, 4), max_size=3), dtype=st.sampled_from(["<f4", "<u2", "u1"]),
           data=st.data())
    def test_truncations_of_valid_blobs_raise_only_format_errors(self, shape, dtype, data):
        blob = write_tensor(np.zeros(shape, dtype=dtype))
        cut = data.draw(st.integers(0, len(blob) - 1))
        with pytest.raises(TensorFormatError):
            read_tensor(blob[:cut])

    @given(dims=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3), zero_at=st.integers(0, 2))
    def test_empty_tensors_with_huge_dims_raise_only_format_errors(self, dims, zero_at):
        # one zero dim makes the payload empty, so only the dims can be wrong
        dims[zero_at % len(dims)] = 0
        blob = b"TEN1" + bytes([2, len(dims)]) + struct.pack(f"<{len(dims)}Q", *dims)
        _read_or_format_error(blob)


def _array_or_error(read):
    """``read()``, or the format error it raised."""
    try:
        return read()
    except TensorFormatError as exc:
        return exc


def _read_file_and_bytes(blob: bytes):
    """What the TEN1 reader makes of ``blob`` in a file and ``read_tensor`` of it: an array or a format error, each."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.ten1"
        path.write_bytes(blob)
        with open(path, "rb", buffering=0) as f:
            return _array_or_error(lambda: _read_ten1(f)), _array_or_error(lambda: read_tensor(blob))


def _read_pipe(blob: bytes):
    """What the TEN1 reader makes of ``blob`` written into a pipe by another thread: an array or a format error."""
    read_end, write_end = os.pipe()
    def feed():
        with open(write_end, "wb") as f:
            f.write(blob)
    writer = threading.Thread(target=feed)
    writer.start()
    try:
        with open(read_end, "rb", buffering=0) as f:
            return _array_or_error(lambda: _read_ten1(f))
    finally:
        writer.join()


def _assert_same_outcome(got, want):
    """The same array, dtype and shape included, or a format error with the same message and offset."""
    assert type(got) is type(want)
    if isinstance(want, TensorFormatError):
        assert (str(got), got.offset) == (str(want), want.offset)
    else:
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()


_BLOBS = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda code, ndim, tail: b"TEN1" + bytes([code, ndim]) + tail,
              st.integers(0, 3), st.integers(0, 4), st.binary(max_size=48)),
    st.builds(lambda shape, dtype, cut: write_tensor(np.ones(shape, dtype=dtype))[:cut],  # at most 286 bytes
              st.lists(st.integers(0, 4), max_size=3), st.sampled_from(["<f4", "<u2", "u1"]), st.integers(0, 300)),
    st.builds(lambda dims: b"TEN1" + bytes([2, len(dims)]) + struct.pack(f"<{len(dims)}Q", *dims),
              st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=3).map(lambda d: [0] + d)),
)


class TestTen1File:
    """The CLI reads a TEN1 file into a fresh array with no copy of its payload, and reads it as read_tensor would."""

    @given(blob=_BLOBS)
    def test_same_array_or_error_as_read_tensor(self, blob):
        _assert_same_outcome(*_read_file_and_bytes(blob))

    @given(blob=_BLOBS)
    def test_a_pipe_gives_the_same_array_or_error_as_read_tensor(self, blob):
        # a pipe cannot be sized by seeking: the reader takes its header, reads the payload the header names
        # into an array and counts what is left
        _assert_same_outcome(_read_pipe(blob), _array_or_error(lambda: read_tensor(blob)))

    def test_a_large_payload_through_a_pipe(self):
        arr = np.random.default_rng(13).random((96, 64, 5)).astype(np.float32)  # 120 KiB: more than a pipe holds
        back = _read_pipe(write_tensor(arr))
        assert back.tobytes() == arr.tobytes() and back.flags.writeable

    def test_payload_is_read_into_a_writable_array(self, tmp_path):
        arr = np.random.default_rng(12).random((64, 48, 5)).astype(np.float32)
        path = tmp_path / "t.ten1"
        path.write_bytes(write_tensor(arr))
        with open(path, "rb", buffering=0) as f:
            back = _read_ten1(f)
        assert back.tobytes() == arr.tobytes() and back.flags.writeable


class TestTen1Rows:
    """The band reader and writer that ``segboost boost`` streams a TEN1 file through."""

    @given(arr=_ten1_arrays().filter(lambda a: a.ndim > 0), data=st.data())
    def test_bands_read_and_write_the_rows_of_the_tensor(self, arr, data):
        arr = np.asarray(arr, dtype=arr.dtype.newbyteorder("<"))
        h, rest = arr.shape[0], (slice(None),) * (arr.ndim - 1)
        cuts = sorted(data.draw(st.lists(st.integers(0, h), max_size=4)) + [0, h])
        bands = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
        stream = io.BytesIO(write_tensor(arr))
        dtype, dims, _, start = _seek_layout(stream)
        reader = _Ten1Rows(stream, dtype, dims, start)
        assert reader.shape == (1,) + arr.shape and reader.dtype == arr.dtype
        for rows in bands + [slice(None)]:
            band = reader[(..., rows) + rest]
            assert band.shape == arr[None][(..., rows) + rest].shape
            assert band.tobytes() == arr[rows].tobytes()
        out = io.BytesIO()
        out.write(_ten1_header(arr.dtype, arr.shape))
        writer = _Ten1Rows(out, arr.dtype, arr.shape, out.tell())
        for rows in data.draw(st.permutations(bands)):
            writer.write(rows, arr[None][(..., rows) + rest])
        assert out.getvalue() == write_tensor(arr)
