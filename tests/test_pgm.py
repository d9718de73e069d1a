"""Label maps as 8-bit binary PGM images."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segboost import (
    IGNORE_LABEL,
    LabelRangeError,
    ValidationError,
    gray_to_labels,
    label_palette,
    labels_to_gray,
    read_pgm,
    write_pgm,
)


class TestPalette:
    def test_distinct_levels_up_to_256(self):
        for k in (1, 2, 3, 21, 255, 256):
            pal = label_palette(k)
            assert pal.dtype == np.uint8
            assert len(np.unique(pal)) == k

    def test_endpoints(self):
        # white stays reserved for void below the 256-class limit
        np.testing.assert_array_equal(label_palette(2), [0, 254])
        np.testing.assert_array_equal(label_palette(1), [0])
        assert label_palette(255)[-1] == 254
        assert label_palette(256)[-1] == 255

    def test_monotone(self):
        pal = label_palette(40)
        assert (np.diff(pal.astype(int)) > 0).all()

    def test_full_256_uses_every_level(self):
        np.testing.assert_array_equal(label_palette(256), np.arange(256, dtype=np.uint8))

    @pytest.mark.parametrize("classes", [0, 257, 2.5, True])
    def test_rejects_bad_class_count(self, classes):
        # 2.5 used to give the non-monotone palette [0, 169, 82]
        with pytest.raises(ValidationError, match="class count"):
            label_palette(classes)


class TestRoundTrip:
    def test_labels_survive(self):
        rng = np.random.default_rng(6)
        for k in (2, 3, 10, 254):
            labels = rng.integers(0, k, size=(7, 9)).astype(np.uint16)
            gray = labels_to_gray(labels, k)
            np.testing.assert_array_equal(gray_to_labels(gray, k), labels)

    def test_void_maps_to_255_and_back(self):
        labels = np.array([[0, IGNORE_LABEL], [1, 2]], dtype=np.uint16)
        gray = labels_to_gray(labels, 3)
        assert gray[0, 1] == 255
        np.testing.assert_array_equal(gray_to_labels(gray, 3), labels)

    def test_custom_palette(self):
        labels = np.array([[0, 1, 2]], dtype=np.uint16)
        pal = np.array([10, 20, 30], dtype=np.uint8)
        gray = labels_to_gray(labels, 3, pal)
        np.testing.assert_array_equal(gray[0], [10, 20, 30])
        np.testing.assert_array_equal(gray_to_labels(gray, 3, pal), labels)

    def test_duplicate_palette_rejected(self):
        with pytest.raises(ValidationError):
            labels_to_gray(np.zeros((1, 1), dtype=np.uint16), 2, np.array([5, 5], dtype=np.uint8))
        # gray_to_labels used to read gray 0 as class 1 here
        with pytest.raises(ValidationError, match="distinct"):
            gray_to_labels(np.zeros((1, 1), dtype=np.uint8), 3, np.array([0, 0, 10], dtype=np.uint8))

    @pytest.mark.parametrize("convert", [labels_to_gray, gray_to_labels])
    @pytest.mark.parametrize("palette", [[0, 10], [0, 10, 20, 30]], ids=["short", "long"])
    def test_palette_of_wrong_length_rejected(self, convert, palette):
        # gray_to_labels used to raise numpy's bare broadcast ValueError
        with pytest.raises(ValidationError, match="one gray level per class"):
            convert(np.zeros((1, 1), dtype=np.uint8), 3, np.array(palette))

    @pytest.mark.parametrize("palette", [[0, 10, 300], [-1, 10, 20], [0.5, 10, 20]])
    def test_palette_level_outside_gray_range_rejected(self, palette):
        # 300 used to wrap to gray 44 and -1 to 255
        for convert in (labels_to_gray, gray_to_labels):
            with pytest.raises(ValidationError, match="0..255"):
                convert(np.zeros((1, 1), dtype=np.uint8), 3, np.array(palette))

    def test_void_rejected_when_palette_claims_white(self):
        labels = np.array([[IGNORE_LABEL]], dtype=np.uint16)
        with pytest.raises(ValidationError, match="255"):
            labels_to_gray(labels, 2, np.array([0, 255], dtype=np.uint8))
        with pytest.raises(ValidationError, match="255"):
            labels_to_gray(labels, 256)

    def test_unknown_gray_rejected(self):
        gray = np.array([[7]], dtype=np.uint8)
        with pytest.raises(ValidationError):
            gray_to_labels(gray, 2)

    @pytest.mark.parametrize("gray, match", [
        (np.array([[-1]]), "outside 0..255"),  # used to read as void
        (np.array([[0, 300]]), "outside 0..255"),  # used to raise a bare IndexError
        (np.array([[0.7]]), "integer"),  # used to read as class 0
        (np.array([[True]]), "integer"),
        (np.zeros(3, dtype=np.uint8), "2-D"),
        (np.zeros((1, 1, 1), dtype=np.uint8), "2-D"),
    ])
    def test_gray_plane_rule(self, gray, match):
        with pytest.raises(ValidationError, match=match):
            gray_to_labels(gray, 3)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int64, np.uint32])
    def test_integer_gray_planes_of_valid_levels_still_read(self, dtype):
        gray = np.array([[0, 127, 254, 255]], dtype=dtype)
        np.testing.assert_array_equal(gray_to_labels(gray, 3), [[0, 1, 2, IGNORE_LABEL]])

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValidationError):
            labels_to_gray(np.array([[9]], dtype=np.uint16), 3)
        # -1 used to take the last class's gray
        with pytest.raises(LabelRangeError, match="negative"):
            labels_to_gray(np.array([[-1, 0]]), 3)
        # a float map used to be truncated, a bool map read as 0 and 1
        for labels in ([[0.7, 1.2]], [[True, False]]):
            with pytest.raises(ValidationError, match="integer"):
                labels_to_gray(np.array(labels), 3)


class TestPgmBytes:
    def test_header_is_exact(self):
        gray = np.zeros((10, 12), dtype=np.uint8)
        blob = write_pgm(gray)
        assert blob.startswith(b"P5\n12 10\n255\n")
        assert len(blob) == len(b"P5\n12 10\n255\n") + 120

    def test_round_trip(self):
        rng = np.random.default_rng(8)
        gray = rng.integers(0, 256, size=(5, 4)).astype(np.uint8)
        np.testing.assert_array_equal(read_pgm(write_pgm(gray)), gray)

    def test_rejects_non_uint8(self):
        with pytest.raises(ValidationError):
            write_pgm(np.zeros((2, 2), dtype=np.uint16))

    def test_rejects_malformed_bytes(self):
        with pytest.raises(ValidationError):
            read_pgm(b"P6\n2 2\n255\n" + bytes(12))
        with pytest.raises(ValidationError):
            read_pgm(b"P5\n2 2\n255\n" + bytes(3))

    @pytest.mark.parametrize("blob", [b"P5\nab 2\n255\n", b"P5\n-2 -2\n255\n" + bytes(4),
                                      b"P5\n+2 2\n255\n" + bytes(4)], ids=["letters", "negative", "plus-sign"])
    def test_size_line_must_be_decimal_digits(self, blob):
        with pytest.raises(ValidationError, match="malformed PGM header"):
            read_pgm(blob)

    def test_full_pipeline(self):
        rng = np.random.default_rng(10)
        labels = rng.integers(0, 5, size=(6, 6)).astype(np.uint16)
        labels[0, 0] = IGNORE_LABEL
        blob = write_pgm(labels_to_gray(labels, 5))
        np.testing.assert_array_equal(gray_to_labels(read_pgm(blob), 5), labels)


class TestRoundTripProperty:
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)), classes=st.integers(1, 255),
           data=st.data())
    def test_labels_survive_the_pgm_file(self, shape, classes, data):
        # below 256 classes white stays free, so void pixels round-trip too
        values = st.one_of(st.integers(0, classes - 1), st.just(IGNORE_LABEL))
        labels = data.draw(arrays(np.uint16, shape, elements=values))
        blob = write_pgm(labels_to_gray(labels, classes))
        assert gray_to_labels(read_pgm(blob), classes).tobytes() == labels.tobytes()
