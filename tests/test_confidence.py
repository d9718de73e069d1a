"""Confidence (negative entropy) and per-image adaptive blend weights."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segboost import ValidationError, adaptive_weights, confidence, one_hot
from segboost.confidence import _neg_entropy
from segboost.tensors import _over_classes


def _masked_neg_entropy(pred, axis=-1):
    """The kernel with a mask: log and product only where an entry is > 0, so a zero adds exactly +0.0."""
    positive = pred > 0.0
    terms = np.zeros(pred.shape)
    np.log(pred, out=terms, where=positive, dtype=np.float64)
    np.multiply(terms, pred, out=terms, where=positive, dtype=np.float64)
    return _over_classes(np.add, terms, axis=axis)


# exact zeros of both signs, exact ones, subnormals of both dtypes, and anything else in [0, 1]
_ENTRIES = st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324, 1e-310, 1e-45, 1e-38]) | st.floats(0.0, 1.0)


class TestConfidence:
    def test_one_hot_is_exactly_zero(self):
        oh = one_hot(np.array([[0, 1], [2, 0]], dtype=np.uint16), 3).astype(np.float64)
        np.testing.assert_array_equal(confidence(oh), 0.0)

    def test_uniform_is_minus_log_k(self):
        for k in range(2, 9):
            pred = np.full((3, 4, k), 1.0 / k)
            np.testing.assert_allclose(confidence(pred), -np.log(k), rtol=0, atol=1e-12)

    def test_half_half_pixel(self):
        pred = np.array([[[0.5, 0.5]]])
        assert confidence(pred)[0, 0] == pytest.approx(-np.log(2), abs=1e-12)

    def test_range_and_ordering(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            k = int(rng.integers(2, 9))
            raw = rng.random((6, 5, k)) + 1e-9
            pred = raw / raw.sum(axis=2, keepdims=True)
            conf = confidence(pred)
            assert conf.shape == (6, 5)
            assert conf.dtype == np.float64
            # one-hot >= anything >= uniform
            assert (conf <= 1e-15).all()
            assert (conf >= -np.log(k) - 1e-12).all()

    def test_zero_times_log_zero_is_zero(self):
        pred = np.array([[[0.0, 1.0, 0.0]]])
        assert confidence(pred)[0, 0] == 0.0

    def test_matches_where_formula_bitwise(self):
        # oracle: p * ln(p) where p > 0, else 0, summed over classes in float64
        rng = np.random.default_rng(13)
        for dtype in (np.float32, np.float64):
            pred = rng.random((9, 13, 5)).astype(dtype)
            pred[pred < 0.3] = 0.0  # exact zeros, including some all-zero rows
            pred[0, 0] = 0.0
            p = pred.astype(np.float64)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.where(p > 0, p * np.log(p), 0.0).sum(axis=2)
            assert confidence(pred).tobytes() == want.tobytes()

    @given(k=st.integers(1, 21), dtype=st.sampled_from([np.float32, np.float64]), data=st.data())
    def test_mask_free_kernel_has_the_bits_of_the_masked_one(self, k, dtype, data):
        pred = data.draw(arrays(dtype, (3, 4, k), elements=_ENTRIES))
        pred[0, 0] = 0.0  # an all-zero row
        pred[0, 1] = -0.0
        want = _masked_neg_entropy(pred).tobytes()
        assert _neg_entropy(pred).tobytes() == want
        assert confidence(pred).tobytes() == want
        major = np.ascontiguousarray(np.moveaxis(pred, -1, 0))  # the class-major layout
        assert _neg_entropy(major, axis=0).tobytes() == want

    def test_negative_probability_rejected(self):
        pred = np.full((2, 2, 2), 0.5)
        pred[0, 1, 0] = -0.25
        with pytest.raises(ValidationError, match=r"\(0, 1\)"):
            confidence(pred)

    @pytest.mark.parametrize("pixel, value, match", [
        ((0, 0, 0), np.nan, r"NaN probability at pixel \(0, 0\), class 0"),
        ((1, 0, 0), 2.0, r"probability \S*2.0\S* at pixel \(1, 0\), class 0 outside \[0, 1\]"),
    ])
    def test_nan_and_values_above_one_rejected(self, pixel, value, match):
        # a NaN row used to score 0, the most confident value, and 2.0 scored +1.386, outside [-ln K, 0]
        pred = np.array([[[0.5, 0.5], [1.0, 0.0]], [[0.5, 0.5], [1.0, 0.0]]])
        pred[pixel] = value
        with pytest.raises(ValidationError, match=match):
            confidence(pred)


    def test_more_peaked_means_higher_confidence(self):
        flat = np.array([[[0.4, 0.3, 0.3]]])
        peaked = np.array([[[0.8, 0.1, 0.1]]])
        assert confidence(peaked)[0, 0] > confidence(flat)[0, 0]


class TestAdaptiveWeights:
    def test_non_finite_message_prints_a_plain_number(self):
        with pytest.raises(ValidationError) as info:
            adaptive_weights(np.array([[0.0, np.nan]]))
        assert str(info.value) == "non-finite confidence nan at pixel (0, 1)"

    def test_extremes_hit_exact_zero_and_one(self):
        conf = np.array([[-2.0, -0.5], [-1.25, 0.0]])
        w = adaptive_weights(conf)
        assert w.dtype == np.float32
        assert w[0, 0] == 0.0
        assert w[1, 1] == 1.0
        assert 0.0 < w[1, 0] < 1.0

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        conf = -rng.random((8, 8))
        # scaling and shifting confidence must not change the weights
        np.testing.assert_allclose(
            adaptive_weights(conf), adaptive_weights(3.7 * conf - 11.0), atol=2e-7
        )

    def test_constant_plane_passes_through(self):
        w = adaptive_weights(np.full((4, 4), -0.31))
        np.testing.assert_array_equal(w, 1.0)

    def test_bounds(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            w = adaptive_weights(-rng.random((5, 7)))
            assert w.min() >= 0.0
            assert w.max() <= 1.0

    def test_empty_mask_rejected(self):
        # a plane with no pixels leaves nothing to scan for the extremes
        with pytest.raises(ValidationError, match=r"confidence plane of shape \(0, 2\) has no pixels"):
            adaptive_weights(np.zeros((0, 2)))

    def test_non_finite_rejected(self):
        conf = np.zeros((2, 2))
        conf[0, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            adaptive_weights(conf)
