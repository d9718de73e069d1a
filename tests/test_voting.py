"""Regional vote maps: reference vs integral paths, borders, op counting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segboost import (
    IGNORE_LABEL,
    OpCounter,
    ValidationError,
    VicinitySpec,
    one_hot,
    vote_integral,
    vote_naive,
    vote_uniform,
)
import segboost.voting
from segboost.voting import _window_sums


def _window_sum_reference(p_oh, v):
    """Dumbest possible window counter, kept independent of library code."""
    h, w, k = p_oh.shape
    rh, rw = v.height // 2, v.width // 2
    out = np.zeros((h, w, k), dtype=np.int64)
    for i in range(h):
        for j in range(w):
            for di in range(-rh, rh + 1):
                for dj in range(-rw, rw + 1):
                    if 0 <= i + di < h and 0 <= j + dj < w:
                        out[i, j] += p_oh[i + di, j + dj]
    return out


def _reference_votes(p_oh, v):
    """Votes from the reference counts; under ``clip`` the area is counted pixel by pixel too."""
    h, w, _ = p_oh.shape
    divisor = v.size if v.border == "zero" else _window_sum_reference(np.ones((h, w, 1), np.uint8), v)
    return np.divide(_window_sum_reference(p_oh, v), divisor, dtype=np.float64).astype(np.float32)


class TestVicinitySpec:
    def test_defaults(self):
        v = VicinitySpec()
        assert (v.height, v.width, v.border) == (5, 5, "clip")
        assert v.size == 25

    @pytest.mark.parametrize("bad", [0, -1, 2, 4, 10])
    def test_rejects_even_or_nonpositive(self, bad):
        with pytest.raises(ValidationError):
            VicinitySpec(bad, 3)
        with pytest.raises(ValidationError):
            VicinitySpec(3, bad)

    @pytest.mark.parametrize("bad", [True, 3.0, "3", None])
    def test_rejects_sizes_that_are_not_integers(self, bad):
        with pytest.raises(ValidationError, match="integer"):
            VicinitySpec(bad, 3)
        with pytest.raises(ValidationError, match="integer"):
            VicinitySpec(3, bad)

    def test_accepts_numpy_integers(self):
        assert VicinitySpec(np.int64(3), np.uint8(5)).size == 15

    def test_rejects_unknown_border(self):
        with pytest.raises(ValidationError):
            VicinitySpec(3, 3, "reflect")


class TestCountsAgainstReference:
    def test_hand_case_clip(self):
        labels = np.array([[0, 0, 1], [0, 1, 1], [2, 2, 1]], dtype=np.uint16)
        p_oh = one_hot(labels, 3)
        votes = vote_naive(p_oh, VicinitySpec(3, 3, "clip"))
        # corner (0,0): window holds 4 pixels, labels {0,0,0,1}
        np.testing.assert_allclose(votes[0, 0], [0.75, 0.25, 0.0])
        # center: all 9 pixels, 3 zeros / 4 ones / 2 twos
        np.testing.assert_allclose(votes[1, 1], [3 / 9, 4 / 9, 2 / 9])

    def test_hand_case_zero(self):
        labels = np.zeros((3, 3), dtype=np.uint16)
        p_oh = one_hot(labels, 2)
        votes = vote_naive(p_oh, VicinitySpec(3, 3, "zero"))
        # denominator is the fixed window size 9 everywhere
        np.testing.assert_allclose(votes[0, 0], [4 / 9, 0.0])
        np.testing.assert_allclose(votes[1, 1], [1.0, 0.0])

    def test_both_paths_match_quadruple_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h, w = rng.integers(1, 10, size=2)
            k = int(rng.integers(1, 5))
            labels = rng.integers(0, k, size=(h, w)).astype(np.uint16)
            p_oh = one_hot(labels, k)
            for size in (1, 3, 5):
                for border in ("clip", "zero"):
                    v = VicinitySpec(size, size, border)
                    want = _reference_votes(p_oh, v).tobytes()
                    assert vote_naive(p_oh, v).tobytes() == want
                    assert vote_integral(p_oh, v).tobytes() == want

    def test_naive_path_never_uses_the_window_sums(self, monkeypatch):
        def window_sums(*args, **kwargs):
            raise AssertionError("vote_naive called _window_sums")

        monkeypatch.setattr(segboost.voting, "_window_sums", window_sums)
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 4, size=(9, 6)).astype(np.uint16)
        labels[rng.random((9, 6)) < 0.2] = IGNORE_LABEL
        p_oh = one_hot(labels, 4)
        for hw in ((1, 1), (3, 5), (7, 1), (21, 15)):
            for border in ("clip", "zero"):
                v = VicinitySpec(*hw, border)
                assert vote_naive(p_oh, v).tobytes() == _reference_votes(p_oh, v).tobytes()


class TestBitIdentity:
    def test_naive_equals_integral_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h, w = rng.integers(1, 33, size=2)
            k = int(rng.integers(1, 9))
            labels = rng.integers(0, k, size=(h, w)).astype(np.uint16)
            labels[rng.random(size=(h, w)) < 0.1] = IGNORE_LABEL
            p_oh = one_hot(labels, k)
            size = int(rng.choice([1, 3, 5, 9, 15]))
            border = str(rng.choice(["clip", "zero"]))
            v = VicinitySpec(size, size, border)
            a = vote_naive(p_oh, v)
            b = vote_integral(p_oh, v)
            assert a.dtype == b.dtype == np.float32
            assert a.tobytes() == b.tobytes()

    def test_rectangular_windows(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 4, size=(12, 7)).astype(np.uint16)
        p_oh = one_hot(labels, 4)
        for hw in ((1, 9), (7, 3), (15, 1)):
            for border in ("clip", "zero"):
                v = VicinitySpec(*hw, border)
                assert vote_naive(p_oh, v).tobytes() == vote_integral(p_oh, v).tobytes()


class TestDistributionProperties:
    def test_clip_rows_sum_to_one_without_voids(self):
        # each count/denominator quotient is rounded to float32 once, so the
        # class sums land within a few ulps of 1, never exactly
        rng = np.random.default_rng(29)
        labels = rng.integers(0, 5, size=(16, 11)).astype(np.uint16)
        votes = vote_integral(one_hot(labels, 5), VicinitySpec(5, 3, "clip"))
        np.testing.assert_allclose(votes.sum(axis=2, dtype=np.float64), 1.0, atol=1e-6)

    def test_zero_border_rows_sum_to_inbounds_fraction(self):
        labels = np.zeros((6, 6), dtype=np.uint16)
        votes = vote_integral(one_hot(labels, 2), VicinitySpec(5, 5, "zero"))
        sums = votes.sum(axis=2, dtype=np.float64)
        assert sums[0, 0] == pytest.approx(9 / 25)
        assert sums[0, 3] == pytest.approx(15 / 25)
        assert sums[3, 3] == 1.0

    def test_void_pixels_lower_numerator_not_denominator(self):
        labels = np.zeros((5, 5), dtype=np.uint16)
        labels[2, 2] = IGNORE_LABEL
        votes = vote_integral(one_hot(labels, 2), VicinitySpec(3, 3, "clip"))
        # center window: 8 real votes over 9 in-bounds pixels
        np.testing.assert_allclose(votes[2, 2], [8 / 9, 0.0])

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(31)
        labels = rng.integers(0, 3, size=(20, 20)).astype(np.uint16)
        for border in ("clip", "zero"):
            votes = vote_integral(one_hot(labels, 3), VicinitySpec(9, 9, border))
            assert votes.min() >= 0.0
            assert votes.max() <= 1.0

    def test_channel_permutation_equivariance(self):
        rng = np.random.default_rng(37)
        labels = rng.integers(0, 4, size=(10, 10)).astype(np.uint16)
        p_oh = one_hot(labels, 4)
        perm = np.array([2, 0, 3, 1])
        v = VicinitySpec(5, 5)
        np.testing.assert_array_equal(
            vote_integral(p_oh[:, :, perm], v), vote_integral(p_oh, v)[:, :, perm]
        )

    def test_translation_equivariance_in_interior(self):
        rng = np.random.default_rng(41)
        labels = rng.integers(0, 3, size=(14, 14)).astype(np.uint16)
        p_oh = one_hot(labels, 3)
        v = VicinitySpec(3, 3)
        votes = vote_integral(p_oh, v)
        shifted = vote_integral(np.roll(p_oh, (2, 2), axis=(0, 1)), v)
        # away from every border the roll commutes with voting
        np.testing.assert_array_equal(shifted[3:-3, 3:-3], votes[1:-5, 1:-5])

    def test_uniform_votes(self):
        p_oh = one_hot(np.zeros((4, 6), dtype=np.uint16), 4)
        votes = vote_uniform(p_oh)
        assert votes.shape == (4, 6, 4)
        np.testing.assert_array_equal(votes, np.float32(0.25))


class TestOperationCounts:
    def test_integral_cost_independent_of_window(self):
        p_oh = one_hot(np.zeros((24, 24), dtype=np.uint16), 3)
        tallies = []
        for size in (1, 3, 9, 15):
            ops = OpCounter()
            vote_integral(p_oh, VicinitySpec(size, size), ops)
            tallies.append(ops.ops)
        assert len(set(tallies)) == 1

    def test_naive_cost_grows_with_window(self):
        p_oh = one_hot(np.zeros((24, 24), dtype=np.uint16), 3)
        tallies = []
        for size in (3, 9, 15):
            ops = OpCounter()
            vote_naive(p_oh, VicinitySpec(size, size), ops)
            tallies.append(ops.ops)
        assert tallies[0] < tallies[1] < tallies[2]

    def test_integral_beats_naive_at_large_windows(self):
        p_oh = one_hot(np.zeros((24, 24), dtype=np.uint16), 3)
        fast, slow = OpCounter(), OpCounter()
        vote_integral(p_oh, VicinitySpec(15, 15), fast)
        vote_naive(p_oh, VicinitySpec(15, 15), slow)
        assert fast.ops < slow.ops


class TestInputChecks:
    def test_rejects_float_one_hot(self):
        with pytest.raises(ValidationError, match="integer"):
            vote_naive(np.zeros((2, 2, 2), dtype=np.float32), VicinitySpec(3, 3))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValidationError):
            vote_integral(np.zeros((2, 2), dtype=np.uint8), VicinitySpec(3, 3))


def _label_maps(shape, k):
    return arrays(np.uint16, shape, elements=st.sampled_from([*range(k), IGNORE_LABEL]))


_odd = st.integers(0, 20).map(lambda r: 2 * r + 1)
_vicinities = st.builds(VicinitySpec, _odd, _odd, st.sampled_from(["clip", "zero"]))
_sides = st.integers(1, 12)


def _assert_voters_agree(labels, k, v):
    p_oh = one_hot(labels, k)
    assert vote_integral(p_oh, v).tobytes() == vote_naive(p_oh, v).tobytes()


class TestVoterProperties:
    """vote_integral against the vote_naive oracle on degenerate shapes."""

    @given(n=st.integers(1, 30), k=st.integers(1, 4), vertical=st.booleans(), data=st.data())
    def test_single_row_or_column(self, n, k, vertical, data):
        shape = (n, 1) if vertical else (1, n)
        _assert_voters_agree(data.draw(_label_maps(shape, k)), k, data.draw(_vicinities))

    @given(h=_sides, w=_sides, v=_vicinities, data=st.data())
    def test_single_class(self, h, w, v, data):
        _assert_voters_agree(data.draw(_label_maps((h, w), 1)), 1, v)

    @given(h=_sides, w=_sides, k=st.integers(1, 4), v=_vicinities)
    def test_all_void(self, h, w, k, v):
        labels = np.full((h, w), IGNORE_LABEL, dtype=np.uint16)
        _assert_voters_agree(labels, k, v)
        assert not vote_integral(one_hot(labels, k), v).any()

    @given(h=_sides, w=_sides, k=st.integers(1, 4), extra=st.tuples(_odd, _odd),
           border=st.sampled_from(["clip", "zero"]), data=st.data())
    def test_window_larger_than_image(self, h, w, k, extra, border, data):
        v = VicinitySpec(2 * h + extra[0], 2 * w + extra[1], border)
        _assert_voters_agree(data.draw(_label_maps((h, w), k)), k, v)

    @given(h=_sides, w=_sides, k=st.integers(1, 4), v=_vicinities, line=st.sampled_from([None, 0, 1]),
           data=st.data())
    def test_int32_window_sums_equal_int64(self, h, w, k, v, line, data):
        # 1xN / Nx1 maps and windows up to 41 wide against sides up to 12
        shape = (h, w) if line is None else ((1, w) if line == 0 else (h, 1))
        p_oh = one_hot(data.draw(_label_maps(shape, k)), k)
        rh, rw = v.height // 2, v.width // 2
        s32, a32 = _window_sums(p_oh, rh, rw, np.int32)
        s64, a64 = _window_sums(p_oh, rh, rw, np.int64)
        assert (s32.dtype, s64.dtype) == (np.int32, np.int64)
        want = _window_sum_reference(p_oh, v)
        np.testing.assert_array_equal(s32, want)
        np.testing.assert_array_equal(s64, want)
        np.testing.assert_array_equal(a32, a64)


class TestWindowSumTable:
    """``_window_sums`` against the table of two ``np.cumsum`` calls, on both sides of the row-length threshold."""

    # row lengths: 2*3 and 40*3 stay below 1024 elements, 64*17, 1100 and 9*120 reach it
    SHAPES = [(5, 2, 3), (7, 40, 3), (6, 64, 17), (3, 1100), (1, 9, 120), (4, 1, 1030)]

    @staticmethod
    def _cumsum_formula(values, rr, rc, dtype):
        h, w = values.shape[:2]
        table = np.zeros((h + 1, w + 1) + values.shape[2:], dtype=dtype)
        table[1:, 1:] = np.cumsum(np.cumsum(values, axis=0, dtype=dtype), axis=1)
        r0, r1 = np.clip(np.arange(h) - rr, 0, h), np.clip(np.arange(h) + rr + 1, 0, h)
        c0, c1 = np.clip(np.arange(w) - rc, 0, w), np.clip(np.arange(w) + rc + 1, 0, w)
        top, bottom = table[r0], table[r1]
        return ((bottom[:, c1] - top[:, c1]) - bottom[:, c0]) + top[:, c0]

    @given(shape=st.sampled_from(SHAPES), rr=st.integers(0, 8), rc=st.integers(0, 70),
           kind=st.sampled_from(["int32", "float64"]), data=st.data())
    def test_same_bits_as_the_cumsum_table(self, shape, rr, rc, kind, data):
        if kind == "int32":  # one-hot counts
            values = data.draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
        else:  # signed zeros and magnitudes far apart, so the order of additions shows in the bits
            values = data.draw(arrays(np.float64, shape, elements=st.sampled_from(
                [0.0, -0.0, 1.0, -2.5, 1e-300, 3e16, -7.25e-5, 0.1])))
        dtype = np.dtype(kind)
        sums, area = _window_sums(values, rr, rc, dtype)
        want = self._cumsum_formula(values, rr, rc, dtype)
        assert sums.dtype == dtype and sums.shape == values.shape
        assert sums.tobytes() == want.tobytes()
        h, w = shape[:2]
        rows = np.minimum(np.arange(h) + rr + 1, h) - np.maximum(np.arange(h) - rr, 0)
        cols = np.minimum(np.arange(w) + rc + 1, w) - np.maximum(np.arange(w) - rc, 0)
        np.testing.assert_array_equal(area, rows[:, None] * cols[None, :])

    @given(shape=st.sampled_from(SHAPES), rr=st.integers(0, 8), rc=st.integers(0, 70), data=st.data())
    def test_rows_of_a_halo_block_are_the_rows_of_the_whole_table(self, shape, rr, rc, data):
        values = data.draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
        top = data.draw(st.integers(0, shape[0]))
        rows = slice(top, data.draw(st.integers(top, shape[0])))
        sums, area = _window_sums(values, rr, rc, np.int32)
        band_sums, band_area = _window_sums(values, rr, rc, np.int32, rows)
        assert band_sums.tobytes() == sums[rows].tobytes()
        assert band_area.tobytes() == area[rows].tobytes()
