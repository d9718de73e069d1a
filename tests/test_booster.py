"""Blending one-hot labels with regional votes under adaptive weights."""

import dataclasses
import multiprocessing
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from segboost import (
    IGNORE_LABEL,
    POLICIES,
    ValidationError,
    VicinitySpec,
    adaptive_weights,
    argmax_labels,
    blend,
    boost,
    boost_report,
    confidence,
    one_hot,
    validate_probmap,
    vote_integral,
    vote_uniform,
)
import segboost.booster
from segboost.booster import _run
from segboost.tensors import _argmax, _one_hot


def _random_probmap(rng, h, w, k):
    raw = rng.random((h, w, k)) + 1e-6
    pred = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
    return pred / pred.sum(axis=2, keepdims=True)


class TestBlend:
    def test_weight_one_returns_one_hot_bitwise(self):
        rng = np.random.default_rng(2)
        pred = _random_probmap(rng, 6, 6, 3)
        p_oh = one_hot(argmax_labels(pred), 3)
        votes = vote_integral(p_oh, VicinitySpec(3, 3))
        out = blend(p_oh, votes, np.ones((6, 6), dtype=np.float32))
        assert out.tobytes() == p_oh.astype(np.float32).tobytes()

    def test_weight_zero_returns_votes_bitwise(self):
        rng = np.random.default_rng(4)
        pred = _random_probmap(rng, 5, 7, 4)
        p_oh = one_hot(argmax_labels(pred), 4)
        votes = vote_integral(p_oh, VicinitySpec(5, 5))
        out = blend(p_oh, votes, np.zeros((5, 7), dtype=np.float32))
        assert out.tobytes() == votes.tobytes()

    def test_entries_stay_inside_envelope(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            h, w = rng.integers(1, 15, size=2)
            k = int(rng.integers(1, 6))
            labels = rng.integers(0, k, size=(h, w)).astype(np.uint16)
            p_oh = one_hot(labels, k)
            votes = vote_integral(p_oh, VicinitySpec(3, 3))
            weights = rng.random((h, w)).astype(np.float32)
            out = blend(p_oh, votes, weights)
            lo = np.minimum(p_oh, votes)
            hi = np.maximum(p_oh, votes)
            assert (out >= lo).all()
            assert (out <= hi).all()

    def test_interpolates_between_endpoints(self):
        p_oh = one_hot(np.array([[1]], dtype=np.uint16), 2)
        votes = np.array([[[0.25, 0.75]]], dtype=np.float32)
        half = blend(p_oh, votes, np.array([[0.5]], dtype=np.float32))
        np.testing.assert_allclose(half[0, 0], [0.125, 0.875], rtol=1e-6)
        quarter = blend(p_oh, votes, np.array([[0.25]], dtype=np.float32))
        np.testing.assert_allclose(quarter[0, 0], [0.1875, 0.8125], rtol=1e-6)

    def test_matches_float64_one_hot_formula_bitwise(self):
        # oracle: the float64 formula over a float64 one-hot, rounded once
        rng = np.random.default_rng(12)
        for _ in range(25):
            h, w = rng.integers(1, 20, size=2)
            k = int(rng.integers(1, 6))
            labels = rng.integers(0, k, size=(h, w)).astype(np.uint16)
            labels[rng.random((h, w)) < 0.2] = IGNORE_LABEL  # all-zero one-hot rows
            p_oh = one_hot(labels, k)
            votes = rng.random((h, w, k)).astype(np.float32)
            weights = rng.uniform(0.001, 0.999, size=(h, w)).astype(np.float32)
            w64 = weights.astype(np.float64)[:, :, None]
            want = w64 * p_oh.astype(np.float64) + (1.0 - w64) * votes.astype(np.float64)
            assert blend(p_oh, votes, weights).tobytes() == want.astype(np.float32).tobytes()

    def test_matches_the_masked_add_formula_bitwise(self):
        # oracle: (1 - W) * votes in float64, W added where the one-hot is set, rounded once
        rng = np.random.default_rng(13)
        for trial in range(30):
            h, w = rng.integers(1, 12, size=2)
            k = 1 if trial < 5 else int(rng.integers(2, 8))
            labels = rng.integers(0, k, size=(h, w)).astype(np.uint16)
            labels[rng.random((h, w)) < 0.25] = IGNORE_LABEL
            p_oh = one_hot(labels, k)
            votes = rng.random((h, w, k)).astype(np.float32)
            weights = rng.random((h, w)).astype(np.float32)
            weights[rng.random((h, w)) < 0.3] = 0.0
            weights[rng.random((h, w)) < 0.3] = 1.0
            w64 = weights.astype(np.float64)[:, :, None]
            want = np.multiply(1.0 - w64, votes, dtype=np.float64)
            np.add(want, w64, out=want, where=p_oh.astype(bool))
            if trial % 2:  # a non-contiguous array is blended by value too
                votes = np.asfortranarray(votes)
            assert blend(p_oh, votes, weights).tobytes() == want.astype(np.float32).tobytes()

    def test_non_zero_entry_counts_as_one(self):
        rng = np.random.default_rng(14)
        p_oh = one_hot(rng.integers(0, 3, size=(4, 5)).astype(np.uint16), 3)
        votes = vote_integral(p_oh, VicinitySpec(3, 3))
        weights = rng.random((4, 5)).astype(np.float32)
        scaled = p_oh.astype(np.float64) * rng.uniform(0.5, 9.0, size=(4, 5, 1))
        assert blend(scaled, votes, weights).tobytes() == blend(p_oh, votes, weights).tobytes()

    def test_float64_weights_blend_at_full_precision(self):
        rng = np.random.default_rng(15)
        p_oh = one_hot(rng.integers(0, 4, size=(6, 7)).astype(np.uint16), 4)
        votes = rng.random((6, 7, 4)).astype(np.float32)
        weights = rng.random((6, 7))  # float64, most not representable in float32
        w64 = weights[:, :, None]
        want = w64 * p_oh.astype(np.float64) + (1.0 - w64) * votes.astype(np.float64)
        assert blend(p_oh, votes, weights).tobytes() == want.astype(np.float32).tobytes()

    # float32 weights, named as they print: 1.1, not the 1.100000023841858 of its float64 widening
    @pytest.mark.parametrize("weight", ["1.5", "-0.25", "nan", "inf", "1.1"])
    def test_weights_outside_the_unit_interval_rejected(self, weight):
        p_oh = one_hot(np.array([[0, 1]], dtype=np.uint16), 2)
        weights = np.array([[0.5, weight]], dtype=np.float32)
        message = f"weight {weight} at pixel (0, 1) is not in [0, 1]"
        with pytest.raises(ValidationError, match=re.escape(message)):
            blend(p_oh, vote_uniform(p_oh), weights)

    def test_rows_with_two_set_entries_rejected(self):
        p_oh = one_hot(np.zeros((2, 3), dtype=np.uint16), 3)
        p_oh[1, 2, 1] = 1
        with pytest.raises(ValidationError, match=r"pixel \(1, 2\) has 2 non-zero entries"):
            blend(p_oh, vote_uniform(p_oh), np.ones((2, 3), dtype=np.float32))

    def test_shape_mismatch_rejected(self):
        p_oh = one_hot(np.zeros((2, 2), dtype=np.uint16), 2)
        votes = vote_uniform(p_oh)
        with pytest.raises(ValidationError):
            blend(p_oh, votes, np.ones((3, 2), dtype=np.float32))


class TestBoost:
    def test_output_contract(self):
        rng = np.random.default_rng(12)
        pred = _random_probmap(rng, 9, 8, 3)
        out = boost(pred, VicinitySpec(3, 3), "ruv")
        assert out.data.shape == (9, 8, 3)
        assert out.data.dtype == np.float32
        assert (out.height, out.width, out.classes) == (9, 8, 3)
        assert out.policy == "ruv"
        sums = out.data.sum(axis=2, dtype=np.float64)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_most_confident_pixel_keeps_its_one_hot(self):
        rng = np.random.default_rng(14)
        pred = _random_probmap(rng, 7, 7, 4).astype(np.float64)
        conf = confidence(pred)
        i, j = np.unravel_index(np.argmax(conf), conf.shape)
        out = boost(pred, VicinitySpec(3, 3), "ruv")
        expected = np.zeros(4, dtype=np.float32)
        expected[argmax_labels(pred)[i, j]] = 1.0
        np.testing.assert_array_equal(out.data[i, j], expected)

    def test_constant_label_field_is_identity(self):
        # every window votes unanimously, so blending changes nothing
        pred = np.zeros((6, 6, 3), dtype=np.float32)
        pred[:, :, 1] = 1.0
        noise = np.linspace(0, 0.3, 36).reshape(6, 6).astype(np.float32)
        pred[:, :, 0] = noise
        pred[:, :, 1] -= noise
        out = boost(pred, VicinitySpec(5, 5, "clip"), "ruv")
        np.testing.assert_array_equal(out.data, one_hot(argmax_labels(pred), 3).astype(np.float32))

    def test_policy_none_is_plain_one_hot(self):
        rng = np.random.default_rng(16)
        pred = _random_probmap(rng, 5, 5, 3)
        out = boost(pred, VicinitySpec(5, 5), "none")
        np.testing.assert_array_equal(out.data, one_hot(argmax_labels(pred), 3).astype(np.float32))

    def test_policy_uniform_blends_toward_flat(self):
        rng = np.random.default_rng(18)
        pred = _random_probmap(rng, 6, 6, 3)
        out = boost(pred, VicinitySpec(5, 5), "uniform")
        w = adaptive_weights(confidence(pred))[:, :, None].astype(np.float64)
        expected = w * one_hot(argmax_labels(pred), 3) + (1 - w) / 3.0
        np.testing.assert_allclose(out.data, expected, atol=1e-7)

    def test_zero_border_row_sums_formula(self):
        rng = np.random.default_rng(22)
        pred = _random_probmap(rng, 8, 9, 3)
        v = VicinitySpec(5, 5, "zero")
        out = boost(pred, v, "ruv")
        w = adaptive_weights(confidence(pred)).astype(np.float64)
        h_img, w_img = 8, 9
        frac = np.empty((h_img, w_img))
        for i in range(h_img):
            for j in range(w_img):
                rows = min(i + 3, h_img) - max(i - 2, 0)
                cols = min(j + 3, w_img) - max(j - 2, 0)
                frac[i, j] = rows * cols / v.size
        np.testing.assert_allclose(
            out.data.sum(axis=2, dtype=np.float64), w + (1 - w) * frac, atol=1e-6
        )

    def test_unknown_policy_rejected(self):
        pred = np.full((2, 2, 2), 0.5, dtype=np.float32)
        with pytest.raises(ValidationError, match="policy"):
            boost(pred, VicinitySpec(3, 3), "blur")
        assert set(POLICIES) == {"ruv", "uniform", "none"}

    @pytest.mark.parametrize("run", [boost, boost_report])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_rejects_maps_that_are_not_probabilities(self, run, policy):
        rows_off = np.full((4, 5, 3), 5.0 / 7.0)  # every row sums to 15/7
        negative = _random_probmap(np.random.default_rng(32), 4, 5, 3)
        negative[1, 2] = [-0.1, 0.6, 0.5]
        nan = _random_probmap(np.random.default_rng(34), 4, 5, 3)
        nan[3, 0, 1] = np.nan
        for pred, match in ((rows_off, "class sum"), (negative, "outside"), (nan, "NaN")):
            with pytest.raises(ValidationError, match=match):
                run(pred, VicinitySpec(3, 3), policy)

    @pytest.mark.parametrize("run", [boost, boost_report, validate_probmap, argmax_labels])
    @pytest.mark.parametrize("values", [np.full((2, 3, 2), "0.5"), np.full((2, 3, 2), 0.5 + 0j),
                                        np.full((2, 3, 2), np.datetime64("2020-01-01")),
                                        np.full((2, 3, 2), 0.5, dtype=object)],
                             ids=["str", "complex", "datetime", "object"])
    def test_rejects_maps_that_are_not_real_numbers(self, run, values):
        message = f"must be bool, integer or float, got dtype {values.dtype}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex map used to pass validate_probmap with a ComplexWarning
            with pytest.raises(ValidationError, match=re.escape(message)):
                run(values)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("shape", [(0, 3, 2), (3, 0, 2)])
    def test_empty_map_is_empty_or_rejected(self, policy, shape):
        # an empty map has no confidence range to weight by; without weights it passes through
        if policy == "none":
            assert boost(np.zeros(shape, dtype=np.float32), policy=policy).data.shape == shape
        else:
            with pytest.raises(ValidationError):
                boost(np.zeros(shape, dtype=np.float32), policy=policy)

    @given(shape=st.one_of(st.tuples(st.just(1), st.integers(1, 16)),
                           st.tuples(st.integers(1, 8), st.integers(1, 8))),
           classes=st.integers(1, 5), size=st.sampled_from([1, 3, 5, 9]),
           policy=st.sampled_from(POLICIES), data=st.data())
    def test_clip_rows_sum_to_one(self, shape, classes, size, policy, data):
        raw = data.draw(arrays(np.float64, shape + (classes,), elements=st.floats(1e-3, 1.0)))
        pred = raw / raw.sum(axis=2, keepdims=True)
        out = boost(pred, VicinitySpec(size, size, "clip"), policy)
        np.testing.assert_allclose(out.data.sum(axis=2, dtype=np.float64), 1.0, rtol=0, atol=1e-6)


class TestBoostReport:
    def test_fields_are_sane(self):
        rng = np.random.default_rng(26)
        pred = _random_probmap(rng, 16, 16, 3)
        rep = boost_report(pred, VicinitySpec(5, 5), "ruv")
        assert 0.0 <= rep.changed_fraction <= 1.0
        assert 0.0 <= rep.mean_weight <= 1.0
        assert -np.log(3) - 1e-9 <= rep.mean_confidence <= 0.0
        assert rep.class_vote_mass.shape == (3,)
        assert rep.class_vote_mass.sum() == pytest.approx(1.0, abs=1e-6)

    def test_none_policy_changes_nothing(self):
        rng = np.random.default_rng(28)
        pred = _random_probmap(rng, 10, 10, 4)
        rep = boost_report(pred, VicinitySpec(5, 5), "none")
        assert rep.changed_fraction == 0.0

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("border", ["clip", "zero"])
    def test_carries_the_boost_output_bytes(self, policy, border):
        rng = np.random.default_rng(30)
        pred = _random_probmap(rng, 12, 9, 4)
        v = VicinitySpec(5, 3, border)
        rep = boost_report(pred, v, policy)
        ref = boost(pred, v, policy)
        assert rep.boosted.data.tobytes() == ref.data.tobytes()
        assert (rep.boosted.vicinity, rep.boosted.policy) == (v, policy)
        assert rep.labels.dtype == np.uint16
        assert rep.labels.tobytes() == argmax_labels(ref.data).tobytes()

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_vote_mass_is_counted_only_when_first_read(self, monkeypatch, threads):
        pred = _random_probmap(np.random.default_rng(31), 12, 10, 3)
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 5)
        monkeypatch.setattr(segboost.booster, "_THREADS", threads)
        calls = []
        votes = segboost.booster._band_votes
        def counted(p_oh, v, rows):  # the height of the one-hot block, the rows of it voted on, the thread
            calls.append((len(p_oh), range(*rows.indices(len(p_oh))), threading.current_thread()))
            return votes(p_oh, v, rows)
        monkeypatch.setattr(segboost.booster, "_band_votes", counted)
        # each band's one-hot has a halo of the window's row radius, 1, clipped to the map: rows 0-5, 4-10
        # and 9-11; votes come only for the band's own rows 0-4, 5-9 and 10-11
        each_band = [(6, range(0, 5)), (7, range(1, 6)), (3, range(1, 3))]
        rep = boost_report(pred, VicinitySpec(3, 3), "ruv")
        assert sorted(call[:2] for call in calls) == sorted(each_band)  # pass 2 alone, on whichever thread
        calls.clear()
        mass = rep.class_vote_mass
        assert [call[:2] for call in calls] == each_band  # in band order
        assert {call[2] for call in calls} == {threading.main_thread()}
        assert rep.class_vote_mass is mass and len(calls) == 3  # a second read counts nothing
        p_oh = one_hot(argmax_labels(pred), 3)
        assert mass.tobytes() == vote_integral(p_oh, VicinitySpec(3, 3)).mean(axis=(0, 1), dtype=np.float64).tobytes()
        assert "class_vote_mass" not in {f.name for f in dataclasses.fields(rep)}


def _stack(rng, h, w, k):
    """Four maps: random, constant confidence (all weights 1), exact zeros, near-uniform."""
    random = _random_probmap(rng, h, w, k)
    constant = np.zeros((h, w, k), dtype=np.float32)
    constant[:, : w // 2, 0] = 1.0
    constant[:, w // 2:, k - 1] = 1.0
    zeros = rng.random((h, w, k))
    zeros[rng.random((h, w, k)) < 0.4] = 0.0
    zeros[:, :, 1] += 1e-3  # keeps every row non-zero
    zeros = (zeros / zeros.sum(axis=2, keepdims=True)).astype(np.float32)
    flat = np.full((h, w, k), 1.0 / k) + rng.uniform(-1e-3, 1e-3, (h, w, k))
    flat /= flat.sum(axis=2, keepdims=True)
    return np.stack([random, constant, zeros, flat.astype(np.float32)])


class TestStackedRun:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("border", ["clip", "zero"])
    @pytest.mark.parametrize("window", [(3, 3), (5, 1), (1, 1), (33, 13)])  # 33 x 13 is wider than 7 x 9
    def test_same_bytes_as_one_call_per_image(self, policy, border, window):
        stack = _stack(np.random.default_rng(50), 7, 9, 4)
        n, h, w, k = stack.shape
        v = VicinitySpec(*window, border)
        labels, data, conf, weights, after = _run(stack, v, policy, report=True)
        assert data.shape == (n, h, w, k) and labels.shape == conf.shape == after.shape == (n, h, w)
        for i, pred in enumerate(stack):
            rep = boost_report(pred, v, policy)
            assert data[i].tobytes() == boost(pred, v, policy).data.tobytes()
            assert data[i].tobytes() == rep.boosted.data.tobytes()
            assert labels[i].tobytes() == argmax_labels(pred).tobytes()
            assert after[i].tobytes() == argmax_labels(data[i]).tobytes() == rep.labels.tobytes()
            assert conf[i].tobytes() == confidence(pred).tobytes()
            assert weights[i].tobytes() == adaptive_weights(confidence(pred)).tobytes()
            assert (weights[i] == 1.0).all() == (i == 1)
            p_oh = one_hot(argmax_labels(pred), k)
            want_votes = {"ruv": lambda: vote_integral(p_oh, v), "uniform": lambda: vote_uniform(p_oh),
                          "none": lambda: p_oh.astype(np.float32)}[policy]()
            want_mass = want_votes.mean(axis=(0, 1), dtype=np.float64)
            assert rep.class_vote_mass.tobytes() == want_mass.tobytes()
            assert rep.mean_weight == float(weights[i].mean(dtype=np.float64))
            assert rep.mean_confidence == float(conf[i].mean())

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bad_last_image_is_rejected(self, policy):
        stack = _stack(np.random.default_rng(52), 5, 6, 3)
        nan, row = stack.copy(), stack.copy()
        nan[-1, 4, 5, 2] = np.nan
        row[-1, 2, 3] = [0.5, 0.5, 0.5]
        for bad, match in ((nan, "NaN"), (row, "class sum")):
            with pytest.raises(ValidationError, match=match):
                _run(bad, VicinitySpec(3, 3), policy, report=False)

    def test_a_band_that_fails_its_check_never_reaches_the_kernels(self, monkeypatch):
        # should the band check and validate_probmap ever disagree, the band's verdict still stands
        monkeypatch.setattr(segboost.booster, "_is_probmap", lambda band, axis: False)
        with pytest.raises(ValidationError, match="failed validation"):
            _run(_stack(np.random.default_rng(53), 2, 6, 3), VicinitySpec(3, 3), "ruv", report=False)


@st.composite
def _class_major_case(draw, heights=st.integers(1, 5)):
    """A class-last ``(N, H, W, K)`` stack of maps with ties, exact zeros and maybe a constant image,
    and a contiguous class-major copy of it with its class axis."""
    models, batch = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    h = draw(heights)
    w = draw(st.integers(1, 7))
    k = draw(st.integers(1, 12))  # pairwise class sums from 8 on
    # small integers make ties and exact zeros, large ones generic weights
    raw = draw(arrays(np.int64, (models * batch, h, w, k), elements=st.integers(0, 3) | st.integers(0, 10**6)))
    raw[..., 0] += raw.sum(axis=-1) == 0  # every row has mass
    if draw(st.booleans()):
        raw[0] = raw[0, 0, 0]  # one distribution everywhere: constant confidence, all weights 1
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    stack = (raw / raw.sum(axis=-1, keepdims=True)).astype(dtype)
    if draw(st.booleans()):  # the simulator's (models, K, batch, H, W)
        major, axis = np.moveaxis(stack.reshape(models, batch, h, w, k), -1, 1), 1
    else:  # (K, N, H, W)
        major, axis = np.moveaxis(stack, -1, 0), 0
    return stack, np.ascontiguousarray(major), axis


class TestClassMajorRun:
    """``_run`` on a class-major stack gives the bytes of the class-last call on the same maps."""

    @staticmethod
    def _class_last(array, class_axis):
        """A class-major output in the ``(N, H, W, ...)`` layout of the class-last call."""
        if class_axis is None:  # labels, confidence, weights, boosted labels: (..., H, W)
            return array.reshape((-1,) + array.shape[-2:])
        array = np.moveaxis(array, class_axis, -1)
        return array.reshape((-1,) + array.shape[-3:])

    @given(case=_class_major_case(), policy=st.sampled_from(POLICIES), border=st.sampled_from(["clip", "zero"]),
           size=st.sampled_from([1, 3, 5, 15]), report=st.booleans())  # 15 is wider than every map
    def test_same_bytes_as_the_class_last_call(self, case, policy, border, size, report):
        stack, major, axis = case
        v = VicinitySpec(size, size, border)
        want = _run(stack, v, policy, report)
        got = _run(major, v, policy, report, axis=axis)
        names = ("labels", "boosted", "confidence", "weights", "boosted_labels")
        for name, a, b in zip(names, want, got):
            if a is None:
                assert b is None, name
                continue
            b = self._class_last(b, axis if name == "boosted" else None)
            assert (b.dtype, b.shape) == (a.dtype, a.shape), name
            assert b.tobytes() == a.tobytes(), name
        # harden: argmax and one-hot of the boosted label on the same planes
        k = stack.shape[-1]
        hard = self._class_last(_one_hot(_argmax(got[1], axis), k, axis), axis).view(np.uint8)
        assert all(hard[i].tobytes() == one_hot(argmax_labels(want[1][i]), k).tobytes() for i in range(len(hard)))

    @given(case=_class_major_case(), policy=st.sampled_from(POLICIES), fault=st.sampled_from(["nan", "range", "sum"]),
           data=st.data())
    def test_same_message_for_a_bad_image(self, case, policy, fault, data):
        stack, _, axis = case
        n, h, w, k = stack.shape
        i, r, c, j = (data.draw(st.integers(0, m - 1)) for m in (n, h, w, k))
        if fault == "sum":
            stack[i, r, c] *= 1.01
        else:
            stack[i, r, c, j] = {"nan": np.nan, "range": data.draw(st.sampled_from([-0.25, 1.5]))}[fault]
        major = np.ascontiguousarray(np.moveaxis(stack, -1, 0) if axis == 0 else np.moveaxis(stack[None], -1, 1))
        v = VicinitySpec(3, 3)
        with pytest.raises(ValidationError) as last:
            _run(stack, v, policy, report=False)
        with pytest.raises(ValidationError) as class_major:
            _run(major, v, policy, report=False, axis=axis)
        assert str(class_major.value) == str(last.value)


def _vote_mass_read(pred, vicinity, policy):
    """``boost_report`` with its ``class_vote_mass`` read."""
    return boost_report(pred, vicinity, policy).class_vote_mass


class TestMemory:
    # The band pipeline reaches 2.85x (boost) and 2.93x (boost_report, with class_vote_mass read or not) here on
    # two threads; the whole-map pipeline reached 4.54x.
    @pytest.mark.parametrize("run", [boost, boost_report, _vote_mass_read])
    def test_traced_peak_is_at_most_three_inputs(self, run):
        pred = _random_probmap(np.random.default_rng(40), 128, 256, 19)
        tracemalloc.start()
        try:
            run(pred, VicinitySpec(5, 5), "ruv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * pred.nbytes, f"peak {peak / pred.nbytes:.2f}x the input"


@st.composite
def _band_case(draw):
    """A class-last stack of 1 to 4 maps with ties, exact zeros and maybe a constant image; 1xN and Nx1 included."""
    n = draw(st.integers(1, 4))
    shape = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 20)), st.tuples(st.integers(1, 20), st.just(1)),
                           st.tuples(st.integers(1, 16), st.integers(1, 6))))
    k = draw(st.integers(1, 20))  # pairwise class sums from 8 on
    raw = draw(arrays(np.int64, (n,) + shape + (k,), elements=st.integers(0, 3) | st.integers(0, 10**6)))
    raw[..., 0] += raw.sum(axis=-1) == 0  # every row has mass
    if draw(st.booleans()):
        raw[0] = raw[0, 0, 0]  # constant confidence, all weights 1
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return (raw / raw.sum(axis=-1, keepdims=True)).astype(dtype)


def _one_band_and_banded(band, run, threads=1):
    """``run()`` with one band for each whole image on one thread, then with bands of ``band`` rows on ``threads``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(segboost.booster, "_BAND_ROWS", 10**9)
        patch.setattr(segboost.booster, "_THREADS", 1)
        whole = run()
        patch.setattr(segboost.booster, "_BAND_ROWS", band)
        patch.setattr(segboost.booster, "_THREADS", threads)
        return whole, run()


class TestBands:
    """No output byte of the pipeline depends on its band height or thread count, in either layout."""

    # 43 rows is taller than every map, and a band of 21 rows holds any of its images whole
    @given(stack=_band_case(), band=st.sampled_from([1, 2, 3, 7, 21]), threads=st.sampled_from([1, 2, 3]),
           policy=st.sampled_from(POLICIES), border=st.sampled_from(["clip", "zero"]), report=st.booleans(),
           size=st.tuples(st.sampled_from([1, 3, 5, 43]), st.sampled_from([1, 3, 15])))
    def test_run_gives_the_bytes_of_one_band(self, stack, band, threads, policy, border, size, report):
        v = VicinitySpec(*size, border)
        whole, banded = _one_band_and_banded(band, lambda: _run(stack, v, policy, report), threads)
        for name, a, b in zip(("labels", "boosted", "confidence", "weights", "boosted_labels"),
                              whole, banded):
            if a is None:
                assert b is None, name
                continue
            assert (b.dtype, b.shape) == (a.dtype, a.shape), name
            assert b.tobytes() == a.tobytes(), name

    @given(case=_class_major_case(heights=st.integers(8, 16)), band=st.sampled_from([1, 2, 7]),
           threads=st.sampled_from([1, 2, 3]), policy=st.sampled_from(POLICIES),
           border=st.sampled_from(["clip", "zero"]), report=st.booleans(),
           size=st.tuples(st.sampled_from([1, 3, 5, 33]), st.sampled_from([1, 3, 15])))
    def test_class_major_run_gives_the_bytes_of_one_band(self, case, band, threads, policy, border, report, size):
        _, major, axis = case
        v = VicinitySpec(*size, border)
        whole, banded = _one_band_and_banded(band, lambda: _run(major, v, policy, report, axis=axis), threads)
        for name, a, b in zip(("labels", "boosted", "confidence", "weights", "boosted_labels"),
                              whole, banded):
            if a is None:
                assert b is None, name
                continue
            assert (b.dtype, b.shape) == (a.dtype, a.shape), name
            assert b.tobytes() == a.tobytes(), name

    @given(stack=_band_case(), band=st.sampled_from([1, 2, 7, 21]), threads=st.sampled_from([1, 2, 3]),
           policy=st.sampled_from(POLICIES), border=st.sampled_from(["clip", "zero"]),
           size=st.sampled_from([1, 3, 43]))
    def test_boost_and_report_give_the_bytes_of_one_band(self, stack, band, threads, policy, border, size):
        pred, v = stack[0], VicinitySpec(size, 3, border)
        whole, banded = _one_band_and_banded(
            band, lambda: (boost(pred, v, policy), boost_report(pred, v, policy)), threads)
        assert banded[0].data.tobytes() == whole[0].data.tobytes()
        for field in ("changed_fraction", "mean_weight", "mean_confidence"):
            assert getattr(banded[1], field) == getattr(whole[1], field), field
        for field in ("class_vote_mass", "labels"):
            assert getattr(banded[1], field).tobytes() == getattr(whole[1], field).tobytes(), field
        assert banded[1].boosted.data.tobytes() == whole[1].boosted.data.tobytes()

    @given(stack=_band_case(), band=st.sampled_from([1, 2, 7]), threads=st.sampled_from([1, 2, 3]),
           policy=st.sampled_from(POLICIES), fault=st.sampled_from(["nan", "range", "sum"]), earlier=st.booleans(),
           data=st.data())
    def test_fault_in_the_last_band_names_the_whole_map(self, stack, band, threads, policy, fault, earlier, data):
        n, h, w, k = stack.shape
        r = data.draw(st.integers((h - 1) // band * band, h - 1))  # a row of the last image's last band
        c, j = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, k - 1))
        if fault == "sum":
            stack[-1, r, c] *= 1.01
        else:
            stack[-1, r, c, j] = {"nan": np.nan, "range": data.draw(st.sampled_from([-0.25, 1.5]))}[fault]
        if earlier:  # a range fault in the first band does not hide a NaN the whole-map check reports first
            stack[0, 0, 0, 0] = 1.5
        with pytest.raises(ValidationError) as whole:
            validate_probmap(stack.reshape(n * h, w, k))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segboost.booster, "_BAND_ROWS", band)
            patch.setattr(segboost.booster, "_THREADS", threads)
            with pytest.raises(ValidationError) as banded:
                _run(stack, VicinitySpec(3, 3), policy, report=False)
        assert str(banded.value) == str(whole.value)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("k", [1, 2, 3, 19])
    def test_vote_mass_is_the_mean_of_the_votes(self, monkeypatch, policy, k):
        pred = _random_probmap(np.random.default_rng(60 + k), 30, 11, k)
        v = VicinitySpec(5, 3, "zero")
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 7)
        p_oh = one_hot(argmax_labels(pred), k)
        votes = {"ruv": lambda: vote_integral(p_oh, v), "uniform": lambda: vote_uniform(p_oh),
                 "none": lambda: p_oh.astype(np.float32)}[policy]()
        want = votes.mean(axis=(0, 1), dtype=np.float64)
        assert boost_report(pred, v, policy).class_vote_mass.tobytes() == want.tobytes()

    def test_vote_mass_adds_in_the_order_of_the_mean(self, monkeypatch):
        # Real vote sums are exact in float64 at any order on maps this small, so the votes here span
        # 40 decades, one value per column and class, and any other order of the additions changes bits.
        rng = np.random.default_rng(70)
        pred = _random_probmap(rng, 40, 9, 3)
        scale = (10.0 ** rng.uniform(-30, 10, size=(9, 3))).astype(np.float32)
        def wide_votes(p_oh, v):
            return np.where(p_oh == 1, scale, scale / np.float32(3))
        def late_on_the_caller(p_oh, v, rows):  # so a helper's later bands have their votes first
            if threading.current_thread() is threading.main_thread():
                time.sleep(0.01)
            return wide_votes(p_oh[rows], v)
        monkeypatch.setattr(segboost.booster, "_band_votes", late_on_the_caller)
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 7)
        want = wide_votes(one_hot(argmax_labels(pred), 3), None).mean(axis=(0, 1), dtype=np.float64)
        for threads in (1, 2, 3):
            monkeypatch.setattr(segboost.booster, "_THREADS", threads)
            assert boost_report(pred, VicinitySpec(3, 3), "ruv").class_vote_mass.tobytes() == want.tobytes()


def _fork_child_boost(pred, conn):
    """Send the bytes of ``boost(pred)`` back over ``conn``; run in a forked child."""
    conn.send(boost(pred, VicinitySpec(5, 5), "ruv").data.tobytes())


class TestThreads:
    """The calling thread and the helpers it starts split each pass: failures, lifetimes, forks, other callers."""

    def test_a_fault_in_a_workers_band_names_the_whole_map(self, monkeypatch):
        stack = _stack(np.random.default_rng(80), 9, 4, 3)
        stack[1, 3, 2] = [0.5, 0.5, 0.5]  # in band 1 of 3-row bands: the helper's
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 3)
        monkeypatch.setattr(segboost.booster, "_THREADS", 2)
        failed_on = []
        check = segboost.booster._is_probmap
        def recorded(band, axis):
            ok = check(band, axis)
            if not ok:
                failed_on.append(threading.current_thread())
            return ok
        monkeypatch.setattr(segboost.booster, "_is_probmap", recorded)
        with pytest.raises(ValidationError) as whole:
            validate_probmap(stack.reshape(36, 4, 3))
        with pytest.raises(ValidationError) as banded:
            _run(stack, VicinitySpec(3, 3), "ruv", report=True)
        assert str(banded.value) == str(whole.value)
        assert failed_on and threading.main_thread() not in failed_on

    def test_an_exception_on_a_worker_is_raised_on_the_caller(self, monkeypatch):
        pred = _random_probmap(np.random.default_rng(81), 12, 5, 3)
        want = boost(pred, VicinitySpec(3, 3), "ruv").data.tobytes()
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 3)
        monkeypatch.setattr(segboost.booster, "_THREADS", 2)
        votes = segboost.booster._band_votes
        def fail_off_the_caller(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("band failed on a helper")
            return votes(*args)
        monkeypatch.setattr(segboost.booster, "_band_votes", fail_off_the_caller)
        for run in (boost, boost_report):  # without and with the boosted argmax
            with pytest.raises(RuntimeError, match="on a helper"):
                run(pred, VicinitySpec(3, 3), "ruv")
        monkeypatch.setattr(segboost.booster, "_band_votes", votes)
        assert boost(pred, VicinitySpec(3, 3), "ruv").data.tobytes() == want  # the next call starts new helpers

    def test_one_band_starts_no_thread(self, monkeypatch):
        started = []
        class Recorded(threading.Thread):
            def start(self):
                started.append(self)
                super().start()
        monkeypatch.setattr(segboost.booster.threading, "Thread", Recorded)
        monkeypatch.setattr(segboost.booster, "_THREADS", 3)
        pred = _random_probmap(np.random.default_rng(82), 32, 6, 3)  # one 32-row band
        boost_report(pred, VicinitySpec(3, 3), "ruv")
        _run(np.ascontiguousarray(np.moveaxis(pred[None], -1, 0)), VicinitySpec(3, 3), "ruv", report=False, axis=0)
        assert started == []
        boost(np.concatenate([pred, pred, pred]), VicinitySpec(3, 3), "ruv")  # 3 bands: two helpers a pass
        assert len(started) == 4
        monkeypatch.setattr(segboost.booster, "_THREADS", 2)
        boost(np.concatenate([pred, pred]), VicinitySpec(3, 3), "ruv")
        assert len(started) == 6

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("fault", [None, "caller", "helper"])
    def test_no_thread_outlives_a_call(self, monkeypatch, threads, fault):
        pred = _random_probmap(np.random.default_rng(85), 12, 5, 3)
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 3)  # four bands
        monkeypatch.setattr(segboost.booster, "_THREADS", threads)
        ran_on = set()
        argmax = segboost.booster._argmax
        def recorded(*args):  # every band of pass 1 runs, so every helper runs one
            ran_on.add(threading.current_thread())
            return argmax(*args)
        votes = segboost.booster._band_votes
        def faulty(*args):  # in pass 2, on the caller's bands or on the helpers'
            if fault and (threading.current_thread() is threading.main_thread()) == (fault == "caller"):
                raise RuntimeError(f"band failed on the {fault}")
            return votes(*args)
        monkeypatch.setattr(segboost.booster, "_argmax", recorded)
        monkeypatch.setattr(segboost.booster, "_band_votes", faulty)
        before = threading.enumerate()
        for run in (boost, boost_report):
            if fault:
                with pytest.raises(RuntimeError, match=f"on the {fault}"):
                    run(pred, VicinitySpec(3, 3), "ruv")
            else:
                run(pred, VicinitySpec(3, 3), "ruv")
            assert threading.enumerate() == before
            helpers = ran_on - {threading.main_thread()}
            assert len(helpers) >= threads - 1 and not any(t.is_alive() for t in helpers)

    def test_concurrent_callers_get_their_own_bytes(self, monkeypatch):
        # more threads than cores, switching often: a band run twice or skipped changes bytes
        preds = [_random_probmap(np.random.default_rng(83 + i), 24, 16, 5) for i in range(4)]
        monkeypatch.setattr(segboost.booster, "_THREADS", 1)
        want = [boost_report(p, VicinitySpec(5, 5), "ruv") for p in preds]
        monkeypatch.setattr(segboost.booster, "_BAND_ROWS", 2)
        monkeypatch.setattr(segboost.booster, "_THREADS", 3)
        got = [[] for _ in preds]
        def call(i):
            for _ in range(5):
                got[i].append(boost_report(preds[i], VicinitySpec(5, 5), "ruv"))
        callers = [threading.Thread(target=call, args=(i,), daemon=True) for i in range(len(preds))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            deadline = time.monotonic() + 60
            for t in callers:
                t.join(timeout=max(deadline - time.monotonic(), 0))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for a, runs in zip(want, got):
            assert len(runs) == 5
            for b in runs:
                assert b.boosted.data.tobytes() == a.boosted.data.tobytes()
                assert b.class_vote_mass.tobytes() == a.class_vote_mass.tobytes()

    def test_a_forked_child_can_still_boost(self, monkeypatch):
        monkeypatch.setattr(segboost.booster, "_THREADS", 2)
        pred = _random_probmap(np.random.default_rng(84), 100, 8, 4)  # four 32-row bands
        want = boost(pred, VicinitySpec(5, 5), "ruv").data.tobytes()
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_fork_child_boost, args=(pred, send))
        child.start()
        try:
            assert receive.poll(30), "the forked child hung"
            assert receive.recv() == want
        finally:
            child.join(5)
            if child.is_alive():
                child.kill()
