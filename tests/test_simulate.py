"""Synthetic data generation and the cross-supervision training loop."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from segboost import (
    POLICIES,
    LinearModel,
    SimConfig,
    TrainingDiverged,
    ValidationError,
    VicinitySpec,
    ablate,
    argmax_labels,
    boost,
    cross_entropy_and_grad,
    evaluate_pair,
    forward,
    generate,
    generate_from_config,
    one_hot,
    rows_to_csv,
    train_cps,
    train_supervised,
)
import segboost.simulate
from segboost.metrics import ConfusionMatrix
from segboost.simulate import (
    _box_mean, _ce_grad, _log_softmax, _logp, _pair, _pair_logp, _pseudo_targets, _soft_ce,
)
from segboost.tensors import _over_classes


def _small_cfg(**kw):
    base = dict(iters=30, eval_every=10, images=8, labeled_fraction=0.25, val_images=4)
    base.update(kw)
    return SimConfig(**base)


class TestGenerate:
    def test_shapes_and_dtypes(self):
        data = generate(0, count=6, height=20, width=24, classes=3)
        assert data.features.shape == (6, 20, 24, 6)
        assert data.features.dtype == np.float64
        assert data.labels.shape == (6, 20, 24)
        assert data.labels.dtype == np.uint16
        assert data.classes == 3
        assert data.count == 6

    def test_deterministic_per_seed(self):
        a = generate(5, count=4)
        b = generate(5, count=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.labeled_idx, b.labeled_idx)
        c = generate(6, count=4)
        assert not np.array_equal(a.labels, c.labels)

    def test_split_partitions_images(self):
        data = generate(1, count=10, labeled_fraction=0.2)
        joined = np.sort(np.concatenate([data.labeled_idx, data.unlabeled_idx]))
        np.testing.assert_array_equal(joined, np.arange(10))
        assert len(data.labeled_idx) == 2

    def test_at_least_one_labeled_image(self):
        data = generate(2, count=5, labeled_fraction=0.0)
        assert len(data.labeled_idx) == 1

    def test_every_class_gets_a_decent_share(self):
        for seed in range(5):
            data = generate(seed, count=8, classes=3)
            for i in range(8):
                shares = np.bincount(data.labels[i].ravel(), minlength=3) / data.labels[i].size
                assert shares.min() >= 0.05

    def test_label_regions_are_connected_blobs(self):
        data = generate(0, count=8, classes=3)
        for i in range(8):
            for k in range(3):
                _, parts = ndimage.label(data.labels[i] == k)
                assert parts <= 2

    def test_coordinate_features_are_normalized(self):
        data = generate(3, count=2, height=16, width=8)
        rows, cols = data.features[0, :, :, 2], data.features[0, :, :, 3]
        assert rows.min() == 0.0 and rows.max() == 1.0
        assert cols.min() == 0.0 and cols.max() == 1.0
        np.testing.assert_array_equal(rows[:, 0], rows[:, -1])

    def test_box_mean_feature_matches_loop(self):
        data = generate(4, count=2, height=9, width=7)
        img0 = data.features[1, :, :, 0]
        smooth = data.features[1, :, :, 4]
        h, w = img0.shape
        for i in (0, 4, 8):
            for j in (0, 3, 6):
                window = img0[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
                assert smooth[i, j] == pytest.approx(window.mean(), abs=1e-12)

    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)), radius=st.integers(0, 14),
           integral=st.booleans(), data=st.data())
    def test_box_mean_matches_clipped_window_loop(self, shape, radius, integral, data):
        # integer-valued planes keep every sum exact, so the two must agree bit for bit
        values = st.integers(-1000, 1000).map(float) if integral else st.floats(-10, 10)
        plane = data.draw(arrays(np.float64, shape, elements=values))
        h, w = shape
        want = np.array([
            [plane[max(i - radius, 0):i + radius + 1, max(j - radius, 0):j + radius + 1].mean()
             for j in range(w)]
            for i in range(h)
        ])
        got = _box_mean(plane, radius)
        if integral:
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12)), radius=st.integers(0, 14),
           data=st.data())
    def test_box_mean_bits_match_fancy_index_corners(self, shape, radius, data):
        # oracle: a float64 summed-area table read through clipped corner
        # indices, combined as ((hi, hi) - (lo, hi)) - (hi, lo) + (lo, lo)
        plane = data.draw(arrays(np.float64, shape, elements=st.floats(-10, 10)))
        h, w = shape
        sat = np.zeros((h + 1, w + 1))
        np.cumsum(plane, axis=0, out=sat[1:, 1:])
        np.cumsum(sat[1:, 1:], axis=1, out=sat[1:, 1:])
        rows, cols = np.arange(h), np.arange(w)
        r_lo, r_hi = np.clip(rows - radius, 0, h), np.clip(rows + radius + 1, 0, h)
        c_lo, c_hi = np.clip(cols - radius, 0, w), np.clip(cols + radius + 1, 0, w)
        sums = sat[r_hi][:, c_hi] - sat[r_lo][:, c_hi] - sat[r_hi][:, c_lo] + sat[r_lo][:, c_lo]
        want = sums / ((r_hi - r_lo)[:, None] * (c_hi - c_lo)[None, :])
        assert _box_mean(plane, radius).tobytes() == want.tobytes()

    def test_rejects_degenerate_requests(self):
        with pytest.raises(ValidationError):
            generate(0, classes=1)
        with pytest.raises(ValidationError):
            generate(0, count=1)
        with pytest.raises(ValidationError):
            generate(0, count=4, labeled_fraction=1.0)

    @pytest.mark.parametrize("field, value", [
        ("noise", -1.0), ("height", 0), ("width", 2.5), ("noise", math.nan),
        ("labeled_fraction", math.nan), ("labeled_fraction", -0.5),
    ])
    def test_rejects_each_argument_that_cannot_run(self, field, value):
        # SimConfig's rule and wording, raised before numpy sees the value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=rf"^{field} must be .+, got {value!r}$"):
                generate(0, count=3, **{field: value})


class TestModelAndLoss:
    def test_forward_rows_are_distributions(self):
        rng = np.random.default_rng(9)
        model = LinearModel.init(3, 6, rng)
        feats = rng.normal(size=(5, 7, 6))
        probs = forward(model, feats)
        assert probs.shape == (5, 7, 3)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
        assert probs.min() > 0.0

    def test_forward_rejects_non_finite_params(self):
        rng = np.random.default_rng(10)
        model = LinearModel.init(2, 6, rng)
        model.weights[0, 0] = np.inf
        with pytest.raises(ValidationError):
            forward(model, rng.normal(size=(2, 6)))

    def test_soft_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        model = LinearModel.init(3, 4, rng)
        feats = rng.normal(size=(12, 4))
        raw = rng.random((12, 3))
        targets = raw / raw.sum(axis=1, keepdims=True)
        _, grad_w, grad_b = cross_entropy_and_grad(model, feats, targets)
        eps = 1e-6

        def loss_at(w, b):
            probe = LinearModel(w, b, np.zeros_like(w), np.zeros_like(b))
            return cross_entropy_and_grad(probe, feats, targets)[0]

        for idx in np.ndindex(*model.weights.shape):
            w_hi, w_lo = model.weights.copy(), model.weights.copy()
            w_hi[idx] += eps
            w_lo[idx] -= eps
            fd = (loss_at(w_hi, model.bias) - loss_at(w_lo, model.bias)) / (2 * eps)
            assert grad_w[idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)
        for k in range(model.bias.size):
            b_hi, b_lo = model.bias.copy(), model.bias.copy()
            b_hi[k] += eps
            b_lo[k] -= eps
            fd = (loss_at(model.weights, b_hi) - loss_at(model.weights, b_lo)) / (2 * eps)
            assert grad_b[k] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_soft_ce_on_one_hot_rows_matches_label_formula_bitwise(self):
        # oracle: CE indexed by the integer labels, as the labeled step once computed it
        rng = np.random.default_rng(15)
        model = LinearModel.init(4, 6, rng)
        feats = rng.normal(size=(20, 6))
        labels = rng.integers(0, 4, size=20)
        rows = one_hot(labels.reshape(4, 5), 4).reshape(20, 4).astype(np.float64)
        logp = _logp(model, feats)
        idx = np.arange(20)
        d = np.exp(logp)
        d[idx, labels] -= 1.0
        d /= 20
        loss, grad_w, grad_b = _soft_ce(logp, feats, rows)
        assert repr(loss) == repr(-float(np.mean(logp[idx, labels])))
        assert grad_w.tobytes() == (d.T @ feats).tobytes()
        assert grad_b.tobytes() == d.sum(axis=0).tobytes()

    def test_loss_nonnegative_and_finite(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            model = LinearModel.init(3, 6, rng)
            feats = rng.normal(size=(8, 6))
            raw = rng.random((8, 3))
            loss, _, _ = cross_entropy_and_grad(model, feats, raw / raw.sum(1, keepdims=True))
            assert np.isfinite(loss)
            assert loss >= 0.0


class TestTraining:
    def test_bitwise_deterministic(self):
        cfg = _small_cfg()
        data = generate_from_config(cfg, 3)
        r1 = train_cps(data, cfg, seed=3)
        r2 = train_cps(data, cfg, seed=3)
        assert r1.losses == r2.losses
        assert r1.history == r2.history
        np.testing.assert_array_equal(r1.model_a.weights, r2.model_a.weights)
        np.testing.assert_array_equal(r1.model_b.bias, r2.model_b.bias)

    def test_seed_changes_trajectory(self):
        cfg = _small_cfg()
        data = generate_from_config(cfg, 3)
        assert train_cps(data, cfg, seed=3).losses != train_cps(data, cfg, seed=4).losses

    def test_lambda_zero_equals_supervised_bitwise(self):
        cfg = _small_cfg(lam=0.0)
        data = generate_from_config(cfg, 5)
        a = train_cps(data, cfg, seed=5)
        b = train_supervised(data, cfg, seed=5)
        assert a.losses == b.losses
        assert a.history == b.history
        np.testing.assert_array_equal(a.model_a.weights, b.model_a.weights)
        np.testing.assert_array_equal(a.model_b.weights, b.model_b.weights)

    def test_cross_term_changes_trajectory(self):
        data = generate_from_config(_small_cfg(), 7)
        with_cross = train_cps(data, _small_cfg(lam=1.5), seed=7)
        without = train_cps(data, _small_cfg(lam=0.0), seed=7)
        assert with_cross.losses != without.losses

    def test_eval_schedule_includes_final_iteration(self):
        cfg = _small_cfg(iters=50, eval_every=20)
        data = generate_from_config(cfg, 2)
        res = train_cps(data, cfg, seed=2)
        assert [t for t, _ in res.history] == [20, 40, 50]
        assert all(0.0 <= m <= 1.0 for _, m in res.history)

    def test_losses_recorded_each_iteration(self):
        cfg = _small_cfg(iters=12)
        data = generate_from_config(cfg, 4)
        res = train_cps(data, cfg, seed=4)
        assert len(res.losses) == 12
        assert all(np.isfinite(a) and np.isfinite(b) for a, b in res.losses)

    def test_divergence_raises_with_iteration(self):
        cfg = _small_cfg(lam=0.0, lr=1e12, iters=80, eval_every=200)
        data = generate_from_config(cfg, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                train_cps(data, cfg, seed=0)
        assert 1 <= info.value.iteration <= 80

    # lr=1e100 at 5 iterations: a NaN loss at lam=0, NaN probabilities in the
    # boost pass at lam>0; at 4 iterations the last step's parameters are not
    # finite when evaluation sees them; lr=1e20: an infinite loss or NaN probabilities
    DIVERGING = {
        "nan-loss": SimConfig(lr=1e100, iters=5, images=6, labeled_fraction=0.25),
        "last-step": SimConfig(lr=1e100, iters=4, images=6, labeled_fraction=0.25),
        "inf-loss": SimConfig(lr=1e20, iters=30),
    }

    @pytest.mark.parametrize("lam", [0.0, 1.5])
    @pytest.mark.parametrize("case", sorted(DIVERGING))
    def test_every_lam_raises_training_diverged(self, case, lam):
        cfg = replace(self.DIVERGING[case], lam=lam)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                train_cps(generate_from_config(cfg, 0), cfg)
        assert 1 <= info.value.iteration <= cfg.iters
        assert str(info.value).endswith(f"at iteration {info.value.iteration}")

    def test_harden_and_policies_all_run(self):
        cfg = _small_cfg(iters=10, eval_every=10)
        data = generate_from_config(cfg, 1)
        for policy in ("ruv", "uniform", "none"):
            res = train_cps(data, replace(cfg, policy=policy, harden=True), seed=1)
            assert len(res.history) == 1

    def test_evaluate_pair_matches_per_image_loop(self):
        # oracle: one forward, argmax and confusion update per image
        rng = np.random.default_rng(23)
        data = generate(8, count=5, height=9, width=11, classes=4)
        for _ in range(3):
            a, b = (LinearModel.init(4, 6, rng, scale=3.0) for _ in range(2))
            cm = ConfusionMatrix(4)
            for i in range(data.count):
                probs = 0.5 * (forward(a, data.features[i]) + forward(b, data.features[i]))
                cm.update(data.labels[i], argmax_labels(probs))
            assert repr(evaluate_pair(a, b, data)) == repr(cm.miou())

    def test_validation_set_ignores_the_labeled_fraction(self):
        # 0.8 of 2 validation images would label both; validation never uses a split
        cfg = SimConfig(iters=1, images=10, labeled_fraction=0.8, val_images=2)
        data = generate_from_config(cfg, 4)
        assert (len(data.labeled_idx), len(data.unlabeled_idx)) == (8, 2)
        res = train_cps(data, cfg)
        val = generate(5, count=2, labeled_fraction=0.5)
        assert res.history == [(1, evaluate_pair(res.model_a, res.model_b, val))]
        assert len(train_cps(data, replace(cfg, val_images=1)).history) == 1

    def test_evaluate_pair_on_perfect_models_is_high(self):
        cfg = _small_cfg()
        data = generate_from_config(cfg, 9)
        res = train_cps(data, SimConfig(iters=200, images=8, labeled_fraction=0.25, val_images=4), seed=9)
        assert evaluate_pair(res.model_a, res.model_b, data) > 0.5

    # SHA-256 of the per-iteration losses plus both models' final weight and
    # bias bytes. Training is bitwise reproducible, so a refactor that moves
    # any of these bits changes behaviour.
    PINNED = {
        "ruv": "994c5315502f856247855dc7ff16ec88f97ffae4e9b94a71684cf6770815c1b5",
        "uniform": "9795332ed6e18836a69fabd524e0b7b3a0b0ce8093592d246564d586ad413018",
        "none": "9f115b6ce5197f160073779de79ef5276eca512ff64fa9911ab543c143ee9166",
        "harden": "6b4987d2fc656150241989b0d2d6f3b20b8ed1ad43b8bededb83503d80fb56d8",
        "zero3": "49fda691efd11d6ef6391f9955b8e6d0a16981304c9d6e807f9de12dfb360390",
        "supervised": "8722dc6b5f975a9417f432ace9cff12d9a2ed6b71b731a57575ac38551d11590",
    }

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_trajectory_bits_are_pinned(self, case):
        cfg = SimConfig(iters=6, eval_every=3, images=8, labeled_fraction=0.25, val_images=4)
        data = generate_from_config(cfg, 11)
        variants = {
            "uniform": replace(cfg, policy="uniform"),
            "none": replace(cfg, policy="none"),
            "harden": replace(cfg, harden=True),
            "zero3": replace(cfg, vicinity=VicinitySpec(3, 3, "zero")),
        }
        train = train_supervised if case == "supervised" else train_cps
        res = train(data, variants.get(case, cfg), seed=11)
        digest = hashlib.sha256(np.array(res.losses).tobytes())
        for model in (res.model_a, res.model_b):
            digest.update(model.weights.tobytes())
            digest.update(model.bias.tobytes())
        assert digest.hexdigest() == self.PINNED[case]

    def test_one_forward_per_model_per_iteration(self, monkeypatch):
        calls = []
        log_softmax = segboost.simulate._log_softmax
        monkeypatch.setattr(segboost.simulate, "_log_softmax",
                            lambda x, *a, **kw: calls.append(x.shape) or log_softmax(x, *a, **kw))
        cfg = _small_cfg(iters=1, batch=4, val_images=3)
        pixels = cfg.height * cfg.width
        train_cps(generate_from_config(cfg, 2), cfg, seed=2)
        # one class-major pass over (labeled, unlabeled) x (model a, model b), then one over the validation stack
        assert calls == [(2, 2, cfg.classes, 4 * pixels), (2, cfg.classes, 3 * pixels)]
        calls.clear()
        train_cps(generate_from_config(cfg, 2), replace(cfg, lam=0.0), seed=2)
        assert calls == [(1, 2, cfg.classes, 4 * pixels), (2, cfg.classes, 3 * pixels)]

    def test_one_boost_pass_per_model_per_iteration(self, monkeypatch):
        calls = []
        run = segboost.simulate._run
        monkeypatch.setattr(segboost.simulate, "_run", lambda *a, **kw: calls.append(a[0].shape) or run(*a, **kw))
        cfg = _small_cfg(iters=3, batch=4)
        train_cps(generate_from_config(cfg, 2), cfg, seed=2)
        # one pass per iteration over both models' unlabeled batches, class-major
        assert calls == [(2, cfg.classes, 4, cfg.height, cfg.width)] * 3
        calls.clear()
        train_cps(generate_from_config(cfg, 2), replace(cfg, lam=0.0), seed=2)
        assert calls == []

    def test_result_models_own_their_arrays(self):
        cfg = _small_cfg(iters=2)
        res = train_cps(generate_from_config(cfg, 1), cfg, seed=1)
        for model in (res.model_a, res.model_b):
            for arr in (model.weights, model.bias, model.w_momentum, model.b_momentum):
                assert arr.flags.owndata
            assert model.weights.shape == (cfg.classes, 6) and model.bias.shape == (cfg.classes,)

    # Traced peak of this run under the trainer with one forward and one boost
    # pass per model (its temporaries stayed alive through evaluation), and the
    # bound for the fused pair step with its class-major boost pass: what it
    # reaches, 2.32 MiB, rounded up (2.61 MiB with a class-last boost pass).
    SINGLE_MODEL_PEAK_MIB = 2.23
    PAIR_PEAK_BOUND_MIB = 2.4

    def test_traced_peak_of_a_short_run(self):
        cfg = SimConfig(iters=20, batch=4, policy="ruv")
        data = generate_from_config(cfg, 0)
        train_cps(data, cfg, seed=0)
        tracemalloc.start()
        try:
            train_cps(data, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert self.PAIR_PEAK_BOUND_MIB <= 1.5 * self.SINGLE_MODEL_PEAK_MIB
        assert peak <= self.PAIR_PEAK_BOUND_MIB

    @pytest.mark.parametrize("policy", ["ruv", "uniform", "none"])
    @pytest.mark.parametrize("harden", [False, True])
    @pytest.mark.parametrize("vicinity", [VicinitySpec(3, 3, "zero"), VicinitySpec(41, 41, "clip")])
    def test_pseudo_targets_are_one_boost_call_per_image(self, policy, harden, vicinity):
        rng = np.random.default_rng(21)
        logits = rng.normal(scale=3.0, size=(5, 6, 8, 3))
        probs = np.exp(_log_softmax(logits))
        cfg = _small_cfg(policy=policy, harden=harden, vicinity=vicinity)
        want = []
        for pred in probs:
            soft = boost(pred, vicinity, policy).data
            if harden:
                soft = one_hot(argmax_labels(soft), 3).astype(np.float32)
            want.append(soft.reshape(-1, 3))
        want = np.concatenate(want)
        # the class-major stack of the five maps, as one model's half
        got = _pseudo_targets(np.moveaxis(probs, -1, 0)[None], cfg)
        assert got.shape == (1, 3, 5, 6, 8)
        assert np.moveaxis(got[0], 0, -1).astype(np.float32).tobytes() == want.tobytes()

    def test_rejects_bad_config(self):
        with pytest.raises(ValidationError):
            SimConfig(lam=-1.0)
        with pytest.raises(ValidationError):
            SimConfig(iters=0)

    @pytest.mark.parametrize("field, value", [
        ("lam", math.nan), ("lam", math.inf), ("lr", 0.0), ("lr", -1.0), ("momentum", 1.0),
        ("momentum", -0.1), ("weight_decay", -1e-4), ("noise", -1.0), ("noise", math.nan),
        ("labeled_fraction", 0.0), ("labeled_fraction", 1.0), ("batch", 0), ("eval_every", 0),
        ("height", 0), ("width", 0), ("val_images", 0), ("images", 1), ("classes", 1),
        ("batch", 2.0), ("iters", True), ("policy", "warp"), ("seeds", ()), ("seeds", [0]),
        ("seeds", (-1,)), ("seeds", (1.5,)), ("vicinity", 5), ("harden", 1),
    ])
    def test_rejects_each_field_that_cannot_run(self, field, value):
        with pytest.raises(ValidationError, match=field):
            SimConfig(**{field: value})

    _odd = st.sampled_from([1, 3, 5, 41])
    _runnable = {
        "lam": st.floats(0, 10), "lr": st.floats(0, 10, exclude_min=True),
        "momentum": st.floats(0, 1, exclude_max=True), "weight_decay": st.floats(0, 1),
        "noise": st.floats(0, 5), "labeled_fraction": st.floats(0, 1, exclude_min=True, exclude_max=True),
        "batch": st.integers(1, 6), "eval_every": st.integers(1, 3), "images": st.integers(2, 8),
        "height": st.integers(1, 10), "width": st.integers(1, 10), "classes": st.integers(2, 9),
        "val_images": st.integers(1, 4), "policy": st.sampled_from(POLICIES),
        "seeds": st.tuples(st.integers(0, 50)), "harden": st.booleans(),
        "vicinity": st.builds(VicinitySpec, _odd, _odd, st.sampled_from(["clip", "zero"])),
    }
    _wild_real = st.floats(-1e6, 1e6) | st.sampled_from([math.nan, math.inf, -math.inf, True, "1", None])
    _wild_count = st.integers(-3, 16) | st.sampled_from([2.0, True, None, "3"])
    _wild = {
        **dict.fromkeys(["lam", "lr", "momentum", "weight_decay", "noise", "labeled_fraction"], _wild_real),
        **dict.fromkeys(["batch", "eval_every", "images", "height", "width", "classes", "val_images"],
                        _wild_count),
        "policy": st.sampled_from(["warp", None, 3]),
        "seeds": st.sampled_from([(), [3], (-1,), (2.0,), (True,), (1, "2")]),
        "harden": st.sampled_from([0, 1, None]),
        "vicinity": st.sampled_from([5, (5, 5), None]),
    }

    @settings(max_examples=150)
    @given(data=st.data())
    def test_config_runs_one_iteration_or_raises_validation_error(self, data):
        # a runnable config with up to three fields drawn from anywhere
        fields = {name: data.draw(strategy, label=name) for name, strategy in self._runnable.items()}
        for name in data.draw(st.sets(st.sampled_from(sorted(self._wild)), max_size=3), label="wild"):
            fields[name] = data.draw(self._wild[name] | self._runnable[name], label=name)
        try:
            cfg = SimConfig(iters=1, **fields)
            res = train_cps(generate_from_config(cfg, cfg.seeds[0]), cfg)
        except ValidationError:
            return
        assert len(res.losses) == len(res.history) == 1


class TestAblate:
    def test_grid_rows_and_vicinity_column(self):
        cfg = _small_cfg(iters=8, eval_every=8, seeds=(0, 1))
        rows = ablate(None, cfg, ["none", "uniform", "ruv"], [3, 5])
        # per seed: none 1 + uniform 1 + ruv with two window sizes
        assert len(rows) == 2 * (1 + 1 + 2)
        for policy, vicinity, seed, iteration, value in rows:
            assert iteration == 8
            assert 0.0 <= value <= 1.0
            if policy == "ruv":
                assert vicinity in (3, 5)
            else:
                assert vicinity == 0

    def test_shared_dataset_reused_across_policies(self):
        cfg = _small_cfg(iters=8, eval_every=8, seeds=(4,))
        data = generate_from_config(cfg, 4)
        rows_a = ablate(data, cfg, ["none"], [5])
        rows_b = ablate(data, cfg, ["none"], [5])
        assert rows_a == rows_b

    def test_benchmark_grid_matches_its_recorded_sha256(self):
        # the cps-ablation grid of bench/workloads.py for sim seed 0
        recorded = json.loads((Path(__file__).resolve().parents[1] / "bench" / "grid_sha256.json").read_text())
        rows = ablate(None, SimConfig(seeds=(0,)), ["none", "uniform", "ruv"], [5])
        assert hashlib.sha256(rows_to_csv(rows).encode()).hexdigest() == recorded["0"]

    def test_csv_shape(self):
        rows = [("ruv", 5, 0, 200, 0.934567891), ("none", 0, 1, 200, 1.0)]
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "policy,vicinity,seed,iter,miou"
        assert lines[1] == "ruv,5,0,200,0.934568"
        assert lines[2] == "none,0,1,200,1.000000"
        assert text.endswith("\n")


class TestClassAxisReductions:
    """Column-wise class reductions give the bytes of numpy's axis reductions."""

    @staticmethod
    def _wide_range(rng, k):
        x = rng.standard_normal((4096, k)) * 10.0 ** rng.integers(-6, 6, (4096, k))
        x[rng.random((4096, k)) < 0.05] = -0.0
        x[:7, :] = -0.0  # rows of signed zeros only
        return x

    @pytest.mark.parametrize("k", range(1, 13))
    def test_over_classes_matches_axis_reductions(self, k):
        x = self._wide_range(np.random.default_rng(k), k)
        assert _over_classes(np.add, x).tobytes() == x.sum(axis=-1).tobytes()
        assert _over_classes(np.maximum, x).tobytes() == x.max(axis=-1).tobytes()
        x32 = x.astype(np.float32)
        assert _over_classes(np.add, x32, np.float64).tobytes() == x32.sum(axis=-1, dtype=np.float64).tobytes()
        cube = x.reshape(64, 64, k)
        assert _over_classes(np.add, cube).tobytes() == cube.sum(axis=-1).tobytes()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_log_softmax_and_soft_ce_match_axis_formulas(self, k):
        rng = np.random.default_rng(100 + k)
        logits = rng.normal(scale=4.0, size=(4096, k))
        z = logits - logits.max(axis=-1, keepdims=True)
        want = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        logp = _log_softmax(logits)
        assert logp.tobytes() == want.tobytes()
        assert _log_softmax(logits.reshape(64, 64, k)).tobytes() == want.tobytes()
        raw = rng.random((4096, k))
        raw[rng.random((4096, k)) < 0.3] = 0.0
        targets = raw / np.maximum(raw.sum(axis=1, keepdims=True), 1e-12)
        features = rng.normal(size=(4096, 6))
        loss, grad_w, grad_b = _soft_ce(logp, features, targets)
        assert repr(loss) == repr(-float(np.mean((targets * logp).sum(axis=1))))
        d = (np.exp(logp) - targets) / targets.shape[0]
        assert grad_w.tobytes() == (d.T @ features).tobytes()
        assert grad_b.tobytes() == d.sum(axis=0).tobytes()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_pair_kernels_match_row_major_formulas(self, k, n=4096):
        # oracle: the row-major (n, 2K) formulas of the two models side by side, each
        # model's class block on its own; for K >= 2 also each model's own product,
        # which at K = 1 is a matrix-vector product with other bits
        rng = np.random.default_rng(200 + k)
        f = 6
        x = rng.normal(size=(n, f))
        x[rng.random((n, f)) < 0.05] = -0.0
        x[:7] = -0.0
        pair = _pair([LinearModel.init(k, f, rng, scale=2.0) for _ in range(2)])
        pair.bias[:] = rng.normal(size=2 * k)
        logits = x @ pair.weights.T + pair.bias
        assert (pair.weights @ x.T + pair.bias[:, None]).tobytes() == logits.T.tobytes(order="C")
        blocks = [np.ascontiguousarray(logits[:, m * k:(m + 1) * k]) for m in (0, 1)]
        if k > 1:
            for m, block in enumerate(blocks):
                rows = slice(m * k, (m + 1) * k)
                assert (x @ pair.weights[rows].T + pair.bias[rows]).tobytes() == block.tobytes()
        logp = _pair_logp(pair, x.T)
        want_logp = []
        for m, block in enumerate(blocks):
            z = block - block.max(axis=-1, keepdims=True)
            want_logp.append(z - np.log(np.exp(z).sum(axis=-1, keepdims=True)))
            assert logp[m].T.tobytes(order="C") == want_logp[m].tobytes()
        raw = rng.random((2, n, k))
        raw[rng.random((2, n, k)) < 0.3] = 0.0
        targets = raw / np.maximum(raw.sum(axis=-1, keepdims=True), 1e-12)
        probs = np.exp(logp)
        # one class of model a with d = -0.0 throughout: its bias gradient must still be +0.0
        probs[0, 0] = -0.0
        targets[0, :, 0] = 0.0
        want_loss = [-float(np.mean((targets[m] * want_logp[m]).sum(axis=1))) for m in (0, 1)]
        d = np.concatenate([(probs[m].T - targets[m]) / n for m in (0, 1)], axis=1)
        loss, grad_w, grad_b = _ce_grad(logp.copy(), probs.copy(), targets.transpose(0, 2, 1), x)
        assert repr(loss.tolist()) == repr(want_loss)
        assert grad_w.tobytes() == (d.T @ x).tobytes()
        assert grad_b.tobytes() == d.sum(axis=0).tobytes()
        assert np.signbit(grad_b[0]) == np.signbit(d.sum(axis=0)[0]) == False  # noqa: E712
        if k > 1:
            for m in (0, 1):
                d_m = np.ascontiguousarray(d[:, m * k:(m + 1) * k])
                assert grad_w[m * k:(m + 1) * k].tobytes() == (d_m.T @ x).tobytes()

    @pytest.mark.parametrize("k", range(1, 6))
    def test_pair_kernels_match_row_major_formulas_at_468_pixels(self, k):
        # four 9x13 images; from K = 6 on, the pair product keeps the per-model bits
        # only when n is a multiple of 8 or below about 190 (numpy 2.4.6, OpenBLAS)
        self.test_pair_kernels_match_row_major_formulas(k, n=468)
