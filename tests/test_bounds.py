"""Generalization-bound calculators: KL modes, gap bounds, discrepancy."""

import math

import numpy as np
import pytest

from segboost import (
    GaussianPosterior,
    ValidationError,
    discrepancy_risk_bound,
    empirical_discrepancy,
    gap_bound,
    kl_gaussian_product,
    linear_rule,
    risk_upper_bound,
    threshold_rule,
)


def _kl_quadrature(mu_q, mu_p):
    """Per-coordinate numerical KL between unit-variance Gaussians (midpoint rule)."""
    total = 0.0
    for a, b in zip(np.atleast_1d(mu_q), np.atleast_1d(mu_p)):
        edges = np.linspace(a - 12.0, a + 12.0, 40001)
        x = 0.5 * (edges[:-1] + edges[1:])
        dx = edges[1] - edges[0]
        q = np.exp(-0.5 * (x - a) ** 2) / math.sqrt(2 * math.pi)
        log_ratio = 0.5 * ((x - b) ** 2 - (x - a) ** 2)
        total += float(np.sum(q * log_ratio) * dx)
    return total


class TestGaussianPosterior:
    def test_mean_coerced_to_float64_vector(self):
        g = GaussianPosterior([1, 2, 3])
        assert g.mean.dtype == np.float64
        assert g.dim == 3

    def test_scalar_becomes_1d(self):
        assert GaussianPosterior(2.5).dim == 1

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            GaussianPosterior([1.0, np.nan])

    def test_from_weights_matmul(self):
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        x = np.array([3.0, 4.0])
        np.testing.assert_array_equal(GaussianPosterior.from_weights(w, x).mean, [3.0, 8.0])

    def test_from_weights_booster_offset(self):
        w = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        x = np.array([2.0, 5.0])
        np.testing.assert_array_equal(GaussianPosterior.from_weights(w, x, b).mean, [7.0])
        with pytest.raises(ValidationError):
            GaussianPosterior.from_weights(w, x, np.zeros((2, 2)))

    def test_from_weights_shape_mismatch_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"weights \(2, 3\) cannot multiply inputs \(4,\)"):
            GaussianPosterior.from_weights(np.ones((2, 3)), np.ones(4))


class TestKlModes:
    def test_standard_matches_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            d = int(rng.choice([2, 4]))
            mu_q = rng.normal(0, 2, size=d)
            mu_p = rng.normal(0, 2, size=d)
            got = kl_gaussian_product(GaussianPosterior(mu_q), GaussianPosterior(mu_p), "standard")
            want = _kl_quadrature(mu_q, mu_p)
            assert got == pytest.approx(want, rel=1e-2)

    def test_paper_is_2d_times_standard_exactly(self):
        rng = np.random.default_rng(33)
        for d in (1, 2, 3, 4, 7, 16):
            q = GaussianPosterior(rng.normal(size=d))
            p = GaussianPosterior(rng.normal(size=d))
            paper = kl_gaussian_product(q, p, "paper")
            standard = kl_gaussian_product(q, p, "standard")
            assert paper == 2 * d * standard  # powers of two: no rounding slack

    def test_zero_iff_equal_means(self):
        q = GaussianPosterior([0.5, -1.0])
        assert kl_gaussian_product(q, q, "paper") == 0.0
        assert kl_gaussian_product(q, q, "standard") == 0.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kl_gaussian_product(GaussianPosterior([1.0]), GaussianPosterior([1.0, 2.0]))

    def test_unknown_mode_rejected(self):
        q = GaussianPosterior([0.0])
        with pytest.raises(ValidationError):
            kl_gaussian_product(q, q, "exotic")


class TestGapBound:
    def test_closed_form_at_kl_zero(self):
        want = math.sqrt(math.log(2 * math.sqrt(100) / 0.05) / 200)
        assert gap_bound(0.0, 100, 0.05) == pytest.approx(want, abs=1e-15)
        assert f"{gap_bound(0.0, 100, 0.05):.6f}" == "0.173082"

    def test_monotone_in_kl_and_n(self):
        kls = np.linspace(0, 30, 10)
        ns = np.unique(np.logspace(1, 5, 10).astype(int))
        for n in ns:
            vals = [gap_bound(k, int(n), 0.05) for k in kls]
            assert all(a < b for a, b in zip(vals, vals[1:]))
        for k in kls:
            vals = [gap_bound(k, int(n), 0.05) for n in ns]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validations(self):
        with pytest.raises(ValidationError):
            gap_bound(-1.0, 10, 0.05)
        with pytest.raises(ValidationError):
            gap_bound(1.0, 0, 0.05)
        with pytest.raises(ValidationError):
            gap_bound(1.0, 10, 0.0)
        with pytest.raises(ValidationError):
            gap_bound(1.0, 10, 1.0)
        with pytest.raises(ValidationError):
            gap_bound(math.inf, 10, 0.5)

    @pytest.mark.parametrize("n", [10.5, True, 10.0], ids=["fraction", "bool", "float"])
    def test_sample_count_must_be_an_integer(self, n):
        with pytest.raises(ValidationError, match="sample count must be an integer"):
            gap_bound(0.0, n, 0.05)
        with pytest.raises(ValidationError, match="sample count must be an integer"):
            risk_upper_bound(0.1, GaussianPosterior([0.0]), GaussianPosterior([1.0]), n, 0.05)

    def test_numpy_integer_sample_count_accepted(self):
        assert gap_bound(0.0, np.int64(100), 0.05) == gap_bound(0.0, 100, 0.05)


class TestRiskUpperBound:
    def test_decomposes_into_named_terms(self):
        q = GaussianPosterior([1.0, 1.0])
        p = GaussianPosterior([0.0, 0.0])
        n, delta = 400, 0.1
        kl = kl_gaussian_product(q, p, "paper")
        want = 0.2 + math.sqrt(kl / (2 * n)) + math.sqrt(math.log(2 * math.sqrt(n) / delta) / (2 * n))
        assert risk_upper_bound(0.2, q, p, n, delta, "paper") == pytest.approx(want, abs=1e-15)

    def test_never_below_empirical_risk(self):
        rng = np.random.default_rng(39)
        for _ in range(20):
            q = GaussianPosterior(rng.normal(size=3))
            p = GaussianPosterior(rng.normal(size=3))
            r = float(rng.random())
            assert risk_upper_bound(r, q, p, 50, 0.05) >= r

    def test_closer_posterior_never_raises_bound(self):
        p = GaussianPosterior([0.0, 0.0, 0.0])
        far = GaussianPosterior([2.0, 1.0, -1.0])
        near = GaussianPosterior([0.2, 0.1, -0.1])
        for mode in ("paper", "standard"):
            assert risk_upper_bound(0.1, near, p, 200, 0.05, mode) <= risk_upper_bound(
                0.1, far, p, 200, 0.05, mode
            )

    def test_risk_outside_unit_interval_rejected(self):
        q = GaussianPosterior([0.0])
        with pytest.raises(ValidationError):
            risk_upper_bound(1.5, q, q, 10, 0.05)


class TestEmpiricalDiscrepancy:
    def test_zero_on_identical_samples(self):
        family = [threshold_rule(0.5), threshold_rule(1.5)]
        sample = np.array([0.0, 1.0, 2.0, 3.0])
        assert empirical_discrepancy(family, sample, sample) == 0.0

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(43)
        family = [threshold_rule(t) for t in (0.2, 0.5, 0.8)]
        a, b = rng.random(9), rng.random(7)
        assert empirical_discrepancy(family, a, b) == empirical_discrepancy(family, b, a)

    def test_matches_exhaustive_pair_enumeration(self):
        thresholds = (1.0, 3.0, 5.0)
        family = [threshold_rule(t) for t in thresholds]
        a = np.array([0.0, 2.0, 4.0, 6.0, 8.0])
        b = np.array([0.5, 0.6, 3.5, 3.6, 7.0])
        best = 0.0
        for t1 in thresholds:
            for t2 in thresholds:
                ha_1 = a > t1
                ha_2 = a > t2
                hb_1 = b > t1
                hb_2 = b > t2
                gap = abs(np.mean(ha_1 != ha_2) - np.mean(hb_1 != hb_2))
                best = max(best, float(gap))
        assert empirical_discrepancy(family, a, b) == pytest.approx(2 * best)

    def test_l2_loss_variant(self):
        family = [linear_rule(np.eye(2), np.zeros(2)), linear_rule(-np.eye(2), np.zeros(2))]
        rng = np.random.default_rng(47)
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(5, 2))
        value = empirical_discrepancy(family, a, b, loss="l2")
        assert value >= 0.0

    def test_zero_one_bounded_by_two(self):
        rng = np.random.default_rng(51)
        family = [threshold_rule(t) for t in rng.random(4)]
        for _ in range(10):
            a, b = rng.random(8), rng.random(8)
            assert 0.0 <= empirical_discrepancy(family, a, b) <= 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValidationError):
            empirical_discrepancy([], np.ones(3), np.ones(3))
        with pytest.raises(ValidationError):
            empirical_discrepancy([threshold_rule(0.5)], np.ones(0), np.ones(3))
        with pytest.raises(ValidationError):
            empirical_discrepancy([threshold_rule(0.5)], np.ones(3), np.ones(3), loss="huber")


class TestDiscrepancyRiskBound:
    def test_formula(self):
        assert discrepancy_risk_bound(0.1, 0.3) == pytest.approx(0.25)
        assert discrepancy_risk_bound(0.1, 0.3, mu_star=0.05) == pytest.approx(0.3)

    def test_negative_discrepancy_rejected(self):
        with pytest.raises(ValidationError):
            discrepancy_risk_bound(0.1, -0.2)

    @pytest.mark.parametrize("risk", [-1.0, 1.5, math.nan])
    def test_labeled_risk_outside_the_unit_interval_rejected(self, risk):
        with pytest.raises(ValidationError, match="labeled risk must lie in"):
            discrepancy_risk_bound(risk, 0.1)

    def test_nan_discrepancy_and_mu_star_rejected(self):
        with pytest.raises(ValidationError, match="discrepancy"):
            discrepancy_risk_bound(0.1, math.nan)
        with pytest.raises(ValidationError, match="mu_star"):
            discrepancy_risk_bound(0.1, 0.1, math.nan)
