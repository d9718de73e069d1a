"""Generalization-gap calculators for the boosted-versus-vanilla comparison.

Everything here treats hypotheses as products of identity-covariance
Gaussians whose means are linear readouts ``M @ x`` of an input
representation, optionally shifted by a booster offset added to the
weights. Three quantities are computed in closed form:

* the KL divergence between two such products,
* the high-probability gap bound ``sqrt((KL + ln(2 sqrt(N) / delta)) / (2N))``,
* the empirical-risk upper bound
  ``risk + sqrt(KL / (2N)) + sqrt(ln(2 sqrt(N) / delta) / (2N))``, which
  splits the gap bound's root in two and so never falls below
  ``risk + gap bound``. A risk bound from a KL value and one from two
  posteriors both use this form.

The KL carries a ``mode`` switch: ``paper`` scales the squared mean
distance by the dimension ``d``, while ``standard`` is the textbook
``1/2 ||mu_p - mu_q||^2`` for identity-covariance Gaussian products;
``paper`` equals ``2 d`` times ``standard``. Keep ``standard`` for
numerical sanity checks against quadrature.

A finite-hypothesis estimator of the discrepancy distance between two
pixel samples is included; replacing the supremum over an infinite
hypothesis family by a maximum over an explicit finite one makes it a
computable lower bound on the true distance.

Only deterministic mean offsets are modeled. Widening the posterior by
injecting random noise into the readout is sometimes discussed as an
alternative comparison, but there is no canonical recipe for it, so no
constructor for such posteriors is provided; callers can still pass any
mean vector they like to :class:`GaussianPosterior`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .tensors import ValidationError, _is_int

KL_MODES = ("paper", "standard")
LOSSES = ("zero_one", "l2")


@dataclass(frozen=True)
class GaussianPosterior:
    """Product of per-coordinate unit-variance Gaussians with mean ``mean``."""

    mean: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        if mean.ndim != 1 or not np.isfinite(mean).all():
            raise ValidationError("posterior mean must be a finite 1-D vector")
        object.__setattr__(self, "mean", mean)

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def from_weights(
        cls,
        weights: np.ndarray,
        inputs: np.ndarray,
        booster: np.ndarray | None = None,
    ) -> "GaussianPosterior":
        """Posterior with mean ``(weights + booster) @ inputs``.

        ``weights`` may carry a bias column if ``inputs`` carries a trailing 1;
        ``booster`` is an additive weight offset of the same shape.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if booster is not None:
            booster = np.asarray(booster, dtype=np.float64)
            if booster.shape != weights.shape:
                raise ValidationError(
                    f"booster shape {booster.shape} must match weights {weights.shape}"
                )
            weights = weights + booster
        try:
            mean = weights @ np.asarray(inputs, dtype=np.float64)
        except ValueError:  # numpy's matmul shape error
            raise ValidationError(f"weights {weights.shape} cannot multiply inputs {np.shape(inputs)}") from None
        return cls(mean)


def kl_gaussian_product(q: GaussianPosterior, p: GaussianPosterior, mode: str = "paper") -> float:
    """KL divergence between two unit-variance Gaussian products.

    ``standard`` returns ``1/2 ||mu_p - mu_q||^2``; ``paper`` returns
    ``d ||mu_p - mu_q||^2`` (the scaling used by the bound this package
    reproduces). Zero iff the means coincide, in either mode.
    """
    if mode not in KL_MODES:
        raise ValidationError(f"mode must be one of {KL_MODES}, got {mode!r}")
    if q.dim != p.dim:
        raise ValidationError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    sq = float(np.sum((p.mean - q.mean) ** 2))
    return q.dim * sq if mode == "paper" else 0.5 * sq


def _check_bound_inputs(kl: float, n: int, delta: float) -> None:
    """The checks both root bounds make: a finite KL >= 0, an integer sample count >= 1 and delta in (0, 1)."""
    if not (kl >= 0 and math.isfinite(kl)):
        raise ValidationError(f"kl must be finite and >= 0, got {kl}")
    if not (_is_int(n) and n >= 1):
        raise ValidationError(f"sample count must be an integer >= 1, got {n!r}")
    if not 0.0 < delta < 1.0:
        raise ValidationError(f"delta must lie in (0, 1), got {delta}")


def gap_bound(kl: float, n: int, delta: float) -> float:
    """High-probability bound on expected minus empirical risk.

    ``sqrt((kl + ln(2 sqrt(n) / delta)) / (2 n))``, valid with probability
    at least ``1 - delta`` over an ``n``-sample.
    """
    _check_bound_inputs(kl, n, delta)
    return math.sqrt((kl + math.log(2.0 * math.sqrt(n) / delta)) / (2.0 * n))


def risk_upper_bound(
    empirical_risk: float,
    q: GaussianPosterior,
    p: GaussianPosterior,
    n: int,
    delta: float,
    mode: str = "paper",
) -> float:
    """Upper bound on expected risk: empirical risk plus the two root terms.

    The KL enters through its own root, so with all else fixed the bound is
    monotone in the distance between the two posterior means; shrinking
    ``||mu_p - mu_q||`` (e.g. by a well-chosen booster offset) never raises it.
    """
    return _risk_bound(empirical_risk, kl_gaussian_product(q, p, mode), n, delta)


def _risk_bound(empirical_risk: float, kl: float, n: int, delta: float) -> float:
    """The two-root risk bound for a given KL value; see the module docstring."""
    if not 0.0 <= empirical_risk <= 1.0:
        raise ValidationError(f"empirical risk must lie in [0, 1], got {empirical_risk}")
    _check_bound_inputs(kl, n, delta)
    return (
        empirical_risk
        + math.sqrt(kl / (2.0 * n))
        + math.sqrt(math.log(2.0 * math.sqrt(n) / delta) / (2.0 * n))
    )


def _pair_loss(a: np.ndarray, b: np.ndarray, loss: str) -> float:
    if loss == "zero_one":
        return float(np.mean(a != b))
    return float(np.mean((a.astype(np.float64) - b.astype(np.float64)) ** 2))


def empirical_discrepancy(
    family: Sequence[Callable[[np.ndarray], np.ndarray]],
    sample_a: np.ndarray,
    sample_b: np.ndarray,
    loss: str = "zero_one",
) -> float:
    """Discrepancy distance between two pixel samples over a finite family.

    ``2 max_(h1,h2) | mean_a L(h1, h2) - mean_b L(h1, h2) |`` by exhaustive
    enumeration of ordered hypothesis pairs. Symmetric in the two samples,
    non-negative, and zero when they coincide.

    Parameters
    ----------
    family : non-empty sequence of callables mapping a sample array to
        per-element outputs (class ids for ``zero_one``, reals for ``l2``)
    sample_a, sample_b : non-empty arrays of pixels/feature rows
    loss : ``zero_one`` or ``l2``
    """
    if loss not in LOSSES:
        raise ValidationError(f"loss must be one of {LOSSES}, got {loss!r}")
    if len(family) == 0:
        raise ValidationError("hypothesis family must be non-empty")
    sample_a = np.asarray(sample_a)
    sample_b = np.asarray(sample_b)
    if sample_a.shape[0] == 0 or sample_b.shape[0] == 0:
        raise ValidationError("samples must be non-empty")
    outs_a = [np.asarray(h(sample_a)) for h in family]
    outs_b = [np.asarray(h(sample_b)) for h in family]
    best = 0.0
    for i in range(len(family)):
        for j in range(len(family)):
            gap = abs(_pair_loss(outs_a[i], outs_a[j], loss) - _pair_loss(outs_b[i], outs_b[j], loss))
            best = max(best, gap)
    return 2.0 * best


def discrepancy_risk_bound(labeled_risk: float, discrepancy: float, mu_star: float = 0.0) -> float:
    """Single-image risk bound: labeled risk + half the discrepancy + ``mu_star``.

    ``mu_star`` is the joint risk of the best hypothesis in the family; it is
    unobservable without labels and is supplied by the caller (default 0,
    the assume-it-is-trivial convention).
    """
    if not 0.0 <= labeled_risk <= 1.0:  # also rejects NaN, as the checks below do
        raise ValidationError(f"labeled risk must lie in [0, 1], got {labeled_risk}")
    if not discrepancy >= 0:
        raise ValidationError(f"discrepancy must be >= 0, got {discrepancy}")
    if math.isnan(mu_star):
        raise ValidationError("mu_star must not be NaN")
    return labeled_risk + 0.5 * discrepancy + mu_star


def threshold_rule(
    threshold: float,
    below: int = 0,
    above: int = 1,
    feature: int = 0,
) -> Callable[[np.ndarray], np.ndarray]:
    """Build a scalar threshold classifier for 1-D or row-feature samples."""

    def rule(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        vals = x if x.ndim == 1 else x[:, feature]
        return np.where(vals <= threshold, below, above)

    return rule


def linear_rule(weights: np.ndarray, bias: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Build an argmax linear classifier over row-feature samples."""
    weights = np.asarray(weights, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)

    def rule(x: np.ndarray) -> np.ndarray:
        scores = np.asarray(x, dtype=np.float64) @ weights.T + bias
        return np.argmax(scores, axis=-1)

    return rule
