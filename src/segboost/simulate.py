"""Desk-scale cross-supervision trainer on synthetic segmentation data.

Two per-pixel linear softmax classifiers train jointly: each sees the
labeled images with ground truth, and on unlabeled images each learns
from the other's (optionally uncertainty-boosted) pseudo labels,

    loss_1 = mean_L CE(p_1, y) + lambda * mean_U CE(p_1, boost(p_2)),

and symmetrically for the second model. The point is not to rival a real
segmentation network but to compare booster policies (none / uniform /
regional) under identical conditions in seconds, with bitwise-reproducible
trajectories. The model math is two kernels, ``_log_softmax`` and
``_ce_grad``; the labeled term is the soft CE against float64 one-hot rows
of the truth. Training runs them class-major, on both models at once: the
pair's parameters are one ``(2K, F)`` matrix, its logits ``(2, K, n)``
rows, and the bits are those of the row-major per-model formulas (class
sums in order from +0.0 below 8 classes and pairwise from 8 on, bias
gradients as sequential column sums) where the pair product keeps each
model's bits (see ``_pair_logp``). ``forward`` and
``cross_entropy_and_grad`` keep the row-major ``(n, K)`` interface.

Synthetic images are built from per-class Gaussian blob score fields
(labels = per-pixel argmax) rendered through a per-dataset class palette
with additive intensity noise. Per-pixel features are handcrafted: the
raw intensity channels, normalized row/column coordinates, and a 3x3
local mean of each intensity channel.

Reproducibility contract: everything is driven by ``numpy.random.Generator``
streams spawned from a single seed, the loop is single-threaded, and all
accumulation is float64, so identical config + seed gives identical
histories down to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Real
from typing import Sequence

import numpy as np

from .booster import POLICIES, _run
from .metrics import ConfusionMatrix
from .tensors import ValidationError, _argmax, _is_int, _one_hot, _over_classes, argmax_labels, one_hot
from .voting import VicinitySpec, _window_sums

CSV_HEADER = "policy,vicinity,seed,iter,miou"


class TrainingDiverged(RuntimeError):
    """Raised when training goes non-finite; carries the 1-based iteration.

    ``cause`` says what went non-finite first: a loss, the probabilities
    the boost pass checks, or the parameters evaluation checks.
    """

    def __init__(self, iteration: int, cause: str):
        super().__init__(f"{cause} at iteration {iteration}")
        self.iteration = iteration


@dataclass
class SynthDataset:
    """Synthetic image stack with a labeled/unlabeled index split."""

    features: np.ndarray  # (N, H, W, F) float64
    labels: np.ndarray  # (N, H, W) uint16
    labeled_idx: np.ndarray
    unlabeled_idx: np.ndarray
    classes: int
    seed: int

    @property
    def count(self) -> int:
        return self.features.shape[0]


@dataclass
class LinearModel:
    """Per-pixel linear softmax scorer with SGD momentum buffers."""

    weights: np.ndarray  # (K, F) float64
    bias: np.ndarray  # (K,) float64
    w_momentum: np.ndarray
    b_momentum: np.ndarray

    @classmethod
    def init(cls, classes: int, features: int, rng: np.random.Generator, scale: float = 0.1):
        w = scale * rng.standard_normal((classes, features))
        return cls(
            weights=w,
            bias=np.zeros(classes),
            w_momentum=np.zeros((classes, features)),
            b_momentum=np.zeros(classes),
        )


def _real(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


def _at_least(low: int):
    return lambda v: _is_int(v) and v >= low, f"an integer >= {low}"


# The rule of each simulator setting, as (test, wording): SimConfig checks
# every field, and generate() its arguments of the same name.
_RULES = {
    "lam": (lambda v: _real(v) and v >= 0, "a finite number >= 0"),
    "lr": (lambda v: _real(v) and v > 0, "a finite number > 0"),
    "momentum": (lambda v: _real(v) and 0 <= v < 1, "a number in [0, 1)"),
    "weight_decay": (lambda v: _real(v) and v >= 0, "a finite number >= 0"),
    "labeled_fraction": (lambda v: _real(v) and 0 < v < 1, "a number in (0, 1)"),
    "noise": (lambda v: _real(v) and v >= 0, "a finite number >= 0"),
    "vicinity": (lambda v: isinstance(v, VicinitySpec), "a VicinitySpec"),
    "policy": (lambda v: isinstance(v, str) and v in POLICIES, f"one of {POLICIES}"),
    "seeds": (lambda v: isinstance(v, tuple) and len(v) > 0 and all(_is_int(s) and s >= 0 for s in v),
              "a non-empty tuple of integers >= 0"),
    "harden": (lambda v: isinstance(v, bool), "a bool"),
    **{name: _at_least(low) for name, low in (("iters", 1), ("batch", 1), ("eval_every", 1), ("images", 2),
                                              ("height", 1), ("width", 1), ("classes", 2), ("val_images", 1))},
}


def _require(name: str, value, ok, rule: str) -> None:
    if not ok(value):
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _check(**values) -> None:
    """Raise ``ValidationError`` for the first value that breaks its rule in ``_RULES``."""
    for name, value in values.items():
        _require(name, value, *_RULES[name])


@dataclass
class SimConfig:
    """Everything a simulator run depends on, data generation included."""

    lam: float = 1.5  # trade-off weight on the cross-supervision term
    lr: float = 0.2
    momentum: float = 0.9
    weight_decay: float = 1e-4
    iters: int = 200
    batch: int = 4
    vicinity: VicinitySpec = field(default_factory=VicinitySpec)
    policy: str = "ruv"
    seeds: tuple = (0, 1, 2, 3, 4)
    eval_every: int = 20
    harden: bool = False
    images: int = 40
    height: int = 32
    width: int = 32
    classes: int = 3
    labeled_fraction: float = 0.1
    noise: float = 0.3
    val_images: int = 8

    def __post_init__(self):
        _check(**{name: getattr(self, name) for name in _RULES})


@dataclass
class TrainResult:
    model_a: LinearModel
    model_b: LinearModel
    history: list  # (iteration, miou) at each eval point
    losses: list  # (loss_a, loss_b) per iteration


def _box_mean(plane: np.ndarray, radius: int = 1) -> np.ndarray:
    """Local mean over a (2r+1)^2 window clipped to the image."""
    sums, area = _window_sums(plane, radius, radius, np.float64)
    return sums / area


def generate(
    seed: int,
    count: int = 40,
    height: int = 32,
    width: int = 32,
    classes: int = 3,
    labeled_fraction: float = 0.1,
    noise: float = 0.3,
) -> SynthDataset:
    """Generate a synthetic segmentation dataset, fully determined by ``seed``.

    Each image draws one Gaussian blob score field per class; the label is
    the per-pixel argmax, giving smooth connected regions. Intensities come
    from a per-dataset class palette (two channels) plus Gaussian noise.
    The labeled/unlabeled split is drawn after the images; it labels at
    least one image, so ``labeled_fraction`` may be 0. The other arguments
    follow the :class:`SimConfig` rules of the same name (``count`` those
    of ``images``); a value that breaks one raises ``ValidationError``.
    """
    _check(classes=classes, height=height, width=width, noise=noise)
    _require("count", count, *_RULES["images"])
    _require("labeled_fraction", labeled_fraction, lambda v: _real(v) and 0 <= v < 1, "a number in [0, 1)")
    rng = np.random.default_rng(seed)
    data = _synthesize(rng, count, height, width, classes, noise, seed)
    perm = rng.permutation(count)
    n_labeled = max(1, round(labeled_fraction * count))
    if n_labeled >= count:
        raise ValidationError("labeled fraction leaves no unlabeled images")
    data.labeled_idx, data.unlabeled_idx = np.sort(perm[:n_labeled]), np.sort(perm[n_labeled:])
    return data


def _synthesize(rng, count: int, height: int, width: int, classes: int, noise: float, seed: int) -> SynthDataset:
    """``count`` synthetic images drawn from ``rng``, every one of them labeled."""
    # Class colors sit on a fixed circle in the 2-channel intensity plane,
    # independent of the seed, so color -> class transfers across datasets
    # (training and held-out validation use different seeds).
    angles = 2.0 * np.pi * np.arange(classes) / classes
    palette = 0.5 + 0.35 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rows = np.arange(height, dtype=np.float64)[:, None]
    cols = np.arange(width, dtype=np.float64)[None, :]
    row_feat = np.broadcast_to(rows / max(height - 1, 1), (height, width))
    col_feat = np.broadcast_to(cols / max(width - 1, 1), (height, width))
    features = np.empty((count, height, width, 6))
    labels = np.empty((count, height, width), dtype=np.uint16)
    min_share = 0.3 / classes
    for i in range(count):
        # Resample blob layouts until no class is starved of pixels; keeps
        # every image informative about all classes (deterministic per seed).
        best_lab, best_share = None, -1.0
        for _ in range(40):
            centers = rng.uniform([0, 0], [height, width], size=(classes, 2))
            sigmas = rng.uniform(0.25, 0.55, classes) * min(height, width)
            amps = rng.uniform(0.8, 1.25, classes)
            scores = np.empty((height, width, classes))
            for k in range(classes):
                d2 = (rows - centers[k, 0]) ** 2 + (cols - centers[k, 1]) ** 2
                scores[:, :, k] = amps[k] * np.exp(-d2 / (2.0 * sigmas[k] ** 2))
            lab = np.argmax(scores, axis=2)
            share = np.bincount(lab.ravel(), minlength=classes).min() / lab.size
            if share > best_share:
                best_lab, best_share = lab, share
            if share >= min_share:
                break
        lab = best_lab
        img = palette[lab] + rng.normal(0.0, noise, size=(height, width, 2))
        labels[i] = lab.astype(np.uint16)
        features[i] = np.stack(
            [
                img[:, :, 0],
                img[:, :, 1],
                row_feat,
                col_feat,
                _box_mean(img[:, :, 0]),
                _box_mean(img[:, :, 1]),
            ],
            axis=-1,
        )
    every = np.arange(count)
    return SynthDataset(features, labels, every, every[:0], classes, seed)


def generate_from_config(config: SimConfig, seed: int) -> SynthDataset:
    return generate(
        seed,
        count=config.images,
        height=config.height,
        width=config.width,
        classes=config.classes,
        labeled_fraction=config.labeled_fraction,
        noise=config.noise,
    )


def _log_softmax(logits: np.ndarray, axis: int = -1, out: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax over the class ``axis``: ``-1`` row-major, ``-2`` class-major ``(..., K, n)``.

    Written to ``out``, which may be ``logits`` itself; the bits are those
    of the row-major formula in either layout.
    """
    z = np.subtract(logits, np.expand_dims(_over_classes(np.maximum, logits, axis=axis), axis), out=out)
    z -= np.expand_dims(np.log(_over_classes(np.add, np.exp(z), axis=axis)), axis)
    return z


def _check_finite(model: LinearModel) -> None:
    if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
        raise ValidationError("model parameters are not finite")


def _logp(model: LinearModel, features: np.ndarray) -> np.ndarray:
    return _log_softmax(features @ model.weights.T + model.bias)


def forward(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Per-pixel class probabilities for ``(..., F)`` features."""
    _check_finite(model)
    return np.exp(_logp(model, features))


def _ce_grad(logp: np.ndarray, probs: np.ndarray, targets: np.ndarray, features: np.ndarray):
    """Soft CE and its gradients on class-major rows, overwriting ``logp`` and ``probs``.

    ``logp`` is ``(K, n)`` for one model or ``(2, K, n)`` for a pair,
    ``probs`` is ``exp(logp)``, ``targets`` broadcasts against both, and
    ``features`` is the ``(n, F)`` batch. Returns one loss per model and
    the gradients of all ``K`` or ``2K`` rows, ``(rows, F)`` and ``(rows,)``,
    with the bits of each model's row-major ``-mean(sum(t * logp, 1))``,
    ``d.T @ x`` and ``d.sum(axis=0)`` for ``d = (p - t) / n`` and K >= 2,
    given the same ``logp`` (whose bits :func:`_pair_logp` states).
    That ``sum`` adds each column in order from +0.0; ``cumsum`` along a
    row does too, except that an all-zero row ends at -0.0, which
    ``+ 0.0`` turns into +0.0.
    """
    n = logp.shape[-1]
    loss = -np.mean(_over_classes(np.add, np.multiply(targets, logp, out=logp), axis=-2), axis=-1)
    probs -= targets
    probs /= n
    d = probs.reshape(-1, n)
    return loss, d @ features, np.cumsum(d, axis=-1)[:, -1] + 0.0


def _soft_ce(logp: np.ndarray, features: np.ndarray, targets: np.ndarray):
    """``_ce_grad`` on row-major ``(n, K)`` rows, through class-major copies."""
    loss, grad_w, grad_b = _ce_grad(logp.T.copy(), np.exp(logp.T), targets.T, features)
    return float(loss), grad_w, grad_b


def cross_entropy_and_grad(model: LinearModel, features: np.ndarray, targets: np.ndarray):
    """Mean CE of the model against per-row soft targets, with gradients.

    Returns ``(loss, grad_weights, grad_bias)`` for ``(n, F)`` features and
    ``(n, K)`` targets whose rows lie on the simplex.
    """
    return _soft_ce(_logp(model, features), features, targets)


def _sgd_step(model: LinearModel, grad_w, grad_b, config: SimConfig) -> None:
    model.w_momentum *= config.momentum
    model.w_momentum += grad_w + config.weight_decay * model.weights
    model.b_momentum *= config.momentum
    model.b_momentum += grad_b + config.weight_decay * model.bias
    model.weights -= config.lr * model.w_momentum
    model.bias -= config.lr * model.b_momentum


def _pair(models: Sequence[LinearModel]) -> LinearModel:
    """Two K-class models as one of 2K rows, the first model's on top."""
    return LinearModel(*(np.concatenate([getattr(m, f.name) for m in models]) for f in fields(LinearModel)))


def _unpair(pair: LinearModel) -> list:
    """The two models of a pair, each owning copies of its rows."""
    k = pair.bias.size // 2
    return [LinearModel(*(getattr(pair, f.name)[i * k:(i + 1) * k].copy() for f in fields(LinearModel)))
            for i in (0, 1)]


def _pair_logp(pair: LinearModel, features_t: np.ndarray) -> np.ndarray:
    """Class-major log-probabilities ``(..., 2, K, n)`` of a pair on ``(..., F, n)`` features.

    One product for both models. On numpy 2.4.6 with OpenBLAS its rows are
    bit-equal to each model's row-major ``features @ weights.T`` for K from
    2 to 5, and from K = 6 on only when n is a multiple of 8 or at most 192.
    """
    z = pair.weights @ features_t
    z += pair.bias[:, None]
    z = z.reshape(z.shape[:-2] + (2, -1, z.shape[-1]))
    return _log_softmax(z, axis=-2, out=z)


def evaluate_pair(model_a: LinearModel, model_b: LinearModel, data: SynthDataset) -> float:
    """Validation mean IoU of the two-model probability ensemble.

    One class-major forward of both models over the whole ``(N, H, W, F)``
    stack, one argmax and one confusion update; the probabilities are
    those of one :func:`forward` per model and image.
    """
    pair = _pair([model_a, model_b])
    _check_finite(pair)
    n, h, w, f = data.features.shape
    probs = _pair_logp(pair, data.features.reshape(-1, f).T)
    np.exp(probs, out=probs)
    probs = 0.5 * (probs[0] + probs[1])
    cm = ConfusionMatrix(data.classes)
    cm.update(data.labels.reshape(n * h, w), argmax_labels(probs.T.reshape(n * h, w, -1)))
    return cm.miou()


def _pseudo_targets(probs: np.ndarray, config: SimConfig) -> np.ndarray:
    """Boosted soft targets of a class-major ``(models, K, batch, H, W)`` stack, in its layout.

    One boost pass covers the whole stack, with the float32 bytes of a
    ``boost`` call per image, which the float64 loss and gradient hold
    exactly; ``harden`` takes their argmax and one-hot once, on the same
    class planes.
    """
    soft = _run(probs, config.vicinity, config.policy, report=False, axis=1)[1]
    if config.harden:
        soft = _one_hot(_argmax(soft, 1), probs.shape[1], 1)
    return soft


def _pair_step(pair: LinearModel, features: np.ndarray, truth: np.ndarray, config: SimConfig):
    """Per-model losses ``(2,)`` and the pair's gradients on one batch block.

    ``features`` holds the labeled batch's ``(batch, H, W, F)`` images and,
    when ``lam > 0``, the unlabeled batch's after them; ``truth`` holds the
    labeled batch's ``(K, n)`` one-hot rows, the targets of both models.
    The unlabeled probabilities go to the boost pass as a class-major
    ``(2, K, batch, H, W)`` view, and its targets come back in that layout:
    with the halves swapped, they are the ``(2, K, n)`` rows each model
    learns from, with no transpose copy.
    """
    k, n = truth.shape
    x = features.reshape(-1, n, features.shape[-1])
    logp = _pair_logp(pair, x.transpose(0, 2, 1))
    probs = np.exp(logp)
    targets = [truth]
    if config.lam > 0.0:
        unlabeled = probs[1].reshape((2, k, -1) + features.shape[1:3])
        targets.append(_pseudo_targets(unlabeled, config)[::-1].reshape(2, k, n))
    steps = [_ce_grad(logp[i], probs[i], y, x[i]) for i, y in enumerate(targets)]
    if len(steps) == 1:
        return steps[0]
    return tuple(s + config.lam * u for s, u in zip(*steps))


def train_cps(data: SynthDataset, config: SimConfig, seed: int | None = None) -> TrainResult:
    """Cross-supervised training of a model pair on one dataset.

    Each iteration, each model steps on its soft CE against the one-hot
    truth of a labeled batch plus ``lam`` times its soft CE against the
    peer's boosted pseudo labels on an unlabeled batch, both from the
    pre-update parameters. ``seed`` drives initialization and batch
    sampling (default: the dataset's seed).

    The step works on the pair at once, class-major: both models'
    parameters and momenta are one ``(2K, F)`` / ``(2K,)`` model, the
    labeled and unlabeled batches one ``(halves, n, F)`` block, and each
    iteration takes one product for the ``(halves, 2, K, n)`` logits, one
    log-softmax over the class axis, one boost pass over both models'
    unlabeled probabilities as a class-major ``(2, K, batch, H, W)`` view
    (its swapped halves are the peers' targets, with the bytes of one
    ``boost`` call per image), one gradient product per batch half and one
    SGD step. Every bit is that of one row-major
    :func:`cross_entropy_and_grad` per model and batch as far as
    :func:`_pair_logp` keeps them (always for K <= 5).

    Validation uses ``val_images`` images generated from ``data.seed + 1``
    (the images of :func:`generate`, which draws its split after them).
    Raises :class:`TrainingDiverged`, at any ``lam``, once a loss, the
    probabilities or the parameters go non-finite.
    """
    if seed is None:
        seed = data.seed
    init_a, init_b, labeled_stream, unlabeled_stream = np.random.SeedSequence(seed).spawn(4)
    _, h, w, f = data.features.shape
    k = data.classes
    pair = _pair([LinearModel.init(k, f, np.random.default_rng(s)) for s in (init_a, init_b)])
    rng_l = np.random.default_rng(labeled_stream)
    rng_u = np.random.default_rng(unlabeled_stream)
    labeled = data.labels[data.labeled_idx]
    # class-major float64 one-hot truth, (K, labeled images, H*W)
    truth = one_hot(labeled.reshape(-1, w), k).reshape(len(labeled), h * w, k).transpose(2, 0, 1)
    truth = np.ascontiguousarray(truth, dtype=np.float64)
    val_rng = np.random.default_rng(data.seed + 1)
    val = _synthesize(val_rng, config.val_images, h, w, k, config.noise, data.seed + 1)
    history, losses = [], []
    for t in range(1, config.iters + 1):
        pick = rng_l.integers(0, len(labeled), size=config.batch)
        images = data.labeled_idx[pick]
        if config.lam > 0.0:
            batch_u = data.unlabeled_idx[rng_u.integers(0, len(data.unlabeled_idx), size=config.batch)]
            images = np.append(images, batch_u)
        try:  # the boost pass's check fails only on the NaN probabilities of a diverged pair
            loss, grad_w, grad_b = _pair_step(pair, data.features[images], truth[:, pick].reshape(k, -1), config)
        except ValidationError as exc:
            raise TrainingDiverged(t, str(exc)) from None
        loss = tuple(loss.tolist())
        for value in loss:
            if not math.isfinite(value):
                raise TrainingDiverged(t, f"non-finite loss {value!r}")
        _sgd_step(pair, grad_w, grad_b, config)
        losses.append(loss)
        if t % config.eval_every == 0 or t == config.iters:
            try:  # evaluation's check fails only on the non-finite parameters of a diverged step
                history.append((t, evaluate_pair(*_unpair(pair), val)))
            except ValidationError as exc:
                raise TrainingDiverged(t, str(exc)) from None
    return TrainResult(*_unpair(pair), history, losses)


def train_supervised(data: SynthDataset, config: SimConfig, seed: int | None = None) -> TrainResult:
    """Labeled-only baseline: :func:`train_cps` with ``lam=0``, same init, batches and validation."""
    return train_cps(data, replace(config, lam=0.0), seed)


def ablate(
    data: SynthDataset | None,
    config: SimConfig,
    policies: Sequence[str],
    vicinities: Sequence[int] = (5,),
) -> list:
    """Grid of runs over policies, window sizes, and seeds.

    One row ``(policy, vicinity, seed, iteration, final_miou)`` per
    combination. Window sizes only apply to the regional policy; other
    policies record vicinity 0. With ``data=None`` every seed generates its
    own dataset from the config; otherwise the given dataset is reused and
    seeds vary only initialization and batching.
    """
    rows = []
    for seed in config.seeds:
        d = generate_from_config(config, seed) if data is None else data
        for policy in policies:
            sizes = vicinities if policy == "ruv" else (None,)
            for size in sizes:
                vic = (
                    VicinitySpec(size, size, config.vicinity.border)
                    if size is not None
                    else config.vicinity
                )
                run_cfg = replace(config, policy=policy, vicinity=vic)
                result = train_cps(d, run_cfg, seed=seed)
                it, miou = result.history[-1]
                rows.append((policy, size if size is not None else 0, seed, it, miou))
    return rows


def rows_to_csv(rows: Sequence[tuple]) -> str:
    """Render grid rows as CSV with 6-decimal mIoU values."""
    lines = [CSV_HEADER]
    for policy, vicinity, seed, iteration, value in rows:
        lines.append(f"{policy},{vicinity},{seed},{iteration},{value:.6f}")
    return "\n".join(lines) + "\n"
