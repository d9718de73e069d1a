"""Desk-scale cross-supervision trainer on synthetic segmentation data.

Two per-pixel linear softmax classifiers train jointly: each sees the
labeled images with ground truth, and on unlabeled images each learns
from the other's (optionally uncertainty-boosted) pseudo labels,

    loss_1 = mean_L CE(p_1, y) + lambda * mean_U CE(p_1, boost(p_2)),

and symmetrically for the second model. The point is not to rival a real
segmentation network but to compare booster policies (none / uniform /
regional) under identical conditions in seconds, with bitwise-reproducible
trajectories. The model math is two kernels, ``_logp`` and ``_soft_ce``;
the labeled term is the soft CE against float64 one-hot rows of the truth.

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
from dataclasses import dataclass, field, replace
from numbers import Real
from typing import Sequence

import numpy as np

from .booster import POLICIES, _run
from .metrics import ConfusionMatrix
from .tensors import ValidationError, _over_classes, argmax_labels, one_hot
from .voting import VicinitySpec, _is_int, _window_sums

CSV_HEADER = "policy,vicinity,seed,iter,miou"


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite; carries the 1-based iteration."""

    def __init__(self, iteration: int, loss: float):
        super().__init__(f"non-finite loss {loss!r} at iteration {iteration}")
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
        def real(v) -> bool:
            return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)

        checks = [
            ("lam", real(self.lam) and self.lam >= 0, "a finite number >= 0"),
            ("lr", real(self.lr) and self.lr > 0, "a finite number > 0"),
            ("momentum", real(self.momentum) and 0 <= self.momentum < 1, "a number in [0, 1)"),
            ("weight_decay", real(self.weight_decay) and self.weight_decay >= 0, "a finite number >= 0"),
            ("labeled_fraction", real(self.labeled_fraction) and 0 < self.labeled_fraction < 1,
             "a number in (0, 1)"),
            ("noise", real(self.noise) and self.noise >= 0, "a finite number >= 0"),
            ("vicinity", isinstance(self.vicinity, VicinitySpec), "a VicinitySpec"),
            ("policy", isinstance(self.policy, str) and self.policy in POLICIES, f"one of {POLICIES}"),
            ("seeds", isinstance(self.seeds, tuple) and len(self.seeds) > 0
             and all(_is_int(s) and s >= 0 for s in self.seeds), "a non-empty tuple of integers >= 0"),
            ("harden", isinstance(self.harden, bool), "a bool"),
        ]
        for name, low in (("iters", 1), ("batch", 1), ("eval_every", 1), ("images", 2),
                          ("height", 1), ("width", 1), ("classes", 2), ("val_images", 1)):
            value = getattr(self, name)
            checks.append((name, _is_int(value) and value >= low, f"an integer >= {low}"))
        for name, ok, rule in checks:
            if not ok:
                raise ValidationError(f"{name} must be {rule}, got {getattr(self, name)!r}")


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
    The labeled/unlabeled split is drawn after the images.
    """
    if classes < 2:
        raise ValidationError(f"need at least 2 classes, got {classes}")
    if count < 2:
        raise ValidationError(f"need at least 2 images, got {count}")
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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - _over_classes(np.maximum, logits)[..., None]
    return z - np.log(_over_classes(np.add, np.exp(z)))[..., None]


def _check_finite(*models: LinearModel) -> None:
    for model in models:
        if not (np.isfinite(model.weights).all() and np.isfinite(model.bias).all()):
            raise ValidationError("model parameters are not finite")


def _logp(model: LinearModel, features: np.ndarray) -> np.ndarray:
    return _log_softmax(features @ model.weights.T + model.bias)


def forward(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Per-pixel class probabilities for ``(..., F)`` features."""
    _check_finite(model)
    return np.exp(_logp(model, features))


def _soft_ce(logp: np.ndarray, features: np.ndarray, targets: np.ndarray):
    loss = -float(np.mean(_over_classes(np.add, targets * logp)))
    d = (np.exp(logp) - targets) / targets.shape[0]
    return loss, d.T @ features, d.sum(axis=0)


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


def evaluate_pair(model_a: LinearModel, model_b: LinearModel, data: SynthDataset) -> float:
    """Validation mean IoU of the two-model probability ensemble, one forward per model.

    The product keeps its per-``(W, F)`` matrix shape over the ``(N, H, W, F)``
    stack, so each image gets the probabilities of a forward of its own.
    """
    probs = 0.5 * (forward(model_a, data.features) + forward(model_b, data.features))
    n, h, w, k = probs.shape
    cm = ConfusionMatrix(data.classes)
    cm.update(data.labels.reshape(n * h, w), argmax_labels(probs.reshape(n * h, w, k)))
    return cm.miou()


def _pseudo_targets(probs: np.ndarray, config: SimConfig) -> np.ndarray:
    """Boosted soft targets of ``(N, H, W, K)`` probabilities as ``(N*H*W, K)`` rows.

    One boost pass covers the whole stack, with the bytes of a ``boost``
    call per image; ``harden`` takes the argmax of the stack once.
    """
    k = probs.shape[-1]
    soft = _run(probs, config.vicinity, config.policy, report=False)[1]
    if config.harden:
        soft = one_hot(argmax_labels(soft), k)
    return soft.reshape(-1, k).astype(np.float64)


def train_cps(data: SynthDataset, config: SimConfig, seed: int | None = None) -> TrainResult:
    """Cross-supervised training of a model pair on one dataset.

    Each iteration, each model steps on its soft CE against the one-hot
    truth of a labeled batch plus ``lam`` times its soft CE against the
    peer's boosted pseudo labels on an unlabeled batch, both from the
    pre-update parameters. Each model's pseudo labels take one boost pass
    over the unlabeled batch as an ``(N, H, W, K)`` stack, with the bytes
    of one ``boost`` call per image. ``seed`` drives initialization and
    batch sampling (default: the dataset's seed).
    Validation uses ``val_images`` images generated from ``data.seed + 1``
    (the images of :func:`generate`, which draws its split after them).
    Raises :class:`TrainingDiverged` on a non-finite loss.
    """
    if seed is None:
        seed = data.seed
    init_a, init_b, labeled_stream, unlabeled_stream = np.random.SeedSequence(seed).spawn(4)
    _, h, w, f = data.features.shape
    k = data.classes
    models = [LinearModel.init(k, f, np.random.default_rng(s)) for s in (init_a, init_b)]
    rng_l = np.random.default_rng(labeled_stream)
    rng_u = np.random.default_rng(unlabeled_stream)
    labeled = data.labels[data.labeled_idx]
    truth = one_hot(labeled.reshape(-1, w), k).reshape(len(labeled), h * w, k).astype(np.float64)
    val_rng = np.random.default_rng(data.seed + 1)
    val = _synthesize(val_rng, config.val_images, h, w, k, config.noise, data.seed + 1)
    history, losses = [], []
    for t in range(1, config.iters + 1):
        pick = rng_l.integers(0, len(labeled), size=config.batch)
        x_l = data.features[data.labeled_idx[pick]].reshape(-1, f)
        y_l = truth[pick].reshape(-1, k)
        steps = [_soft_ce(_logp(m, x_l), x_l, y_l) for m in models]
        if config.lam > 0.0:
            batch_u = data.unlabeled_idx[rng_u.integers(0, len(data.unlabeled_idx), size=config.batch)]
            x_u = data.features[batch_u].reshape(-1, f)
            # One forward per model: its probabilities are the peer's pseudo
            # targets, its log-probabilities give its own soft-CE gradient.
            _check_finite(*models)
            logps = [_logp(m, x_u) for m in models]
            targets = [_pseudo_targets(np.exp(lp).reshape(-1, h, w, k), config) for lp in logps]
            steps = [
                tuple(s + config.lam * u for s, u in zip(step, _soft_ce(lp, x_u, peer_targets)))
                for step, lp, peer_targets in zip(steps, logps, targets[::-1])
            ]
        for loss, _, _ in steps:
            if not np.isfinite(loss):
                raise TrainingDiverged(t, loss)
        for m, (_, gw, gb) in zip(models, steps):
            _sgd_step(m, gw, gb, config)
        losses.append(tuple(loss for loss, _, _ in steps))
        if t % config.eval_every == 0 or t == config.iters:
            history.append((t, evaluate_pair(*models, val)))
    return TrainResult(*models, history, losses)


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
