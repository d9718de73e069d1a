"""Command-line interface tying the library together.

One binary, subcommand style::

    segboost boost pred.ten1 --out boosted.ten1 --vicinity 5 --policy ruv
    segboost vote labels.ten1 --out votes.ten1
    segboost conf pred.ten1 --out conf.ten1
    segboost eval truth.ten1 pred.ten1
    segboost simulate --policies none,uniform,ruv --vicinities 3,5 --out grid.csv
    segboost bounds --kl 0 --n 100 --delta 0.05
    segboost export-pgm labels.ten1 --out labels.pgm --classes 3

``vote`` always takes the integral path; ``--fast`` is accepted for compatibility.

Tensors travel as TEN1 files, tables as CSV (stdout or ``--out``).
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .booster import POLICIES, boost_report
from .bounds import (
    KL_MODES,
    GaussianPosterior,
    _risk_bound,
    gap_bound,
    kl_gaussian_product,
)
from .confidence import _image_weights, _neg_entropy
from .metrics import ConfusionMatrix
from .pgm import labels_to_gray, write_pgm
from .simulate import SimConfig, TrainingDiverged, ablate, rows_to_csv
from .tensors import (
    IGNORE_LABEL,
    TensorFormatError,
    ValidationError,
    argmax_labels,
    one_hot,
    read_tensor,
    validate_probmap,
    write_tensor,
)
from .voting import BORDER_MODES, VicinitySpec, vote_integral


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exception, not exit 2."""

    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _odd_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1 or value % 2 == 0:
        raise argparse.ArgumentTypeError(f"window size must be odd and >= 1, got {value}")
    return value


def _odd_int_list(text: str):
    return tuple(_odd_int(part) for part in text.split(","))


def _str_list(text: str):
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _read_file(path: str) -> np.ndarray:
    return read_tensor(Path(path).read_bytes())


def _write_file(path: str, arr: np.ndarray) -> None:
    Path(path).write_bytes(write_tensor(arr))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_probmap(path: str) -> np.ndarray:
    arr = _read_file(path)
    if arr.ndim != 3 or arr.dtype != np.float32:
        raise ValidationError(
            f"expected a 3-D float32 probability map, got {arr.dtype} with shape {arr.shape}"
        )
    return arr


def _vicinity(args) -> VicinitySpec:
    return VicinitySpec(args.vicinity, args.vicinity, args.border)


def _cmd_boost(args) -> int:
    report = boost_report(_load_probmap(args.input), _vicinity(args), args.policy)
    _write_file(args.out, report.labels if args.harden else report.boosted.data)
    lines = [
        "metric,value",
        f"changed_fraction,{report.changed_fraction:.6f}",
        f"mean_weight,{report.mean_weight:.6f}",
        f"mean_confidence,{report.mean_confidence:.6f}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_conf(args) -> int:
    # One input check, then the kernels that skip it, as in booster._run.
    pred = validate_probmap(_load_probmap(args.input))
    conf = _neg_entropy(pred)
    weights = _image_weights(conf[None])[0]
    if args.out:
        _write_file(args.out, conf.astype(np.float32))
    lines = [
        "metric,value",
        f"conf_min,{conf.min():.6f}",
        f"conf_max,{conf.max():.6f}",
        f"conf_mean,{conf.mean():.6f}",
        f"weight_mean,{float(weights.mean(dtype=np.float64)):.6f}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _labels_from_file(path: str, classes: int | None):
    """Load a u16 label map or f32 probability map (argmax applied)."""
    arr = _read_file(path)
    if arr.ndim == 3 and arr.dtype == np.float32:
        labels = argmax_labels(arr)
        k = arr.shape[2]
    elif arr.ndim == 2 and arr.dtype == np.uint16:
        labels = arr
        valid = labels[labels != IGNORE_LABEL]
        if valid.size == 0 and classes is None:
            raise ValidationError("label map is all void; pass --classes")
        k = int(valid.max()) + 1 if valid.size else 0
    else:
        raise ValidationError(
            f"expected a u16 label map or f32 probability map, got {arr.dtype} with shape {arr.shape}"
        )
    if classes is not None:
        if classes < k:
            raise ValidationError(f"--classes {classes} is below the largest label ({k - 1})")
        k = classes
    return labels, k


def _cmd_vote(args) -> int:
    labels, k = _labels_from_file(args.input, args.classes)
    p_oh = one_hot(labels, k)
    _write_file(args.out, vote_integral(p_oh, _vicinity(args)))
    return 0


def _cmd_eval(args) -> int:
    truth, k_t = _labels_from_file(args.truth, args.classes)
    pred, k_p = _labels_from_file(args.pred, args.classes)
    k = args.classes if args.classes is not None else max(k_t, k_p)
    cm = ConfusionMatrix(k)
    cm.update(truth, pred)
    lines = ["class,iou"]
    for c, iou in enumerate(cm.per_class_iou()):
        lines.append(f"{c},nan" if np.isnan(iou) else f"{c},{iou:.6f}")
    lines.append(f"miou,{cm.miou():.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_simulate(args) -> int:
    policies = args.policies if args.policies else (args.policy,)
    for policy in policies:
        if policy not in POLICIES:
            raise _UsageError(f"unknown policy {policy!r} (choose from {', '.join(POLICIES)})")
    vicinities = args.vicinities if args.vicinities else (args.vicinity,)
    if args.seeds:
        seeds = args.seeds
    elif args.seed is not None:
        seeds = (args.seed,)
    else:
        seeds = (0, 1, 2, 3, 4)
    try:
        config = SimConfig(
            lam=args.lam,
            lr=args.lr,
            iters=args.iters,
            batch=args.batch,
            vicinity=VicinitySpec(vicinities[0], vicinities[0], args.border),
            seeds=tuple(seeds),
            eval_every=args.eval_every,
            harden=args.harden,
            images=args.images,
            height=args.height,
            width=args.width,
            classes=args.classes,
            labeled_fraction=args.labeled_fraction,
            noise=args.noise,
        )
    except ValidationError as exc:
        raise _UsageError(str(exc))
    rows = ablate(None, config, policies, vicinities)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_bounds(args) -> int:
    if (args.kl is None) == (args.mu_q is None):
        raise _UsageError("pass exactly one of --kl or --mu-q/--mu-p")
    lines = ["quantity,mode,value"]
    if args.kl is not None:
        kl = args.kl
        mode = "-"
    else:
        if args.mu_p is None:
            raise _UsageError("--mu-q requires --mu-p")
        q = GaussianPosterior(np.array(args.mu_q, dtype=np.float64))
        p = GaussianPosterior(np.array(args.mu_p, dtype=np.float64))
        mode = args.mode
        kl = kl_gaussian_product(q, p, mode=mode)
        lines.append(f"kl,{mode},{kl:.6f}")
    lines.append(f"gap_bound,{mode},{gap_bound(kl, args.n, args.delta):.6f}")
    if args.risk is not None:
        bound = _risk_bound(args.risk, kl, args.n, args.delta)
        lines.append(f"risk_upper_bound,{mode},{bound:.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_export_pgm(args) -> int:
    arr = _read_file(args.input)
    if arr.ndim != 2 or arr.dtype != np.uint16:
        raise ValidationError(
            f"expected a 2-D u16 label map, got {arr.dtype} with shape {arr.shape}"
        )
    palette = np.array(args.palette, dtype=np.uint8) if args.palette else None
    gray = labels_to_gray(arr, args.classes, palette)
    Path(args.out).write_bytes(write_pgm(gray))
    return 0


def _float_list(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _add_window_flags(p) -> None:
    p.add_argument("--vicinity", type=_odd_int, default=5, help="odd square window size (default 5)")
    p.add_argument("--border", choices=BORDER_MODES, default="clip")


def build_parser() -> _Parser:
    parser = _Parser(prog="segboost", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("boost", help="blend one-hot argmax labels with regional votes")
    p.add_argument("input", help="f32 probability map (TEN1)")
    p.add_argument("--out", required=True, help="output TEN1 path")
    _add_window_flags(p)
    p.add_argument("--policy", choices=POLICIES, default="ruv")
    p.add_argument("--harden", action="store_true", help="write argmax u16 labels instead")
    p.set_defaults(func=_cmd_boost)

    p = sub.add_parser("conf", help="per-pixel confidence and summary stats")
    p.add_argument("input", help="f32 probability map (TEN1)")
    p.add_argument("--out", help="optional f32 confidence TEN1 path")
    p.set_defaults(func=_cmd_conf)

    p = sub.add_parser("vote", help="regional class-frequency map")
    p.add_argument("input", help="u16 label map or f32 probability map (TEN1)")
    p.add_argument("--out", required=True, help="output TEN1 path")
    _add_window_flags(p)
    p.add_argument("--classes", type=int, help="class count override for label maps")
    p.add_argument("--fast", action="store_true", help="no effect; kept for compatibility")
    p.set_defaults(func=_cmd_vote)

    p = sub.add_parser("eval", help="per-class IoU and mIoU between two label files")
    p.add_argument("truth")
    p.add_argument("pred")
    p.add_argument("--classes", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("simulate", help="cross-supervision ablation grid on synthetic data")
    p.add_argument("--policies", type=_str_list, help="comma-separated policy list")
    p.add_argument("--policy", choices=POLICIES, default="ruv")
    p.add_argument("--vicinities", type=_odd_int_list, help="comma-separated window sizes")
    p.add_argument("--seeds", type=_int_list)
    p.add_argument("--seed", type=int)
    p.add_argument("--lambda", dest="lam", type=float, default=1.5)
    p.add_argument("--lr", type=float, default=SimConfig.lr)
    p.add_argument("--iters", type=int, default=SimConfig.iters)
    p.add_argument("--batch", type=int, default=SimConfig.batch)
    p.add_argument("--eval-every", type=int, default=SimConfig.eval_every)
    p.add_argument("--harden", action="store_true")
    p.add_argument("--images", type=int, default=SimConfig.images)
    p.add_argument("--height", type=int, default=SimConfig.height)
    p.add_argument("--width", type=int, default=SimConfig.width)
    p.add_argument("--classes", type=int, default=SimConfig.classes)
    p.add_argument("--labeled-fraction", type=float, default=SimConfig.labeled_fraction)
    p.add_argument("--noise", type=float, default=SimConfig.noise)
    _add_window_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="generalization bound calculators")
    p.add_argument("--kl", type=float, help="KL divergence value used directly")
    p.add_argument("--mu-q", type=_float_list, help="posterior mean, comma-separated")
    p.add_argument("--mu-p", type=_float_list, help="prior mean, comma-separated")
    p.add_argument("--mode", choices=KL_MODES, default="paper")
    p.add_argument("--n", type=int, required=True, help="sample count")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--risk", type=float, help="empirical risk for the full bound")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("export-pgm", help="write a label map as an 8-bit PGM image")
    p.add_argument("input", help="u16 label map (TEN1)")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--palette", type=_int_list, help="gray level per class, comma-separated")
    p.set_defaults(func=_cmd_export_pgm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TensorFormatError, ValidationError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
