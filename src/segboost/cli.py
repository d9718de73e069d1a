"""Command-line interface tying the library together.

One binary, subcommand style::

    segboost boost pred.ten1 --out boosted.ten1 --vicinity 5 --policy ruv
    segboost vote labels.ten1 --out votes.ten1
    segboost conf pred.ten1 --out conf.ten1
    segboost eval truth.ten1 pred.ten1
    segboost simulate --policies none,uniform,ruv --vicinities 3,5 --out grid.csv
    segboost bounds --kl 0 --n 100 --delta 0.05
    segboost export-pgm labels.ten1 --out labels.pgm --classes 3

``boost`` and ``conf`` read a 3-D float32 probability map; ``vote`` and ``eval``
read one (argmax applied) or a 2-D uint16 label map; ``export-pgm`` reads only a
label map. A ``--classes`` below 1 is a usage error. ``vote`` always takes the
integral path; ``--fast`` is accepted for compatibility.

Tensors travel as TEN1 files, tables as CSV (stdout or ``--out``); an
input file named ``-`` is stdin. ``boost`` streams a seekable input and its
output a band of rows at a time through the booster's pipeline, holding
only the map's ``(H, W)`` planes and the bands in flight; ``--out`` is
opened only once the whole input has passed its check, and may name the
input. A TEN1 output file is overwritten in place, not truncated first,
and its header is written last, so a run cut short leaves a file that does
not read as a tensor. An input pipe is read into memory first, and an
output pipe takes the boosted map whole at the end.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .booster import POLICIES, _run, _summary
from .bounds import KL_MODES, GaussianPosterior, _risk_bound, gap_bound, kl_gaussian_product
from .confidence import _image_weights, _neg_entropy
from .metrics import ConfusionMatrix
from .pgm import labels_to_gray, write_pgm
from .simulate import SimConfig, TrainingDiverged, ablate, rows_to_csv
from .tensors import (IGNORE_LABEL, TensorFormatError, ValidationError, _check_classes, _check_map_kind, _read_ten1,
                      _seek_layout, _ten1_array, _ten1_header, _Ten1Rows, argmax_labels, one_hot, validate_probmap)
from .voting import BORDER_MODES, VicinitySpec, vote_integral


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports usage problems via exception, not exit 2."""

    def error(self, message):
        raise _UsageError(message)


def _as_usage(check, *args, **kwargs):
    """``check(*args, **kwargs)``, with a ``ValidationError`` reported as a usage error."""
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        raise _UsageError(str(exc)) from None


def _list_of(item, what: str = ""):
    """argparse type for a comma-separated list read part by part with ``item``.

    Parts that read as ``""`` (blank names) are dropped; a part ``item``
    cannot read rejects the whole list as not comma-separated ``what``.
    """
    def parse(text: str) -> tuple:
        try:
            values = [item(part) for part in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}")
        return tuple(v for v in values if v != "")
    return parse


# The TEN1 file kinds the commands read, as (name, ndim, dtype).
_PROBMAP = ("3-D f32 probability map", 3, np.float32)
_LABELS = ("2-D u16 label map", 2, np.uint16)


def _open_input(path: str):
    """The unbuffered binary file ``path`` names; ``-`` names stdin, which closing leaves open."""
    if path == "-":
        return open(sys.stdin.fileno(), "rb", buffering=0, closefd=False)
    return open(path, "rb", buffering=0)


def _check_kind(path: str, dtype, shape: tuple, *kinds) -> None:
    """Raise ``ValidationError`` unless a tensor of ``dtype`` and ``shape`` in ``path`` is one of ``kinds``."""
    if not any(len(shape) == ndim and dtype == want for _, ndim, want in kinds):
        wanted = " or ".join(name for name, _, _ in kinds)
        raise ValidationError(f"{path}: expected a {wanted}, got {dtype} with shape {shape}")


def _read_file(path: str, *kinds) -> np.ndarray:
    """The tensor in a TEN1 file, which must be one of ``kinds``."""
    with _open_input(path) as f:
        arr = _read_ten1(f)
    _check_kind(path, arr.dtype, arr.shape, *kinds)
    return arr


@contextmanager
def _output(path: str, dtype, shape: tuple):
    """The file ``path`` names, opened for a TEN1 tensor of ``dtype`` and ``shape``, at the payload's start.

    A regular file is overwritten in place, so its blocks are not freed only to be taken again: a zeroed
    header first, then, once the block has written the payload without raising, a cut to the tensor's size
    and the header, so a run cut short reads as bad magic. Anything else, as a pipe, takes it all in order.
    """
    header = _ten1_header(dtype, shape)
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as out:
        in_place = stat.S_ISREG(os.fstat(out.fileno()).st_mode)
        out.write(bytes(len(header)) if in_place else header)
        yield out
        if in_place:
            out.truncate(len(header) + int(np.prod(shape)) * np.dtype(dtype).itemsize)
            out.seek(0)
            out.write(header)


def _write_file(path: str, arr: np.ndarray) -> None:
    """Write an array as a TEN1 file through :func:`_output`, with no copy of the file in memory."""
    with _output(path, arr.dtype, arr.shape) as out:
        out.write(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")).data)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_metrics(**values) -> None:
    sys.stdout.write("".join(["metric,value\n"] + [f"{name},{value:.6f}\n" for name, value in values.items()]))


def _check_class_flag(classes: int | None, *most: int) -> None:
    """A ``--classes`` below 1 is a usage error; a count above the maximum is left to the library."""
    if classes is not None and classes < 1:
        _as_usage(_check_classes, classes, *most)


def _vicinity(args, size: int | None = None) -> VicinitySpec:
    """The square window of ``size`` (default ``--vicinity``) and ``--border``; a bad size is a usage error."""
    size = args.vicinity if size is None else size
    return _as_usage(VicinitySpec, size, size, args.border)


def _cmd_boost(args) -> int:
    with ExitStack() as files:
        source = files.enter_context(_open_input(args.input))
        if source.seekable():  # pass 1 reads the map band by band
            dtype, dims, count, start = _seek_layout(source)
            # an empty map is read whole, which checks that numpy can hold its dims
            pred = _Ten1Rows(source, dtype, dims, start) if count else _ten1_array(dtype, dims, count)[None]
        else:
            pred = _read_ten1(source)[None]
        _check_kind(args.input, pred.dtype, pred.shape[1:], _PROBMAP)
        vicinity = _vicinity(args)
        _check_map_kind(pred.shape[1:], pred.dtype)
        out = None

        def sink():  # called once pass 1 has passed, so a map that fails its check leaves --out as it was
            nonlocal out
            if args.harden:  # the float32 bands are scratch; the labels are written once pass 2 ends
                return lambda rows, band: None
            out = files.enter_context(_output(args.out, np.float32, pred.shape[1:]))
            if out.seekable():  # bands go to their offsets; None has _run build the map for a pipe
                return _Ten1Rows(out, np.dtype("<f4"), pred.shape[1:], out.tell()).write

        before, data, conf, weights, after = _run(pred, vicinity, args.policy, report=True, sink=sink)
        if data is not None:
            out.write(np.ascontiguousarray(data[0], "<f4").data)
    if args.harden:
        _write_file(args.out, after[0])
    _print_metrics(**_summary(before[0], conf[0], weights[0], after[0]))
    return 0


def _cmd_conf(args) -> int:
    # One input check, then the kernels that skip it, as in booster._run.
    pred = validate_probmap(_read_file(args.input, _PROBMAP))
    conf = _neg_entropy(pred)
    weights = _image_weights(conf[None])[0]
    if args.out:
        _write_file(args.out, conf.astype(np.float32))
    _print_metrics(conf_min=conf.min(), conf_max=conf.max(), conf_mean=conf.mean(),
                   weight_mean=float(weights.mean(dtype=np.float64)))
    return 0


def _labels_from_file(path: str, classes: int | None):
    """Load a u16 label map or f32 probability map (argmax applied)."""
    _check_class_flag(classes)
    arr = _read_file(path, _LABELS, _PROBMAP)
    if arr.ndim == 3:
        labels, k = argmax_labels(arr), arr.shape[2]
    else:
        labels = arr
        valid = labels[labels != IGNORE_LABEL]
        if valid.size == 0 and classes is None:
            raise ValidationError("label map is all void; pass --classes")
        k = int(valid.max()) + 1 if valid.size else 0
    if classes is not None and classes < k:
        raise ValidationError(f"--classes {classes} is below the largest label ({k - 1})")
    return labels, k if classes is None else classes


def _cmd_vote(args) -> int:
    labels, k = _labels_from_file(args.input, args.classes)
    _write_file(args.out, vote_integral(one_hot(labels, k), _vicinity(args)))
    return 0


def _cmd_eval(args) -> int:
    truth, k_t = _labels_from_file(args.truth, args.classes)
    pred, k_p = _labels_from_file(args.pred, args.classes)
    cm = ConfusionMatrix(max(k_t, k_p)).update(truth, pred)
    lines = ["class,iou"]
    for c, iou in enumerate(cm.per_class_iou()):
        lines.append(f"{c},nan" if np.isnan(iou) else f"{c},{iou:.6f}")
    lines.append(f"miou,{cm.miou():.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# simulate's SimConfig flags as (flag, field, type); a flag not given keeps SimConfig's default.
_SIM_FLAGS = (
    ("--lambda", "lam", float), ("--lr", "lr", float), ("--iters", "iters", int), ("--batch", "batch", int),
    ("--eval-every", "eval_every", int), ("--images", "images", int), ("--height", "height", int),
    ("--width", "width", int), ("--classes", "classes", int), ("--labeled-fraction", "labeled_fraction", float),
    ("--noise", "noise", float),
)


def _cmd_simulate(args) -> int:
    policies = args.policies or (args.policy,)
    vicinities = args.vicinities or (args.vicinity,)
    windows = [_vicinity(args, size) for size in vicinities]  # every size checked before any cell runs
    seeds = args.seeds or (None if args.seed is None else (args.seed,))
    given = dict(seeds=seeds, harden=args.harden, **{field: getattr(args, field) for _, field, _ in _SIM_FLAGS})
    config = _as_usage(SimConfig, vicinity=windows[0],
                       **{field: value for field, value in given.items() if value is not None})
    for policy in policies:  # SimConfig states the policy rule; every cell's config must pass it
        _as_usage(replace, config, policy=policy)
    rows = ablate(None, config, policies, vicinities)
    _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_bounds(args) -> int:
    if (args.kl is None) == (args.mu_q is None):
        raise _UsageError("pass exactly one of --kl or --mu-q/--mu-p")
    lines = ["quantity,mode,value"]
    if args.kl is not None:
        kl, mode = args.kl, "-"
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
    _check_class_flag(args.classes, 256)
    gray = labels_to_gray(_read_file(args.input, _LABELS), args.classes, args.palette)
    Path(args.out).write_bytes(write_pgm(gray))
    return 0


def _add_window_flags(p) -> None:
    p.add_argument("--vicinity", type=int, default=VicinitySpec.height,
                   help=f"odd square window size (default {VicinitySpec.height})")
    p.add_argument("--border", choices=BORDER_MODES, default=VicinitySpec.border)


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
    p.add_argument("--policies", type=_list_of(str.strip), help="comma-separated policy list")
    p.add_argument("--policy", choices=POLICIES, default=SimConfig.policy)
    p.add_argument("--vicinities", type=_list_of(int, "integers"), help="comma-separated window sizes")
    p.add_argument("--seeds", type=_list_of(int, "integers"))
    p.add_argument("--seed", type=int)
    for flag, field, kind in _SIM_FLAGS:
        p.add_argument(flag, dest=field, type=kind)
    p.add_argument("--harden", action="store_true", default=None)
    _add_window_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="generalization bound calculators")
    p.add_argument("--kl", type=float, help="KL divergence value used directly")
    p.add_argument("--mu-q", type=_list_of(float, "floats"), help="posterior mean, comma-separated")
    p.add_argument("--mu-p", type=_list_of(float, "floats"), help="prior mean, comma-separated")
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
    p.add_argument("--palette", type=_list_of(int, "integers"), help="gray level per class, comma-separated")
    p.set_defaults(func=_cmd_export_pgm)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser of :func:`main`, built once per process; parsing never changes it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (TensorFormatError, ValidationError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
