"""Interleaved A/B timing of ``cli-files``-style items on two revisions of ``src/segboost``.

    python3 tools/ab_items.py HEAD~1 --items 160        # HEAD~1 against the working tree
    python3 tools/ab_items.py HEAD~1 HEAD --items 160 --reverse

Run from the repository root. Each revision's ``src/segboost`` is exported
with ``git archive`` (``.`` names the working tree, the default for the
second) into a temporary directory and imported under its own package
name, ``segboost_a`` and ``segboost_b``, so both trees run in one process
and see the same phases of a shared host. One item is the benchmark's
``cli-files`` item: ``segboost boost`` of a 256x512x19 TEN1 file to a soft
file, which is then read back, ``boost --harden``, ``eval`` and
``export-pgm``, cycling through the benchmark's four window/border pairs
over a pool of four input files, each tree writing over its own outputs
of four items before. Every item runs on both trees back to back, the
order alternating from item to item (``--reverse`` starts with B), and
the two trees' outputs and printed lines must be equal byte for byte.

Prints, per tree, the median and quartiles of item time in ms, then the
throughput ratio B/A (total time of A over total time of B) and the count
of items each tree ran faster. Inputs come from ``bench/inputs.py`` with
``--seed``; nothing under ``bench/`` is written.
"""

from __future__ import annotations

import argparse
import importlib
import io
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from inputs import CLASSES, prob_map, ten1_bytes  # noqa: E402

COMBOS = ((5, "clip"), (33, "zero"), (5, "zero"), (33, "clip"))  # as in bench/workloads.py
FILES = 4


def load_tree(rev: str, name: str, into: Path):
    """``src/segboost`` of git revision ``rev`` (``.``: the working tree), imported as package ``name``."""
    dest = into / name
    if rev == ".":
        shutil.copytree(ROOT / "src" / "segboost", dest, ignore=shutil.ignore_patterns("__pycache__"))
    else:
        blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/segboost"],
                              check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
            tar.extractall(into / rev.replace("/", "_"), filter="data")
        (into / rev.replace("/", "_") / "src" / "segboost").rename(dest)
    return importlib.import_module(f"{name}.cli")


def item(cli, work: Path, i: int):
    """One ``cli-files`` item in ``work``; returns its seconds and everything it wrote or printed."""
    f = i % FILES
    pred, truth = work.parent / f"pred{f}.ten1", work.parent / f"truth{f}.ten1"
    soft, hard, pgm = work / f"soft{f}.ten1", work / f"hard{f}.ten1", work / f"labels{f}.pgm"
    window, border = COMBOS[i % len(COMBOS)]
    win = ["--vicinity", str(window), "--border", border]
    printed = io.StringIO()
    t = time.perf_counter()
    with redirect_stdout(printed):
        codes = [cli.main(["boost", str(pred), "--out", str(soft), *win])]
        read_back = soft.read_bytes()
        codes.append(cli.main(["boost", str(pred), "--out", str(hard), *win, "--harden"]))
        codes.append(cli.main(["eval", str(truth), str(hard), "--classes", str(CLASSES)]))
        codes.append(cli.main(["export-pgm", str(hard), "--out", str(pgm), "--classes", str(CLASSES)]))
    seconds = time.perf_counter() - t
    return seconds, (codes, read_back, hard.read_bytes(), pgm.read_bytes(), printed.getvalue())


def quartiles(ms: list) -> str:
    q1, q2, q3 = statistics.quantiles(ms, n=4)
    return f"median {q2:.2f} ms [q1 {q1:.2f}, q3 {q3:.2f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="git revision of tree A")
    parser.add_argument("b", nargs="?", default=".", help="git revision of tree B (default: the working tree)")
    parser.add_argument("--items", type=int, default=160, help="timed items per tree")
    parser.add_argument("--warm", type=int, default=4, help="untimed items per tree first")
    parser.add_argument("--seed", type=int, default=0, help="input seed, as bench/run.py --seed")
    parser.add_argument("--reverse", action="store_true", help="run B first on even items")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-items-") as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        trees = [load_tree(args.a, "segboost_a", tmp), load_tree(args.b, "segboost_b", tmp)]
        rng = np.random.default_rng(args.seed)
        for f in range(FILES):
            pred, truth = prob_map(rng, 256, 512)
            (tmp / f"pred{f}.ten1").write_bytes(ten1_bytes(pred))
            (tmp / f"truth{f}.ten1").write_bytes(ten1_bytes(truth))
        works = [tmp / "a", tmp / "b"]
        for work in works:
            work.mkdir()
        ms = ([], [])
        for i in range(args.warm + args.items):
            first = (i + args.reverse) % 2
            outs = [None, None]
            for t in (first, 1 - first):
                seconds, outs[t] = item(trees[t], works[t], i)
                if i >= args.warm:
                    ms[t].append(seconds * 1e3)
            if outs[0] != outs[1]:
                raise SystemExit(f"item {i}: the trees' outputs differ")
    print(f"A {args.a}: {quartiles(ms[0])}")
    print(f"B {args.b}: {quartiles(ms[1])}")
    wins = sum(b < a for a, b in zip(*ms))
    print(f"throughput B/A x{sum(ms[0]) / sum(ms[1]):.3f}; B faster on {wins}/{args.items} items")
    return 0


if __name__ == "__main__":
    sys.exit(main())
