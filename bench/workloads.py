"""The two benchmark workloads.

Each is a closed loop: one call in flight, the next sent when the last
returns, on one thread. A workload builds its inputs and their expected
outputs from the run seed in ``setup``, which is not timed;
``setup_files`` lists the TEN1 files the package itself loads when the
benchmark times set-up. ``item(i)`` is the timed unit of work and
``check(i, out)``, run outside the timed region, raises if the output is
wrong.

Workloads call the package through module attributes at call time
(``segboost.boost``, ``segboost.cli.main``, ...) so that the tracer's
wrappers, once installed, see every call. Expected outputs are computed
in ``setup``, before any wrapping.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import segboost
import segboost.cli
from segboost import SimConfig

from inputs import CLASSES, boost_references, digest, parse_ten1, pgm_bytes, prob_map, ten1_bytes

# Window and border per item: both window sizes meet both border modes.
COMBOS = ((5, "clip"), (33, "zero"), (5, "zero"), (33, "clip"))
GRID_POLICIES = ["none", "uniform", "ruv"]
GRID_SHA256 = Path(__file__).with_name("grid_sha256.json")


def grid_csv(sim_seed: int) -> str:
    """One cps-ablation grid: the acceptance-09 policy sweep for one seed."""
    rows = segboost.ablate(None, SimConfig(seeds=(sim_seed,)), GRID_POLICIES, [5])
    return segboost.rows_to_csv(rows)


class CliFiles:
    """In-process ``segboost.cli.main`` on 256x512x19 TEN1 files."""

    name = "cli-files"
    unit = "file"
    files_in_pool = 4

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.dir = None
        self.setup_files = []
        # (file, combo) -> SHA-256 of the soft output and of the hard labels, eval line, SHA-256 of the PGM
        self.refs = {}

    def setup(self) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="cli-files-", dir=self.workdir))
        rng = np.random.default_rng(self.seed)
        for f in range(self.files_in_pool):
            pred, truth = prob_map(rng, 256, 512)
            _, pred_path, truth_path, *_ = self._paths(f)
            pred_path.write_bytes(ten1_bytes(pred))
            truth_path.write_bytes(ten1_bytes(truth))
            self.setup_files += [pred_path, truth_path]
            for combo, (soft_sha, hard) in boost_references(pred, COMBOS).items():
                score = segboost.miou(truth, hard, CLASSES)
                pgm_sha = hashlib.sha256(pgm_bytes(hard, CLASSES)).hexdigest()
                self.refs[(f, combo)] = (soft_sha, digest(hard), f"miou,{score:.6f}", pgm_sha)

    def _paths(self, i: int):
        f = i % self.files_in_pool
        d = self.dir
        return f, d / f"pred{f}.ten1", d / f"truth{f}.ten1", d / f"soft{f}.ten1", d / f"hard{f}.ten1", d / f"labels{f}.pgm"

    def item(self, i: int):
        f, pred, truth, soft, hard, pgm = self._paths(i)
        window, border = COMBOS[i % len(COMBOS)]
        win = ["--vicinity", str(window), "--border", border]
        cli = segboost.cli
        with redirect_stdout(io.StringIO()):  # boost's report lines are not checked
            codes = [cli.main(["boost", str(pred), "--out", str(soft), *win])]
            read_back = segboost.read_tensor(soft.read_bytes())
            codes.append(cli.main(["boost", str(pred), "--out", str(hard), *win, "--harden"]))
            eval_out = io.StringIO()
            with redirect_stdout(eval_out):
                codes.append(cli.main(["eval", str(truth), str(hard), "--classes", str(CLASSES)]))
            codes.append(cli.main(["export-pgm", str(hard), "--out", str(pgm), "--classes", str(CLASSES)]))
        return codes, read_back, eval_out.getvalue()

    def check(self, i: int, out) -> None:
        codes, read_back, eval_text = out
        if codes != [0, 0, 0, 0]:
            raise AssertionError(f"cli exit codes {codes}")
        f, _, _, soft, hard, pgm = self._paths(i)
        soft_sha, hard_sha, miou_line, pgm_sha = self.refs[(f, COMBOS[i % len(COMBOS)])]
        if digest(read_back) != soft_sha or digest(parse_ten1(soft.read_bytes())) != soft_sha:
            raise AssertionError(f"soft output of item {i} differs from the reference boost")
        if digest(parse_ten1(hard.read_bytes())) != hard_sha:
            raise AssertionError(f"hardened labels of item {i} differ from the argmax of the reference boost")
        if miou_line not in eval_text.splitlines():
            raise AssertionError(f"eval printed {eval_text!r}, expected {miou_line}")
        if hashlib.sha256(pgm.read_bytes()).hexdigest() != pgm_sha:
            raise AssertionError(f"PGM of item {i} differs from the documented palette")

    def warm(self) -> None:
        self.check(0, self.item(0))

    def close(self) -> None:
        if self.dir is not None:
            shutil.rmtree(self.dir)
            self.dir = None


class CpsAblation:
    """``ablate`` over none/uniform/ruv, one seed per grid, CSV checked by SHA-256."""

    name = "cps-ablation"
    unit = "grid"
    setup_files = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.recorded = {int(k): v for k, v in json.loads(GRID_SHA256.read_text()).items()}
        self.sim_seeds = []

    def setup(self) -> None:
        order = np.random.default_rng(self.seed).permutation(sorted(self.recorded))
        self.sim_seeds = [int(s) for s in order]

    def warm(self) -> None:
        """A 20-iteration grid: every code path of ``item`` at a tenth of the cost."""
        rows = segboost.ablate(None, SimConfig(seeds=(self.sim_seeds[0],), iters=20), GRID_POLICIES, [5])
        if len(rows) != 3 or not all(0.0 <= r[-1] <= 1.0 for r in rows):
            raise AssertionError(f"warm-up grid rows {rows}")

    def item(self, i: int):
        return grid_csv(self.sim_seeds[i % len(self.sim_seeds)])

    def check(self, i: int, out) -> None:
        sim_seed = self.sim_seeds[i % len(self.sim_seeds)]
        if hashlib.sha256(out.encode()).hexdigest() != self.recorded[sim_seed]:
            raise AssertionError(f"grid CSV for sim seed {sim_seed} differs from the recorded one:\n{out}")

    def close(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (CliFiles, CpsAblation)}
