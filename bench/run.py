"""segboost benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload cli-files --seed 1 --seconds 50 --trace 0

Run from the repository root; the package is imported from ``src/``.
Workloads are single-process closed loops (see workloads.py). The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every other item is traced and the metrics are the
per-layer ones (see SETUP.md for every definition). Spans go to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 21

# numpy is imported before the timer starts: it is a dependency, and its
# import time swings from run to run by more than the package's whole import.
_SETUP_TIMER = """
import sys, time
from pathlib import Path
import numpy
t = time.perf_counter()
import segboost
for path in sys.argv[1:]:
    segboost.read_tensor(Path(path).read_bytes())
print(time.perf_counter() - t)
"""


def setup_seconds(files) -> float:
    """Wall time, in a fresh interpreter, of ``import segboost`` plus ``read_tensor`` of each file."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-c", _SETUP_TIMER, *map(str, files)]
    done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip())


def machine_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy.__version__}


class Loop:
    """Closed-loop runner: times each item, checks it untimed, counts failures.

    After each item, also untimed, the calibration kernel measures how fast
    the host runs at that moment.

    With a tracer, every other item is traced, and the pattern shifts every
    4 items so traced and untraced items cover every window/border pair and
    pooled input alike, under the same host load.
    """

    def __init__(self, workload, calibration, tracer=None):
        self.workload = workload
        self.calibration = calibration
        self.tracer = tracer
        self.index = 0
        self.attempted = 0
        self.traced_attempts = 0
        self.failed = 0

    def run(self, seconds: float) -> tuple[list[float], list[float]]:
        """Run items until their timed seconds reach ``seconds``.

        Returns the times of successful items: untraced, then traced.
        """
        times, busy = ([], []), 0.0
        while busy < seconds:
            i = self.index
            self.index += 1
            self.attempted += 1
            traced = self.tracer is not None and (i + i // 4) % 2 == 1
            if traced:
                self.traced_attempts += 1
                self.tracer.item = i
                self.tracer.enabled = True
            ok, out = True, None
            start = time.perf_counter()
            try:
                out = self.workload.item(i)
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
            if traced:
                self.tracer.enabled = False
            if ok:
                try:
                    self.workload.check(i, out)
                except Exception:
                    ok = False
                    traceback.print_exc(file=sys.stderr)
            del out
            if ok:
                times[traced].append(elapsed)
            else:
                self.failed += 1
            busy += elapsed
            self.calibration.after_item(elapsed)
        return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "segboost" / "__init__.py").is_file():
        print(f"error: no segboost package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import segboost

    if Path(segboost.__file__).resolve().parent != SRC / "segboost":
        print(f"error: segboost imported from {segboost.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from calibration import Calibration
    from tracing import PER_LAYER, Tracer
    from segboost import boost as lib_boost  # bound before the tracer wraps it
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    try:
        workload.setup()
        setups = [setup_seconds(workload.setup_files) for _ in range(SETUP_REPEATS)]
        loop = Loop(workload, Calibration(), Tracer() if args.trace else None)
        loop.attempted += 1
        try:
            workload.warm()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            loop.failed += 1
        if args.trace:
            loop.tracer.install()
        plain, traced = loop.run(args.seconds)
        if args.trace:
            per_item = loop.tracer.summary(max(loop.traced_attempts, 1))
            per_item["booster.boost.peak_mib"], per_item["booster.boost.peak_over_input"] = (
                loop.tracer.boost_peak(lib_boost) if loop.tracer.boost_sample else (0.0, 0.0)
            )
            per_item["trace.overhead_frac"] = (
                statistics.fmean(traced) / statistics.fmean(plain) - 1.0 if plain and traced else 0.0
            )
            loop.tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
            metrics = {name: {"value": float(per_item.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER}
            samples = f"{len(plain)} untraced + {len(traced)} traced"
            notes = []
        else:
            times = plain
            samples = str(len(times))
            speed = loop.calibration.speed()
            ms = np.array(times or [0.0]) * 1e3
            raw = {
                "items_per_s": len(times) / sum(times) if times else 0.0,
                "item_ms_p50": np.percentile(ms, 50),
                "item_ms_p75": np.percentile(ms, 75),
            }
            notes = [f"host speed {speed:.4f} of the reference, from {len(loop.calibration.times)} calibration kernels"]
            notes += [f"unscaled {name} = {value:.6g}" for name, value in raw.items()]
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
                "ref_items_per_s": (raw["items_per_s"] / speed, "1/s"),
                "ref_item_ms_p50": (raw["item_ms_p50"] * speed, "ms"),
                "ref_item_ms_p75": (raw["item_ms_p75"] * speed, "ms"),
            }
            metrics = {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()}
    finally:
        workload.close()

    print(f"machine: {json.dumps(machine_facts())}")
    print(f"workload {args.workload} seed {args.seed}: {samples} timed {workload.unit}s "
          f"({loop.attempted} attempted incl. warm-up, {loop.failed} failed); {SETUP_REPEATS} set-ups")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  {note}")
    result = {"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
