"""Outside-in per-layer tracing of the segboost package.

``install`` replaces every public function of the traced layer modules,
at every module attribute the package reaches it through, with a wrapper
that records a span (name, item, start, end, parent) in memory while the
tracer is enabled. ``ConfusionMatrix.update`` is wrapped on the class.
When disabled, a wrapper is one flag test and a call, and the untimed
checks run disabled so references never show up as layer time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import statistics
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import segboost

# ``bounds`` is left out: closed forms that run in microseconds, which no workload calls.
LAYERS = ("tensors", "voting", "confidence", "booster", "metrics", "pgm", "simulate", "cli")
MIB = 2.0**20

# (metric, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("voting.vote_integral.self_s", "s"),
    ("voting.vote_counts_integral.self_s", "s"),
    ("voting.vote_integral.calls", "count"),
    ("voting.vote_uniform.self_s", "s"),
    ("booster.boost.self_s", "s"),
    ("booster.boost.calls", "count"),
    ("booster.boost.call_us_p50", "us"),
    ("booster.blend.self_s", "s"),
    ("booster.boost_report.self_s", "s"),
    ("booster.boost.peak_mib", "MiB"),
    ("booster.boost.peak_over_input", "ratio"),
    ("booster.boost.sys_s", "s"),
    ("booster.boost.minor_faults", "count"),
    ("confidence.confidence.self_s", "s"),
    ("confidence.confidence.calls", "count"),
    ("confidence.adaptive_weights.self_s", "s"),
    ("tensors.argmax_labels.self_s", "s"),
    ("tensors.one_hot.self_s", "s"),
    ("tensors.validate_probmap.self_s", "s"),
    ("tensors.read_tensor.self_s", "s"),
    ("tensors.write_tensor.self_s", "s"),
    ("tensors.io_mib", "MiB"),
    ("metrics.ConfusionMatrix.update.self_s", "s"),
    ("pgm.labels_to_gray.self_s", "s"),
    ("pgm.write_pgm.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("simulate.forward.self_s", "s"),
    ("simulate.forward.calls", "count"),
    ("simulate.cross_entropy_and_grad.self_s", "s"),
    ("simulate.cross_entropy_hard.self_s", "s"),
    ("simulate.evaluate_pair.self_s", "s"),
    ("simulate.generate.self_s", "s"),
    ("simulate.train_cps.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory until ``write``."""

    def __init__(self):
        self.enabled = False
        self.item = -1
        self.spans = []  # (name, item, start, end, parent index or -1)
        self._stack = []
        self.io_bytes = 0
        self.boost_sys_s = 0.0
        self.boost_minor_faults = 0
        self.boost_sample = None  # args of the largest ``ruv`` boost call seen

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, self.item, start, end, parent)

        return traced

    def _boost_meter(self, fn):
        """Kernel time and page faults of each boost call; keeps an input for the memory probe."""

        @functools.wraps(fn)
        def metered(pred, *args, **kwargs):
            if not self.enabled:
                return fn(pred, *args, **kwargs)
            policy = args[1] if len(args) > 1 else kwargs.get("policy", "ruv")
            if policy == "ruv" and (self.boost_sample is None or pred.nbytes > self.boost_sample[0].nbytes):
                self.boost_sample = (pred, args, kwargs)
            before = resource.getrusage(resource.RUSAGE_SELF)
            try:
                return fn(pred, *args, **kwargs)
            finally:
                after = resource.getrusage(resource.RUSAGE_SELF)
                self.boost_sys_s += after.ru_stime - before.ru_stime
                self.boost_minor_faults += after.ru_minflt - before.ru_minflt

        return metered

    def _io_meter(self, fn, size_of):
        @functools.wraps(fn)
        def metered(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                self.io_bytes += size_of(args, result)
            return result

        return metered

    def install(self) -> None:
        """Wrap every public layer function at every module attribute that holds it."""
        modules = [importlib.import_module(f"segboost.{name}") for name in LAYERS]
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    fn = self.span(f"{layer}.{attr}", obj)
                    if (layer, attr) == ("booster", "boost"):
                        fn = self._boost_meter(fn)
                    elif (layer, attr) == ("tensors", "read_tensor"):
                        fn = self._io_meter(fn, lambda args, result: len(args[0]))
                    elif (layer, attr) == ("tensors", "write_tensor"):
                        fn = self._io_meter(fn, lambda args, result: len(result))
                    wrapped[id(obj)] = fn
        for mod in [segboost, *modules]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
        cm = segboost.metrics.ConfusionMatrix
        cm.update = self.span("metrics.ConfusionMatrix.update", cm.update)

    def boost_peak(self, boost) -> tuple[float, float]:
        """Peak traced bytes of ``boost`` on the sampled input: (MiB, multiple of input bytes)."""
        pred, args, kwargs = self.boost_sample
        peak = 0
        tracemalloc.start()
        try:
            for _ in range(2):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                out = boost(pred, *args, **kwargs)
                peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
                del out
        finally:
            tracemalloc.stop()
        return peak / MIB, peak / pred.nbytes

    def summary(self, items: int) -> dict:
        """Per-item self seconds and calls by span name, plus boost call durations."""
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        boost_us = []
        for idx, (name, _, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
            calls[name] += 1
            if name == "booster.boost":
                boost_us.append((end - start) * 1e6)
        per_item = {f"{n}.self_s": s / items for n, s in self_s.items()}
        per_item.update({f"{n}.calls": c / items for n, c in calls.items()})
        per_item["booster.boost.call_us_p50"] = statistics.median(boost_us) if boost_us else 0.0
        per_item["booster.boost.sys_s"] = self.boost_sys_s / items
        per_item["booster.boost.minor_faults"] = self.boost_minor_faults / items
        per_item["tensors.io_mib"] = self.io_bytes / MIB / items
        return per_item

    def write(self, path: Path) -> None:
        """Spans as CSV, times in microseconds from the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        lines = ["name,item,start_us,end_us,parent"]
        lines += [f"{n},{i},{(s - t0) * 1e6:.1f},{(e - t0) * 1e6:.1f},{p}" for n, i, s, e, p in self.spans]
        path.write_text("\n".join(lines) + "\n")
