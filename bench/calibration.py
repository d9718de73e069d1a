"""How fast the shared host runs right now, from a fixed NumPy kernel.

The host's other tenants slow every call of a run together, by up to a
third for minutes at a time, with CPU time equal to wall time (the CPU
itself runs slower). The kernel below does the kinds of work the
workloads do: one-hot compares, summed-area cumsums and ``p log p`` over a
64x512x19 block (7 MiB of arrays, past the 2 MiB L2), then many calls on
32x32x3 arrays. Its arrays are allocated once, so its time depends on the
host's speed, not on the package or on the heap the package leaves
behind. The loop times it between items, outside their timers; ``speed``
is the reference time over the run's median kernel time, and timings are
scaled by it to the speed the host had when the bounds were set.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the machine described in SETUP.md.
REFERENCE_S = 0.036
# Kernel time per item, as a share of the item's time (at least one kernel per item).
SHARE = 0.05


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.labels = rng.integers(0, 19, size=(64, 512, 1), dtype=np.uint8)
        self.classes = np.arange(19, dtype=np.uint8)
        self.onehot = np.empty((64, 512, 19), dtype=bool)
        self.sat = np.empty((64, 512, 19), dtype=np.int32)
        self.probs = rng.random((64, 512, 19), dtype=np.float32) + np.float32(0.01)
        self.plogp = np.empty_like(self.probs)
        self.conf = np.empty((64, 512), dtype=np.float32)
        self.small = rng.random((32, 32, 3))
        self.small_out = np.empty_like(self.small)
        self.small_sum = np.empty((32, 32, 1))
        self.times = []

    def kernel(self) -> float:
        """One pass of the fixed kernel; returns its seconds."""
        start = time.perf_counter()
        for _ in range(3):
            np.equal(self.labels, self.classes, out=self.onehot)
            np.cumsum(self.onehot, axis=0, dtype=np.int32, out=self.sat)
            np.cumsum(self.sat, axis=1, out=self.sat)
            np.log(self.probs, out=self.plogp)
            np.multiply(self.plogp, self.probs, out=self.plogp)
            np.sum(self.plogp, axis=2, out=self.conf)
        for _ in range(500):
            np.exp(self.small, out=self.small_out)
            np.sum(self.small_out, axis=2, keepdims=True, out=self.small_sum)
            np.divide(self.small_out, self.small_sum, out=self.small_out)
        return time.perf_counter() - start

    def after_item(self, item_seconds: float) -> None:
        """Run kernels for about ``SHARE`` of the item's time."""
        spent = 0.0
        while True:
            took = self.kernel()
            self.times.append(took)
            spent += took
            if spent >= SHARE * item_seconds:
                return

    def speed(self) -> float:
        """Reference kernel time over this run's median kernel time (above 1: the host runs fast)."""
        return REFERENCE_S / statistics.median(self.times)
