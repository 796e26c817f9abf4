"""Machine-speed probe for timings on a shared, unsteady machine.

On a machine shared with other tenants the same Python code runs at very
different speeds from one minute to the next: on the 2-core virtual
machine the reference figures in README.md come from, one ``tie_all`` call
took 52 ms and, a few seconds later, 100 ms, and whole runs fell into slow
spells that lasted minutes.  A slow spell slows the program and any other
Python code alike, so the benchmark runs a fixed kernel of its own between
the program's operations, about once per ``PROBE_EVERY_S`` of operation
time, and reports each end-to-end time at reference speed::

    reported = measured * REFERENCE_KERNEL_S / kernel

``kernel`` is the kernel's mean time over the run, each probe weighted by
the operation time it follows.  A change to the program cannot change the
kernel, which runs with the cyclic garbage collector off so that the
program's heap does not slow it.  A program change that makes an
operation faster makes the reported time smaller by the same factor.
"""

from __future__ import annotations

import gc
import time

# The kernel's mean time on the reference machine; any constant gives the
# same steadiness, this one keeps reported figures close to measured ones.
REFERENCE_KERNEL_S = 0.004
PROBE_EVERY_S = 0.1  # operation time between two probes
MAX_PROBES_AT_ONCE = 10  # after a long operation


def kernel() -> int:
    """Fixed allocation-heavy work that resembles the engine's dict and tuple traffic."""
    table = {}
    x = 1
    for i in range(2500):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x & 1023, (x >> 10) & 1023)
        row = table.get(key)
        if row is None:
            table[key] = [i, (x, i)]
        else:
            row.append((x, i))
    return len(sorted(table.items()))


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (weight, kernel seconds)
        self.pending = 0.0

    def sample(self, weight: float) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append((weight, dt))

    def after(self, seconds: float) -> None:
        """Account for an operation that took ``seconds``; probe once per PROBE_EVERY_S of it."""
        self.pending += seconds
        probes = min(MAX_PROBES_AT_ONCE, int(self.pending / PROBE_EVERY_S))
        for _ in range(probes):
            self.sample(self.pending / probes)
        if probes:
            self.pending = 0.0

    def kernel_s(self) -> float:
        if self.pending or not self.samples:
            self.sample(self.pending or 1.0)
            self.pending = 0.0
        total = sum(w for w, _ in self.samples)
        return sum(w * k for w, k in self.samples) / total

    def scale(self) -> float:
        """Multiply a measured time by this to express it at reference speed."""
        return REFERENCE_KERNEL_S / self.kernel_s()
