"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the speed of one core drifts by
tens of percent over seconds to minutes, so the same operation can take
0.8 s in one run and 1.2 s in the next.  The run therefore times a fixed
piece of pure-Python work (the probe, owned by the benchmark, never by
the program) between operations, at most every PROBE_EVERY_S.  Each
timing is multiplied by NOMINAL_S and divided by the mean of the probes
taken just before and just after its operation, so it reads as seconds at
the probe's nominal speed.  A change to the program moves the timings but
not the probe.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# median probe time on the machine the baseline was taken on (2 cores,
# Python 3.11); it only sets the scale of the reported seconds
NOMINAL_S = 0.006
PROBE_EVERY_S = 0.5


def probe() -> float:
    """Median of three timings of a fixed mix of tuple, set and dict work.

    The collector is paused so that a collection of the program's own
    heap cannot land inside the probe."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_once() for _ in range(3))
    finally:
        if paused:
            gc.enable()


def _probe_once() -> float:
    t0 = perf_counter()
    rows = [tuple(range(i % 7, i % 7 + 6)) for i in range(3000)]
    edges = frozenset((i, i + 1) for i in range(3000))
    acc = 0
    for row in rows:
        for x in row:
            if x & 1 and (x, x + 1) in edges:
                acc += x
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i & 511] = counts.get(i & 511, 0) + (i ^ acc)
    edges = edges - {(0, 1)}
    return perf_counter() - t0


class SpeedLog:
    """The probes of one run, in order; a timing taken after probe i and
    before probe i+1 is scaled by their mean."""

    def __init__(self):
        self.probes: list[float] = []
        self.last = float("-inf")

    def mark(self) -> None:
        self.probes.append(probe())
        self.last = perf_counter()

    def maybe_mark(self) -> None:
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.mark()

    @property
    def index(self) -> int:
        return len(self.probes) - 1

    def scale(self, seconds: float, index: int) -> float:
        """Wall seconds taken after probe `index`, in seconds at nominal speed."""
        around = self.probes[index : index + 2]
        return seconds * NOMINAL_S * len(around) / sum(around)
