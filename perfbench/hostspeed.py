"""Host-speed probes: wall times rescaled to a fixed speed of the host.

The benchmark shares a host whose neighbours slow both CPUs by up to 1.8x,
in spells of seconds to minutes. The slowdown is per cycle (cache and core
contention), not lost CPU time: ``thread_time`` reads the same as the wall
clock. A run that falls in a busy spell is slower in every figure, and no
statistic over that run's own units can tell it from a slower program.

So the benchmark runs a fixed piece of reference work, a *probe*, about
every ``PROBE_EVERY_NS`` between units of the program's work. A probe is
the same mix of small numpy matmuls and Python dictionary lookups as the
scorer's inner loop, and it never calls the package, so no change to the
package can change its cost. In a 90-second probe of 5-second windows, the
window medians of a predict request and of the probe each spread 23% to 26%
between quartiles, and their ratio spread 4.7%.

``HostClock.normalize`` turns one unit's wall time into nanoseconds at the
host speed where a probe takes ``PROBE_NOMINAL_NS``: the unit's time, less
any probes run inside it, times ``PROBE_NOMINAL_NS`` over the median of the
probes run during the unit and ``WINDOW_NS`` either side of it.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PROBE_NOMINAL_NS = 500_000  # about what one probe takes on a quiet 2-core host
PROBE_EVERY_NS = 20_000_000  # so probes cost about 3% of a run's time
WINDOW_NS = 250_000_000
MIN_PROBES = 9  # a window is widened until it holds this many probes

_rng = np.random.default_rng(20221020)
_X = _rng.standard_normal((6, 90))  # a slot's candidates x feature width
_W = _rng.standard_normal((90, 32))  # feature width x hidden width
_KEYS = [f"token{i}" for i in range(16)]
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def reference_work(rounds: int = 100) -> float:
    """The probe's fixed work; the result is returned so none of it is skipped."""
    total = 0.0
    for _ in range(rounds):
        hidden = _X @ _W
        np.maximum(hidden, 0.0, out=hidden)
        total += float(hidden.sum())
        for key in _KEYS:
            total += _TABLE[key]
    return total


class HostClock:
    """Probe times through a run, and units of work rescaled by them.

    A unit is ``(start ns, end ns, work ns)``, where work is the wall time
    less the probes run inside the unit. A disabled clock runs no probes and
    ``normalize`` returns the work as measured.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.times: list[int] = []  # midpoint of each probe, ascending
        self.durations: list[int] = []
        self.spent = 0  # ns spent in probes so far
        self._due = 0

    def probe(self) -> None:
        start = perf_counter_ns()
        reference_work()
        end = perf_counter_ns()
        self.times.append((start + end) // 2)
        self.durations.append(end - start)
        self.spent += end - start
        self._due = end + PROBE_EVERY_NS

    def maybe_probe(self) -> None:
        """Probe if ``PROBE_EVERY_NS`` have passed since the last probe."""
        if self.enabled and perf_counter_ns() >= self._due:
            self.probe()

    def start(self) -> tuple[int, int]:
        return perf_counter_ns(), self.spent

    def stop(self, mark: tuple[int, int]) -> tuple[int, int, int]:
        start, spent = mark
        end = perf_counter_ns()
        return start, end, end - start - (self.spent - spent)

    @contextmanager
    def probing(self, owner, *names: str):
        """Probe, when due, before each call of ``owner.<name>`` inside the block."""
        if not self.enabled:
            yield
            return
        originals = {name: getattr(owner, name) for name in names}

        def probed(fn):
            def wrapper(*args, **kwargs):
                self.maybe_probe()
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in originals.items():
            setattr(owner, name, probed(fn))
        try:
            yield
        finally:
            for name, fn in originals.items():
                setattr(owner, name, fn)

    def normalize(self, unit: tuple[int, int, int]) -> float:
        """The unit's work in ns at the host speed where a probe takes PROBE_NOMINAL_NS."""
        start, end, work = unit
        if not self.enabled:
            return float(work)
        if not self.durations:
            raise RuntimeError("no host-speed probe was taken")
        half = WINDOW_NS
        while True:
            lo = bisect_left(self.times, start - half)
            hi = bisect_right(self.times, end + half)
            if hi - lo >= min(MIN_PROBES, len(self.times)):
                break
            half *= 2
        return work * PROBE_NOMINAL_NS / statistics.median(self.durations[lo:hi])
