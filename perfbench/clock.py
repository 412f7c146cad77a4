"""Times at a reference machine speed.

The host this benchmark was built on changes speed with its neighbours' load:
the same pure-Python loop takes 16 ms or 23 ms from one moment to the next,
and the mix drifts over minutes, so ten runs of one input spread by 30% in
time to solution. Process CPU time moves with it and steal time stays near
zero, so neither helps.

A daemon thread therefore times a fixed unit of pure-Python work every
PERIOD_S while the worker runs. A duration measured over an interval is
reported scaled by REFERENCE_UNIT_S / (mean unit time sampled in that
interval): seconds at the speed at which one unit takes REFERENCE_UNIT_S. The
unit holds the GIL for about 0.15 ms, well under the interpreter's 5 ms switch
interval, so the main thread cannot take it back mid-unit. Sampling costs
about 1% of a run.
"""

from __future__ import annotations

import gc
import statistics
import threading
from time import perf_counter

PERIOD_S = 0.02
REFERENCE_UNIT_S = 150e-6
TRIM = 0.01


def _unit() -> int:
    """Tuple, dict and integer work, like pmkit's inner loops."""
    table: dict[tuple[int, int, int], int] = {}
    total = 0
    for i in range(300):
        key = (i & 7, i >> 3, i % 5)
        table[key] = table.get(key, 0) + i
        total += sum(key)
    return total


class SpeedSampler:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        # The unit allocates; without this it could start a collection of the
        # workload's heap and time that instead. The main thread cannot run
        # while the unit holds the GIL, so the switch only affects the unit.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _unit()
        self.samples.append((start, perf_counter() - start))
        if collecting:
            gc.enable()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def scale(self, since: float, until: float) -> float:
        """Factor that turns a duration measured in [since, until) into
        reference-speed seconds; all samples so far if none fall inside.
        The slowest TRIM of the samples (interrupts) are left out."""
        if not self.samples:
            self._sample()
        inside = sorted(d for t, d in self.samples if since <= t < until)
        if not inside:
            inside = sorted(d for _, d in self.samples)
        return REFERENCE_UNIT_S / statistics.fmean(
            inside[:len(inside) - int(len(inside) * TRIM)])
