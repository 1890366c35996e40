"""Host-speed probes: scale measured durations to one reference speed.

The 2-vCPU reference host is shared.  Its vCPU switches between a fast and a
slow state many times a second, as other tenants load the physical core (an
integer-loop probe's time ranged 1.0-1.7 times its fastest from one sample
to the next), and a whole run can spend most of its time in the slow state,
so no amount of repetition inside a run steadies raw times.  bench/run.py
therefore pins the run to one CPU, and the worker times a probe on it just
before each op, just after it (``bracket()``) and every TICK_S while it runs
(``Sampler``).  The op's duration, less the probes run inside it, is
multiplied by the probe's reference time over the mean of those probe
times, which gives its duration at the reference speed.  The mean, not the
median, because an op's time follows the share of it spent in the slow
state.

Within a run, one op's scaled times varied by a coefficient of variation of
about 0.09 with brackets alone, against 0.14 when each op was scaled by the
median probe within 1 s of it and 0.11-0.18 unscaled.  Brackets alone did
not see the state in the middle of a long op: engine_large's slowest op
(3 s) still varied by +-23%, which the samples taken inside it remove.

Code slows down by different factors in the slow state, so each workload is
timed with the probe that slows as its ops do (workloads.py names it).
"int" is a tight integer loop: it slows by 1.44, as verify_brute's short ops
do.  "bigint" multiplies two short lists of 100-bit integers as polynomials,
the kind of work the class engine's assembly does, and slows by 1.78: on
survey, whose ops slow by about 1.65, it left the ops' scaled times 5% apart
between the states where "int" left them 24% apart.  With "int",
engine_large's wall_s also rose with the run's median probe time (by 17%
from a fast run to a slow one); with "bigint" it did not.  Neither probe
calls zdpoly, so a change to zdpoly cannot move them.
"""

from __future__ import annotations

import signal
import statistics
import time

BRACKET = 2  # probes on each side of an op
TICK_S = 0.02  # probe interval inside an op (Sampler)


def _int_loop() -> None:
    acc = 0
    for i in range(3_000):
        acc += i * i % 7


_A = [3 ** 80 + 7 * i for i in range(24)]
_B = [5 ** 50 + 11 * i for i in range(24)]


def _bigint_product() -> None:
    for _ in range(2):
        out = [0] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b


# name -> (probe, its time in ns at the reference speed).  The reference
# speed is the host's fast state, where the integer loop takes 200 us; the
# bigint probe's reference is its time in that state, 0.885 times the loop's.
PROBES = {
    "int": (_int_loop, 200_000),
    "bigint": (_bigint_product, 177_000),
}


def bracket(probe: str) -> list[int]:
    """Times of the named probe, taken on one side of a measured op."""
    fn = PROBES[probe][0]
    times = []
    for _ in range(BRACKET):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return times


class Sampler:
    """Times the named probe every TICK_S of wall time while an op runs,
    from a SIGALRM handler, so that a long op is scaled by the host's speed
    throughout it and not only at its ends.  The handler runs between
    bytecodes of the main thread, so a tick that falls in a numpy call waits
    for it to return.  ``ticks`` holds (start, duration) of each probe, in
    perf_counter_ns; the caller subtracts the durations from the op's."""

    def __init__(self, probe: str):
        self._fn = PROBES[probe][0]
        self.ticks: list[tuple[int, int]] = []

    @property
    def times(self) -> list[int]:
        return [ns for _, ns in self.ticks]

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self._fn()
        self.ticks.append((start, time.perf_counter_ns() - start))

    def __enter__(self) -> "Sampler":
        self.ticks = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(ns: float, probe: str, times: list[int]) -> float:
    """A duration bracketed by ``times`` of the named probe, at the
    reference speed."""
    return ns * PROBES[probe][1] / statistics.fmean(times)
