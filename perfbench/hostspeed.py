"""The speed the host gives the timed process, sampled while it works.

The benchmark shares its cores with other machines' work, and the speed it
gets drifts between states for seconds to minutes: within one hour on a
2-core shared virtual machine the same census-quadric call took from 1.15 s
to 2.3 s and one moment-quadric call from 7.5 s to 16 s, with CPU time equal
to wall time throughout. Ten runs of one workload then spread by up to 43%
(first and third quartile over the median), from the host alone.

``HostSpeed`` arms a timer that interrupts the process every PERIOD_S and
times a fixed pure-Python probe (about 0.3 ms) in the interrupted thread,
so the probe shares the workload's core and moment. A timed stretch is
reported scaled to a host on which the probe takes REFERENCE_PROBE_S:
``seconds * REFERENCE_PROBE_S / median(probe times during the stretch)``.
No change to fanostat can move the probe. Over 60 s to 110 s of calls back
to back, scaling cut the spread of single calls from 0.39 to 0.11
(census-quadric) and from 0.22 to 0.08 (moment-quadric). A stretch too short
to contain a probe is scaled by the probes of the whole run.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05
REFERENCE_PROBE_S = 0.00025  # the probe on an uncontended core of that machine


def _step(i: int, k: int) -> int:
    return (i * k + (i >> 3)) % 1009


def probe() -> float:
    """Seconds a fixed loop of calls and small-integer arithmetic takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(1500):
        acc += _step(i, i % 7)
    return perf_counter() - t0


class HostSpeed:
    """Context manager: samples ``probe`` every PERIOD_S while active."""

    def __init__(self):
        self.probes: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.probes.append(probe())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """Probe count so far; probes from a mark on fall in a later stretch."""
        return len(self.probes)

    def scaled(self, seconds: float, since: int) -> float:
        """`seconds` timed from mark `since` on, at the reference host speed."""
        during = self.probes[since:] or self.probes or [probe()]
        return seconds * REFERENCE_PROBE_S / statistics.median(during)
