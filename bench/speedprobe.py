"""Sample the CPU's speed inside a timed process, to scale its times to one speed.

The reference machine is a shared VM whose CPU speed moves by up to about
1.7x from one second to the next, with the load of its neighbours. A fixed
piece of pure-Python work, the probe, is timed from a SIGALRM handler every
INTERVAL_S while the workload runs, so the samples cover the same seconds as
the workload. ``speed_factor`` turns them into the share of the nominal speed
the process ran at, and run.py multiplies its times by it: a time scaled this
way reads as the seconds the run would have taken had the probe run in
NOMINAL_US throughout. NOTES.md says how well that holds.

The handler runs in the main thread between bytecodes, so it costs the
workload about 1% and never runs inside a C call. Only the standard library
is used, so the probe can start before ``import uwbagsim``.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.01

# Probe duration (microseconds) that defines speed 1.0; about the middle of
# the reference machine's range.
NOMINAL_US = 100.0

_FLOATS = [i * 0.1234567891 for i in range(24)]


def probe_work() -> float:
    """The fixed work: an integer loop, float formatting and float parsing."""
    total = 0
    for i in range(300):
        total += i * i % 7
    text = ",".join(f"{x:.17g}" for x in _FLOATS)
    return total + sum(float(field) for field in text.split(","))


class SpeedProbe:
    """Times ``probe_work`` every INTERVAL_S of wall time until stopped."""

    def __init__(self) -> None:
        self.samples_us: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter_ns()
        probe_work()
        self.samples_us.append((time.perf_counter_ns() - start) / 1e3)

    def start(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self.sample()


def speed_factor(samples_us: list[float]) -> float:
    """Time-weighted mean speed of the samples, relative to NOMINAL_US.

    Samples are taken at even steps of wall time, and the work done in a step
    is proportional to the speed in it, so the plain mean of the speeds
    (``NOMINAL_US / sample``) is the factor that turns measured seconds into
    nominal seconds.
    """
    return statistics.fmean(NOMINAL_US / us for us in samples_us)
