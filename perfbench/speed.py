"""The machine's current speed, measured with a fixed unit of the benchmark's
own work, and times scaled to a reference speed.

Each CPU of the machine that defined the benchmark switches between a fast
and a slow state (about 1.8x apart) every second or so, each CPU on its own,
with no time stolen from the process: the same code simply runs slower.  Raw
wall times of the same code therefore spread by 20-30% from run to run, more
than any useful bound.  So a session times a short calibration unit right
before every request and after the last one, and, while a request runs in
the worker's own process, once every ``TICK_S`` of the process's CPU time
(a timer signal).  Each request's latency is scaled by

    REF_UNIT_S * mean(1 / unit time)

over the units just before, during and just after it.  Samples taken at
even steps of time make that mean the request's average speed, also when
the CPU changed state in the middle of it.

Every time metric is given in these *reference seconds*: the time the request
would take on a machine where one unit takes ``REF_UNIT_S``.  The unit is the
benchmark's own pure-Python code (partition dominance, tuples, dicts), so no
change to ``foulkes`` can make it faster or slower; a program that gets 2x
faster reads 2x lower, whatever state the machine is in.
"""

from __future__ import annotations

import gc
import signal
import time

from workloads import all_partitions, conjugate, dominates

REF_UNIT_S = 1.0e-3
UNITS = 3  # units timed before each request
TICK_S = 0.05  # CPU time of the process between units timed during a request

_PARTS = all_partitions(14)


def unit() -> float:
    """Time one calibration unit (about 1-2 ms), with the collector off so a
    large heap of the program's objects cannot land a collection in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        seen = {}
        for a in _PARTS[::3]:
            k = 0
            for b in _PARTS[::5]:
                if dominates(a, b):
                    k += 1
            seen[conjugate(a)] = k
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


_TIMER = hasattr(signal, "setitimer") and hasattr(signal, "pthread_sigmask")


def sample() -> list[float]:
    """Time ``UNITS`` units, with the timer's signal held off meanwhile."""
    if _TIMER:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGVTALRM})
    try:
        return [unit() for _ in range(UNITS)]
    finally:
        if _TIMER:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGVTALRM})


def factor(*samples: list[float]) -> float:
    """Scale from wall seconds to reference seconds for the work the samples
    were taken around and during."""
    units = [u for sample in samples for u in sample]
    return REF_UNIT_S * sum(1.0 / u for u in units) / len(units)


class Ticker:
    """Times a unit every ``TICK_S`` of this process's CPU time.

    ``units`` holds the unit times, ``spent`` the wall time the handler took,
    which the caller takes off the latency of the request it interrupted.
    A process whose requests run in child processes passes ``active=False``:
    units taken while a child runs would compete with it for the CPU.
    """

    def __init__(self, active: bool = True):
        self.units: list[float] = []
        self.spent = 0.0
        self.active = active and _TIMER
        self._old = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.units.append(unit())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        if self.active:
            self._old = signal.signal(signal.SIGVTALRM, self._tick)
            signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0)
            signal.signal(signal.SIGVTALRM, self._old)
        return False
