"""A clock that runs at the speed of a fixed reference kernel, not of the wall.

The 2-vCPU virtual machine this benchmark was written on changes speed by up
to 2x within seconds, and by 30% between two sets of runs minutes apart.  Its
pure-Python code (the program's RK stepper, and a fixed RK4 kernel alike)
slows down and speeds up together, so the ratio of the two is steady where
either alone is not.

``SpeedClock.start()`` arms a timer.  Every ``INTERVAL_S`` of wall time the
timer's signal handler runs one short burst of a fixed kernel: the benchmark's
own RK4 on the differential form (``refs.scalar_terminal``, which never
imports the program and never changes with it).  ``now()`` reads a clock that
advances, between two bursts, by the wall time elapsed times
``REF_BURST_S / last burst time``: wall seconds rescaled to the reference
speed at which one burst takes ``REF_BURST_S``.  Time spent inside the
handler does not advance the clock, so the bursts cost the program nothing on
this clock.  On a machine that holds a steady speed the clock runs at a fixed
rate (1 when a burst takes ``REF_BURST_S``), so a program that does half the
work reads half the time.
"""

from __future__ import annotations

import signal
import time

import refs

INTERVAL_S = 0.1
BURST_STEPS = 200
# one burst at the reference speed; the median on the machine in README.md
REF_BURST_S = 2.6e-3
_F = refs.scalar_f("log_bump", {})


def burst():
    """Wall time of one fixed RK4 kernel run."""
    t0 = time.perf_counter()
    refs.scalar_terminal(2, 2, 1.0, 5.0, 1.0, _F, BURST_STEPS)
    return time.perf_counter() - t0


class SpeedClock:
    def __init__(self):
        self.bursts = []
        self._ref = 0.0      # clock reading at the end of the last burst
        self._since = 0.0    # perf_counter at the end of the last burst
        self._rate = 1.0     # REF_BURST_S / last burst time
        self._saved = None
        self._ticks = 0

    def _measure(self):
        b = burst()
        self.bursts.append(b)
        self._rate = REF_BURST_S / b

    def _tick(self, signum, frame):
        t_in = time.perf_counter()
        self._ref += (t_in - self._since) * self._rate
        self._measure()
        self._since = time.perf_counter()
        self._ticks += 1
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self):
        for _ in range(3):  # warm the kernel before it is trusted
            burst()
        self._measure()
        self._since = time.perf_counter()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._saved is not None:
            signal.signal(signal.SIGALRM, self._saved)
            self._saved = None

    def now(self):
        while True:  # a burst between the reads would mix two segments: read again
            ticks = self._ticks
            reading = self._ref + (time.perf_counter() - self._since) * self._rate
            if ticks == self._ticks:
                return reading

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
