"""Speed ticks sampled on a timer all through set-up.

Set-up is one long stretch (imports, the preset build, warm-up tasks),
and the host's speed changes within it on a scale of 100 ms, so probes
before and after it cannot follow the drift.  Instead SIGALRM runs a
fixed ~0.3 ms pure-Python tick every INTERVAL_S; the stretch between two
ticks is divided by the mean of their times (stats.ticks_ref).  The
ticks' own time is left out of every figure.

Stdlib only: worker.py starts the sampler before its first import.
"""

from __future__ import annotations

import signal
import time

TICK_LOOPS = 4_000
INTERVAL_S = 0.02


def tick():
    """Run the tick once; returns (start, duration) in perf_counter s."""
    t = time.perf_counter()
    acc = 0
    for i in range(TICK_LOOPS):
        acc += i * i % 7
    elapsed = time.perf_counter() - t
    if acc < 0:
        raise RuntimeError("speed tick produced a wrong result")
    return t, elapsed


class Sampler:
    """Ticks once at start, then every INTERVAL_S until stop()."""

    def __init__(self):
        self.ticks = [tick()]
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _on_alarm(self, signum, frame):
        self.ticks.append(tick())

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.ticks.append(tick())
        return self.ticks
