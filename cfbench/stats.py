"""Order statistics and the drift normalisation used by the benchmark.

Task times are reported in `ref` units: a task's wall time divided by the
mean of the reference-probe times measured right before and right after
it.  Host speed drifts by tens of percent within a minute on small shared
machines, and it moves the probe and the task together, so the ratio is
far steadier than either time.

Stdlib only: run.py imports this module without numpy.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is only reported as such when at least this many
# samples lie beyond it.
MIN_BEYOND = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
# The speed tick's usual time on the 2-core host the bounds were set on.
# Set-up time in ticks times this is in seconds at that host's usual
# speed.
TICK_NOMINAL_S = 3.0e-4


def rank(n, pct):
    """1-based nearest rank of the pct-th percentile of n samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(pct / 100.0 * n - 1e-9))


def percentile(values, pct):
    """Nearest-rank percentile: an observed sample, never interpolated."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n, pct):
    """How many of n samples lie strictly above the nearest-rank pct."""
    return n - rank(n, pct)


def tail_percentile(n, candidates=TAIL_CANDIDATES, min_beyond=MIN_BEYOND):
    """Highest candidate percentile with at least min_beyond samples above
    it, or None when even the lowest candidate has too few."""
    for pct in sorted(candidates, reverse=True):
        if beyond(n, pct) >= min_beyond:
            return pct
    return None


def ref_units(task_s, probe_before_s, probe_after_s):
    """Task times divided by the mean probe time around each task."""
    if not (len(task_s) == len(probe_before_s) == len(probe_after_s)):
        raise ValueError("one probe pair per task is required")
    out = []
    for t, a, b in zip(task_s, probe_before_s, probe_after_s):
        ref = 0.5 * (a + b)
        if ref <= 0.0:
            raise ValueError("reference probe time must be positive")
        out.append(t / ref)
    return out


def ticks_split(ticks, start, end):
    """(raw_s, nominal_s) of the time in [start, end] outside the ticks.

    ticks are (start, duration) pairs in order (see ticks.py).  Each gap
    between two ticks is divided by the mean of their durations, like a
    task between two probes, and converted back to seconds at the tick's
    nominal time, so host drift cancels.
    """
    raw = ref = 0.0
    for (t0, d0), (t1, d1) in zip(ticks, ticks[1:]):
        lo, hi = max(start, t0 + d0), min(end, t1)
        if hi <= lo:
            continue
        if d0 + d1 <= 0.0:
            raise ValueError("tick time must be positive")
        raw += hi - lo
        ref += (hi - lo) / (0.5 * (d0 + d1))
    return raw, TICK_NOMINAL_S * ref


def tasks_per_kref(task_ref):
    """Throughput in tasks per thousand ref: 1000 * tasks / sum(task_ref)."""
    total = math.fsum(task_ref)
    if total <= 0.0:
        raise ValueError("total task time must be positive")
    return 1000.0 * len(task_ref) / total


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    them: the run-to-run spread a metric's bound is compared against."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2
