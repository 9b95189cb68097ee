"""The reference probe: a fixed ~12 ms mix that never calls contfrob.

Its three parts mirror what the workloads spend time on: interpreted
Python, small numpy ufunc calls, and a small batched SVD.  Timing it right
before and right after a task gives the host's current speed, which the
benchmark divides out (see stats.ref_units).
"""

from __future__ import annotations

import time

import numpy as np

_X = np.linspace(0.0, 1.0, 2048)
_STACK = np.random.default_rng(12345).standard_normal((128, 4, 3))


def probe():
    """Run the probe once; returns its wall time in seconds."""
    t = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    s = 0.0
    for _ in range(100):
        s += float(np.sum(np.sqrt(_X) * np.exp(-_X) + np.sin(_X)))
    for _ in range(10):
        sv = np.linalg.svd(_STACK, compute_uv=False)
    elapsed = time.perf_counter() - t
    if acc < 0 or not (s > 0.0 and sv[0, 0] > 0.0):
        raise RuntimeError("reference probe produced a wrong result")
    return elapsed
