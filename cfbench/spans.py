"""Spans around the library calls a benchmark task makes."""

from __future__ import annotations

import contextlib
import time


class Spans:
    """Adds the wall time of every span into `seconds`, keyed by name."""

    def __init__(self):
        self.seconds = {}

    @contextlib.contextmanager
    def span(self, name):
        t = time.perf_counter()
        yield
        self.seconds[name] = (self.seconds.get(name, 0.0)
                              + time.perf_counter() - t)


class NullSpans:
    """Tracing off: spans cost one attribute lookup and a no-op context."""

    _ctx = contextlib.nullcontext()

    def span(self, name):
        return self._ctx


NULL = NullSpans()
