"""Shared fixtures of the test suite."""

import collections

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """A Counter of the np.linalg functions called while the test runs,
    by name.  numpy's own calls inside np.linalg are not counted."""
    calls = collections.Counter()

    def counted(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        inner = getattr(np.linalg, name)
        if callable(inner) and not isinstance(inner, type):
            monkeypatch.setattr(np.linalg, name, counted(name, inner))
    return calls
