"""Shared fixtures of the test suite."""

import collections
import importlib

import numpy as np
import pytest

from contfrob.errors import EvalDomainError


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


@pytest.fixture
def code_compiles(monkeypatch):
    """The sources the generated functions pass to the builtin compile()
    while the test runs, starting from an empty code cache."""
    fields = importlib.import_module("contfrob.fields")
    sources = []

    def counted(source, filename, mode):
        if filename == "<compiled fields>":
            sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(fields, "_CODE", collections.OrderedDict())
    monkeypatch.setattr(fields, "compile", counted, raising=False)
    return sources


@pytest.fixture
def loop_calls(monkeypatch):
    """A Counter of the calls of the generated RK4 loops, "one" (a single
    row as floats, such as each row of a batch's replayed step) and
    "rows" (arrays: a batch, or a row that one hands off), for runs
    compiled while the test runs."""
    fields = importlib.import_module("contfrob.fields")
    calls = collections.Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    def counted_define(self, lines, *names, _orig=fields._Source.define):
        fns = _orig(self, lines, *names)
        if names != ("rows", "one"):
            return fns
        return tuple(counting(n, f) for n, f in zip(names, fns))

    monkeypatch.setattr(fields._Source, "define", counted_define)
    return calls


class FitpackSpline:
    """FITPACK reference of contfrob.mollify's spline leaf evaluator:
    scipy's CubicSpline on one axis, RectBivariateSpline(kx=3, ky=3) on
    two, behind the same locate(args), poly(block, offsets, orders) and
    ev(args, orders), valid region, clip and error text: locate checks
    and clips the points, which poly evaluates.  SciPy is imported here,
    by the tests only."""

    def __init__(self, axes, values):
        from scipy.interpolate import CubicSpline, RectBivariateSpline
        if len(axes) == 1:
            self.spline = CubicSpline(axes[0], values)
        else:
            self.spline = RectBivariateSpline(axes[0], axes[1], values,
                                              kx=3, ky=3)
        self.bounds = [(a[0], a[-1]) for a in axes]
        self.tol = 1e-9 * max(a[-1] - a[0] for a in axes)

    def locate(self, args):
        args = np.broadcast_arrays(*[np.asarray(t, float) for t in args])
        for t, (lo, hi) in zip(args, self.bounds):
            if np.any(t < lo - self.tol) or np.any(t > hi + self.tol):
                raise EvalDomainError("point outside the spline's valid "
                                      "region")
        return None, [np.clip(t, lo, hi)
                      for t, (lo, hi) in zip(args, self.bounds)]

    def ev(self, args, orders):
        return self.poly(*self.locate(args), orders)

    def poly(self, block, t, orders):
        if len(t) == 1:
            out = self.spline(t[0], nu=orders[0])
        else:
            out = self.spline.ev(t[0].ravel(), t[1].ravel(), dx=orders[0],
                                 dy=orders[1]).reshape(t[0].shape)
        return float(out) if out.ndim == 0 else out


@pytest.fixture
def fitpack_spline():
    """The FITPACK reference evaluator class, FitpackSpline(axes, values)."""
    return FitpackSpline


@pytest.fixture
def fitpack_leaves(monkeypatch):
    """Spline leaves built while the test runs are fitted by FITPACK."""
    monkeypatch.setattr(importlib.import_module("contfrob.mollify"),
                        "_SplineEvaluator", FitpackSpline)
