import math

import numpy as np
import pytest

from contfrob.errors import EvalDomainError, ParseError
from contfrob.fields import (Const, coord, cos, eval_fields, exp,
                             is_zero_field, log, parse_field, sin, SplineLeaf)

x = coord("x")
y = coord("y")


def test_constant_folding_and_collection():
    f = x * y + 2 * x - x * y
    assert str(f) == "2*x"
    assert (x + x + x) == 3 * x
    assert ((x ** 0.5) * (x ** 0.5)) == x


def test_diff_basics():
    f = x ** 3 + 2 * x * y
    assert f.diff("x") == 3 * x ** 2 + 2 * y
    assert f.diff("y") == 2 * x
    assert log(x).diff("x") == x ** -1.0
    assert exp(2 * x).diff("x") == 2 * exp(2 * x)
    assert sin(x).diff("x") == cos(x)
    assert cos(x).diff("x") == -sin(x)


def test_mixed_partials_structurally_equal():
    for f in [exp(x * y), x ** 2 * y ** 3, log(1 + x * y), x / (1 + y),
              sin(x * y) * exp(x)]:
        assert f.diff("x").diff("y") == f.diff("y").diff("x")


def test_zero_log_guard():
    g = parse_field("-t*log(t^0.5)")
    assert g.evaluate({"t": 0.0}) == 0.0
    vals = g.evaluate({"t": np.array([0.0, 0.5])})
    assert vals[0] == 0.0
    assert vals[1] == pytest.approx(-0.5 * 0.5 * math.log(0.5))


def test_domain_errors():
    with pytest.raises(EvalDomainError):
        log(x).evaluate({"x": -1.0})
    with pytest.raises(EvalDomainError):
        (x ** 0.5).evaluate({"x": -1.0})
    with pytest.raises(EvalDomainError):
        x.evaluate({})


def test_parse_roundtrip():
    texts = [
        "x + y*2 - 3",
        "-t*log(t^0.5) - x*log(x^0.25)",
        "exp(x*y)/(1 + y^2)",
        "sin(2*x) * cos(y)",
        "x^-2",
        "1 + y^0.9 - x*log(x^0.5)",
    ]
    rng = np.random.default_rng(3)
    for t in texts:
        f = parse_field(t)
        g = parse_field(str(f))
        assert f == g
        env = {"x": 0.3, "y": 0.7, "t": 0.2}
        assert f.evaluate(env) == pytest.approx(g.evaluate(env))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_field("x +")
    with pytest.raises(ParseError):
        parse_field("foo(x)")
    with pytest.raises(ParseError):
        parse_field("x @ y")


def test_precedence():
    assert parse_field("-x^2").evaluate({"x": 3.0}) == -9.0
    assert parse_field("2^-2").evaluate({}) == 0.25
    assert parse_field("2*x^2").evaluate({"x": 3.0}) == 18.0


def test_expand_zero_detection():
    f = (x + y) * (x - y) - x * x + y * y
    assert is_zero_field(f)
    g = exp(x) * (x + y) - exp(x) * x - exp(x) * y
    assert is_zero_field(g)
    assert not is_zero_field(x * y - y)


def test_vectorized_eval_broadcast():
    f = parse_field("x^2 + y")
    xs = np.linspace(0, 1, 11)
    out = f.evaluate({"x": xs, "y": 2.0})
    assert out.shape == (11,)
    assert out[0] == 2.0 and out[-1] == 3.0

    matrix = [[f, Const(1.0), y], [x, Const(0.0), x * y]]
    vals = eval_fields(matrix, {"x": xs, "y": 2.0})
    assert vals.shape == (11, 2, 3)
    for r, row in enumerate(matrix):
        for c, g in enumerate(row):
            assert np.array_equal(vals[:, r, c], np.broadcast_to(
                g.evaluate({"x": xs, "y": 2.0}), xs.shape))
    assert eval_fields([f, y], {"x": 1.0, "y": 2.0}).tolist() == [3.0, 2.0]


class _Poly1D:
    """Stand-in spline evaluator: cubic with exact derivatives."""

    def ev(self, args, orders):
        t, = args
        o, = orders
        if o == 0:
            return t ** 3
        if o == 1:
            return 3 * t ** 2
        if o == 2:
            return 6 * t
        return np.zeros_like(t) + (6.0 if o == 3 else 0.0)


def test_spline_leaf_diff_interning():
    leaf = SplineLeaf(_Poly1D(), ("x",), label="p")
    d1 = leaf.diff("x")
    d1b = leaf.diff("x")
    assert d1 is d1b
    assert leaf.diff("y") == Const(0.0)
    assert d1.evaluate({"x": 2.0}) == 12.0
    # cancellation through the algebra
    assert (d1 - d1) == Const(0.0)


def test_spline_in_products():
    leaf = SplineLeaf(_Poly1D(), ("x",), label="p")
    f = leaf * y
    fx = f.diff("x")
    assert fx.evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(6.0)
    assert f.diff("x").diff("y") == f.diff("y").diff("x")
