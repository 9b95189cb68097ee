import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contfrob import presets
from contfrob.errors import EvalDomainError, ParseError
from contfrob.fields import (ZERO, Const, Coord, cos, eval_fields, exp,
                             is_zero_field, log, parse_field, sin, SplineLeaf)
from test_compiled import _EXPRS

x = Coord("x")
y = Coord("y")


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
        "x + exp(1000)",  # folds to inf + x
        "x*log(0)",  # folds to (-inf)*x
        "(x^y)^2",
    ]
    for t in texts:
        f = parse_field(t)
        g = parse_field(str(f))
        assert f == g
        env = {"x": 0.3, "y": 0.7, "t": 0.2}
        assert f.evaluate(env) == pytest.approx(g.evaluate(env))


def _preset_fields():
    """Every field of the presets, each with its first partials."""
    sf, pde = presets.pde_example_2()
    fields = (presets.ode_example_1().F + presets.ode_peano().F
              + presets.ode_contraction().F + sf.G + sf.H
              + [f for row in pde.F + presets.pde_example_3().F for f in row])
    for dist in (presets.contact_distribution(),
                 presets.involutive_distribution()):
        fields += [f for row in dist.coeffs for f in row]
    for phi in (presets.cat_map(), presets.skew_product()):
        fields += phi.forward + phi.inverse
    return fields + [f.diff(v) for f in fields for v in sorted(f.free_vars)]


def test_printing_round_trips_preset_fields():
    fields = _preset_fields()
    assert len(fields) == 81
    for f in fields:
        assert parse_field(str(f))._key == f._key, str(f)
    # Peano's (y^2)^(1/3) printed as y^2^0.333..., which parses as y^1.2599
    f = presets.ode_peano().F[0]
    assert parse_field(str(f)).evaluate({"y": 0.5}) == f.evaluate({"y": 0.5})


def test_non_finite_constants_are_not_coordinates():
    g = parse_field(str(parse_field("sin(1e400)*x")))
    assert g.free_vars == {"x"}
    assert math.isnan(g.evaluate({"x": 1.0}))
    assert parse_field("inf - nan").free_vars == frozenset()


def test_nan_constants_are_equal():
    # every nan constant is one object, whatever its sign, so a nan field
    # equals itself and a product merges equal nan factors into a power
    assert Const(math.nan) == Const(-math.nan) == parse_field("inf - inf")
    assert parse_field("-(-(nan))")._key == parse_field("nan")._key
    assert str(parse_field("(nan + x)*((inf - inf) + x)")) == "(nan + x)^2"


@settings(max_examples=300, deadline=None)
@given(_EXPRS)
def test_printing_round_trips_generated_fields(text):
    try:
        f = parse_field(text)
    except EvalDomainError:
        assume(False)  # a constant folded to a domain error while parsing
    assert parse_field(str(f))._key == f._key, str(f)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_field("x +")
    with pytest.raises(ParseError):
        parse_field("foo(x)")
    with pytest.raises(ParseError):
        parse_field("x @ y")


def test_malformed_number_is_parse_error():
    for text, pos in [("1.2.3", 0), ("x + 1.2.3*y", 4)]:
        with pytest.raises(ParseError, match="malformed number") as exc:
            parse_field(text)
        assert exc.value.position == pos


def test_folds_follow_evaluation():
    assert parse_field("exp(1000)") == Const(math.inf)
    assert exp(x).evaluate({"x": 1000.0}) == math.inf
    assert math.isnan(parse_field("sin(1e400)").value)
    assert math.isnan(sin(x).evaluate({"x": math.inf}))
    assert parse_field("10^400") == Const(math.inf)
    assert parse_field("(-10)^401") == Const(-math.inf)
    assert (x ** 400).evaluate({"x": 10.0}) == math.inf
    assert parse_field("log(0)") == Const(-math.inf)
    assert str(Const(-math.inf)) == "-inf"
    assert str(Const(math.nan)) == "nan"
    with pytest.raises(EvalDomainError, match="log of a negative value"):
        log(Const(-1.0))


def test_non_finite_exponents_fold():
    # Python's round(inf) and round(nan) raise; the folds must not
    assert parse_field("(-2)^inf") == Const(math.inf)
    assert parse_field("(-0.5)^inf") == ZERO
    with pytest.raises(EvalDomainError, match="fractional power of a "
                                              "negative constant"):
        parse_field("(-2)^nan")
    assert parse_field("(x^inf)^0.5") == parse_field("x^inf")
    assert str(parse_field("(x^2)^nan")) == "(x^2)^nan"
    assert is_zero_field(parse_field("(x + 1)^inf - (x + 1)^inf"))


def test_zero_constant_factor_folds_to_zero():
    # 0 * log(0) = 0 * -inf folds to 0, as s*log(s) evaluates at s = 0
    assert parse_field("0*log(0)") is ZERO
    assert Const(math.inf) * 0.0 is ZERO
    assert (x * log(x)).evaluate({"x": 0.0}) == 0.0
    assert parse_field("2*log(0)") == Const(-math.inf)


_FOLDED = {"log": log, "exp": exp, "sin": sin, "cos": cos}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_FOLDED)),
       st.one_of(st.sampled_from([0.0, -0.0, -1.0, 1e3, -1e3, 710.0]),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_fold_equals_evaluation_bitwise(name, c):
    fn = _FOLDED[name]
    try:
        folded = fn(Const(c))
    except EvalDomainError:
        with pytest.raises(EvalDomainError):
            fn(x).evaluate({"x": c})
        return
    assert isinstance(folded, Const)
    value = fn(x).evaluate({"x": c})
    assert np.float64(folded.value).tobytes() == np.float64(value).tobytes()


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
    pts = np.stack([xs, np.full_like(xs, 2.0)], axis=-1)
    vals = eval_fields(matrix, ("x", "y"), pts)
    assert vals.shape == (11, 2, 3)
    for r, row in enumerate(matrix):
        for c, g in enumerate(row):
            assert np.array_equal(vals[:, r, c], np.broadcast_to(
                g.evaluate({"x": xs, "y": 2.0}), xs.shape))
    assert eval_fields([f, y], ("x", "y"), [1.0, 2.0]).tolist() == [3.0, 2.0]


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


def test_spline_leaf_and_its_derivatives_are_freed_by_reference_count():
    # no cycle between a leaf, its interned derivatives and their table:
    # the evaluator (the spline's data) goes as soon as the leaves do
    ev = _Poly1D()
    gone = weakref.ref(ev)
    leaf = SplineLeaf(ev, ("x",), label="p")
    d2 = leaf.diff("x").diff("x")
    assert d2 is leaf.diff("x").diff("x")
    del ev
    gc.disable()
    try:
        del leaf
        assert gone() is not None  # d2 still holds it
        del d2
        assert gone() is None
    finally:
        gc.enable()


def test_spline_in_products():
    leaf = SplineLeaf(_Poly1D(), ("x",), label="p")
    f = leaf * y
    fx = f.diff("x")
    assert fx.evaluate({"x": 1.0, "y": 2.0}) == pytest.approx(6.0)
    assert f.diff("x").diff("y") == f.diff("y").diff("x")
