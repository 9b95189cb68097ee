import math
import re

import numpy as np
import pytest

from contfrob.errors import (EvalDomainError, InsufficientDataError,
                             ParseError, RangeError, SingularIntegrandError)
from contfrob.moduli import (FAILS, HOLDS, CriterionReport, Hoelder,
                             Lipschitz, LogLip, MaxModulus, ScaleModulus,
                             SumModulus, Tabulated, estimate_modulus,
                             fit_loglog_slope, limit_condition_check,
                             osgood_check, parse_modulus)

ALL_KINDS = [
    Lipschitz(K=2.0),
    Hoelder(alpha=0.5, K=1.0),
    LogLip(beta=1.0, K=1.0),
    SumModulus(Lipschitz(1.0), Hoelder(0.5, 1.0)),
    ScaleModulus(3.0, Lipschitz(1.0)),
    MaxModulus(Lipschitz(1.0), Hoelder(0.3, 1.0)),
    Tabulated(((0.1, 0.05), (0.2, 0.01 + 0.05), (0.4, 0.2))),
]
# the text form of each of ALL_KINDS, as a config file or --w gives it
ALL_KINDS_TEXT = [
    "lipschitz(k=2)",
    "hoelder(alpha=0.5, k=1)",
    "loglip(beta=1, k=1)",
    "sum(lipschitz(k=1), hoelder(alpha=0.5))",
    "scale(3, lipschitz(k=1))",
    "max(lipschitz(), hoelder(alpha=0.3, k=1))",
    "tabulated(0.1:0.05, 0.2:0.060000000000000005, 0.4:0.2)",
]


def test_eval_examples():
    assert Lipschitz(K=2.0)(0.5) == 1.0
    assert LogLip(1.0, 1.0)(1.0 / math.e) == pytest.approx(1.0 / math.e)
    assert Hoelder(0.5, 1.0)(0.25) == 0.5
    assert SumModulus(Lipschitz(1.0), Hoelder(0.5, 1.0))(0.25) == 0.75
    assert ScaleModulus(3.0, SumModulus(Lipschitz(1.0), Lipschitz(1.0)))(
        0.5) == 3.0


@pytest.mark.parametrize("w", ALL_KINDS, ids=lambda w: type(w).__name__)
def test_zero_monotone_nonneg(w):
    assert w(0.0) == 0.0
    # nondecreasing and nonnegative on a geometric probe grid below the cap
    cap = w.domain_cap if math.isfinite(w.domain_cap) else 1.0
    vals = w(cap * 2.0 ** -np.arange(41.0))
    assert np.all(vals >= 0.0) and np.all(np.diff(vals) <= 1e-15)


def test_domain_guards():
    with pytest.raises(EvalDomainError):
        LogLip(1.0, 1.0)(0.8)  # beyond cap 1/e
    with pytest.raises(EvalDomainError):
        Lipschitz(1.0)(-0.1)


def test_tabulated_invariants():
    with pytest.raises(ValueError):
        Tabulated(((0.2, 0.1), (0.1, 0.2)))  # descending scales
    with pytest.raises(ValueError):
        Tabulated(((0.1, 0.3), (0.2, 0.2)))  # decreasing values


def test_algebra_commutes_exactly():
    a, b = Hoelder(0.7, 2.0), LogLip(0.4, 1.5)
    for s in [0.01, 0.1, 0.3]:
        assert SumModulus(a, b)(s) == SumModulus(b, a)(s)
        assert MaxModulus(a, b)(s) == MaxModulus(b, a)(s)


def test_osgood_verdicts():
    assert osgood_check(Lipschitz(1.0)).verdict == HOLDS
    assert osgood_check(Hoelder(0.5, 1.0)).verdict == FAILS
    assert osgood_check(LogLip(1.0, 1.0)).verdict == HOLDS


def test_osgood_against_closed_form_loglip():
    # int ds / (-s log s) = log|log s|: cross-check the quadrature trace
    rep = osgood_check(LogLip(1.0, 1.0), depth=30)
    deltas, sums = rep.trace[:, 0], rep.trace[:, 1]
    eps = rep.params["eps"]
    exact = np.log(np.abs(np.log(deltas))) - math.log(abs(math.log(eps)))
    assert np.allclose(sums, exact, atol=1e-8)


def test_osgood_singular_integrand():
    w = Tabulated(((0.01, 0.0), (0.5, 1.0)))  # vanishes below s = 0.01
    with pytest.raises(SingularIntegrandError):
        osgood_check(w, eps=0.5)


def test_osgood_report_records_convention():
    rep = osgood_check(Lipschitz(1.0))
    assert rep.params["convention"] == "holds-on-divergence"
    assert len(rep.trace) > 0


def test_osgood_never_inconclusive():
    # the partial-sum trace is monotone by construction, so the verdict
    # is always decided one way or the other
    for w in ALL_KINDS:
        if isinstance(w, Tabulated):
            continue
        rep = osgood_check(w)
        assert rep.verdict in (HOLDS, FAILS)
        # rows go to smaller scales; the partial sums only ever grow
        assert np.all(np.diff(rep.trace[:, 0]) < 0.0)
        assert np.all(np.diff(rep.trace[:, 1]) >= 0.0)


def test_limit_condition_examples():
    rep = limit_condition_check(Hoelder(0.9, 1.0), LogLip(0.5, 1.0))
    assert rep.verdict == HOLDS
    assert rep.params["fitted_slope"] == pytest.approx(0.4, abs=1e-6)

    assert limit_condition_check(Lipschitz(1.0), Lipschitz(1.0)).verdict == HOLDS

    rep = limit_condition_check(Hoelder(0.5, 1.0), Hoelder(0.5, 1.0))
    assert rep.verdict == FAILS
    # trace increases monotonically below s = 1e-2 (on the pre-overflow part)
    s, q = rep.trace[:, 0], rep.trace[:, 1]
    small = (s < 1e-2) & (s > 2e-5)
    assert np.all(np.diff(np.log(q[small])) >= 0.0)


@pytest.mark.parametrize("w1", [Lipschitz(0.0),
                                Tabulated(((1e-3, 0.0), (0.5, 1.0)))],
                         ids=["zero", "zero-below-1e-3"])
def test_limit_condition_vanishing_w1_is_singular(w1):
    # log w1 would be -inf there, and the tail's differences nan
    grid = np.geomspace(min(w1.domain_cap, 1.0), 1.0e-12, 40)
    first = grid[np.argmax(w1(grid) == 0.0)]
    with pytest.raises(SingularIntegrandError,
                       match=rf"^w1 {re.escape(repr(w1))} vanishes at scale "
                             rf"{first:g}$"):
        limit_condition_check(w1, Lipschitz(1.0))


def test_limit_condition_scale_invariance():
    w1, w2 = Hoelder(0.9, 1.0), LogLip(0.5, 1.0)
    for c in [0.01, 1.0, 250.0]:
        rep = limit_condition_check(ScaleModulus(c, w1), w2)
        assert rep.verdict == HOLDS


def test_estimate_modulus_linear():
    xs = np.linspace(0.0, 1.0, 150)[:, None]
    h = xs[1, 0] - xs[0, 0]
    tab = estimate_modulus(xs, 3.0 * xs[:, 0])
    # sup over pairs at distance <= s is 3*floor(s/h)*h: within bucket
    # resolution of the Lipschitz-3 line
    for s, v in tab.breakpoints:
        assert 3.0 * (s - h) <= v <= 3.0 * s + 1e-12


def test_estimate_modulus_masked_constant_direction():
    g = np.linspace(0.0, 1.0, 12)
    pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = pts[:, 1]  # f(x, y) = y
    tab = estimate_modulus(pts, vals, direction_mask=[0])
    assert max(v for _, v in tab.breakpoints) == 0.0


def test_estimate_modulus_sqrt():
    xs = np.linspace(0.0, 1.0, 1000)[:, None]
    tab = estimate_modulus(xs, np.sqrt(xs[:, 0]), n_buckets=8)
    for s, v in tab.breakpoints:
        assert v == pytest.approx(math.sqrt(s), rel=0.10)


def test_estimate_modulus_needs_samples():
    xs = np.linspace(0.0, 1.0, 50)[:, None]
    with pytest.raises(InsufficientDataError):
        estimate_modulus(xs, xs[:, 0])


@pytest.mark.parametrize("w,text", zip(ALL_KINDS, ALL_KINDS_TEXT),
                         ids=[type(w).__name__ for w in ALL_KINDS])
def test_serialization_roundtrip(w, text):
    assert parse_modulus(text) == w


@pytest.mark.parametrize("text", [
    "loglip(beta)", "loglip(beta=1=2)", "lipschitz(k=abc)", "tabulated(0.1)",
    "scale(abc, lipschitz(k=1))", "lipschitz(q=3)", "hoelder(alpha=2)",
    "tabulated(0.1:0.2)", "lipschitz(k=-1)", "loglip(beta=-1)"])
def test_malformed_modulus_text_raises_parse_error(text):
    with pytest.raises(ParseError):
        parse_modulus(text)


def test_report_csv_format():
    rep = limit_condition_check(Lipschitz(1.0), Lipschitz(1.0))
    text = rep.to_csv()
    assert text.startswith("# criterion=LimitCondition\n# verdict=Holds")
    assert "s,quantity" in text


def test_fit_loglog_slope_window():
    s = np.geomspace(1.0, 1e-10, 60)
    trace = np.stack([s, s ** 0.4], axis=1)
    assert fit_loglog_slope(trace, (1e-8, 1e-3)) == pytest.approx(0.4)


def test_empty_criterion_trace_is_range_error():
    with pytest.raises(RangeError, match="osgood report needs a nonempty"):
        CriterionReport("osgood", HOLDS, np.zeros((0, 2)))


@pytest.mark.parametrize("build,text", [
    (lambda: Hoelder(alpha=1.5), r"Hoelder exponent must lie in \(0, 1\], "
     r"got 1\.5$"),
    (lambda: ScaleModulus(-2.0, Lipschitz(1.0)),
     r"scale factor must be positive, got -2\.0$"),
    (lambda: Tabulated(((0.1, 0.2),)),
     r"tabulated modulus needs >= 2 breakpoints, got 1$"),
    (lambda: Tabulated(((0.1, 0.0), (0.3, 0.1), (0.2, 0.2))),
     r"breakpoint scales must be strictly ascending, got 0\.3 then 0\.2$"),
    (lambda: Tabulated(((0.1, 0.3), (0.2, 0.2))),
     r"breakpoint values must be nondecreasing, got 0\.3 then 0\.2$"),
    (lambda: Tabulated(((0.1, -0.1), (0.2, 0.2))),
     r"breakpoint values must be nonnegative, got -0\.1$")])
def test_modulus_range_errors_name_the_value(build, text):
    # RangeError is a ValueError, and each text starts as it always did
    with pytest.raises(RangeError, match="^" + text):
        build()
