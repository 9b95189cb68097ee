"""The compiled evaluator against its reference, Field.evaluate."""

import gc
import math
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contfrob import fields as fl
from contfrob import presets
from contfrob.boxes import Box, env_of
from contfrob.errors import EvalDomainError
from contfrob.fields import (ONE, ZERO, Const, Coord, SplineLeaf,
                             compile_fields, compile_rk4_run, eval_fields,
                             exp, log, parse_field, sin)
from contfrob.geometry import annihilator_frame, evaluate_frame
from contfrob.odelab import extend, funnel, funnel_to_csv
from contfrob.pdelab import (SpecialFormSpec, hat_matrix,
                             involutive_mollified_frames)
from contfrob.surface import FlowConfig, _integrate

x, y = Coord("x"), Coord("y")
XY = ("x", "y")


def reference(flat, coords, pts):
    """Field.evaluate per field on env_of's environment: scalars for one
    point (d,), columns for (N, d)."""
    env = env_of(coords, pts)
    out = np.empty(np.shape(pts)[:-1] + (len(flat),))
    for j, f in enumerate(flat):
        out[..., j] = f.evaluate(env)
    return out


def outcome(run):
    """(bytes of the values or the EvalDomainError text, warning texts)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = run()
            value = (value.shape, value.tobytes())
        except EvalDomainError as err:
            value = str(err)
    return value, {str(w.message) for w in caught}


def with_partials(flat, coords):
    """The fields followed by their partials along coords, field-major:
    the list the variational RK4 run evaluates in each stage."""
    return list(flat) + [f.diff(c) for f in flat for c in coords]


def assert_matches(flat, coords, pts, jacobian=False):
    """The compiled list gives the reference's bits or its error text, and
    on a batch the same warnings; with jacobian the list is
    with_partials(flat, coords)."""
    coords = tuple(coords)
    if jacobian:
        flat = with_partials(flat, coords)
    fn = compile_fields(flat, coords)
    got, got_warn = outcome(lambda: fn(pts))
    want, want_warn = outcome(lambda: reference(flat, coords, pts))
    assert got == want
    if np.ndim(pts) == 2:
        assert got_warn == want_warn


def _preset_lists():
    """(fields, coords, domain) for every field list the presets build."""
    out = []
    for spec in (presets.ode_example_1(), presets.ode_peano(),
                 presets.ode_contraction()):
        out += [(spec.F, spec.coords, spec.domain),
                (extend(spec), spec.coords, spec.domain)]
    sf, pde2 = presets.pde_example_2()
    for pde in (pde2, presets.pde_example_3()):
        out += [(pde.F, pde.coords, pde.domain),
                (hat_matrix(pde), pde.coords, pde.domain)]
    out += [(sf.G, sf.coords, sf.domain), (sf.H, sf.coords, sf.domain),
            (sf.induced_F(), sf.coords, sf.domain)]
    for dist in (presets.contact_distribution(),
                 presets.involutive_distribution(), pde2.distribution()):
        frame = annihilator_frame(dist)
        out += [(dist.coeffs, dist.coords, dist.domain),
                (dist.spanning_fields(), dist.coords, dist.domain),
                ([[r.comps.get((i,), ZERO) for i in range(frame.dim)]
                  for r in frame.rows], dist.coords, dist.domain)]
        out += [(list(dr.comps.values()), dist.coords, dist.domain)
                for dr in frame.d_rows() if dr.comps]
    for phi in (presets.cat_map(), presets.skew_product()):
        box = Box(phi.coords, (0.0,) * phi.dim, (1.0,) * phi.dim)
        out += [(phi.forward, phi.coords, box), (phi.inverse, phi.coords, box)]
    return out


@pytest.mark.parametrize("jacobian", [False, True])
def test_preset_lists_match_reference(jacobian):
    lists = _preset_lists()
    assert len(lists) == 29
    for fields, coords, domain in lists:
        flat = fl._flatten(fields)[0]
        pts = domain.lattice(5)
        assert_matches(flat, coords, pts, jacobian)
        for p in (pts[0], pts[len(pts) // 2]):
            assert_matches(flat, coords, p, jacobian)


def test_eval_fields_keeps_the_structure_shape():
    matrix = [[x * y, ONE, y], [x, ZERO, exp(x)]]
    pts = np.random.default_rng(0).uniform(-1, 1, (4, 3, 2))
    vals = eval_fields(matrix, XY, pts)
    assert vals.shape == (4, 3, 2, 3)
    flat = fl._flatten(matrix)[0]
    want = reference(flat, XY, pts.reshape(-1, 2)).reshape(4, 3, 2, 3)
    assert vals.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# generated expressions

_NUMBERS = st.one_of(
    st.integers(0, 4).map(str),
    st.sampled_from(["0.5", "0.25", "1.5", "1e-3", "2.5e2", "0.333"]),
    st.floats(0.0, 8.0, allow_nan=False).map(repr))
_ATOMS = st.one_of(st.sampled_from(["x", "y", "x", "y", "inf", "nan"]),
                   _NUMBERS)


def _grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(sorted(fl._FUNCTIONS)), inner).map(
            lambda t: f"{t[0]}({t[1]})"),
        inner.map(lambda s: f"-({s})"))


_EXPRS = st.recursive(_ATOMS, _grow, max_leaves=10)
_AXIS = np.array([-math.inf, -2.0, -0.5, 0.0, 0.5, 1.0, 3.0, math.inf])
_LATTICE = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"),
                    axis=-1).reshape(-1, 2)


@settings(max_examples=150, deadline=None)
@given(st.lists(_EXPRS, min_size=1, max_size=3),
       st.sampled_from([_LATTICE, _LATTICE[9:10], _LATTICE[27:60],
                        _LATTICE[11]]))
def test_generated_expressions_match_reference(texts, pts):
    try:
        flat = [parse_field(t) for t in texts]
    except EvalDomainError:
        assume(False)  # a constant folded to a domain error while parsing
    assert_matches(flat, XY, pts)
    try:
        partials = with_partials(flat, XY)
    except EvalDomainError as err:  # d(c^x) folds log(c) for a constant c
        with pytest.raises(EvalDomainError, match=str(err)):
            compile_rk4_run(flat, XY, True)
        return
    assert_matches(partials, XY, pts)


# ---------------------------------------------------------------------------
# edges of the evaluation contract


def test_zero_times_infinity_guard():
    s = Coord("s")
    for pts in (np.array([0.0]), np.array([[0.0], [0.5]])):
        vals = eval_fields([s * log(s)], ("s",), pts)
        assert vals[..., 0].flat[0] == 0.0
        assert_matches([s * log(s)], ("s",), pts)


@pytest.mark.parametrize("text, point, message", [
    ("x^0.5", (-1.0, 0.0), "fractional power of a negative base"),
    ("x^y", (-1.0, 0.5), "fractional power of a negative base"),
    ("x^nan", (-1.0, 0.0), "fractional power of a negative base"),
    ("x^-1", (0.0, 1.0), "zero base raised to a negative power"),
    ("x^y", (0.0, -2.0), "zero base raised to a negative power"),
    ("x^-inf", (0.0, 1.0), "zero base raised to a negative power"),
    ("log(x)", (-1.0, 0.0), "log of a negative value"),
    ("x + z", (1.0, 0.0), "unbound coordinate 'z'"),
])
def test_domain_errors_keep_their_text(text, point, message):
    f = parse_field(text)
    with pytest.raises(EvalDomainError, match=message):
        f.evaluate(dict(zip(XY, point)))
    for pts in (np.array(point), np.array([[1.0, 1.0], point])):
        with pytest.raises(EvalDomainError, match=message):
            eval_fields([f], XY, pts)
        with pytest.raises(EvalDomainError, match=message):
            compile_fields([f], XY)(pts)


def test_constant_exponents_inf_and_nan_compile():
    # Python's round(inf) raises, so the compile-time checks use np.round
    with pytest.raises(OverflowError):
        round(math.inf)
    pts = np.array([[-2.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0],
                    [2.0, 0.0]])
    for text in ("x^inf", "x^-inf", "x^nan"):
        f = parse_field(text)
        compile_fields([f], XY)  # deciding the checks raises nothing
        assert_matches([f], XY, pts[2:])
        assert_matches([f], XY, pts)
    # an integral exponent needs no sign check: (-2)^inf is inf
    vals = compile_fields([parse_field("x^inf")], XY)(pts)
    assert vals[0, 0] == math.inf and vals[3, 0] == 0.0


class _CountingSpline:
    """Stand-in spline evaluator that counts its calls."""

    def __init__(self):
        self.calls = 0

    def ev(self, args, orders):
        self.calls += 1
        t, = args
        return 2.0 * t + orders[0]


def test_shared_subexpression_is_evaluated_once():
    ev = _CountingSpline()
    leaf = SplineLeaf(ev, ("x",))
    flat = [leaf * y, leaf + y, exp(leaf), sin(leaf * y)]
    pts = np.array([[0.5, 2.0], [1.0, -1.0]])
    fn = compile_fields(flat, XY)
    got = fn(pts)
    assert ev.calls == 1
    want = reference(flat, XY, pts)
    assert ev.calls == 1 + len(flat)  # the walk: once per field
    assert got.tobytes() == want.tobytes()
    ev.calls = 0
    compile_fields(with_partials(flat, XY), XY)(pts)
    assert ev.calls == 2  # the leaf and its x-derivative


# ---------------------------------------------------------------------------
# the warnings contract: Add outside np.errstate, blocks shared


_REAL_ERRSTATE = np.errstate


class _CountingErrstate:
    entered = 0

    def __init__(self, **kwargs):
        self.inner = _REAL_ERRSTATE(**kwargs)

    def __enter__(self):
        type(self).entered += 1
        return self.inner.__enter__()

    def __exit__(self, *exc):
        return self.inner.__exit__(*exc)


@pytest.mark.parametrize("texts, blocks", [
    (["1", "0", "y"], 0),  # no ops: no block
    (["x + y", "x"], 0),  # an Add alone: no block
    (["exp(x)*y + log(y)"], 1),  # exp, *, log share one block; + after
    (["exp(exp(x) + y)*x"], 2),  # the + between exp and exp splits it
    (["x*y", "exp(x + y)"], 2),
])
def test_errstate_blocks(monkeypatch, texts, blocks):
    monkeypatch.setattr(np, "errstate", _CountingErrstate)
    _CountingErrstate.entered = 0
    # parsed here, the fields are new objects, so the list compiles anew
    fn = compile_fields([parse_field(t) for t in texts], XY)
    fn(np.array([[0.5, 2.0]]))
    assert _CountingErrstate.entered == blocks


def test_add_of_opposite_infinities_still_warns():
    pts = np.array([[math.inf, -math.inf]])
    with pytest.warns(RuntimeWarning, match="invalid value encountered in "
                                            "add"):
        vals = compile_fields([x + y], XY)(pts)
    assert math.isnan(vals[0, 0])
    with pytest.warns(RuntimeWarning, match="invalid value encountered in "
                                            "add"):
        (x + y).evaluate(env_of(XY, pts))
    # a product is inside the block and guarded: inf * 0 is 0, silently
    assert compile_fields([x * y], XY)(np.array([[math.inf, 0.0]]))[0, 0] \
        == 0.0


# ---------------------------------------------------------------------------
# the compile cache


def _count_diffs(monkeypatch):
    calls = []
    for cls in (Const, fl.Coord, fl.Add, fl.Mul, fl.Pow, fl.Unary,
                SplineLeaf):
        def counted(self, var, _orig=cls.diff):
            calls.append(var)
            return _orig(self, var)
        monkeypatch.setattr(cls, "diff", counted)
    return calls


def test_second_integrate_takes_no_derivatives(monkeypatch):
    calls = _count_diffs(monkeypatch)
    fields = [Const(1.0), Const(0.0), y * y]
    coords = ("x", "y", "z")
    x0, Y0 = np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 0.0])
    first = _integrate(fields, coords, x0, 0.1, 0.01, None, Y0)
    assert calls
    calls.clear()
    second = _integrate(fields, coords, x0, 0.1, 0.01, None, Y0)
    assert calls == []
    assert first.Y.tobytes() == second.Y.tobytes()


def _count_compiles(monkeypatch):
    """The names of the generated functions, field functions and RK4
    runs alike, in the order they are compiled."""
    compiles = []

    def counted(self, lines, *names, _orig=fl._Source.define):
        compiles.append(names)
        return _orig(self, lines, *names)
    monkeypatch.setattr(fl._Source, "define", counted)
    return compiles


def test_eval_fields_compiles_once_per_list(monkeypatch):
    compiles = _count_compiles(monkeypatch)
    flat = [x * y, exp(y)]
    pts = np.array([[0.5, 2.0]])
    first = eval_fields(flat, XY, pts)
    assert len(compiles) == 1
    assert eval_fields(flat, XY, pts).tobytes() == first.tobytes()
    assert len(compiles) == 1


def test_entries_go_with_their_fields():
    ev = _CountingSpline()
    flat = [SplineLeaf(ev, ("x",)) * y, y]
    key = (tuple(map(id, flat)), (2,), XY)
    compile_fields(flat, XY)(np.array([[0.5, 2.0]]))
    finalizers = fl._COMPILED[key][1]
    assert len(finalizers) == 2
    spline = weakref.ref(ev)
    del flat, ev
    gc.collect()
    # one dead field drops the entry, and with it the spline's data;
    # the finalizer on the live y is detached
    assert key not in fl._COMPILED and spline() is None
    assert not any(fin.alive for fin in finalizers)


def test_annihilator_frame_is_built_once(monkeypatch):
    compiles = _count_compiles(monkeypatch)
    dist = presets.contact_distribution()
    pts = dist.domain.lattice(3)
    assert annihilator_frame(dist) is annihilator_frame(dist)
    first = evaluate_frame(annihilator_frame(dist), pts)
    done = len(compiles)
    again = evaluate_frame(annihilator_frame(dist), pts)
    assert len(compiles) == done
    assert again.A.tobytes() == first.A.tobytes()
    assert again.dA.tobytes() == first.dA.tobytes()


def test_second_funnel_on_a_spec_compiles_nothing(monkeypatch):
    compiles = _count_compiles(monkeypatch)
    spec = presets.ode_contraction()
    args = (spec, [0.0, 0.1], 0.2, [1e-2, 1e-3])
    first = funnel(*args, ensemble=3, cfg=FlowConfig(step=0.01), seed=4)
    assert compiles
    compiles.clear()
    second = funnel(*args, ensemble=3, cfg=FlowConfig(step=0.01), seed=4)
    assert compiles == []
    assert funnel_to_csv(second) == funnel_to_csv(first)


def test_mollified_frames_keep_the_cache_bounded(monkeypatch):
    monkeypatch.setattr(fl, "_CACHE_SIZE", 3)
    domain = Box.from_dict({"x1": (0.0, 0.5), "x2": (0.0, 0.5),
                            "y1": (-0.5, 0.5)})
    sf = SpecialFormSpec(("x1", "x2"), ("y1",), [Const(1.0)],
                         [parse_field("x1 + 0.5*x2")], domain)
    pts = domain.shrink(0.1).lattice(3)
    first = None
    for _ in range(4):
        fam = involutive_mollified_frames(sf, [0.25], check_res=3)[0]
        evaluate_frame(fam.frame, pts)
        assert len(fl._COMPILED) <= 3
        if first is None:
            leaf = fam.distribution.coeffs[0][0]
            first = weakref.ref(next(iter(_leaves(leaf))).evaluator)
    del fam, leaf
    gc.collect()
    assert first() is None  # evicted entries free their spline data


def _leaves(f):
    if isinstance(f, SplineLeaf):
        yield f
    for child in getattr(f, "factors", ()) + getattr(f, "terms", ()):
        yield from _leaves(child)


def test_long_sums_and_products_keep_their_order():
    # 40 terms and 40 factors span several generated lines each
    total = fl.add(*(x ** k for k in range(1, 41)))
    product = fl.mul(*(x + k for k in range(40)))
    assert len(total.terms) == 40 and len(product.factors) == 40
    pts = np.linspace(-1.5, 1.5, 31)[:, None]
    assert_matches([total, product], ("x",), pts, jacobian=True)
