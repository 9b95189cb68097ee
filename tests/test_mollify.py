import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrob.boxes import Box
from contfrob.errors import (EvalDomainError, MarginError, RangeError,
                             ResolutionError)
from contfrob.fields import parse_field
from contfrob.moduli import Hoelder, Lipschitz
from contfrob.mollify import (GridFunction, _uniform, grid_from_field,
                              kernel, mollify, to_spline_field,
                              verify_bounds)


def _line_grid(n=801, lo=-1.0, hi=1.0, fn=np.abs):
    xs = np.linspace(lo, hi, n)
    return GridFunction((xs,), fn(xs))


def test_kernel_mass_and_symmetry():
    h = 0.1 / 16
    k1 = kernel(0.1, (h,))
    assert abs(k1.values.sum() * h - 1.0) < 1e-8
    assert np.allclose(k1.values, k1.values[::-1])

    k2 = kernel(0.1, (h, h))
    assert abs(k2.values.sum() * h * h - 1.0) < 1e-8
    # radially symmetric within grid symmetry
    assert np.allclose(k2.values, k2.values.T)
    assert np.allclose(k2.values, k2.values[::-1, :])


def test_kernel_vanishes_at_support_boundary():
    h = 0.1 / 16
    k1 = kernel(0.1, (h,))
    edge = np.abs(np.abs(k1.axes[0]) - 0.1) < h / 2
    assert np.all(k1.values[np.abs(k1.axes[0]) >= 0.1] == 0.0)
    assert np.any(edge)


def test_kernel_resolution_error():
    with pytest.raises(ResolutionError):
        kernel(0.1, (0.05,))


@pytest.mark.parametrize("eps", [0.0, -0.1])
def test_kernel_non_positive_eps_is_range_error(eps):
    with pytest.raises(RangeError, match=rf"^eps must be positive, got "
                                         rf"{eps:g}$"):
        mollify(_line_grid(), eps)


def test_verify_bounds_resolution_boundary_is_kernels():
    # exactly 8 cells per radius: kernel and verify_bounds both accept
    g = _line_grid(n=201)
    eps = 8.0 * g.spacings[0]
    kernel(eps, g.spacings)
    assert len(verify_bounds(g, Lipschitz(1.0), [Lipschitz(1.0)], [eps])) == 1


def test_mollify_constant_preserved():
    g = _line_grid(fn=lambda x: np.full_like(x, 2.5))
    m = mollify(g, 0.1)
    assert np.max(np.abs(m.values[m.interior_slices()] - 2.5)) < 1e-8


def test_mollify_linear_preserved():
    g = _line_grid(fn=lambda x: x)
    m = mollify(g, 0.1)
    sl = m.interior_slices()
    assert np.max(np.abs(m.values[sl] - g.axes[0][sl[0]])) < 1e-6


def test_mollify_abs_peak_at_origin():
    g = _line_grid()
    m = mollify(g, 0.1)
    sl = m.interior_slices()
    diff = np.abs(m.values[sl] - g.values[sl])
    i_max = int(np.argmax(diff))
    x_at_max = g.axes[0][sl[0]][i_max]
    assert abs(x_at_max) < 1e-9
    assert 0.0 < diff[i_max] <= 0.1


def test_mollify_margin_error():
    g = _line_grid(n=101, lo=-0.2, hi=0.2)
    with pytest.raises(MarginError):
        mollify(g, 0.25)


def test_smoothing_error_shrinks_with_eps():
    g = _line_grid()
    sups = []
    for eps in [0.2, 0.1, 0.05]:
        m = mollify(g, eps)
        sl = m.interior_slices()
        sups.append(np.max(np.abs(m.values[sl] - g.values[sl])))
    assert sups[0] > sups[1] > sups[2]


def test_verify_bounds_abs_lipschitz():
    g = _line_grid(n=1601)
    reports = verify_bounds(g, Lipschitz(1.0), [Lipschitz(1.0)],
                            [0.1, 0.05, 0.025])
    ks = [r.fitted_K for r in reports]
    assert all(k == ks[0] for k in ks)  # single global fit
    assert all(r.ok() for r in reports)
    # derivative sup stays ~1 for |x| regardless of eps
    for r in reports:
        assert r.deriv_sup[0] <= 1.0 + 1e-6
        assert r.deriv_sup[0] >= 0.9


def test_verify_bounds_constant_function():
    g = _line_grid(fn=lambda x: np.full_like(x, 1.0), n=801)
    reports = verify_bounds(g, Lipschitz(1.0), [Lipschitz(1.0)], [0.1])
    assert reports[0].sup_dist < 1e-10
    assert reports[0].ok()


def test_verify_bounds_sqrt_scaling():
    g = _line_grid(n=3201, fn=lambda x: np.sqrt(np.abs(x)))
    reports = verify_bounds(g, Hoelder(0.5, 1.0), [Hoelder(0.5, 1.0)],
                            [0.1, 0.05, 0.025])
    scaled = [r.deriv_sup[0] * np.sqrt(r.eps) for r in reports]
    # fit d log(deriv_sup) / d log(eps): expect -1/2 within +-0.1
    slopes = np.diff(np.log([r.deriv_sup[0] for r in reports])) / \
        np.diff(np.log([r.eps for r in reports]))
    assert np.all(np.abs(slopes + 0.5) < 0.1)
    assert max(scaled) / min(scaled) < 1.25
    assert all(r.ok() for r in reports)


def test_verify_bounds_two_dim():
    n = 401
    xs = np.linspace(-1.0, 1.0, n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    g = GridFunction((xs, xs), np.abs(X) + 0.5 * np.abs(Y))
    reports = verify_bounds(g, Lipschitz(1.5), [Lipschitz(1.0),
                                                Lipschitz(0.5)], [0.1, 0.05])
    for r in reports:
        assert r.ok()
        assert r.deriv_sup[0] <= 1.0 + 1e-6
        assert r.deriv_sup[1] <= 0.5 + 1e-6
    assert reports[0].fitted_K == reports[1].fitted_K


def test_verify_bounds_resolution_guard():
    g = _line_grid(n=41)
    with pytest.raises(ResolutionError):
        verify_bounds(g, Lipschitz(1.0), [Lipschitz(1.0)], [0.1])


def test_fitted_K_stable_across_halvings():
    g = _line_grid(n=3201)
    ks = []
    for eps in [0.1, 0.05, 0.025]:
        r = verify_bounds(g, Lipschitz(1.0), [Lipschitz(1.0)], [eps])[0]
        ks.append(r.fitted_K)
    assert max(ks) / min(ks) < 2.0


def test_spline_field_matches_and_differentiates():
    xs = np.linspace(0.0, 1.0, 400)
    g = GridFunction((xs,), np.sin(3 * xs))
    f = to_spline_field(g, ("x",))
    t = np.linspace(0.05, 0.95, 50)
    assert np.allclose(f.evaluate({"x": t}), np.sin(3 * t), atol=1e-6)
    df = f.diff("x")
    assert np.allclose(df.evaluate({"x": t}), 3 * np.cos(3 * t), atol=1e-4)
    with pytest.raises(EvalDomainError):
        f.evaluate({"x": 1.5})


# one spline adapter: 1-D and 2-D leaves over x in [-0.5, 1], y in [0, 2],
# with the exact values and first partials of their sampled polynomial
SPLINE_CASES = {
    "1d": (Box.from_dict({"x": (-0.5, 1.0)}), "x^3 - x",
           lambda x, y: (x ** 3 - x, 3 * x ** 2 - 1, 0.0)),
    "2d": (Box.from_dict({"x": (-0.5, 1.0), "y": (0.0, 2.0)}),
           "x^2*y + y^3", lambda x, y: (x ** 2 * y + y ** 3, 2 * x * y,
                                       x ** 2 + 3 * y ** 2)),
}


@pytest.mark.parametrize("case", SPLINE_CASES)
def test_spline_leaf_edges_and_derivatives(case):
    box, text, exact = SPLINE_CASES[case]
    f = to_spline_field(grid_from_field(parse_field(text), box, 41),
                        box.names)
    mid = {n: 0.5 * (lo + hi) for n, lo, hi in
           zip(box.names, box.lows, box.highs)}
    for name, lo, hi in zip(box.names, box.lows, box.highs):
        for edge, beyond in ((lo, lo - 1e-6), (hi, hi + 1e-6)):
            env = {**mid, name: edge}
            want = exact(env["x"], env.get("y", 0.0))
            assert isinstance(f.evaluate(env), float)
            assert f.evaluate(env) == pytest.approx(want[0], abs=1e-9)
            for k, var in enumerate(box.names):
                assert f.diff(var).evaluate(env) == pytest.approx(
                    want[1 + k], abs=1e-6)
            with pytest.raises(EvalDomainError,
                               match="^point outside the spline's valid "
                                     "region$"):
                f.evaluate({**mid, name: beyond})
    # second-order leaves on arrays keep the points' shape
    pts = {n: np.full((2, 3), v) for n, v in mid.items()}
    second = f.diff("x").diff("x").evaluate(pts)
    assert second.shape == (2, 3)
    assert np.allclose(second, 6 * mid["x"] if case == "1d"
                       else 2 * mid["y"], atol=1e-6)


@pytest.mark.parametrize("shape", [(3,), (3, 9), (9, 2)])
def test_spline_leaf_under_four_samples_is_refused(shape):
    axes = tuple(np.linspace(0.0, 1.0, n) for n in shape)
    with pytest.raises(RangeError, match="^a cubic spline needs at least 4 "
                                         "samples per axis$"):
        to_spline_field(GridFunction(axes, np.zeros(shape)), "xy"[:len(shape)])


@pytest.mark.parametrize("shape,index,bad", [
    ((41,), (10,), np.nan), ((20, 20), (3, 17), np.inf),
    ((20, 20), (0, 0), -np.inf)])
def test_spline_leaf_non_finite_sample_is_refused(shape, index, bad):
    # one such sample would turn the whole leaf into NaN
    axes = tuple(np.linspace(0.0, 1.0, n) for n in shape)
    values = np.ones(shape)
    values[index] = bad
    values[-1, ...] = np.nan  # a later one is not named
    with pytest.raises(RangeError, match=rf"^spline sample at grid index "
                                         rf"{re.escape(str(index))} is not "
                                         rf"finite: {bad!r}$"):
        to_spline_field(GridFunction(axes, values), "xy"[:len(shape)])


def test_spline_leaf_beyond_three_axes_is_refused():
    axes = (np.linspace(0.0, 1.0, 9),) * 3
    with pytest.raises(NotImplementedError, match="1 or 2 dims"):
        to_spline_field(GridFunction(axes, np.zeros((9, 9, 9))),
                        ("x", "y", "z"))


@pytest.mark.parametrize("text,box,n", [
    ("sin(3*x)*y + log(1 + x^2*y^2)",
     Box.from_dict({"x": (-1.0, 0.5), "y": (0.25, 2.0)}), [17, 9]),
    ("2.5", Box.from_dict({"x": (0.0, 1.0), "y": (-1.0, 1.0)}), 5),
    ("x^(1/3)", Box.from_dict({"x": (0.0, 1.0)}), 33),
], ids=["2d", "constant", "1d"])
def test_grid_from_field_matches_the_tree_walk(text, box, n):
    f = parse_field(text)
    g = grid_from_field(f, box, n)
    shape = tuple([n] * box.dim if np.isscalar(n) else n)
    axes = [np.linspace(lo, hi, k) for lo, hi, k in
            zip(box.lows, box.highs, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    ref = np.broadcast_to(f.evaluate(dict(zip(box.names, mesh))), shape)
    assert g.values.shape == shape
    assert g.values.tobytes() == np.ascontiguousarray(ref, float).tobytes()
    assert all(np.array_equal(a, b) for a, b in zip(g.axes, axes))


def test_grid_from_field_domain_error_is_the_tree_walks():
    f = parse_field("log(x)")
    box = Box.from_dict({"x": (-1.0, 1.0), "y": (0.0, 1.0)})
    mesh = np.meshgrid(*[np.linspace(lo, hi, 5) for lo, hi in
                         zip(box.lows, box.highs)], indexing="ij")
    with pytest.raises(EvalDomainError) as ref:
        f.evaluate(dict(zip(box.names, mesh)))
    with pytest.raises(EvalDomainError) as got:
        grid_from_field(f, box, 5)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("eps_list", [[0.0], [0.1, -0.05]])
def test_verify_bounds_non_positive_eps_is_range_error(eps_list):
    bad = next(e for e in eps_list if not e > 0.0)
    with pytest.raises(RangeError, match=rf"^eps must be positive, got "
                                         rf"{bad:g}$"):
        verify_bounds(_line_grid(), Lipschitz(1.0), [Lipschitz(1.0)],
                      eps_list)


def test_spline_2d_mixed_partials_identical():
    box = Box.from_dict({"x": (0, 1), "y": (0, 1)})
    g = grid_from_field(parse_field("exp(x*y)"), box, [60, 60])
    f = to_spline_field(g, ("x", "y"))
    fxy = f.diff("x").diff("y")
    fyx = f.diff("y").diff("x")
    assert fxy == fyx  # interned leaf: identical object, identical floats
    env = {"x": 0.4, "y": 0.6}
    assert fxy.evaluate(env) == fyx.evaluate(env)


def test_spline_2d_third_partials_are_per_cell_constants():
    box = Box.from_dict({"x": (0, 1), "y": (0, 1)})
    f = to_spline_field(grid_from_field(parse_field("exp(x*y)"), box, 20),
                        ("x", "y"))
    fxx = f.diff("x").diff("x")
    fxxx = fxx.diff("x")
    # x = 0.3 and 0.31 share a cell of the 20-knot axis: there f_xx is
    # linear in x and f_xxx its constant slope
    y = np.linspace(0.0, 1.0, 7)
    lo, hi = fxxx.evaluate({"x": 0.3, "y": y}), fxxx.evaluate({"x": 0.31,
                                                               "y": y})
    assert np.array_equal(lo, hi)
    slope = (fxx.evaluate({"x": 0.31, "y": y})
             - fxx.evaluate({"x": 0.3, "y": y})) / 0.01
    assert np.allclose(slope, lo, rtol=1e-8, atol=1e-10)
    # and it converges like h to y^3 exp(xy) (3 % at h = 1/19 inside)
    x, y = np.meshgrid(np.linspace(0.1, 0.9, 9), np.linspace(0.1, 0.9, 9),
                       indexing="ij")
    exact = y ** 3 * np.exp(x * y)
    assert np.max(np.abs(fxxx.evaluate({"x": x, "y": y}) - exact)) < \
        0.1 * np.max(exact)
    # order four and above is exactly 0, as on 1-D leaves
    assert fxxx.diff("x").evaluate({"x": 0.3, "y": 0.4}) == 0.0
    zeros = fxxx.diff("x").diff("y").evaluate({"x": x, "y": y})
    assert zeros.shape == x.shape and not zeros.any()


def test_grid_values_against_axes_is_range_error():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(RangeError, match=r"shape \(4,\) do not match axes "
                                         r"of lengths \(5,\)"):
        GridFunction((xs,), np.zeros(4))


_SPACINGS = st.sampled_from([0.0, 1e-10, 1e-8, 1e-3, 0.1, 1.0, 3.0, 1e6,
                             -0.1, math.inf, -math.inf, math.nan])
# offsets around the 1e-8 absolute and 1e-9 relative tolerance
_JITTER = st.sampled_from([0.0, 5e-9, 1e-8, 1.0000001e-8, 2e-8, -1e-8,
                           1e-9, 1e-3, math.inf, math.nan])


@settings(max_examples=400, deadline=None)
@given(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e300, -math.inf]),
       _SPACINGS | st.floats(allow_nan=True, allow_infinity=True),
       st.lists(_JITTER | st.floats(-1e-6, 1e-6), min_size=1, max_size=6),
       st.floats(0.5, 2.0))
def test_uniform_axes_are_allclose_ones(x0, h, jitter, scale):
    # GridFunction accepts exactly the axes it accepted when the check was
    # np.allclose(d, d[0], rtol=1e-9) (atol 1e-8) and d[0] > 0
    with np.errstate(all="ignore"):
        axis = x0 + h * np.arange(len(jitter)) + scale * np.array(jitter)
        d = np.diff(axis)
        want = bool(len(d) >= 1 and np.allclose(d, d[0], rtol=1e-9)
                    and d[0] > 0.0)
        try:
            GridFunction((axis,), np.zeros(len(axis)))
            got = True
        except RangeError:
            got = False
    assert got == want


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([1e-300, 1e-9, 0.1, 1.0, 3.0, 1e6, 0.0, -1.0,
                        math.inf, -math.inf, math.nan])
       | st.floats(allow_nan=True, allow_infinity=True),
       st.lists(st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, math.inf,
                                 -math.inf, math.nan]), max_size=4),
       st.sampled_from([1.0, 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53]))
def test_uniform_spacings_are_allclose_ones(d0, factors, nudge):
    # spacings at, just inside and just past the tolerance 1e-8 + 1e-9 |d0|
    # of d0, and non-finite ones, through the same rule as the axes
    with np.errstate(all="ignore"):
        tol = nudge * (1e-8 + 1e-9 * abs(d0))
        d = np.array([d0] + [d0 + f * tol for f in factors])
        want = bool(np.allclose(d, d[0], rtol=1e-9) and d[0] > 0.0)
        assert bool(d[0] > 0.0 and _uniform(d)) == want


def test_verify_bounds_counts_moduli_per_axis():
    with pytest.raises(RangeError, match=r"^need one directional modulus per "
                       r"axis: 1 axes, got 2 moduli$"):
        verify_bounds(_line_grid(), Lipschitz(1.0),
                      [Lipschitz(1.0)] * 2, [0.1])


# ---------------------------------------------------------------------------
# reference checks against SciPy, which only the tests import

_DBL_EPSILON = np.finfo(float).eps


def _is_ndimage_where_resolved(g, eps):
    """mollify(g, eps), checked against ndimage.convolve: its finite
    points have ndimage's bytes and cover interior_slices(), and every
    other point is NaN."""
    from scipy import ndimage
    weights = kernel(eps, g.spacings).values * float(np.prod(g.spacings))
    m = mollify(g, eps)
    want = ndimage.convolve(g.values, weights, mode="constant", cval=0.0)
    finite = np.isfinite(m.values)
    assert m.values[finite].tobytes() == want[finite].tobytes()
    assert finite[m.interior_slices()].all()
    assert np.isnan(m.values[~finite]).all()
    return m


# per axis: spacing relative to eps / cells, and points beyond the kernel's
# width.  Unequal lengths give unequal strides, and the convolution's flat
# offsets depend on every stride, which square grids cannot tell apart
_GRIDS = {1: ((1.0,), (300,)), 2: ((1.0, 1.0), (40, 40)),
          "2-non-square": ((1.0, 0.8), (40, 53)),
          3: ((1.0, 1.0, 1.0), (5, 8, 11))}


@pytest.mark.parametrize("eps, cells, dim", [
    (eps, cells, dim) for dim in (1, 2, "2-non-square")
    for cells in (8, 10, 10.05) for eps in (0.125, 0.0625, 0.025)]
    + [(0.125, 8, 3), (0.025, 8, 3)])
def test_mollify_is_ndimage_convolve_bit_for_bit(eps, cells, dim):
    rel, extra = _GRIDS[dim]
    h = [eps / cells * r for r in rel]
    n = [2 * math.ceil(cells / r) + k for r, k in zip(rel, extra)]
    rng = np.random.default_rng([list(_GRIDS).index(dim) + 1,
                                 int(cells * 100), int(eps * 1e4)])
    g = GridFunction(tuple(np.arange(k) * s for k, s in zip(n, h)),
                     rng.normal(size=n))
    weights = kernel(eps, g.spacings).values * float(np.prod(g.spacings))
    rim = (weights != 0.0) & (np.abs(weights) <= _DBL_EPSILON)
    # 10 cells per radius puts 2-D rim weights, and 10.05 cells 1-D ones,
    # at or below DBL_EPSILON: ndimage leaves them out of its footprint;
    # a finer axis or a third axis does so at 10 and at 8 cells
    assert rim.any() == ((cells, dim) in {
        (10, 2), (10.05, 1), (10.05, 2), (10, "2-non-square"),
        (10.05, "2-non-square"), (8, 3)})
    _is_ndimage_where_resolved(g, eps)


def test_mollifying_a_mollified_grid_is_ndimage_where_resolved():
    # the NaN margin of the first pass spreads by the second's radius,
    # which interior_slices() of the summed margin leaves out
    h = 0.0625 / 10
    rng = np.random.default_rng(7)
    g = GridFunction((np.arange(80) * h,) * 2, rng.normal(size=(80, 80)))
    once = _is_ndimage_where_resolved(g, 0.0625)
    assert np.isnan(once.values).any()
    _is_ndimage_where_resolved(once, 0.0625 * 10.05 / 10)


@pytest.mark.parametrize("m", [1, 2, 32, 33, 34, 65, 66, 129, 301])
def test_cyclic_reduction_is_the_dense_solve(m):
    # every parity of every reduction level, and the dense base case
    from contfrob.mollify import _cyclic_reduction
    rng = np.random.default_rng(m)
    lower = np.append(0.0, rng.uniform(-1.0, 1.0, m - 1))
    upper = np.append(rng.uniform(-1.0, 1.0, m - 1), 0.0)
    diag = rng.uniform(2.1, 4.0, m) * rng.choice((-1.0, 1.0), m)
    b = rng.normal(size=(m, 3))
    dense = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
    s = _cyclic_reduction(lower[:, None], diag[:, None], upper[:, None], b)
    assert s.shape == (m, 3)
    assert np.allclose(s, np.linalg.solve(dense, b), rtol=1e-13, atol=1e-14)


def _separable_presets():
    from contfrob.cli import _SEPARABLE
    return {name: build()[0] for name, (build, _) in sorted(_SEPARABLE.items())}


# (eps, pad, cells per radius): the scales the pde frames goldens and
# the mollify reference use, with involutive_mollified_frames' default
# pad, and the benchmark's surface-frames frame at 2^-4
_FRAME_SCALES = [(0.125, None, 10), (0.0625, None, 10),
                 (2.0 ** -4, 1.05 * 2.0 ** -4, 10), (0.025, None, 10)]


def _frame_samples(sf, eps, pad, cells):
    """(leaf name, mollified GridFunction) per distinct H_i and per G_i,
    sampled as involutive_mollified_frames samples them."""
    from contfrob.boxes import Box
    pad = eps * (1.0 + 1.0 / cells) if pad is None else pad
    m = sf.m
    boxes = [Box(sf.x_names, sf.domain.lows[:m], sf.domain.highs[:m])] + [
        Box((y,), (lo,), (hi,)) for y, lo, hi in
        zip(sf.y_names, sf.domain.lows[m:], sf.domain.highs[m:])]
    leaves = [(f"H{i + 1}", f, boxes[0]) for i, f in enumerate(sf.H)
              if f not in sf.H[:i]]
    leaves += [(f"G{i + 1}", f, box) for i, (f, box) in
               enumerate(zip(sf.G, boxes[1:]))]
    out = []
    for name, f, box in leaves:
        padded = box.shrink(-pad)
        n_pts = [math.ceil((hi - lo) / (eps / cells)) + 1
                 for lo, hi in zip(padded.lows, padded.highs)]
        out.append((name, box.names,
                    mollify(grid_from_field(f, padded, n_pts), eps)))
    return out


@pytest.mark.parametrize("scale", _FRAME_SCALES,
                         ids=["0.125", "0.0625", "2^-4-bench", "0.025"])
@pytest.mark.parametrize("preset", sorted(_separable_presets()))
def test_frame_leaves_match_fitpack(preset, scale, fitpack_spline):
    # the numpy leaf and FITPACK fit the same not-a-knot interpolant:
    # values and first partials agree to 1e-12 of the largest |value|
    sf = _separable_presets()[preset]
    for name, names, g in _frame_samples(sf, *scale):
        leaf = to_spline_field(g, names)
        sl = g.interior_slices()
        ref = fitpack_spline([a[s] for a, s in zip(g.axes, sl)], g.values[sl])
        mesh = np.meshgrid(*[np.linspace(lo, hi, 501 if g.dim == 1 else 61)
                             for lo, hi in ref.bounds], indexing="ij")
        for orders in [(0,) * g.dim] + [tuple(np.eye(g.dim, dtype=int)[k])
                                        for k in range(g.dim)]:
            want = ref.ev(mesh, orders)
            got = leaf.evaluator.ev(mesh, orders)
            assert np.max(np.abs(got - want)) <= \
                1e-12 * np.max(np.abs(want)), (name, orders)
