import numpy as np
import pytest

from contfrob.boxes import Box
from contfrob.errors import (EvalDomainError, MarginError, RangeError,
                             ResolutionError)
from contfrob.fields import parse_field
from contfrob.moduli import Hoelder, Lipschitz
from contfrob.mollify import (GridFunction, grid_from_field, kernel, mollify,
                              to_spline_field, verify_bounds)


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


def test_grid_values_against_axes_is_range_error():
    xs = np.linspace(0.0, 1.0, 5)
    with pytest.raises(RangeError, match=r"shape \(4,\) do not match axes "
                                         r"of lengths \(5,\)"):
        GridFunction((xs,), np.zeros(4))


def test_verify_bounds_counts_moduli_per_axis():
    with pytest.raises(RangeError, match=r"^need one directional modulus per "
                       r"axis: 1 axes, got 2 moduli$"):
        verify_bounds(_line_grid(), Lipschitz(1.0),
                      [Lipschitz(1.0)] * 2, [0.1])
