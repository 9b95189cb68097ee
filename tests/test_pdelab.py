import math
import re

import numpy as np
import pytest

from contfrob.boxes import Box
from contfrob.errors import BranchCrossingError, RangeError
from contfrob.fields import Const, eval_fields, parse_field
from contfrob.moduli import HOLDS, Lipschitz, MaxModulus, ModuliDecl
from contfrob.odelab import OdeSpec, theorem1_check
from contfrob.pdelab import (PdeSpec, SpecialFormSpec, hat_matrix,
                             involutive_mollified_frames, special_solve,
                             submatrix_det, theorem2_check)
from contfrob.presets import (ode_example_1, ode_peano, pde_example_2,
                              pde_example_3)


# ---------------------------------------------------------------------------
# matrix extension


def test_hat_matrix_example3_displayed():
    spec = pde_example_3()
    hat = hat_matrix(spec)
    M = eval_fields(hat, spec.coords, np.zeros(4))
    assert np.allclose(M, [[1.0, 0.0, 1.0, 0.0],
                           [0.0, 1.0, 0.0, 0.0]])
    _, det = submatrix_det(hat, (2, 3))
    assert abs(det.evaluate(dict(zip(spec.coords, [0.0] * 4)))) == \
        pytest.approx(1.0)


def test_hat_matrix_blocks():
    # zero right-hand side: the trailing block is the zero matrix
    domain = Box.from_dict({"x1": (0, 1), "x2": (0, 1),
                            "y1": (0, 1), "y2": (0, 1)})
    spec = PdeSpec(("x1", "x2"), ("y1", "y2"),
                   [[Const(0.0), Const(0.0)], [Const(0.0), Const(0.0)]],
                   domain, None)
    hat = hat_matrix(spec)
    m, n = spec.m, spec.n
    _, det_f = submatrix_det(hat, tuple(range(m + 1, m + n + 1)))
    env = dict(zip(spec.coords, [0.5] * 4))
    assert det_f.evaluate(env) == 0.0
    _, det_id = submatrix_det(hat, tuple(range(1, n + 1)))
    assert det_id.evaluate(env) == 1.0


def test_hat_matrix_scalar_case():
    domain = Box.from_dict({"x": (0, 1), "y": (0, 1)})
    c = 0.7
    spec = PdeSpec(("x",), ("y",), [[Const(c)]], domain, None)
    hat = hat_matrix(spec)
    assert eval_fields(hat, ("x", "y"), [0.3, 0.4]).tolist() == \
        [[1.0, c]]
    _, det = submatrix_det(hat, (2,))
    assert det.evaluate({"x": 0.3, "y": 0.4}) == c


def test_hat_matrix_column_variables():
    # columns 1..4 pair with y1, y2, x1, x2: w2 of a column choice is the
    # max of the moduli declared for its variables
    spec = pde_example_3()
    w = {name: Lipschitz(k) for k, name in
         enumerate(["y1", "y2", "x1", "x2"], start=1)}
    spec.moduli = ModuliDecl(Lipschitz(1.0), w)
    assert len(hat_matrix(spec)) == spec.n
    assert all(len(row) == spec.n + spec.m for row in hat_matrix(spec))
    cert = theorem2_check(spec, [0.0] * 4, (2, 3))
    assert cert.w2 == MaxModulus(w["y2"], w["x1"])


# ---------------------------------------------------------------------------
# uniqueness certificates


def test_theorem2_example_2_holds():
    _, spec = pde_example_2(alpha=0.8, beta=0.4)
    cert = theorem2_check(spec, [0.25, 0.25, 0.5, 0.5], (1, 2))
    assert cert.verdict == HOLDS
    assert cert.det_value == pytest.approx(1.0)


def test_theorem2_example_3_holds():
    spec = pde_example_3()
    cert = theorem2_check(spec, [0.0, 0.0, 0.0, 0.0], (2, 3))
    assert cert.verdict == HOLDS
    assert abs(cert.det_value) == pytest.approx(1.0)


def test_theorem2_lipschitz_identity_block():
    domain = Box.from_dict({"x1": (0, 1), "y1": (-1, 1)})
    moduli = ModuliDecl(Lipschitz(1.0), {"x1": Lipschitz(1.0),
                                         "y1": Lipschitz(1.0)})
    spec = PdeSpec(("x1",), ("y1",), [[parse_field("y1")]], domain, moduli)
    cert = theorem2_check(spec, [0.5, 0.0], (1,))
    assert cert.verdict == HOLDS


def test_theorem2_point_of_wrong_length_is_range_error():
    _, spec = pde_example_2()
    with pytest.raises(RangeError, match=r"need 4 coordinates, got 3$"):
        theorem2_check(spec, [0.25] * 3, (1, 2))


@pytest.mark.parametrize("check", [
    lambda: theorem1_check(OdeSpec("t", ("y",), [Const(1.0)], Box.from_dict(
        {"t": (0.0, 1.0), "y": (-1.0, 1.0)})), [0.5, 0.0]),
    lambda: theorem2_check(pde_example_2()[0].pde_spec(),
                           [0.25, 0.25, 0.5, 0.5], (1, 2)),
], ids=["theorem1", "theorem2"])
def test_certificate_without_declared_moduli_is_range_error(check):
    with pytest.raises(RangeError, match=r"needs declared moduli for "
                       r"\(.*\), and the spec declares none$"):
        check()


def test_theorem2_singular_not_applicable():
    domain = Box.from_dict({"x1": (0, 1), "y1": (-1, 1)})
    moduli = ModuliDecl(Lipschitz(1.0), {"x1": Lipschitz(1.0),
                                         "y1": Lipschitz(1.0)})
    spec = PdeSpec(("x1",), ("y1",), [[Const(0.0)]], domain, moduli)
    cert = theorem2_check(spec, [0.5, 0.0], (2,))  # F-column, F = 0
    assert cert.verdict == "NotApplicable"


def test_theorem2_m1_reproduces_theorem1():
    for ode_spec, xi in ((ode_example_1(), [0.0, 0.0, 0.0]),
                         (ode_peano(), [0.0, 0.0])):
        cert1 = theorem1_check(ode_spec, xi)
        # the ODE as the m = 1 case, with time as the x variable
        pde = PdeSpec((ode_spec.t_name,), ode_spec.y_names,
                      [[f] for f in ode_spec.F], ode_spec.domain,
                      ode_spec.moduli)
        n = pde.n
        i = cert1.component  # 1-based over (t, y_1..y_n)
        if i == 1:
            I = tuple(range(1, n + 1))
        else:
            I = tuple(sorted(set(range(1, n + 1)) - {i - 1}) + [n + 1])
        cert2 = theorem2_check(pde, np.asarray(xi, dtype=float), I)
        assert cert2.verdict == cert1.verdict
        assert abs(cert2.det_value) == pytest.approx(
            abs(cert1.component_value), abs=1e-12)


# ---------------------------------------------------------------------------
# separable solver


def test_special_solve_linear_case():
    x_names, y_names = ("x1", "x2"), ("y1",)
    domain = Box.from_dict({"x1": (0, 1), "x2": (0, 1), "y1": (-3, 3)})
    sf = SpecialFormSpec(x_names, y_names, [Const(1.0)],
                         [parse_field("x1 + x2")], domain)
    x0, y0 = np.array([0.2, 0.2]), np.array([0.5])
    targets = np.array([[0.3, 0.6], [0.8, 0.1], [0.2, 0.2]])
    res = special_solve(sf, x0, y0, targets)
    expect = 0.5 + (targets.sum(axis=1) - 0.4)
    assert np.allclose(res.values[:, 0], expect, atol=1e-9)
    assert res.max_residual <= 1e-6


@pytest.mark.parametrize("y0", [[0.5], [0.5, 0.5, 0.5]], ids=["1", "3"])
def test_special_solve_y0_of_wrong_length_is_range_error(monkeypatch, y0):
    import contfrob.pdelab as pdelab

    def tabulate(*args):
        raise AssertionError("tabulated before the y0 check")

    monkeypatch.setattr(pdelab, "_SeparableComponent", tabulate)
    sf, _ = pde_example_2()
    with pytest.raises(RangeError, match=rf"^y0 needs one value per y "
                       rf"variable \('y1', 'y2'\), got {len(y0)}$"):
        special_solve(sf, [0.3, 0.3], y0, [[0.35, 0.35]])


@pytest.mark.parametrize("x0,y0,message", [
    ([0.3, 0.3], [math.nan, 0.5], "y1 must be finite and lie in the "
     "domain's [0.15, 0.9], got nan"),
    ([9.0, 9.0], [0.5, 0.5], "x1 must be finite and lie in the domain's "
     "[0.2, 0.7], got 9.0"),
    ([0.3, 0.3, 0.3], [0.5, 0.5], "x0 needs one value per x variable "
     "('x1', 'x2'), got 3")])
def test_special_solve_start_outside_domain_is_range_error(monkeypatch, x0,
                                                           y0, message):
    import contfrob.pdelab as pdelab

    def tabulate(*args):
        raise AssertionError("tabulated before the point check")

    monkeypatch.setattr(pdelab, "_SeparableComponent", tabulate)
    sf, _ = pde_example_2()
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        special_solve(sf, x0, y0, [[0.35, 0.35]])


def test_special_solve_pde2_closed_form():
    alpha, beta = 0.8, 0.4
    sf, _ = pde_example_2(alpha=alpha, beta=beta)
    x0 = np.array([0.3, 0.3])
    y0 = np.array([0.5, 0.5])
    rng = np.random.default_rng(2)
    targets = rng.uniform(0.1, 0.55, size=(12, 2))

    def H(x):
        return np.sum(x ** (alpha + 1.0) / (alpha + 1.0), axis=-1)

    res = special_solve(sf, x0, y0, targets)
    # d(log log(1/y)) = -beta dH integrates to the double-exponential form
    expect = np.exp(np.log(y0[None, :]) *
                    np.exp(-beta * (H(targets) - H(x0)))[:, None])
    assert np.max(np.abs(res.values - expect)) <= 1e-8
    assert res.max_residual <= 1e-6


def test_special_solve_equilibrium_branch():
    domain = Box.from_dict({"x1": (0, 1), "y1": (-2, 2)})
    sf = SpecialFormSpec(("x1",), ("y1",), [parse_field("y1")],
                         [parse_field("x1")], domain)
    res = special_solve(sf, [0.0], [0.0], [[0.9]])
    assert res.values[0, 0] == 0.0  # G(0) = 0: constant solution


def test_special_solve_branch_crossing():
    domain = Box.from_dict({"x1": (0, 4), "y1": (-4, 4)})
    sf = SpecialFormSpec(("x1",), ("y1",), [parse_field("1 - y1")],
                         [parse_field("x1")], domain)
    # backward from y0 = 0 the solution 1 - e^{-(x-x0)} sinks through the
    # bottom of the y-box long before x reaches 0.5: the bracketing cap
    # converts the runaway into a branch-crossing error
    with pytest.raises(BranchCrossingError):
        special_solve(sf, [3.9], [0.0], [[0.5]], residual_check=False)


def test_special_form_matches_pde():
    sf, pde = pde_example_2()
    pts = pde.domain.lattice(3)
    gap = eval_fields(sf.induced_F(), sf.coords, pts) - \
        eval_fields(pde.F, sf.coords, pts)
    assert np.max(np.abs(gap)) <= 1e-12


# ---------------------------------------------------------------------------
# mollified involutive frames


def test_mollified_frames_smooth_case():
    domain = Box.from_dict({"x1": (0.0, 0.5), "x2": (0.0, 0.5),
                            "y1": (-0.5, 0.5)})
    sf = SpecialFormSpec(("x1", "x2"), ("y1",), [Const(1.0)],
                         [parse_field("x1 + 0.5*x2")], domain)
    fams = involutive_mollified_frames(sf, [0.25, 0.125], check_res=4)
    for fam in fams:
        assert fam.wedge_sup <= 1e-10
        # smoothing an affine H reproduces its gradient on the interior
        pts = domain.lattice(4)
        a = fam.distribution.coeffs[0][0]
        env = {n: pts[:, i] for i, n in enumerate(domain.names)}
        assert np.allclose(np.broadcast_to(a.evaluate(env), (len(pts),)),
                           1.0, atol=1e-6)


def test_mollified_frames_pde2_wedge_vanishes():
    sf, _ = pde_example_2()
    fams = involutive_mollified_frames(sf, [2.0 ** -3, 2.0 ** -4],
                                       check_res=4)
    for fam in fams:
        assert fam.wedge_sup <= 1e-10


def test_mollified_frames_track_rough_coefficients():
    sf, pde = pde_example_2(alpha=0.8, beta=0.4)
    eps = 2.0 ** -5
    fam = involutive_mollified_frames(sf, [eps], check_res=3)[0]
    pts = pde.domain.lattice(5)
    env = {n: pts[:, i] for i, n in enumerate(pde.domain.names)}
    exact = sf.induced_F()
    for j in range(pde.m):
        for i in range(pde.n):
            smooth = fam.distribution.coeffs[j][i]
            a = np.broadcast_to(smooth.evaluate(env), (len(pts),))
            b = np.broadcast_to(exact[i][j].evaluate(env), (len(pts),))
            # smoothing bias away from the singular axes is O(eps^2) small
            assert np.max(np.abs(a - b)) <= 0.02


def test_pde_spec_mismatch_is_range_error():
    box = Box.from_dict({"x": (0.0, 1.0), "y": (0.0, 1.0)})
    with pytest.raises(RangeError, match="pde spec needs 1 rows of 1"):
        PdeSpec(("x",), ("y",), [[Const(1.0), Const(2.0)]], box)
    with pytest.raises(RangeError, match="pde spec needs a domain box"):
        PdeSpec(("x",), ("z",), [[Const(1.0)]], box)


def test_special_form_spec_mismatch_is_range_error():
    box = Box.from_dict({"x": (0.0, 1.0), "y": (0.1, 1.0)})
    y, x = parse_field("y"), parse_field("x")
    with pytest.raises(RangeError, match="one G and one H per y variable"):
        SpecialFormSpec(("x",), ("y",), [y, y], [x], box)
    with pytest.raises(RangeError, match="G1 may only depend on y"):
        SpecialFormSpec(("x",), ("y",), [x * y], [x], box)
    with pytest.raises(RangeError, match="H1 may only depend on"):
        SpecialFormSpec(("x",), ("y",), [y], [x * y], box)


@pytest.mark.parametrize("h2, mollified", [
    ("x1^1.8/1.8 + x2^1.8/1.8", 3), ("x1*x2", 4)], ids=["equal", "distinct"])
def test_mollified_frames_smooth_each_distinct_h_once(monkeypatch, h2,
                                                       mollified):
    # equal H_i share one mollified grid and its spline, but every H_i
    # keeps a leaf of its own, so the frame's symbolic structure is
    # unchanged
    import contfrob.pdelab as pdelab
    sf, _ = pde_example_2()
    sf.H[1] = parse_field(h2)
    calls = []
    inner = pdelab.mollify
    monkeypatch.setattr(pdelab, "mollify",
                        lambda *a, **k: calls.append(a) or inner(*a, **k))
    fam = involutive_mollified_frames(sf, [2.0 ** -4], check_res=3)[0]
    h1, h2 = fam.h_smooth
    assert len(calls) == mollified
    assert h1._key != h2._key
    assert (h1.evaluator is h2.evaluator) == (mollified == 3)
    assert fam.wedge_sup <= 1e-10


@pytest.mark.parametrize("pad", [2.0 ** -5, -0.01])
def test_mollified_frames_pad_below_eps_is_range_error(pad):
    # a pad under eps leaves the domain's faces outside the splines'
    # valid region, where the frame could not be evaluated
    sf, _ = pde_example_2()
    with pytest.raises(RangeError, match=rf"pad {pad:g} is below eps "
                                         rf"0.0625.* lower side of x1"):
        involutive_mollified_frames(sf, [2.0 ** -4], pad=pad)


@pytest.mark.parametrize("eps_list", [[0.0], [0.125, -0.1], [float("nan")]])
def test_mollified_frames_non_positive_eps_is_range_error(monkeypatch,
                                                          eps_list):
    import contfrob.pdelab as pdelab
    monkeypatch.setattr(pdelab, "grid_from_field", None)  # nothing sampled
    sf, _ = pde_example_2()
    bad = next(e for e in eps_list if not e > 0.0)
    with pytest.raises(RangeError, match=rf"^eps must be positive, got "
                                         rf"{bad:g}$"):
        involutive_mollified_frames(sf, eps_list)


def test_mollified_frames_at_pad_eps_evaluate_on_their_domain():
    sf, _ = pde_example_2()
    fam = involutive_mollified_frames(sf, [2.0 ** -4], pad=2.0 ** -4)[0]
    assert np.all(np.isfinite(fam.frame.matrix_at(sf.domain.lattice(3))))


@pytest.mark.parametrize("eps", [2.0 ** -3, 2.0 ** -4, 0.1])
@pytest.mark.parametrize("cells_per_radius", [8, 9, 10, 11, 12, 16])
def test_mollified_frames_default_pad_covers_the_domain(eps,
                                                        cells_per_radius):
    # the fit starts up to one grid cell beyond eps into the padded grids,
    # so a pad of 1.05 eps fell short of the faces unless the padded width
    # was a whole number of cells; the default pad is eps plus one cell
    sf, _ = pde_example_2()
    fam = involutive_mollified_frames(sf, [eps], check_res=3,
                                      cells_per_radius=cells_per_radius)[0]
    assert np.all(np.isfinite(fam.frame.matrix_at(sf.domain.lattice(3))))


def test_mollified_frames_with_a_short_spline_are_range_errors():
    # at eps 1/8, 8 cells per radius and a pad of 1.05 eps the first
    # fitted x sample lies 0.0088 inside x1's lower face, so the frame
    # could not be evaluated on its own domain
    sf, _ = pde_example_2()
    with pytest.raises(RangeError, match=r"^spline H1e is fitted on x1 in "
                       r"\[0\.208801, 0\.691199\], 0\.00880102 short of the "
                       r"box's \[0\.2, 0\.7\]$"):
        involutive_mollified_frames(sf, [1 / 8], pad=1.05 / 8,
                                    cells_per_radius=8)
