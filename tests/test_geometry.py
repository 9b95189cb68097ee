import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contfrob.boxes import Box
from contfrob.errors import RangeError, TransversalityError
from contfrob.fields import ZERO, Const, coord, parse_field
from contfrob.forms import one_form
from contfrob.geometry import (Distribution, FrameSection, annihilator_frame,
                               asymptotic_involutivity_trace, bound_parts,
                               evaluate_frame,
                               exterior_regularity_trace, frobenius_defect,
                               involutivity_constant, max_principal_angle)
from contfrob.geometry import (_D_RESTRICTED_U, _MIXING_U,
                               _sampled_sphere_sup)
from contfrob.mollify import grid_from_field, mollify, to_spline_field

x, y, z = coord("x"), coord("y"), coord("z")

BOX2 = Box.from_dict({"x": (-0.5, 0.5), "y": (-0.5, 0.5)})
BOX3 = Box.from_dict({"x": (-0.5, 0.5), "y": (-0.5, 0.5), "z": (-0.5, 0.5)})


def contact_distribution():
    # X1 = d/dx + y d/dz, X2 = d/dy: annihilated by dz - y dx
    return Distribution(("x", "y"), ("z",), [[y], [Const(0.0)]], BOX3)


def involutive_distribution():
    # X1 = d/dx + x d/dz, X2 = d/dy: annihilated by dz - x dx
    return Distribution(("x", "y"), ("z",), [[x], [Const(0.0)]], BOX3)


def test_annihilator_symbolic_cancellation():
    d = Distribution(("x",), ("y",), [[y]], BOX2)
    frame = annihilator_frame(d)
    for Xi in d.spanning_fields():
        assert frame.rows[0].pair_vector(Xi) == Const(0.0)


def test_annihilator_zero_coeffs():
    d = Distribution(("x",), ("y",), [[Const(0.0)]], BOX2)
    frame = annihilator_frame(d)
    assert frame.rows[0].comps == {(1,): Const(1.0)}


def test_annihilation_at_many_random_points():
    d = contact_distribution()
    frame = annihilator_frame(d)
    rng = np.random.default_rng(0)
    pts = BOX3.sample(rng, 1_000_000)
    A = frame.matrix_at(pts)
    B = d.spanning_matrix_at(pts)
    assert np.max(np.abs(A @ B)) <= 1e-14


def test_frobenius_defect_rank1_in_plane_is_zero():
    d = Distribution(("x",), ("y",), [[x]], BOX2)
    frame = annihilator_frame(d)
    assert np.max(frobenius_defect(frame, BOX2.lattice(9))) == 0.0


def test_frobenius_defect_contact_and_involutive():
    pts = BOX3.lattice(7)
    defect = frobenius_defect(annihilator_frame(contact_distribution()), pts)
    assert np.max(np.abs(defect - 1.0)) <= 1e-10
    defect0 = frobenius_defect(annihilator_frame(involutive_distribution()), pts)
    assert np.max(defect0) <= 1e-10


def test_defect_zero_set_invariant_under_row_rescaling():
    pts = BOX3.lattice(5)
    scalar = 1 + x * x  # nonvanishing
    inv = annihilator_frame(involutive_distribution()).scale(scalar)
    assert np.max(frobenius_defect(inv, pts)) <= 1e-12
    con = annihilator_frame(contact_distribution()).scale(scalar)
    assert np.min(frobenius_defect(con, pts)) > 0.0


def test_restricted_inverse_identity_block():
    frame = annihilator_frame(contact_distribution())
    p = np.array([0.1, 0.2, 0.0])
    assert np.allclose(evaluate_frame(frame, p).inv[0], np.eye(1))
    scaled = frame.scale(2.0)
    assert np.allclose(evaluate_frame(scaled, p).inv[0], 0.5 * np.eye(1))


def test_restricted_inverse_diagonal_and_singular():
    from contfrob.forms import one_form
    from contfrob.geometry import FrameSection
    coords = ("x", "y1", "y2")
    eps = 1e-3
    rows = (one_form(coords, {"y1": Const(1.0)}),
            one_form(coords, {"y2": Const(eps)}))
    frame = FrameSection(rows, coords, ("y1", "y2"), None)
    inv = evaluate_frame(frame, np.zeros(3)).inv[0]
    assert np.linalg.norm(inv, 2) == pytest.approx(1.0 / eps)

    bad = FrameSection((one_form(coords, {"y1": Const(1.0)}),
                        one_form(coords, {"y1": Const(1.0)})),
                       coords, ("y1", "y2"), None)
    with pytest.raises(TransversalityError):
        evaluate_frame(bad, np.zeros(3))


def test_involutivity_constant_involutive_is_zero():
    d = involutive_distribution()
    m = involutivity_constant(annihilator_frame(d), d, BOX3.lattice(5))
    assert m.value == 0.0


def test_involutivity_constant_contact_vertical_insensitive():
    # d eta = dx ^ dy pairs to zero against the vertical d/dz, so the
    # mixing constant vanishes even though the defect is 1.
    d = contact_distribution()
    m = involutivity_constant(annihilator_frame(d), d, BOX3.lattice(5),
                              n_dirs=64)
    assert m.value <= 1e-12
    assert m.protocol["kind"] == "lower-bound"


def test_involutivity_constant_scale_invariance():
    # a distribution whose frame has a nonzero mixing constant
    d = Distribution(("x",), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x*y1")]],
                     Box.from_dict({"x": (-0.5, 0.5), "y1": (-0.5, 0.5),
                                    "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(5)
    m1 = involutivity_constant(frame, d, pts, n_dirs=64, seed=1)
    assert m1.value > 0.0
    for c in (3.0, 0.25):
        m2 = involutivity_constant(frame.scale(c), d, pts, n_dirs=64, seed=1)
        assert abs(m2.value - m1.value) <= 1e-12 * max(1.0, m1.value)


def test_involutivity_constant_against_brute_force():
    # dense sampling over both unit spheres must bracket the SVD-assisted
    # estimate from below and land within a few percent
    d = Distribution(("x1", "x2"), ("y1", "y2"),
                     [[parse_field("y1*y2"), parse_field("x2 + y2")],
                      [parse_field("0.5*y2"), parse_field("x1*y1")]],
                     Box.from_dict({"x1": (-0.5, 0.5), "x2": (-0.5, 0.5),
                                    "y1": (-0.5, 0.5), "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(3)
    est = involutivity_constant(frame, d, pts, n_dirs=512, seed=0)
    assert est.value > 0.0

    rng = np.random.default_rng(7)
    bases = d.orthonormal_bases_at(pts)
    dA = frame.d_matrices_at(pts)
    A = frame.matrix_at(pts)
    y_idx = list(frame.y_indices)
    inv = np.linalg.inv(A[:, :, y_idx])
    brute = 0.0
    for _ in range(4000):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        t = rng.standard_normal(2)
        t /= np.linalg.norm(t)
        u = np.zeros((len(pts), 4))
        u[:, y_idx] = np.einsum("pln,n->pl", inv, w)
        v = np.einsum("pda,a->pd", bases, t)
        vals = np.linalg.norm(np.einsum("pc,pjcd,pd->pj", u, dA, v), axis=1)
        brute = max(brute, float(np.max(vals)))
    assert brute <= est.value * (1.0 + 1e-9)
    assert est.value <= brute * 1.05


def test_sphere_sampling_monotone_in_directions():
    d = Distribution(("x1", "x2"), ("y1",),
                     [[parse_field("y1 + x2")], [parse_field("x1*y1")]],
                     Box.from_dict({"x1": (-0.5, 0.5), "x2": (-0.5, 0.5),
                                    "y1": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(5)
    vals = [involutivity_constant(frame, d, pts, n_dirs=nd, seed=3,
                                  rounds=0).value
            for nd in (8, 32, 128)]
    assert vals[0] <= vals[1] <= vals[2]


def test_sphere_sampling_monotone_in_directions_two_rows():
    # two frame rows (n = 2): the u-sphere is sampled, not closed-form
    d = Distribution(("x",), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x*y1")]],
                     Box.from_dict({"x": (-0.5, 0.5), "y1": (-0.5, 0.5),
                                    "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(5)
    ests = [involutivity_constant(frame, d, pts, n_dirs=nd, seed=3,
                                  rounds=0) for nd in (8, 32, 128)]
    vals = [e.value for e in ests]
    assert vals[0] <= vals[1] <= vals[2]
    assert vals[0] > 0.0
    assert ests[0].protocol["n_dirs"] == 8
    assert "u_maximization" not in ests[0].protocol


def test_sphere_sampling_monotone_in_directions_sampled_u_sphere():
    # m = 2 and n = 2: both the x-sphere and the u-sphere are sampled
    names = ("x1", "x2", "y1", "y2")
    d = Distribution(("x1", "x2"), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x1*y1")],
                      [parse_field("x2*y2"), parse_field("y1")]],
                     Box.from_dict({v: (-0.5, 0.5) for v in names}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(4)
    vals = [involutivity_constant(frame, d, pts, n_dirs=nd, seed=3,
                                  rounds=0).value for nd in (2, 8, 32, 128)]
    assert vals == sorted(vals)
    assert vals[1] > vals[0]


_COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def codim_one_distributions(draw):
    """X_i = d/dx_i + a_i d/dy, each a_i a polynomial of degree <= 2 in
    (x_1..x_m, y), m <= 3, on [-0.5, 0.5]^(m+1)."""
    m = draw(st.integers(1, 3))
    names = tuple(f"x{i}" for i in range(1, m + 1)) + ("y",)
    monomials = [()] + [(a,) for a in names] + \
        [(a, b) for i, a in enumerate(names) for b in names[i:]]
    coeffs = []
    for _ in range(m):
        f = ZERO
        for mono in draw(st.lists(st.sampled_from(monomials), max_size=4)):
            term = Const(draw(_COEFFS))
            for v in mono:
                term = term * coord(v)
            f = f + term
        coeffs.append([f])
    box = Box.from_dict({v: (-0.5, 0.5) for v in names})
    return Distribution(names[:-1], ("y",), coeffs, box)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _brute_bilinear_sup(T, L, R, n_samples=128, seed=0):
    """max over p and unit a, b of |(L_p a)^T T_p (R_p b)|.

    Both spheres are sampled densely; each point's best pair is then
    polished by a pattern search on both spheres with the step halved
    down to 1e-10.  No singular value is computed.
    """
    rng = np.random.default_rng(seed)
    a = _unit(rng.standard_normal((n_samples, L.shape[-1])))
    b = _unit(rng.standard_normal((n_samples, R.shape[-1])))
    La = np.einsum("pcr,sr->psc", L, a)
    Rb = np.einsum("pdq,tq->pdt", R, b)
    grid = np.abs(La @ T @ Rb)
    best = grid.reshape(len(T), -1).argmax(axis=1)
    ia, ib = np.unravel_index(best, grid.shape[1:])
    cur = [a[ia], b[ib]]

    def value(pair):
        u = np.einsum("pcr,pr->pc", L, pair[0])
        v = np.einsum("pdq,pq->pd", R, pair[1])
        return np.abs(np.einsum("pc,pcd,pd->p", u, T, v))

    val = value(cur)
    step = 0.1
    while step > 1e-10:
        improved = True
        while improved:
            improved = False
            for s in range(2):
                for c in range(cur[s].shape[-1]):
                    for sign in (1.0, -1.0):
                        cand = [cur[0].copy(), cur[1].copy()]
                        cand[s][:, c] += sign * step
                        cand[s] = _unit(cand[s])
                        v = value(cand)
                        up = v > val
                        if np.any(up):
                            improved = True
                            val = np.where(up, v, val)
                            for k in range(2):
                                cur[k][up] = cand[k][up]
        step /= 2.0
    return float(np.max(val))


@settings(max_examples=30, deadline=None)
@given(codim_one_distributions())
def test_codim_one_sups_are_exact(dist):
    frame = annihilator_frame(dist)
    pts = dist.domain.lattice(3)
    bases = dist.orthonormal_bases_at(pts)
    dA = frame.d_matrices_at(pts)
    A = frame.matrix_at(pts)
    y_idx = list(frame.y_indices)
    U = np.zeros((len(pts), dist.dim, 1))
    U[:, y_idx, :] = np.linalg.inv(A[:, :, y_idx])
    atol = 1e-12 * max(1.0, float(np.max(np.abs(dA))))

    d_restr, _, m_const = bound_parts(evaluate_frame(frame, pts), bases)
    assert m_const.value == involutivity_constant(frame, bases, pts).value
    for est in (d_restr, m_const):
        assert est.protocol["u_maximization"] == "exact-svd"
        assert est.protocol["kind"] == "lower-bound"
        assert "n_dirs" not in est.protocol

    D2 = np.einsum("pda,pjde,peb->pjab", bases, dA, bases)
    C = np.einsum("pcl,pjcd,pda->pjla", U, dA, bases)
    for exact, T, subscripts, left in (
            (d_restr.value, D2, _D_RESTRICTED_U, bases),
            (m_const.value, C, _MIXING_U, U)):
        sampled, _ = _sampled_sphere_sup(T, subscripts, 256, 0, 3)
        assert exact >= sampled * (1.0 - 1e-12) - atol
        brute = _brute_bilinear_sup(dA[:, 0], left, bases)
        assert abs(exact - brute) <= 1e-6 * exact + atol


def test_trace_zero_prefactor_skips_overflowing_exponential():
    # (1 + 1000 x^2) dy is involutive (wedge_sup = 0) with d_sup = 1000,
    # so e^{eps d_sup} overflows at eps = 1; 0 * e^{...} must stay 0
    coords = ("x", "z", "y")
    box = Box.from_dict({"x": (-0.5, 0.5), "z": (-0.5, 0.5),
                         "y": (-0.5, 0.5)})
    frame = FrameSection((one_form(coords,
                                   {"y": parse_field("1 + 1000*x^2")}),),
                         coords, ("y",), box)
    dist = Distribution(("x", "z"), ("y",), [[ZERO], [ZERO]], box)
    # the limit's own annihilator dy - 1000 z^2 dx: no gap, d_sup = 1000
    limit = Distribution(("x", "z"), ("y",),
                         [[parse_field("1000*z^2")], [ZERO]], box)
    pts = box.lattice(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asym = asymptotic_involutivity_trace([frame], [dist], 1.0, pts)
        ext = exterior_regularity_trace([annihilator_frame(limit)], limit,
                                        1.0, pts)
    assert asym[0].parts["wedge_sup"] == 0.0
    assert asym[0].parts["d_sup"] == 1000.0
    assert asym[0].strong == 0.0
    assert ext[0].parts["d_sup"] == 1000.0
    assert ext[0].strong == 0.0


def test_asymptotic_trace_involutive_sequence_zero():
    d = involutive_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = asymptotic_involutivity_trace([frame] * 3, [d] * 3, 1.0, pts,
                                          n_dirs=32)
    assert all(t.q == 0.0 and t.strong == 0.0 for t in trace)


def test_asymptotic_trace_contact_no_decay():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = asymptotic_involutivity_trace([frame] * 3, [d] * 3, 1.0, pts,
                                          n_dirs=32)
    qs = [t.q for t in trace]
    assert qs[0] > 0.0
    assert qs[0] == pytest.approx(qs[-1])
    strongs = [t.strong for t in trace]
    assert strongs[0] > 0.0 and strongs[0] == pytest.approx(strongs[-1])


def test_exterior_regularity_annihilator_sequence_zero():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = exterior_regularity_trace([frame] * 3, d, 1.0, pts, n_dirs=32)
    assert all(t.q <= 1e-13 for t in trace)
    assert all(t.strong == 0.0 for t in trace)


def _mollified_graph_frames(expr_text, eps_list, one_dim_var=None):
    """Frames dy - a^eps dx for a = expr over (x, y), per-eps regridding."""
    from contfrob.forms import one_form
    from contfrob.geometry import FrameSection
    coords = ("x", "y")
    frames = []
    for eps in eps_list:
        h = eps / 10.0
        if one_dim_var is None:
            pad = Box.from_dict({"x": (-0.9, 0.9), "y": (-0.9, 0.9)})
            g = grid_from_field(parse_field(expr_text), pad,
                                [int(1.8 / h) + 1] * 2)
            a_eps = to_spline_field(mollify(g, eps), ("x", "y"))
        else:
            pad = Box.from_dict({one_dim_var: (-0.9, 0.9)})
            g = grid_from_field(parse_field(expr_text), pad,
                                int(1.8 / h) + 1)
            a_eps = to_spline_field(mollify(g, eps), (one_dim_var,))
        rows = (one_form(coords, {"y": Const(1.0), "x": -a_eps}),)
        frames.append(FrameSection(rows, coords, ("y",), None))
    return frames


def test_exterior_regularity_mollified_lipschitz_decays():
    eps_list = [2.0 ** -k for k in (2, 3, 4, 5)]
    frames = _mollified_graph_frames(
        "((x - 0.1)^2)^0.5 + 0.5*((y + 0.05)^2)^0.5", eps_list)
    limit = Distribution(
        ("x",), ("y",),
        [[parse_field("((x - 0.1)^2)^0.5 + 0.5*((y + 0.05)^2)^0.5")]],
        Box.from_dict({"x": (-0.4, 0.4), "y": (-0.4, 0.4)}))
    pts = limit.domain.lattice(7)
    trace = exterior_regularity_trace(frames, limit, 1.0, pts, n_dirs=32)
    strongs = [t.strong for t in trace]
    # |a^eps - a| ~ eps while |d eta| stays bounded: geometric decay
    assert strongs[-1] < strongs[0] / 4.0
    for t in trace:
        assert t.parts["d_sup"] < 3.0


def test_exterior_regularity_mollified_hoelder_diverges():
    eps_list = [2.0 ** -k for k in (4, 6, 8, 10)]
    frames = _mollified_graph_frames("((y^2)^0.5)^0.5", eps_list,
                                     one_dim_var="y")
    limit = Distribution(("x",), ("y",), [[parse_field("((y^2)^0.5)^0.5")]],
                         Box.from_dict({"x": (-0.4, 0.4),
                                        "y": (-0.4, 0.4)}))
    # probe points must resolve the width-eps kink region around y = 0
    ys = sorted({0.0, 0.1, 0.2, 0.39} |
                {s * e for e in eps_list for s in (0.25, 0.5, 1.0, 2.0)} |
                {-s * e for e in eps_list for s in (0.25, 0.5, 1.0)})
    pts = np.array([[xv, yv] for xv in (-0.3, 0.0, 0.3) for yv in ys])
    trace = exterior_regularity_trace(frames, limit, 1.0, pts, n_dirs=32)
    strongs = [t.strong for t in trace]
    # sqrt-kernel derivative blows up like eps^{-1/2}: e^{eps0 |d eta|} wins
    assert strongs[-1] > 10.0 * strongs[0]
    assert trace[-1].parts["d_sup"] > 1.5 * trace[0].parts["d_sup"]


def test_compatibility_defect_orthonormal_rotated():
    from contfrob.forms import one_form
    from contfrob.geometry import FrameSection
    coords = ("x", "y1", "y2")
    rows_a = (one_form(coords, {"y1": Const(1.0)}),
              one_form(coords, {"y2": Const(1.0)}))
    c, s = np.cos(0.3), np.sin(0.3)
    rows_b = (one_form(coords, {"y1": Const(c), "y2": Const(s)}),
              one_form(coords, {"y1": Const(-s), "y2": Const(c)}))
    a = FrameSection(rows_a, coords, ("y1", "y2"), None)
    b = FrameSection(rows_b, coords, ("y1", "y2"), None)
    pts = np.zeros((1, 3))
    # A o (B|_Y)^{-1} is a rotation: every singular value is 1
    comp = a.matrix_at(pts) @ evaluate_frame(b, pts).U
    sigma = np.linalg.svd(comp, compute_uv=False)
    assert np.max(np.abs(sigma - 1.0)) <= 1e-12


def test_max_principal_angle():
    b1 = np.eye(3)[:, :2][None]
    c, s = np.cos(0.2), np.sin(0.2)
    b2 = np.array([[c, 0.0], [0.0, 1.0], [s, 0.0]])[None]
    assert max_principal_angle(b1, b2)[0] == pytest.approx(0.2)


def test_sup_helpers_exactness():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    inv = evaluate_frame(frame, pts).inv
    assert np.max(np.linalg.norm(inv, 2, axis=(1, 2))) == pytest.approx(1.0)
    bases = d.orthonormal_bases_at(pts)
    # annihilator restricted to its own kernel is ~0
    ext = exterior_regularity_trace([frame], bases, 1.0, pts, n_dirs=8)
    assert ext[0].parts["restricted"] <= 1e-13


def _special_form_trace_inputs():
    """Two mollified special-form frames (n = 2, the second rescaled so
    ||A^{-1}|| != 1) against the symbolic limit of paper example 2."""
    from contfrob import presets
    from contfrob.pdelab import involutive_mollified_frames
    sf, pde = presets.pde_example_2()
    fams = involutive_mollified_frames(sf, [2.0 ** -3, 2.0 ** -4],
                                       cells_per_radius=8)
    frames = [fams[0].frame,
              fams[1].frame.scale(parse_field("1 + x1*y2"))]
    return frames, pde.distribution(), sf.domain.shrink(0.02).lattice(3)


def test_trace_parts_pinned_two_row_special_form():
    # values captured before the frame evaluation was shared between
    # the sup functionals; every field must keep its bits
    frames, limit, pts = _special_form_trace_inputs()
    asym = asymptotic_involutivity_trace(frames, [limit] * 2, 0.5, pts,
                                         n_dirs=32, seed=0)
    ext = exterior_regularity_trace(frames, limit, 0.5, pts, n_dirs=32,
                                    seed=0)
    assert [(e.k, e.q, e.strong, e.parts) for e in asym] == [
        (0, 4.492965149195506e-05, 8.31402056703682e-18,
         {"d_restricted": 3.751312597591976e-05, "inv_norm": 1.0,
          "M": 0.3608141372134587, "wedge_sup": 6.938893903907228e-18,
          "d_sup": 0.361601865270085, "eps": 0.5}),
        (1, 0.0007197889788733347, 1.5803013808910454e-16,
         {"d_restricted": 0.00048475922939685554,
          "inv_norm": 0.9639483323693849, "M": 0.8640466672988405,
          "wedge_sup": 7.569399196028258e-17, "d_sup": 1.4721739427708733,
          "eps": 0.5})]
    assert [(e.k, e.q, e.strong, e.parts) for e in ext] == [
        (0, 0.00527653406197944, 0.0037905672259187172,
         {"restricted": 0.004405538000193672, "inv_norm": 1.0,
          "M": 0.3608141372134587, "d_sup": 0.361601865270085,
          "eps": 0.5}),
        (1, 0.001848940728425438, 1.2614719418446967,
         {"restricted": 0.0012452136793132272,
          "inv_norm": 0.9639483323693849, "M": 0.8640466672988405,
          "d_sup": 1.4721739427708733, "eps": 0.5})]


def test_tangency_parts_pinned_contact():
    from contfrob import presets
    from contfrob.surface import FlowConfig, build_surface, tangency_defect
    contact = presets.contact_distribution()
    patch = build_surface(contact, np.array([0.1, -0.05, 0.02]), 0.1, 9,
                          FlowConfig(step=0.1 / 16))
    tan = tangency_defect(patch, contact, sup_res=5, n_dirs=64, seed=0)
    assert tan.rhs == 0.2
    assert tan.parts == {"d_restricted": 1.0, "inv_norm": 1.0, "M": 0.0,
                         "m": 2, "eps1": 0.1, "sup_res": 5}


def test_distribution_mismatch_is_range_error():
    with pytest.raises(RangeError, match="distribution needs 2 rows of 1"):
        Distribution(("x", "y"), ("z",), [[Const(0.0)]], BOX3)
    with pytest.raises(RangeError, match="distribution needs a domain box"):
        Distribution(("x",), ("y",), [[Const(0.0)]], BOX3)
