import inspect
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contfrob.boxes import Box
from contfrob.errors import RangeError, TransversalityError
from contfrob.fields import ZERO, Const, Coord, parse_field
from contfrob.forms import one_form
from contfrob.geometry import (Distribution, FrameSection, FrameValues,
                               annihilator_frame,
                               asymptotic_involutivity_trace, bound_parts,
                               evaluate_frame, evaluate_frames,
                               exterior_regularity_trace, frobenius_defect,
                               involutivity_constant, max_principal_angle,
                               scaled_exp)
from contfrob.mollify import grid_from_field, mollify, to_spline_field
from contfrob.odelab import funnel
from contfrob.presets import contact_distribution, ode_peano

x, y, z = Coord("x"), Coord("y"), Coord("z")

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
    frame = FrameSection(rows, coords, ("y1", "y2"))
    inv = evaluate_frame(frame, np.zeros(3)).inv[0]
    assert np.linalg.norm(inv, 2) == pytest.approx(1.0 / eps)

    bad = FrameSection((one_form(coords, {"y1": Const(1.0)}),
                        one_form(coords, {"y1": Const(1.0)})),
                       coords, ("y1", "y2"))
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
    m = involutivity_constant(annihilator_frame(d), d, BOX3.lattice(5))
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
    m1 = involutivity_constant(frame, d, pts)
    assert m1.value > 0.0
    for c in (3.0, 0.25):
        m2 = involutivity_constant(frame.scale(c), d, pts)
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


def _sampled_involutivity_constants(frame, dist, pts, counts, seed=3):
    """M_A with (w, v) restricted to the first k of one seeded sample of
    unit directions on each sphere, for each k in counts: a sphere of
    dimension 0 ({+-1}) is not sampled.  The sets are nested, so the
    values are a lower bound that grows with k."""
    rng = np.random.default_rng(seed)
    bases = dist.orthonormal_bases_at(pts)
    values = evaluate_frame(frame, pts)
    n, r = values.U.shape[-1], bases.shape[-1]
    k_max = max(counts)
    w = _unit(rng.standard_normal((k_max if n > 1 else 1, n)))
    t = _unit(rng.standard_normal((k_max if r > 1 else 1, r)))
    u = np.einsum("pcl,sl->psc", values.U, w)
    v = np.einsum("pda,ta->ptd", bases, t)
    # (P, S, T): |dA_p(u_s, v_t)| over the frame rows j
    grid = np.linalg.norm(np.einsum("psc,pjcd,ptd->pstj", u, values.dA, v),
                          axis=-1)
    return [float(np.max(grid[:, :k, :k])) for k in counts]


def _assert_sampling_climbs_to_exact(frame, dist, pts, counts):
    exact = involutivity_constant(frame, dist, pts).value
    vals = _sampled_involutivity_constants(frame, dist, pts, counts)
    assert vals == sorted(vals)
    assert vals[-1] <= exact * (1.0 + 1e-12)
    assert exact <= vals[-1] * 1.001
    return vals


def test_sphere_sampling_monotone_in_directions():
    # one frame row (n = 1): only the E-sphere is sampled
    d = Distribution(("x1", "x2"), ("y1",),
                     [[parse_field("y1 + x2")], [parse_field("x1*y1")]],
                     Box.from_dict({"x1": (-0.5, 0.5), "x2": (-0.5, 0.5),
                                    "y1": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    _assert_sampling_climbs_to_exact(frame, d, d.domain.lattice(5),
                                     (8, 32, 128))


def test_sphere_sampling_monotone_in_directions_two_rows():
    # two frame rows (n = 2), rank-one E: only the u-sphere is sampled
    d = Distribution(("x",), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x*y1")]],
                     Box.from_dict({"x": (-0.5, 0.5), "y1": (-0.5, 0.5),
                                    "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    vals = _assert_sampling_climbs_to_exact(frame, d, d.domain.lattice(5),
                                            (8, 32, 128))
    assert vals[0] > 0.0


def test_sphere_sampling_monotone_in_directions_sampled_u_sphere():
    # m = 2 and n = 2: both the E-sphere and the u-sphere are sampled
    names = ("x1", "x2", "y1", "y2")
    d = Distribution(("x1", "x2"), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x1*y1")],
                      [parse_field("x2*y2"), parse_field("y1")]],
                     Box.from_dict({v: (-0.5, 0.5) for v in names}))
    frame = annihilator_frame(d)
    vals = _assert_sampling_climbs_to_exact(frame, d, d.domain.lattice(4),
                                            (2, 8, 32, 128))
    assert vals[1] > vals[0]


_COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def graph_distributions(draw, max_m, y_names):
    """X_i = d/dx_i + sum_j a_ij d/dy_j, each a_ij a polynomial of degree
    <= 2 in (x_1..x_m, y_names), 1 <= m <= max_m, on [-0.5, 0.5]^(m+n)."""
    m = draw(st.integers(1, max_m))
    names = tuple(f"x{i}" for i in range(1, m + 1)) + y_names
    monomials = [()] + [(a,) for a in names] + \
        [(a, b) for i, a in enumerate(names) for b in names[i:]]

    def polynomial():
        f = ZERO
        for mono in draw(st.lists(st.sampled_from(monomials), max_size=4)):
            term = Const(draw(_COEFFS))
            for v in mono:
                term = term * Coord(v)
            f = f + term
        return f

    coeffs = [[polynomial() for _ in y_names] for _ in range(m)]
    box = Box.from_dict({v: (-0.5, 0.5) for v in names})
    return Distribution(names[:m], y_names, coeffs, box)


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
@given(graph_distributions(3, ("y",)))
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

    d_restr, _, m_const = bound_parts(evaluate_frame(frame, pts), bases)[0]
    assert m_const.value == involutivity_constant(frame, bases, pts).value
    for est in (d_restr, m_const):
        assert est.protocol["u_maximization"] == "exact-svd"
        assert est.protocol["kind"] == "lower-bound"
        assert "n_dirs" not in est.protocol

    for exact, left in ((d_restr.value, bases), (m_const.value, U)):
        brute = _brute_bilinear_sup(dA[:, 0], left, bases)
        assert abs(exact - brute) <= 1e-6 * exact + atol


def rotation_pencil_distribution():
    """X1 = d/dx1 - y1 d/dy1 - y2 d/dy2, X2 = d/dx2 + y2 d/dy1 - y1 d/dy2:
    at each point C[:, :, 0] = I / s and C[:, :, 1] = J / s with
    s = sqrt(1 + |y|^2), so sigma_1 = sigma_2 at every angle and the
    degree-6 stationarity polynomial of the exact M_A vanishes."""
    names = ("x1", "x2", "y1", "y2")
    return Distribution(("x1", "x2"), ("y1", "y2"),
                        [[parse_field("-y1"), parse_field("-y2")],
                         [parse_field("y2"), parse_field("-y1")]],
                        Box.from_dict({v: (-0.5, 0.5) for v in names}))


def _angle_grid_sup(value, n_points, n_angles=512, n_peaks=3):
    """Per-point max over theta of value(theta), theta of period pi.

    value maps angles (P, S) to values (P, S).  Returns the max over a
    grid of n_angles angles, and the max after refining the grid's
    n_peaks best local maxima by golden-section search over their
    neighbouring grid cells.
    """
    h = np.pi / n_angles
    theta = np.broadcast_to(np.arange(n_angles) * h - 0.5 * np.pi,
                            (n_points, n_angles))
    grid = value(theta)
    peak = (grid >= np.roll(grid, 1, axis=1)) & \
        (grid >= np.roll(grid, -1, axis=1))
    best = np.argsort(np.where(peak, grid, -np.inf), axis=1)[:, -n_peaks:]
    lo = np.take_along_axis(theta, best, axis=1) - h
    hi = lo + 2.0 * h
    g = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = value(c), value(d)
    for _ in range(60):
        left = fc >= fd  # the max lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        new = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fnew = value(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    refined = np.maximum(np.max(fc, axis=1), np.max(fd, axis=1))
    return np.max(grid, axis=1), np.maximum(refined, np.max(grid, axis=1))


def _sigma_max_on_angles(K0, K1):
    """theta (P, S) -> sigma_max(cos(theta) K0_p + sin(theta) K1_p)."""
    def value(theta):
        K = np.cos(theta)[..., None, None] * K0[:, None] + \
            np.sin(theta)[..., None, None] * K1[:, None]
        return np.linalg.svd(K, compute_uv=False)[..., 0]
    return value


@settings(max_examples=30, deadline=None)
@given(graph_distributions(2, ("y1", "y2")))
@example(rotation_pencil_distribution())
def test_two_row_sups_are_exact(dist):
    # n = 2 rows with r = 1 or 2: the exact sups are >= every direction
    # of a dense angle grid and within 1e-12 of its refined maximum
    frame = annihilator_frame(dist)
    pts = dist.domain.lattice(3)
    bases = dist.orthonormal_bases_at(pts)
    values = evaluate_frame(frame, pts)
    d_restr, _, m_const = bound_parts(values, bases)[0]
    assert m_const.value == involutivity_constant(frame, bases, pts).value
    r = dist.m
    C = np.einsum("pcl,pjcd,pda->pjla", values.U, values.dA, bases)
    D2 = np.einsum("pda,pjde,peb->pjab", bases, values.dA, bases)
    if r == 1:
        # the unit v in E is +-B e_0; the angle is that of unit w in R^2
        M_grid, M_brute = _angle_grid_sup(
            lambda th: np.linalg.norm(
                np.cos(th)[..., None] * C[:, None, :, 0, 0]
                + np.sin(th)[..., None] * C[:, None, :, 1, 0], axis=-1),
            len(pts))
        D_grid = D_brute = np.zeros(len(pts))
    else:
        # the angle is that of unit v = B t in E; w is an exact SVD
        M_grid, M_brute = _angle_grid_sup(
            _sigma_max_on_angles(C[..., 0], C[..., 1]), len(pts))
        # the angle is that of unit u = B t in E; v is an exact SVD
        D_grid, D_brute = _angle_grid_sup(
            _sigma_max_on_angles(D2[:, :, 0], D2[:, :, 1]), len(pts))
    # an exactly vanishing sup may read as rounding of the dA entries
    atol = 1e-13 * max(1.0, float(np.max(np.abs(values.dA))))
    for est, grid, brute in ((m_const, M_grid, M_brute),
                             (d_restr, D_grid, D_brute)):
        assert est.protocol["kind"] == "lower-bound"
        assert np.max(grid) <= est.value * (1.0 + 1e-14) + atol
        assert abs(est.value - np.max(brute)) <= 1e-12 * est.value + atol


_I2, _J2 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("C0, C1, expected", [
    (_I2, _J2, 1.0),
    (_I2, 2.0 * _J2, 2.0),
    (_I2, _I2 + _J2, 0.5 * (1.0 + np.sqrt(5.0))),
    (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 1.0)],
    ids=["rotations", "scaled", "golden", "diagonal"])
def test_two_by_two_sup_on_conformal_and_diagonal_pencils(C0, C1, expected):
    # the first three pencils are conformal at every angle (sigma_1 =
    # sigma_2), so the degree-6 polynomial vanishes; the golden one peaks
    # off both axes, at a critical point of |(a + d, b - c)|
    from contfrob.geometry import _two_by_two_sup
    assert _two_by_two_sup(C0[None], C1[None])[0] == \
        pytest.approx(expected, rel=1e-14)


def _pencil_frame_values(C):
    """FrameValues and bases on coordinates (x1, x2, y1, y2), with E the
    x-plane and A|_Y = I, whose n = r = 2 mixing pencil at row p is
    C[p, j, l, a] = dA_j(e_{y_l}, e_{x_a}); one lattice point per row of
    the first frame segment."""
    K, N = C.shape[:2]
    C = C.reshape((K * N, 2, 2, 2))
    dA = np.zeros((K * N, 2, 4, 4))
    dA[:, :, 2:, :2] = C
    dA[:, :, :2, 2:] = -np.swapaxes(C, -1, -2)
    U = np.zeros((K * N, 4, 2))
    U[:, 2:] = np.eye(2)
    bases = np.zeros((K * N, 4, 2))
    bases[:, :2] = np.eye(2)
    pts = np.arange(4.0 * N).reshape(N, 4)
    return FrameValues(pts, np.zeros((K * N, 2, 4)), dA,
                       np.broadcast_to(np.eye(2), (K * N, 2, 2)), U), bases


# this pencil's sup, 2.0655911179772892, lies at a root of the degree-6
# polynomial; at the six closed-form angles it reaches only 2.0
_ROOT_PENCIL = np.array([[[0.0, 0.0], [-2.0, 0.0]], [[2.0, 0.0], [0.0, 1.0]]])


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 3), st.integers(1, 6),
                                    st.just(2), st.just(2), st.just(2)),
              elements=st.integers(-1000, 1000).map(lambda v: v / 1000.0)),
       st.integers(0, 2))
@example(np.stack([[0.5 * _ROOT_PENCIL, _ROOT_PENCIL],
                   [_ROOT_PENCIL, 0.5 * _ROOT_PENCIL]]), 1)
@example(np.ones((3, 4, 2, 2, 2)), 2)
def test_pruned_two_by_two_sups_match_every_row_exact(pencils, scaled):
    # rows pruned by their bounds can be neither a segment's max nor its
    # first argmax: value and argmax equal those of exact per-row values
    # bit for bit, also with one segment 1e3 times the others
    from contfrob import geometry
    pencils = pencils.copy()
    pencils[scaled % len(pencils)] *= 1e3
    K, N = pencils.shape[:2]
    values, bases = _pencil_frame_values(pencils)
    C = pencils.reshape((K * N, 2, 2, 2))
    with mock.patch.object(geometry, "_root_real_parts",
                           wraps=geometry._root_real_parts) as roots:
        # each row its own segment: every row takes the root path
        every_row = geometry._two_by_two_sup(C[..., 0], C[..., 1], 1)
    assert roots.call_args.args[0].shape[0] == K * N
    exact = every_row.reshape(K, N)
    sups = geometry._mixing_sups(values, bases)
    assert [s.value for s in sups] == [float(v) for v in exact.max(axis=1)]
    for sup, i in zip(sups, exact.argmax(axis=1)):
        assert np.array_equal(sup.argmax_point, values.points[i])
        assert sup.protocol["u_maximization"] == "exact-angles"


def test_root_pencil_sup_lies_off_the_closed_form_angles():
    # beside a pencil 10 times larger, _ROOT_PENCIL's row is pruned and
    # returns the closed-form lower bound; on its own it is exact
    from contfrob.geometry import _two_by_two_sup
    C = np.stack([_ROOT_PENCIL, 10.0 * _ROOT_PENCIL])
    assert _two_by_two_sup(C[:1, ..., 0], C[:1, ..., 1])[0] == \
        pytest.approx(2.0655911179772892, rel=1e-14)
    assert _two_by_two_sup(C[..., 0], C[..., 1])[0] == 2.0


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3)])
def test_unsupported_frame_shapes_are_range_errors(m, n):
    # r = m, n rows: (n, r) = (2, 3) and (3, 2) have no exact sup
    xs = tuple(f"x{i}" for i in range(m))
    ys = tuple(f"y{j}" for j in range(n))
    coeffs = [[Coord(ys[(i + j) % n]) * Coord(xs[i]) for j in range(n)]
              for i in range(m)]
    dist = Distribution(xs, ys, coeffs,
                        Box.from_dict({v: (-0.5, 0.5) for v in xs + ys}))
    frame = annihilator_frame(dist)
    pts = dist.domain.lattice(2)
    shape = f"n = {n} frame rows on rank r = {m}"
    with pytest.raises(RangeError, match=shape):
        involutivity_constant(frame, dist, pts)
    with pytest.raises(RangeError, match=shape):
        bound_parts(evaluate_frame(frame, pts),
                    dist.orthonormal_bases_at(pts))


def test_trace_zero_prefactor_skips_overflowing_exponential():
    # (1 + 1000 x^2) dy is involutive (wedge_sup = 0) with d_sup = 1000,
    # so e^{eps d_sup} overflows at eps = 1; 0 * e^{...} must stay 0
    coords = ("x", "z", "y")
    box = Box.from_dict({"x": (-0.5, 0.5), "z": (-0.5, 0.5),
                         "y": (-0.5, 0.5)})
    frame = FrameSection((one_form(coords,
                                   {"y": parse_field("1 + 1000*x^2")}),),
                         coords, ("y",))
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


def test_trace_weights_overflow_to_inf_without_warning():
    # dz - 1000 y dx is not closed: d_sup = 1000 and wedge_sup > 0, so the
    # strong surrogate's e^{eps d_sup} overflows at eps = 1 to inf, as
    # scaled_exp gives, and no RuntimeWarning fires
    dist = Distribution(("x", "y"), ("z",), [[1000.0 * y], [ZERO]], BOX3)
    pts = BOX3.lattice(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asym, = asymptotic_involutivity_trace([annihilator_frame(dist)],
                                              [dist], 1.0, pts)
    assert asym.parts["d_sup"] == 1000.0 and asym.parts["wedge_sup"] > 0.0
    assert asym.strong == math.inf


def test_asymptotic_trace_involutive_sequence_zero():
    d = involutive_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = asymptotic_involutivity_trace([frame] * 3, [d] * 3, 1.0, pts)
    assert all(t.q == 0.0 and t.strong == 0.0 for t in trace)


def test_asymptotic_trace_names_both_lengths():
    d = involutive_distribution()
    frame = annihilator_frame(d)
    with pytest.raises(RangeError, match=r"^frame and distribution "
                       r"sequences must align, got 3 frames and 2 "
                       r"distributions$"):
        asymptotic_involutivity_trace([frame] * 3, [d] * 2, 1.0,
                                      BOX3.lattice(3))


def test_evaluate_frames_needs_one_frame_shape():
    frame = annihilator_frame(contact_distribution())
    pts = BOX3.lattice(3)
    both = evaluate_frames([frame, frame.scale(parse_field("2"))], pts)
    assert both.frames == 2 and np.array_equal(both.A[27:], 2.0 * both.A[:27])
    tilted = FrameSection(frame.rows, frame.coords, ("y",))
    with pytest.raises(RangeError, match="must share rows, coordinates and "
                       "vertical axes"):
        evaluate_frames([frame, tilted], pts)


def test_asymptotic_trace_contact_no_decay():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = asymptotic_involutivity_trace([frame] * 3, [d] * 3, 1.0, pts)
    qs = [t.q for t in trace]
    assert qs[0] > 0.0
    assert qs[0] == pytest.approx(qs[-1])
    strongs = [t.strong for t in trace]
    assert strongs[0] > 0.0 and strongs[0] == pytest.approx(strongs[-1])


def test_exterior_regularity_annihilator_sequence_zero():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = exterior_regularity_trace([frame] * 3, d, 1.0, pts)
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
        frames.append(FrameSection(rows, coords, ("y",)))
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
    trace = exterior_regularity_trace(frames, limit, 1.0, pts)
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
    trace = exterior_regularity_trace(frames, limit, 1.0, pts)
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
    a = FrameSection(rows_a, coords, ("y1", "y2"))
    b = FrameSection(rows_b, coords, ("y1", "y2"))
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
    ext = exterior_regularity_trace([frame], bases, 1.0, pts)
    assert ext[0].parts["restricted"] <= 1e-13


def _special_form_trace_inputs():
    """Two mollified special-form frames (n = 2, the second rescaled so
    ||A^{-1}|| != 1) against the symbolic limit of paper example 2, on a
    lattice that reaches the domain's faces."""
    from contfrob import presets
    from contfrob.pdelab import involutive_mollified_frames
    sf, pde = presets.pde_example_2()
    fams = involutive_mollified_frames(sf, [2.0 ** -3, 2.0 ** -4],
                                       cells_per_radius=8)
    frames = [fams[0].frame,
              fams[1].frame.scale(parse_field("1 + x1*y2"))]
    return frames, pde.distribution(), sf.domain.lattice(3)


# the two traces of _special_form_trace_inputs on FITPACK-fitted leaves,
# field for field: (k, q, strong, parts)
_PINNED_ASYM = [
    (0, 6.018167634774868e-05, 1.2765621906239134e-17,
     {"d_restricted": 4.914919529135543e-05, "inv_norm": 1.0,
      "M": 0.4050149048454751, "wedge_sup": 1.0408340855860843e-17,
      "d_sup": 0.40829655813057025, "eps": 0.5}),
    (1, 0.0008742752901017923, 1.7209835247275504e-16,
     {"d_restricted": 0.0005721178015040011,
      "inv_norm": 0.970873786407767, "M": 0.9072183773486595,
      "wedge_sup": 7.786767633870738e-17, "d_sup": 1.586110402420285,
      "eps": 0.5})]
_PINNED_EXT = [
    (0, 0.0063086698069088655, 0.004533192168730292,
     {"restricted": 0.005152166958208045, "inv_norm": 1.0,
      "M": 0.4050149048454751, "d_sup": 0.40829655813057025,
      "eps": 0.5}),
    (1, 0.00223927946128338, 1.4065874642246625,
     {"restricted": 0.001465364121400879,
      "inv_norm": 0.970873786407767, "M": 0.9072183773486595,
      "d_sup": 1.586110402420285, "eps": 0.5})]


def _special_form_traces():
    frames, limit, pts = _special_form_trace_inputs()
    asym = asymptotic_involutivity_trace(frames, [limit] * 2, 0.5, pts)
    ext = exterior_regularity_trace(frames, limit, 0.5, pts)
    return ([(e.k, e.q, e.strong, e.parts) for e in asym],
            [(e.k, e.q, e.strong, e.parts) for e in ext])


def test_trace_parts_pinned_two_row_special_form(fitpack_leaves):
    # d_restricted and M are the exact lattice sups of the n = r = 2
    # closed forms; every field must keep its bits.  The leaves are
    # FITPACK's, so the bits pin the trace arithmetic, not the spline's
    assert _special_form_traces() == (_PINNED_ASYM, _PINNED_EXT)


def _flat(entries):
    return [v for k, q, strong, parts in entries
            for v in (k, q, strong, *parts.values())]


def test_trace_parts_of_numpy_leaves_are_the_pinned_parts():
    # the numpy leaf is FITPACK's interpolant to rounding: each field
    # within 1e-9 relative, or 1e-15 for the rounding-level wedges
    got = _special_form_traces()
    for entries, pinned in zip(got, (_PINNED_ASYM, _PINNED_EXT)):
        assert [e[3].keys() for e in entries] == [e[3].keys() for e in pinned]
        assert _flat(entries) == pytest.approx(_flat(pinned), rel=1e-9,
                                               abs=1e-15)


def test_tangency_parts_pinned_contact():
    from contfrob import presets
    from contfrob.surface import FlowConfig, build_surface, tangency_defect
    contact = presets.contact_distribution()
    patch = build_surface(contact, np.array([0.1, -0.05, 0.02]), 0.1, 9,
                          FlowConfig(step=0.1 / 16))
    tan = tangency_defect(patch, contact, sup_res=5)
    assert tan.rhs == 0.2
    assert tan.parts == {"d_restricted": 1.0, "inv_norm": 1.0, "M": 0.0,
                         "m": 2, "eps1": 0.1, "sup_res": 5}


def test_scaled_exp_is_math_exp_with_overflow_as_inf():
    for prefactor, exponent in ((0.3, 1.7), (2.0, -40.0), (-1.5, 709.0)):
        assert scaled_exp(prefactor, exponent) == \
            prefactor * math.exp(exponent)
    assert scaled_exp(2.0, 1e4) == math.inf
    assert scaled_exp(-2.0, 1e4) == -math.inf
    # zero weights stay zero, even where the exponential overflows
    assert scaled_exp(0.0, 1e4) == 0.0


# (build, fill the cache, the cache's name): a cache is no constructor
# parameter, and filling it leaves equality as it was
_CACHES = {
    "distribution": (contact_distribution, annihilator_frame,
                     "_annihilator"),
    "frame": (lambda: annihilator_frame(contact_distribution()),
              lambda frame: frame.d_rows(), "_d_rows"),
    "ode-spec": (ode_peano, lambda spec: funnel(spec, [0.0, 0.0], 0.1,
                                                [1e-3, 1e-4], ensemble=2),
                 "_funnel_fields"),
}


@pytest.mark.parametrize("build, fill, name", _CACHES.values(), ids=_CACHES)
def test_equality_survives_caching(build, fill, name):
    a, b = build(), build()
    assert name not in inspect.signature(type(a)).parameters
    fill(a)
    assert getattr(a, name) is not None and getattr(b, name) is None
    assert a == b and repr(a) == repr(b)


def test_distribution_mismatch_is_range_error():
    with pytest.raises(RangeError, match="distribution needs 2 rows of 1"):
        Distribution(("x", "y"), ("z",), [[Const(0.0)]], BOX3)
    with pytest.raises(RangeError, match="distribution needs a domain box"):
        Distribution(("x",), ("y",), [[Const(0.0)]], BOX3)


def test_frame_rows_must_be_one_forms_over_its_coords():
    coords = ("x", "y")
    with pytest.raises(RangeError, match=r"frame row 1 must be a 1-form "
                                         r"over \('x', 'y'\)"):
        FrameSection((one_form(coords, {"y": Const(1.0)}),
                      one_form(("x", "z"), {"z": Const(1.0)})),
                     coords, ("y",))


def test_bases_for_another_lattice_are_range_error():
    d = contact_distribution()
    pts = BOX3.lattice(3)
    bases = d.orthonormal_bases_at(pts[:5])
    with pytest.raises(RangeError, match="bases for 5 points given on a "
                                         "lattice of 27 points"):
        involutivity_constant(annihilator_frame(d), bases, pts)
