import math

import numpy as np
import pytest

from contfrob.dynsys import (Cocycle, DiffeoSpec, PlaneFieldSamples,
                             domination_report,
                             splitting_involutivity_pipeline,
                             splitting_report_to_csv, transport)
from contfrob.errors import (ConeError, DegenerateSubspaceError,
                             RangeError, StepCountError)
from contfrob.fields import parse_field
from contfrob.forms import one_form
from contfrob.geometry import (FrameSection, asymptotic_involutivity_trace,
                               evaluate_frame, evaluate_frames,
                               exterior_regularity_trace,
                               max_principal_angle, orthonormalize,
                               subspace_distance)
from contfrob.presets import (cat_contracting_direction, cat_eigenvalues,
                              cat_expanding_direction, cat_map,
                              constant_annihilator_frame,
                              skew_center_stable_bases, skew_product,
                              skew_seed_bases)

LAM_MINUS, LAM_PLUS = cat_eigenvalues()


def torus_lattice(d, res=5):
    axes = [np.linspace(0.0, 1.0, res, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def round_trip_gap(phi, pts):
    """Largest torus distance between p and phi^{-1}(phi(p))."""
    back = phi.inverted().apply(phi.apply(pts))
    d = np.abs(back - np.mod(pts, 1.0))
    return float(np.max(np.minimum(d, 1.0 - d)))


def test_cat_map_inverse_and_jacobian():
    phi = cat_map()
    pts = torus_lattice(2)
    assert round_trip_gap(phi, pts) <= 1e-8
    J = phi.jacobian(pts)
    assert np.allclose(J, [[2.0, 1.0], [1.0, 1.0]])


def test_skew_product_inverse():
    phi = skew_product()
    pts = torus_lattice(3, res=4)
    assert round_trip_gap(phi, pts) <= 1e-8


def test_transport_k0_identity():
    phi = cat_map()
    pts = torus_lattice(2)
    e0 = np.array([[1.0], [0.0]])
    out = transport(phi, e0, 0, pts)
    assert np.allclose(np.abs(out.bases[:, 0, 0]), 1.0)


def test_transport_converges_to_contracting_direction():
    phi = cat_map()
    pts = torus_lattice(2)
    e0 = np.array([[1.0], [0.0]])
    ek = transport(phi, e0, 10, pts)
    target = cat_contracting_direction()[:, None]
    ang = max_principal_angle(ek.bases, np.broadcast_to(
        target, ek.bases.shape))
    assert np.max(ang) < 1e-3


def test_transport_cocycle_property():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    e0 = np.array([[1.0], [0.0]])
    k1, k2 = 3, 4
    direct = transport(phi, e0, k1 + k2, pts)

    def field_k2(qs):
        return transport(phi, e0, k2, qs).bases

    composed = transport(phi, field_k2, k1, pts)
    gap = subspace_distance(direct.bases, composed.bases)
    assert np.max(gap) <= 1e-8


def test_conorm_duality():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    f = cat_expanding_direction()[:, None]
    for k in (1, 4, 9):
        orbit = phi.orbit(pts, k)
        M = np.broadcast_to(f, (len(pts), 2, 1)).copy()
        for j in range(k):
            M = phi.jacobian(orbit[j]) @ M
        smin = np.linalg.svd(M, compute_uv=False)[:, -1]
        dual = 1.0 / np.linalg.svd(np.linalg.pinv(M), compute_uv=False)[:, 0]
        assert np.allclose(smin, dual, atol=1e-10)


def test_cat_map_exact_rates():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    e0 = cat_contracting_direction()[:, None]  # invariant seed: exact rates
    f = cat_expanding_direction()[:, None]
    rep = domination_report(phi, e0, f, 15, pts)
    for i, k in enumerate(rep.k_values):
        if 5 <= k <= 15:
            rate = rep.norm_E[i] ** (1.0 / k)
            assert 0.95 * LAM_MINUS <= rate <= 1.05 * LAM_MINUS
            conorm_rate = rep.conorm_F[i] ** (1.0 / k)
            assert 0.95 * LAM_PLUS <= conorm_rate <= 1.05 * LAM_PLUS
    assert rep.dominated


def test_cat_map_decay_quantity():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    rep = domination_report(phi, np.array([[1.0], [0.0]]),
                            cat_expanding_direction()[:, None], 12, pts,
                            eps_list=(1.0,))
    q = rep.q[1.0]
    for i in range(2, len(q) - 1):
        assert q[i + 1] < q[i]
        assert q[i + 1] / q[i] <= 0.2


def test_vertical_comparison_constant():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    base = constant_annihilator_frame(np.array([[0.0, 1.0]]),
                                      ("x1", "x2"), ("x2",))
    lim = np.broadcast_to(cat_contracting_direction()[:, None],
                          (len(pts), 2, 1))
    rep, _, _ = splitting_involutivity_pipeline(
        phi, cat_contracting_direction()[:, None], base,
        cat_expanding_direction()[:, None], 10, 1.0, pts, lim)
    # the pipeline fits the constant of |Dphi^k v| >= C m(Dphi^k|_F) for
    # v on the base frame's vertical axis x2:
    # positive (the axis is transverse to the contracting direction)
    # and at most 1 (it cannot beat the conorm of the full expansion)
    assert 0.0 < rep.vertical_C <= 1.0 + 1e-12
    assert math.isfinite(rep.vertical_C)


def test_identity_map_not_dominated():
    ident = DiffeoSpec(("x1", "x2"),
                       [parse_field("x1"), parse_field("x2")],
                       [parse_field("x1"), parse_field("x2")])
    pts = torus_lattice(2, res=3)
    rep = domination_report(ident, np.array([[1.0], [0.0]]),
                            np.array([[0.0], [1.0]]), 4, pts)
    assert not rep.dominated
    assert rep.norm_E[0] == pytest.approx(1.0)
    assert rep.conorm_F[0] == pytest.approx(1.0)


def test_skew_product_bounded_growth_and_angles():
    phi = skew_product()
    pts = torus_lattice(3, res=4)
    e0 = skew_seed_bases()
    eu = np.concatenate([cat_expanding_direction(), [0.0]])[:, None]
    f = transport(phi.inverted(), eu, 8, pts).bases
    rep = domination_report(phi, e0, PlaneFieldSamples(pts, f), 8, pts)
    assert rep.dominated
    assert abs(rep.growth_C) <= 0.05
    # successive transported fields are angle-Cauchy: each consecutive
    # angle shrinks by at least a factor 2
    for a, b in zip(rep.angles[1:], rep.angles[2:]):
        assert b <= a / 2.0


def test_pullback_frames_k0_and_annihilation():
    phi = cat_map()
    pts = torus_lattice(2, res=4)
    base = constant_annihilator_frame(np.array([[0.0, 1.0]]),
                                      ("x1", "x2"), ("x2",))
    ks = (0, 1, 3, 6)
    values = Cocycle(phi, pts, 6).pullback_values(base, ks)
    A = values.A.reshape((len(ks), len(pts)) + values.A.shape[1:])
    assert np.allclose(A[0], base.matrix_at(pts))
    e0 = np.array([[1.0], [0.0]])
    for k, A_k in zip(ks[1:], A[1:]):
        ek = transport(phi, e0, k, pts)
        pairing = A_k @ ek.bases
        assert np.max(np.abs(pairing)) <= 1e-8


def test_pullback_compatibility_isometry():
    # two orthonormal conormal frames of one plane field pull back to
    # frames whose transition has operator norm exactly 1
    phi = skew_product()
    pts = torus_lattice(3, res=3)
    n1 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(0.4), math.sin(0.4)
    n2 = np.array([[0.0, c, s], [0.0, -s, c]])
    f1 = constant_annihilator_frame(n1, ("x1", "x2", "x3"), ("x2", "x3"))
    f2 = constant_annihilator_frame(n2, ("x1", "x2", "x3"), ("x2", "x3"))
    cc = Cocycle(phi, pts, 4)
    a, b = (cc.pullback_values(f, [4]) for f in (f1, f2))
    comp = a.A @ b.U
    sigma = np.linalg.svd(comp, compute_uv=False)
    assert np.max(np.abs(sigma - 1.0)) <= 1e-8


def test_pipeline_cat_map_traces():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    base = constant_annihilator_frame(np.array([[0.0, 1.0]]),
                                      ("x1", "x2"), ("x2",))
    e0 = np.array([[1.0], [0.0]])
    lim = np.broadcast_to(cat_contracting_direction()[:, None],
                          (len(pts), 2, 1))
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, base, cat_expanding_direction()[:, None], 10, 1.0, pts,
        limit=lim)
    assert rep.dominated
    # constant base frame: d of the pullback vanishes identically
    assert all(t.q == 0.0 for t in asym)
    ratios = [ext[i + 1].q / ext[i].q for i in range(5, 9)]
    for r in ratios:
        assert r == pytest.approx(LAM_MINUS / LAM_PLUS, rel=0.05)


def test_pipeline_identity_not_applicable():
    ident = DiffeoSpec(("x1", "x2"),
                       [parse_field("x1"), parse_field("x2")],
                       [parse_field("x1"), parse_field("x2")])
    pts = torus_lattice(2, res=3)
    base = constant_annihilator_frame(np.array([[0.0, 1.0]]),
                                      ("x1", "x2"), ("x2",))
    rep, asym, ext = splitting_involutivity_pipeline(
        ident, np.array([[1.0], [0.0]]), base, np.array([[0.0], [1.0]]),
        4, 1.0, pts, np.broadcast_to([[1.0], [0.0]], (len(pts), 2, 1)))
    assert not rep.dominated
    assert asym is None and ext is None


def test_splitting_report_csv():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    rep = domination_report(phi, np.array([[1.0], [0.0]]),
                            cat_expanding_direction()[:, None], 5, pts)
    text = splitting_report_to_csv(rep)
    assert text.startswith("# report=splitting")
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert body[0].startswith("k,norm_E,conorm_F,q_eps")
    assert len(body) == 6


# ---------------------------------------------------------------------------
# the cocycle against from-scratch per-k evaluation


def dyn_case(name):
    """(phi, e0, f_bases, annihilator base frame, limit bases, points)."""
    if name == "cat-map":
        phi = cat_map()
        pts = torus_lattice(2, res=3)
        base = constant_annihilator_frame(np.array([[0.0, 1.0]]),
                                          ("x1", "x2"), ("x2",))
        lim = cat_contracting_direction()[:, None]
        return (phi, np.array([[1.0], [0.0]]),
                cat_expanding_direction()[:, None], base,
                np.broadcast_to(lim, (len(pts), 2, 1)).copy(), pts)
    phi = skew_product()
    pts = torus_lattice(3, res=3)
    eu = np.concatenate([cat_expanding_direction(), [0.0]])[:, None]
    f = transport(phi.inverted(), eu, 8, pts).bases
    base = constant_annihilator_frame(np.array([[0.0, 1.0, 0.0]]),
                                      phi.coords, ("x2",))
    lim = np.broadcast_to(skew_center_stable_bases(), (len(pts), 3, 2))
    return phi, skew_seed_bases(), f, base, lim.copy(), pts


def curved_frame(coords):
    """A one-row frame with a non-constant component, so d of it is not 0."""
    comps = {coords[1]: parse_field("1"),
             coords[0]: parse_field("0.3*sin(6.283185307179586*x2)")}
    return FrameSection((one_form(coords, comps),), coords, (coords[1],))


def reference_transport(phi, e0, k, pts):
    """E_k by a lone backward loop; e0 is constant or points -> bases."""
    orbit = phi.orbit(pts, k)
    if callable(e0):
        e0 = e0(orbit[k])
    B = orthonormalize(np.broadcast_to(e0, (len(pts),) + e0.shape[-2:])
                       .copy())
    for j in range(k - 1, -1, -1):
        B = orthonormalize(np.linalg.solve(phi.jacobian(orbit[j]), B))
    return B


def reference_product(phi, pts, bases, k):
    """phi^k(p) and Dphi^k_p bases, with the orbit and jacobians redone."""
    orbit = phi.orbit(pts, k)
    M = bases.copy()
    for j in range(k):
        M = phi.jacobian(orbit[j]) @ M
    return orbit[k], M


def reference_frame_matrices(phi, base, k, pts):
    eye = np.broadcast_to(np.eye(phi.dim), (len(pts), phi.dim, phi.dim))
    end, J = reference_product(phi, pts, eye, k)
    A = base.matrix_at(end) @ J
    dA = np.einsum("pca,pjcd,pdb->pjab", J, base.d_matrices_at(end), J)
    return A, dA


class ReferenceFrame:
    """(phi^k)^* C_0 as a frame whose every evaluation redoes the orbit
    and the jacobian product from scratch."""

    def __init__(self, phi, base, k):
        self.phi, self.base, self.k = phi, base, k
        self.n, self.coords = base.n, base.coords
        self.y_indices = base.y_indices

    def matrix_at(self, points):
        return reference_frame_matrices(self.phi, self.base, self.k,
                                        points)[0]

    def d_matrices_at(self, points):
        return reference_frame_matrices(self.phi, self.base, self.k,
                                        points)[1]


DYN_CASES = ["cat-map", "skew-product"]


def pointwise_seed(e0):
    """Seed bases that vary from point to point: e0 rotated in the plane
    of the first two coordinate axes by an angle that depends on the
    point."""
    def bases(pts):
        t = 0.3 * np.sin(2.0 * np.pi * pts[:, 0])
        c, s = np.cos(t), np.sin(t)
        out = np.broadcast_to(e0, (len(pts),) + e0.shape).copy()
        out[:, 0], out[:, 1] = (c[:, None] * e0[0] - s[:, None] * e0[1],
                                s[:, None] * e0[0] + c[:, None] * e0[1])
        return out
    return bases


@pytest.mark.parametrize("name", DYN_CASES)
def test_cocycle_transport_equals_per_k_reference(name):
    phi, e0, _, _, _, pts = dyn_case(name)
    k_max = 9
    cc = Cocycle(phi, pts, k_max)
    for seed in (e0, pointwise_seed(e0)):
        refs = [reference_transport(phi, seed, k, pts)
                for k in range(k_max + 1)]
        stack = cc.transports(seed, range(k_max + 1))
        assert stack.shape == (k_max + 1,) + refs[0].shape
        for k, ref in enumerate(refs):
            assert np.array_equal(stack[k], ref)
            assert np.array_equal(cc.transport(seed, k).bases, ref)
            assert np.array_equal(transport(phi, seed, k, pts).bases, ref)
        # any increasing subset of the steps gives the same rows
        assert np.array_equal(cc.transports(seed, [2, 5, 9]),
                              np.stack([refs[2], refs[5], refs[9]]))
    with pytest.raises(StepCountError, match="must increase"):
        cc.transports(e0, [3, 3])


def column_shift_map():
    """(x1 + 1/4, h(x1) x2) with h(x1) = 1 - cos(2 pi (x1 - 1/2)): Dphi is
    singular exactly where x1 = 1/2.  Only transport is run on it, which
    never reads the inverse, so the spec repeats the forward fields."""
    fwd = [parse_field("x1 + 0.25"),
           parse_field("(1 - cos(6.283185307179586*(x1 - 0.5)))*x2")]
    return DiffeoSpec(("x1", "x2"), fwd, fwd)


def test_transport_cone_error_names_depth_step_and_point():
    phi = column_shift_map()
    # only row 2 passes x1 = 1/2, at phi^2 and again at phi^6
    pts = np.array([[0.125, 0.1], [0.125, 0.6], [0.0, 0.3], [0.125, 0.9]])
    e0 = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    cc = Cocycle(phi, pts, 9)
    assert np.linalg.det(cc.jacobians[2])[2] == 0.0
    assert np.all(np.linalg.det(cc.jacobians[2])[[0, 1, 3]] != 0.0)
    cc.transport(e0, 2)  # never solves by Dphi at phi^2
    with pytest.raises(ConeError) as lone:
        cc.transport(e0, 3)
    # the sweep meets depth 7 at step 6 first, but a loop over k would
    # stop at depth 3, step 2
    with pytest.raises(ConeError) as swept:
        cc.transports(e0, range(10))
    for err in (lone.value, swept.value):
        assert str(err) == ("transversality lost at step 2: Singular matrix "
                            "(depth k = 3, lattice point 2 at [0.0, 0.3])")
        assert np.array_equal(err.point, pts[2])
    with pytest.raises(ConeError, match=r"step 6: .*depth k = 7"):
        cc.transports(e0, range(7, 10))
    # a degenerate seed fails as it did before any step was taken
    with pytest.raises(DegenerateSubspaceError):
        cc.transports(np.zeros((2, 1)), range(3))
    # Dphi = 1e13 I shrinks E_0 below the QR's rank threshold at once
    big = [parse_field("1e13*x1"), parse_field("1e13*x2")]
    cc = Cocycle(DiffeoSpec(("x1", "x2"), big, big), pts, 3)
    with pytest.raises(ConeError, match=r"^transversality lost at step 0: "
                       r"rank-deficient subspace basis \(depth k = 1, "
                       r"lattice point 0 at \[0\.125, 0\.1\]\)$"):
        cc.transports(e0, range(1, 4))


@pytest.mark.parametrize("name", DYN_CASES)
def test_cocycle_restricted_norms_equal_per_k_reference(name):
    phi, e0, f, base, lim, pts = dyn_case(name)
    k_max = 9
    f = np.broadcast_to(f, (len(pts),) + np.shape(f)[-2:])
    y = np.zeros((len(pts), phi.dim, 1))
    y[:, 1, 0] = 1.0
    # vertical_C comes from the pipeline, over the base frame's axis x2
    rep, _, _ = splitting_involutivity_pipeline(phi, e0, base, f, k_max, 0.5,
                                                pts, lim)
    vertical_C = math.inf
    for k in range(1, k_max + 1):
        ek = reference_transport(phi, e0, k, pts)
        s_e = np.linalg.svd(reference_product(phi, pts, ek, k)[1],
                            compute_uv=False)
        s_f = np.linalg.svd(reference_product(phi, pts, f, k)[1],
                            compute_uv=False)
        s_y = np.linalg.svd(reference_product(phi, pts, y, k)[1],
                            compute_uv=False)
        assert rep.norm_E[k - 1] == float(np.max(s_e[:, 0]))
        assert rep.conorm_F[k - 1] == float(np.min(s_f[:, -1]))
        vertical_C = min(vertical_C,
                         float(np.min(s_y[:, -1] / s_f[:, -1])))
    assert rep.vertical_C == vertical_C


@pytest.mark.parametrize("name", DYN_CASES)
def test_pullback_frame_equals_per_k_reference(name):
    phi, _, _, _, _, pts = dyn_case(name)
    base = curved_frame(phi.coords)
    cc = Cocycle(phi, pts, 7)
    ks = (4, 0, 7, 1)  # frame-major in the order given
    values = cc.pullback_values(base, ks)
    assert values.frames == len(ks)
    N = len(pts)
    for i, k in enumerate(ks):
        A, dA = reference_frame_matrices(phi, base, k, pts)
        assert np.array_equal(values.A[i * N:(i + 1) * N], A)
        assert np.array_equal(values.dA[i * N:(i + 1) * N], dA)
        assert np.max(np.abs(dA)) > 0.0
        one = cc.pullback_values(base, [k])
        ref = evaluate_frame(ReferenceFrame(phi, base, k), pts)
        for got, want in ((one.A, ref.A), (one.dA, ref.dA),
                          (one.inv, ref.inv), (one.U, ref.U)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", DYN_CASES)
def test_pipeline_equals_per_k_reference(name):
    phi, e0, f, _, lim, pts = dyn_case(name)
    base = curved_frame(phi.coords)
    k_max, eps = 6, 0.5
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, base, f, k_max, eps, pts, limit=lim)
    assert rep.dominated
    frames = [ReferenceFrame(phi, base, k) for k in range(1, k_max + 1)]
    dists = [reference_transport(phi, e0, k, pts)
             for k in range(1, k_max + 1)]
    ref_asym = asymptotic_involutivity_trace(frames, dists, eps, pts)
    ref_ext = exterior_regularity_trace(frames, lim, eps, pts)
    assert [(t.q, t.strong, t.parts) for t in asym] == \
        [(t.q, t.strong, t.parts) for t in ref_asym]
    assert [(t.q, t.parts) for t in ext] == [(t.q, t.parts) for t in ref_ext]


@pytest.mark.parametrize("name", DYN_CASES)
@pytest.mark.parametrize("k_max", [8, 16])
def test_pipeline_evaluates_map_once_per_step(monkeypatch, name, k_max):
    phi, e0, f, base, lim, pts = dyn_case(name)
    calls = {"apply": 0, "jacobian": 0}

    def counted(method):
        inner = getattr(phi, method)

        def wrapper(*args, **kwargs):
            calls[method] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(phi, method, wrapper)

    counted("apply")
    counted("jacobian")
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, base, f, k_max, 1.0, pts, limit=lim)
    assert rep.dominated and asym is not None and ext is not None
    assert calls == {"apply": k_max, "jacobian": k_max}


@pytest.mark.parametrize("name", DYN_CASES)
def test_pipeline_evaluates_the_frame_family_once(monkeypatch, name):
    from contfrob import dynsys, geometry
    phi, e0, f, _, lim, pts = dyn_case(name)
    k_max = 8
    calls = {}

    def counted(owner, method):
        inner = getattr(owner, method)

        def wrapper(*args, **kwargs):
            calls[method] = calls.get(method, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, method, wrapper)

    counted(FrameSection, "matrix_at")
    counted(FrameSection, "d_matrices_at")
    # frame_values holds the one transversality check; the traces must
    # not evaluate frames again
    counted(dynsys, "frame_values")
    counted(geometry, "evaluate_frames")
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, curved_frame(phi.coords), f, k_max, 1.0, pts, limit=lim)
    assert rep.dominated and len(asym) == len(ext) == k_max
    # the base frame is evaluated once on the stacked orbit points, and
    # both traces read the one FrameValues
    assert calls == {"matrix_at": 1, "d_matrices_at": 1, "frame_values": 1}


@pytest.mark.parametrize("name", DYN_CASES)
def test_pipeline_linalg_calls_grow_linearly(linalg_calls, name):
    phi, e0, f, base, lim, pts = dyn_case(name)
    rest = []
    for k_max in (4, 8, 16):
        linalg_calls.clear()
        rep, asym, ext = splitting_involutivity_pipeline(
            phi, e0, base, f, k_max, 0.5, pts, limit=lim)
        assert rep.dominated and len(asym) == len(ext) == k_max
        # one seed QR, then one solve and one QR per backward step
        assert linalg_calls.pop("solve") == k_max
        assert linalg_calls.pop("qr") == k_max + 1
        rest.append(dict(linalg_calls))
    # every other call (SVDs, the inverse, the wedge determinants, the
    # growth fit) is made once per pipeline, whatever k_max
    assert rest[0] == rest[1] == rest[2]
    assert sum(rest[0].values()) <= 16


@pytest.mark.parametrize("name", DYN_CASES)
def test_stacked_traces_equal_per_frame_reference(name):
    phi, e0, f, _, lim, pts = dyn_case(name)
    base = curved_frame(phi.coords)
    eps, k = 0.5, 6
    pulled = [ReferenceFrame(phi, base, j) for j in range(1, k + 1)]
    mixed = [pulled[3], pulled[1], base, pulled[0]]
    shared = Cocycle(phi, pts, k).pullback_values(base, range(1, k + 1))
    cases = [(pulled, [shared]), (mixed, [mixed, evaluate_frames(mixed, pts)])]
    for frames, stacks in cases:
        dists = [reference_transport(phi, e0, 1 + i, pts)
                 for i in range(len(frames))]
        for stacked in stacks:
            asym = asymptotic_involutivity_trace(stacked, dists, eps, pts)
            ext = exterior_regularity_trace(stacked, lim, eps, pts)
            for i, frame in enumerate(frames):
                a, = asymptotic_involutivity_trace([frame], [dists[i]], eps,
                                                   pts)
                e, = exterior_regularity_trace([frame], lim, eps, pts)
                assert (asym[i].q, asym[i].strong, asym[i].parts) == \
                    (a.q, a.strong, a.parts)
                assert (ext[i].q, ext[i].strong, ext[i].parts) == \
                    (e.q, e.strong, e.parts)


@pytest.mark.parametrize("name", DYN_CASES)
def test_pullback_frames_share_one_cocycle(monkeypatch, name):
    phi, _, _, _, _, pts = dyn_case(name)
    base = curved_frame(phi.coords)
    k = 12
    refs = [reference_frame_matrices(phi, base, j, pts) for j in range(k + 1)]
    calls = {"apply": 0, "jacobian": 0}

    def counted(method):
        inner = getattr(phi, method)

        def wrapper(*args, **kwargs):
            calls[method] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(phi, method, wrapper)

    counted("apply")
    counted("jacobian")
    # all k + 1 frames come from one cocycle: k steps of phi and Dphi
    values = Cocycle(phi, pts, k).pullback_values(base, range(k + 1))
    A = values.A.reshape((k + 1, len(pts)) + values.A.shape[1:])
    dA = values.dA.reshape((k + 1, len(pts)) + values.dA.shape[1:])
    for j, (A_j, dA_j) in enumerate(refs):
        assert np.array_equal(A[j], A_j)
        assert np.array_equal(dA[j], dA_j)
    assert calls == {"apply": k, "jacobian": k}


def test_step_counts_out_of_range_raise():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    with pytest.raises(StepCountError, match="got -1"):
        Cocycle(phi, pts, -1)
    with pytest.raises(StepCountError, match="got -2"):
        transport(phi, np.array([[1.0], [0.0]]), -2, pts)
    with pytest.raises(StepCountError, match="got 0"):
        domination_report(phi, np.array([[1.0], [0.0]]),
                          cat_expanding_direction()[:, None], 0, pts)
    with pytest.raises(StepCountError, match="got 4"):
        Cocycle(phi, pts, 3).transport(np.array([[1.0], [0.0]]), 4)
    base = constant_annihilator_frame(np.array([[0.0, 1.0]]),
                                      ("x1", "x2"), ("x2",))
    for bad in (4, -1):
        with pytest.raises(StepCountError, match=f"got {bad}$"):
            Cocycle(phi, pts, 3).pullback_values(base, [1, bad])


def test_diffeo_spec_mismatch_is_range_error():
    x = parse_field("x")
    with pytest.raises(RangeError, match="one forward and one inverse field "
                       "per coordinate"):
        DiffeoSpec(("x", "y"), [x, x], [x])
