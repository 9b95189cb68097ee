import math
import re

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
                               evaluate_frames,
                               exterior_regularity_trace,
                               max_principal_angle, orthonormalize)
from contfrob.presets import (cat_contracting_direction, cat_eigenvalues,
                              cat_expanding_direction, cat_map,
                              constant_annihilator_frame,
                              skew_center_stable_bases, skew_product,
                              skew_seed_bases)
from contfrob import dynsys, stacked
from contfrob.stacked import (congruence, inverse, product, signed_qr,
                              singular_values, transport_step)

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


def test_transport_builds_no_product_chain(monkeypatch):
    # only pullback_values reads Dphi^k; a transport, by inverse steps,
    # multiplies no chain of jacobians, and its bases are unchanged
    pts = torus_lattice(3)
    e0 = skew_seed_bases()
    want = transport(skew_product(), e0, 8, pts).bases

    def unread(self):
        raise AssertionError("product chain built")
    monkeypatch.setattr(Cocycle, "products", property(unread))
    got = transport(skew_product(), e0, 8, pts).bases
    assert got.tobytes() == want.tobytes()
    with pytest.raises(AssertionError, match="product chain built"):
        Cocycle(skew_product(), pts, 8).pullback_values(
            constant_annihilator_frame(np.array([[0.0, 1.0, 0.0]]),
                                       skew_product().coords, ("x2",)), [1])


def test_transport_cocycle_property():
    phi = cat_map()
    pts = torus_lattice(2, res=3)
    e0 = np.array([[1.0], [0.0]])
    k1, k2 = 3, 4
    direct = transport(phi, e0, k1 + k2, pts)

    def field_k2(qs):
        return transport(phi, e0, k2, qs).bases

    composed = transport(phi, field_k2, k1, pts)
    gap = max_principal_angle(direct.bases, composed.bases)
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
    """E_k by a lone backward loop, one jacobian call and one inverse per
    step; e0 is constant or points -> bases."""
    orbit = phi.orbit(pts, k)
    if callable(e0):
        e0 = e0(orbit[k])
    B = orthonormalize(np.broadcast_to(e0, (len(pts),) + e0.shape[-2:])
                       .copy())
    for j in range(k - 1, -1, -1):
        inv, singular = inverse(phi.jacobian(orbit[j]))
        assert not singular.any()
        B = orthonormalize(product(inv, B))
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
    A, dA = base.matrices_at(end)
    return A @ J, congruence(J, dA, J)


class ReferenceFrame:
    """(phi^k)^* C_0 as a frame whose every evaluation redoes the orbit
    and the jacobian product from scratch."""

    def __init__(self, phi, base, k):
        self.phi, self.base, self.k = phi, base, k
        self.n, self.coords = base.n, base.coords
        self.y_indices = base.y_indices

    def matrices_at(self, points):
        return reference_frame_matrices(self.phi, self.base, self.k,
                                        points)


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
            assert np.array_equal(transport(phi, seed, k, pts).bases, ref)
        # any increasing subset of the steps gives the same rows
        assert np.array_equal(cc.transports(seed, [2, 5, 9]),
                              np.stack([refs[2], refs[5], refs[9]]))
    with pytest.raises(StepCountError, match="must increase"):
        cc.transports(e0, [3, 3])


def test_constant_seed_takes_one_qr_per_point(monkeypatch):
    # a constant E_0 is QR'd once, as one stack of N bases, and broadcast
    # to every chain; a pointwise one once per chain and point
    phi, e0, _, _, _, pts = dyn_case("skew-product")
    shapes = []

    def recorded(bases):
        shapes.append(bases.shape)
        return signed_qr(bases)
    monkeypatch.setattr(dynsys, "signed_qr", recorded)
    cc = Cocycle(phi, pts, 4)
    for seed in (e0, pointwise_seed(e0)):
        cc.transports(seed, range(1, 5))
    assert shapes == [(1, len(pts), 3, 2), (4, len(pts), 3, 2)]


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
    cc.transports(e0, [2])  # never solves by Dphi at phi^2
    with pytest.raises(ConeError) as lone:
        cc.transports(e0, [3])
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


def test_singular_step_raises_only_where_a_chain_reaches_it():
    # the sweep inverts Dphi at every step it takes at once, and of the
    # 9 steps those at phi^2 and phi^6 are singular in row 2; only a
    # chain that reaches such a step raises, with its own depth
    phi = column_shift_map()
    pts = np.array([[0.125, 0.1], [0.125, 0.6], [0.0, 0.3], [0.125, 0.9]])
    e0 = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    cc = Cocycle(phi, pts, 9)
    inv, singular = inverse(cc.jacobians)
    assert [np.flatnonzero(row).tolist() for row in singular] == \
        [[], [], [2], [], [], [], [2], [], []]
    assert np.isnan(inv[singular]).all()
    stack = cc.transports(e0, [1, 2])
    for k, got in zip([1, 2], stack):
        assert np.array_equal(got, reference_transport(phi, e0, k, pts))
    # of the chains at depths 1, 2 and 5, only the deepest reaches step 2
    with pytest.raises(ConeError) as err:
        cc.transports(e0, [1, 2, 5])
    assert str(err.value) == ("transversality lost at step 2: Singular "
                              "matrix (depth k = 5, lattice point 2 at "
                              "[0.0, 0.3])")
    assert np.array_equal(err.value.point, pts[2])


# ---------------------------------------------------------------------------
# the fused transport step at the edges of its closed forms


def scaled_shear_map():
    """(x1 + 0.15, s (x2 + 0.3 x3), s x3 + 0.2 x2) with s = exp(370
    cos(2 pi x1) - 330): Dphi^{-1} scales the (x2, x3) plane by about
    1 / s, which runs from e^-40 to e^700, so at one step the products
    of some points leave the closed forms' range [2^-459, 2^459] while
    others stay in it, and where s > 1e12 a product falls below the
    QR's rank threshold.  Only transport is run on it, which never reads
    the inverse, so the spec repeats the forward fields."""
    s = "exp(370*cos(6.283185307179586*x1) - 330)"
    fwd = [parse_field("x1 + 0.15"), parse_field(f"{s}*(x2 + 0.3*x3)"),
           parse_field(f"{s}*x3 + 0.2*x2")]
    return DiffeoSpec(("x1", "x2", "x3"), fwd, fwd)


SHEAR_POINTS = np.array([[0.05, 0.2, 0.7], [0.3, 0.6, 0.1],
                         [0.55, 0.4, 0.4], [0.8, 0.9, 0.3],
                         [0.62, 0.1, 0.9]])
SHEAR_SEED = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) / math.sqrt(2.0)


def broken_seed(e0):
    """e0 at every point, but with a nan in point 1's first row, and a
    zero second column wherever x1 > 0.9."""
    def bases(pts):
        out = np.broadcast_to(e0, (len(pts),) + e0.shape).copy()
        out[1, 0, 0] = math.nan
        out[pts[:, 0] > 0.9, :, 1] = 0.0
        return out
    return bases


def lone_outcome(phi, e0, k, pts):
    """A lone transport to depth k from the orbit and jacobians redone,
    one inverse, product and signed_qr per step: E_k as (shape, bytes),
    or the type, text and point of the error it raises."""
    orbit = phi.orbit(pts, k)
    if callable(e0):
        e0 = e0(orbit[k])
    B, bad = signed_qr(np.broadcast_to(e0, (len(pts),) + e0.shape[-2:])
                       .copy())
    if bad.any():
        return DegenerateSubspaceError, "rank-deficient subspace basis", None
    for j in range(k - 1, -1, -1):
        inv, bad = inverse(phi.jacobian(orbit[j]))
        err = "Singular matrix"
        if not bad.any():
            B, bad = signed_qr(product(inv, B))
            err = "rank-deficient subspace basis"
        if bad.any():
            row = int(np.argmax(bad))
            return (ConeError, f"transversality lost at step {j}: {err} "
                    f"(depth k = {k}, lattice point {row} at "
                    f"{pts[row].tolist()})", pts[row].tobytes())
    return B.shape, B.tobytes()


def sweep_outcome(cc, e0, ks):
    """cc.transports(e0, ks) as lone_outcome gives a stack of them."""
    try:
        out = cc.transports(e0, ks)
    except ConeError as err:
        return ConeError, str(err), err.point.tobytes()
    except DegenerateSubspaceError as err:
        return DegenerateSubspaceError, str(err), None
    return out.shape, out.tobytes()


@pytest.mark.parametrize("seed", ["constant", "pointwise", "broken"])
def test_fused_sweep_equals_lone_transports_at_the_edges(seed):
    phi, pts, e0 = scaled_shear_map(), SHEAR_POINTS, SHEAR_SEED
    seed = {"constant": e0, "pointwise": pointwise_seed(e0),
            "broken": broken_seed(e0)}[seed]
    cc = Cocycle(phi, pts, 9)
    lone = [lone_outcome(phi, seed, k, pts) for k in range(10)]
    for ks in [[k] for k in range(10)] + [range(10), range(1, 4), [0, 3],
                                          [0, 2, 3], [2, 5, 9], range(5, 10)]:
        # a sweep gives the error of its shallowest failing depth, or
        # every E_k bit for bit
        errors = [lone[k] for k in ks if len(lone[k]) == 3]
        want = errors[0] if errors else (
            (len(ks),) + lone[ks[0]][0],
            b"".join(lone[k][1] for k in ks))
        assert sweep_outcome(cc, seed, ks) == want


def test_fused_sweep_meets_every_edge():
    # the cases above take LAPACK for some products of a step and the
    # closed forms for others, pass nan rows on, fail on rank deficiency
    # and on degenerate seeds, and still reach depths past those of some
    # failures
    phi, pts, e0 = scaled_shear_map(), SHEAR_POINTS, SHEAR_SEED
    B = np.broadcast_to(e0, (len(pts), 3, 2))
    ok = stacked._in_range(stacked._entry_major(product(
        inverse(phi.jacobian(pts))[0], B)), columns=True)
    assert ok.tolist() == [True, False, False, True, False]
    kinds = [[o[0] if len(o) == 3 else "E" for o in
              (lone_outcome(phi, s, k, pts) for k in range(10))]
             for s in (e0, broken_seed(e0))]
    assert kinds[0] == ["E"] * 4 + [ConeError] * 6
    assert "E" in kinds[1][1:] and DegenerateSubspaceError in kinds[1]
    stack = Cocycle(phi, pts, 3).transports(broken_seed(e0), [0, 3])
    assert np.isnan(stack[:, 1]).all()
    assert np.isfinite(np.delete(stack, 1, axis=1)).all()


@pytest.mark.parametrize("case", ["inside", "mixed", "above", "below",
                                  "three"])
def test_transport_step_is_signed_qr_of_the_product(linalg_calls, case):
    # the fused step writes signed_qr(product(inv, B))'s Q into the
    # entry-major chains and returns its rank mask, bit for bit: on a
    # stack the closed forms take whole, on one that mixes products past
    # 2^459 and below 2^-459, zero columns, nan rows and a rank-deficient
    # matrix, on ones LAPACK takes whole, and on d x 3 chains
    rng = np.random.default_rng(7)
    r = 3 if case == "three" else 2
    inv, B = rng.normal(size=(6, 3, 3)), rng.normal(size=(4, 6, 3, r))
    if case == "mixed":
        inv[1] *= 2.0 ** 500
        inv[2] *= 2.0 ** -500
        B[1, 3] *= 2.0 ** 480
        B[2, 4, :, 0] = 0.0
        B[3, 5, 1] = math.nan
        B[0, 0, :, 1] = B[0, 0, :, 0]
    if case in ("above", "below"):
        inv *= 2.0 ** (600 if case == "above" else -600)
    linalg_calls.clear()
    Q, bad = signed_qr(product(inv, B))
    calls = dict(linalg_calls)
    assert calls == ({} if case == "inside" else {"qr": 1})
    chains = np.ascontiguousarray(B.transpose(2, 3, 0, 1))
    linalg_calls.clear()
    got = transport_step(np.ascontiguousarray(
        inv.transpose(1, 2, 0))[:, :, None], chains)
    assert dict(linalg_calls) == calls
    assert (got.tobytes(), chains.transpose(2, 3, 0, 1).tobytes()) == \
        (bad.tobytes(), np.ascontiguousarray(Q).tobytes())
    if case == "mixed":  # a nan is not flagged
        assert bad[0, 0] and bad[2, 4] and not bad[3, 5]


def _restricted_norms(name, k_max, svals):
    """The pipeline's norm_E, conorm_F and vertical_C, and the same three
    from per-k reference products whose singular values svals gives."""
    phi, e0, f, base, lim, pts = dyn_case(name)
    f = np.broadcast_to(f, (len(pts),) + np.shape(f)[-2:])
    y = np.zeros((len(pts), phi.dim, 1))
    y[:, 1, 0] = 1.0
    # vertical_C comes from the pipeline, over the base frame's axis x2
    rep, _, _ = splitting_involutivity_pipeline(phi, e0, base, f, k_max, 0.5,
                                                pts, lim)
    norm_E, conorm_F, vertical_C = [], [], math.inf
    for k in range(1, k_max + 1):
        ek = reference_transport(phi, e0, k, pts)
        s_e, s_f, s_y = (svals(reference_product(phi, pts, b, k)[1])
                         for b in (ek, f, y))
        norm_E.append(float(np.max(s_e[:, 0])))
        conorm_F.append(float(np.min(s_f[:, -1])))
        vertical_C = min(vertical_C,
                         float(np.min(s_y[:, -1] / s_f[:, -1])))
    return ((rep.norm_E, rep.conorm_F, rep.vertical_C),
            (norm_E, conorm_F, vertical_C))


@pytest.mark.parametrize("name", DYN_CASES)
def test_cocycle_restricted_norms_equal_per_k_reference(name):
    # the stacked sweep and the per-k loop both take stacked.py's kernels
    got, want = _restricted_norms(name, 9, singular_values)
    assert got == want


@pytest.mark.parametrize("name", DYN_CASES)
def test_cocycle_restricted_norms_near_lapack(name):
    # each kernel value is within _SIGMA_REL sigma_max of the exact one,
    # and LAPACK's within a few u sigma_max.  Every value here is a
    # sigma_max (F and Y are d x 1), and vertical_C a ratio of two
    from contfrob.stacked import _SIGMA_REL
    got, want = _restricted_norms(
        name, 9, lambda M: np.linalg.svd(M, compute_uv=False))
    for g, w in zip(got[:2], want[:2]):
        assert g == pytest.approx(w, rel=2.0 * _SIGMA_REL, abs=0.0)
    assert got[2] == pytest.approx(want[2], rel=4.0 * _SIGMA_REL, abs=0.0)


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
        ref = evaluate_frames([ReferenceFrame(phi, base, k)], pts)
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
    # one jacobian call on the stacked orbit
    assert calls == {"apply": k_max, "jacobian": 1}


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
    counted(FrameSection, "matrices_at")
    # frame_values holds the one transversality check; the traces must
    # not evaluate frames again
    counted(dynsys, "frame_values")
    counted(geometry, "evaluate_frames")
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, curved_frame(phi.coords), f, k_max, 1.0, pts, limit=lim)
    assert rep.dominated and len(asym) == len(ext) == k_max
    # the base frame is evaluated once on the stacked orbit points, and
    # both traces read the one FrameValues
    assert calls == {"matrices_at": 1, "frame_values": 1}


@pytest.mark.parametrize("name", DYN_CASES)
def test_pipeline_linalg_calls_grow_linearly(linalg_calls, name):
    phi, e0, f, base, lim, pts = dyn_case(name)
    rest = []
    for k_max in (4, 8, 16):
        linalg_calls.clear()
        rep, asym, ext = splitting_involutivity_pipeline(
            phi, e0, base, f, k_max, 0.5, pts, limit=lim)
        assert rep.dominated and len(asym) == len(ext) == k_max
        # no solve: the inverses and QRs are stacked.py's kernels
        assert "solve" not in linalg_calls and "inv" not in linalg_calls
        rest.append(dict(linalg_calls))
    # every other call (the growth fit, the norms) is made once per
    # pipeline, whatever k_max.  The SVDs are kernels too, the cat map's
    # 1 x 1 restrictions of the closed dC_0 = 0 among them: |0| = 0 is
    # LAPACK's value; the skew product's 1 x 1 wedge minors are their
    # entries, with no determinant call
    assert rest[0] == rest[1] == rest[2]
    assert rest[0] == {"lstsq": 1, "norm": 3}


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
    # all k + 1 frames come from one cocycle: k steps of phi and one
    # evaluation of Dphi on the stacked orbit
    values = Cocycle(phi, pts, k).pullback_values(base, range(k + 1))
    A = values.A.reshape((k + 1, len(pts)) + values.A.shape[1:])
    dA = values.dA.reshape((k + 1, len(pts)) + values.dA.shape[1:])
    for j, (A_j, dA_j) in enumerate(refs):
        assert np.array_equal(A[j], A_j)
        assert np.array_equal(dA[j], dA_j)
    assert calls == {"apply": k, "jacobian": 1}


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
        Cocycle(phi, pts, 3).transports(np.array([[1.0], [0.0]]), [4])
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


def test_seed_with_more_columns_than_rows_is_range_error():
    # LAPACK's R of a 2 x 3 seed has no square diagonal to read
    pts = torus_lattice(2, res=3)
    with pytest.raises(RangeError, match=r"signed_qr needs bases \(\.\.\., d, "
                       r"r\) with r <= d, got shape \(1, 9, 2, 3\)"):
        transport(cat_map(), np.ones((2, 3)), 3, pts)
    with pytest.raises(RangeError, match=r"got shape \(4, 2, 3\)"):
        signed_qr(np.ones((4, 2, 3)))


def test_seed_with_other_than_d_rows_is_range_error():
    pts = torus_lattice(2, res=3)
    with pytest.raises(RangeError, match=r"e0_bases must have d = 2 rows, "
                                         r"got shape \(3, 1\)"):
        transport(cat_map(), np.ones((3, 1)), 2, pts)
    with pytest.raises(RangeError, match=r"got shape \(9, 3, 1\)"):
        transport(cat_map(), lambda p: np.ones((len(p), 3, 1)), 2, pts)


def test_complement_for_another_lattice_is_range_error():
    pts = torus_lattice(2, res=3)
    e_s = cat_contracting_direction()[:, None]
    e_u = cat_expanding_direction()[:, None]
    two = PlaneFieldSamples(pts[:2], np.stack([e_u, e_u]))
    with pytest.raises(RangeError, match=r"f_samples must be d = 2 row bases, "
                       r"one for all 9 lattice points or one for each, got "
                       r"shape \(2, 2, 1\)"):
        domination_report(cat_map(), e_s, two, 3, pts)
    with pytest.raises(RangeError, match=r"got shape \(3, 1\)"):
        domination_report(cat_map(), e_s, np.ones((3, 1)), 3, pts)
    # a constant complement and one per point are taken alike
    one = domination_report(cat_map(), e_s, e_u, 3, pts)
    each = domination_report(cat_map(), e_s, PlaneFieldSamples(
        pts, np.broadcast_to(e_u, (9, 2, 1))), 3, pts)
    assert splitting_report_to_csv(one) == splitting_report_to_csv(each)


def test_non_finite_bases_are_range_errors_before_any_svd(linalg_calls):
    # a non-finite E_k or F would reach LAPACK's SVD, which cannot
    # converge; the error names the argument and the first bad point.
    # (An inf seed is no such case: LAPACK's QR reads [inf, 0] as [1, 0].)
    pts = torus_lattice(2, res=3)
    e_s = cat_contracting_direction()[:, None]
    e_u = cat_expanding_direction()[:, None]
    with pytest.raises(RangeError, match=r"^e0_bases give non-finite bases "
                       r"at lattice point 0 \[0\.0, 0\.0\]$"):
        domination_report(cat_map(), np.array([[math.nan], [0.0]]),
                          [[0.0], [1.0]], 3, pts)
    f = np.broadcast_to(e_u, (9, 2, 1)).copy()
    f[5, 1, 0], f[7, 0, 0] = math.inf, math.nan  # the later one is not named
    where = re.escape(str(pts[5].tolist()))
    with pytest.raises(RangeError, match=rf"^f_samples give non-finite bases "
                       rf"at lattice point 5 {where}$"):
        domination_report(cat_map(), e_s, f, 3, pts)
    # a seed that is nan where x > 1/2 reaches E_3 at point 1, (0, 1/3),
    # whose phi^3 image is (2/3, 1/3): the first bad point of any E_k
    seed = lambda p: np.where(p[:, :1, None] > 0.5, math.nan, e_s)
    with pytest.raises(RangeError, match=r"^e0_bases give non-finite bases "
                       r"at lattice point 1 \[0\.0, 0\.333"):
        domination_report(cat_map(), seed, e_u, 3, pts)
    assert "svd" not in linalg_calls
