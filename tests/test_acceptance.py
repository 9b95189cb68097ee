"""Acceptance suite: every numbered criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.  Each criterion is a separate test and completes at
desk scale.
"""

import math

import numpy as np

from contfrob.cli import main as cli_main
from contfrob.fields import (Coord, cos as fcos, exp as fexp, log as flog,
                             sin as fsin)
from contfrob.forms import exterior_derivative, one_form
from contfrob.geometry import (FrameSection, annihilator_frame,
                               frobenius_defect, involutivity_constant,
                               max_principal_angle)
from contfrob.moduli import FAILS, HOLDS
from contfrob.mollify import GridFunction, verify_bounds
from contfrob.odelab import funnel, funnel_to_csv, theorem1_check
from contfrob.pdelab import involutive_mollified_frames, special_solve
from contfrob.presets import (cat_contracting_direction, cat_eigenvalues,
                              cat_expanding_direction, cat_map,
                              constant_annihilator_frame,
                              contact_distribution, involutive_distribution,
                              ode_peano, pde_example_2, skew_center_stable_bases,
                              skew_product, skew_seed_bases)
from contfrob.surface import (FlowConfig, build_surface, converge_surfaces,
                              flow, pushforward_bound_check, tangency_defect,
                              variational_flow)
from contfrob.dynsys import (PlaneFieldSamples, domination_report,
                             splitting_involutivity_pipeline, transport)


def _report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name}: {detail}"


def _torus_lattice(d, res):
    axes = [np.linspace(0.0, 1.0, res, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def test_c1_example1_pipeline(tmp_path):
    """Slope of the limit trace is alpha - sigma = 0.4 +- 0.05, Holds."""
    rc = cli_main(["ode", "check", "--example", "paper-ex1",
                   "--alpha", "0.9", "--beta", "0.5", "--gamma", "0.5",
                   "--delta", "0.5", "--out", str(tmp_path),
                   "--expect", "holds"])
    text = (tmp_path / "ode_check.csv").read_text()
    verdict = [ln for ln in text.splitlines()
               if ln.startswith("# verdict=")][0].split("=")[1]
    slope_line = [ln for ln in text.splitlines()
                  if "slope_window" in ln][0]
    slope = float(slope_line.split("=")[1])
    ok = rc == 0 and verdict == HOLDS and abs(slope - 0.4) <= 0.05
    _report("C1 example-1 pipeline", ok,
            f"verdict={verdict} slope={slope:.4f}")


def test_c2_counterexample_control():
    """(y^2)^(1/3): certificate Fails and the funnel plateau is detected."""
    spec = ode_peano()
    cert = theorem1_check(spec, [0.0, 0.0])
    rep = funnel(spec, [0.0, 0.0], 1.0, [1e-3, 1e-4, 1e-5, 1e-6],
                 ensemble=8, cfg=FlowConfig(step=1e-3), seed=0)
    plateau = rep.dispersions[-1]
    envelope = (1.0 / 3.0) ** 3
    ok = (cert.verdict == FAILS and rep.verdict == "FunnelDetected"
          and envelope / 3.0 <= plateau <= envelope * 3.0)
    _report("C2 counterexample control", ok,
            f"cert={cert.verdict} funnel={rep.verdict} "
            f"plateau={plateau:.4f} envelope={envelope:.4f}")


def test_c3_frobenius_defect():
    """Contact defect 1.000 +- 1e-10; involutive defect 0 +- 1e-10."""
    pts = contact_distribution().domain.lattice(7)
    d_contact = frobenius_defect(
        annihilator_frame(contact_distribution()), pts)
    d_inv = frobenius_defect(
        annihilator_frame(involutive_distribution()), pts)
    ok = (np.max(np.abs(d_contact - 1.0)) <= 1e-10
          and np.max(d_inv) <= 1e-10)
    _report("C3 frobenius defect", ok,
            f"contact err={np.max(np.abs(d_contact - 1.0)):.2e} "
            f"involutive={np.max(d_inv):.2e}")


def test_c4_tangency_inequality():
    """Per-node defect bound on the contact build, plus RHS halving."""
    dist = contact_distribution()
    cfg = FlowConfig(step=0.1 / 16.0)
    patch = build_surface(dist, np.zeros(3), 0.1, 17, cfg)
    rep = tangency_defect(patch, dist, sup_res=7)
    all_nodes_ok = bool(np.all(rep.defects <= rep.rhs + rep.fd_tol))

    patch2 = build_surface(dist, np.zeros(3), 0.05, 17,
                           FlowConfig(step=0.05 / 16.0))
    rep2 = tangency_defect(patch2, dist, sup_res=7)
    ratio = rep2.rhs / rep.rhs
    halving_ok = abs(ratio - 0.5) <= 0.2 * 0.5
    ok = all_nodes_ok and halving_ok
    _report("C4 tangency bound", ok,
            f"max_defect={rep.max_defect:.4f} rhs={rep.rhs:.4f} "
            f"fd_tol={rep.fd_tol:.2e} rhs-ratio={ratio:.3f}")


def c5_draws(dist, margin, rng, count):
    """C5's (x0, times, Y0) rows: a start inside the box shrunk by margin,
    times in (-0.1, 0.1) and a unit vertical Y0, drawn in this order per
    row."""
    inner = dist.domain.shrink(margin)
    x0 = np.empty((count, dist.dim))
    times = np.empty((count, dist.m))
    Y0 = np.zeros((count, dist.dim))
    for r in range(count):
        x0[r] = inner.sample(rng, 1)[0]
        times[r] = rng.uniform(-0.1, 0.1, size=dist.m)
        y = rng.uniform(-1.0, 1.0, size=dist.n)
        Y0[r, dist.m:] = y / max(np.linalg.norm(y), 1e-9)
    return x0, times, Y0


def test_c5_pushforward_inequality():
    """100 randomized pushforward checks per distribution all pass."""
    sf, pde = pde_example_2()
    cases = [("involutive", involutive_distribution(), 0.15),
             ("contact", contact_distribution(), 0.15),
             ("special-form", pde.distribution(), 0.1)]
    cfg = FlowConfig(step=2.5e-3)
    rng = np.random.default_rng(0)
    detail = []
    ok = True
    for name, dist, margin in cases:
        frame = annihilator_frame(dist)
        pts = dist.domain.lattice(5)
        bases = dist.orthonormal_bases_at(pts)
        m_const = involutivity_constant(frame, bases, pts).value
        x0, times, Y0 = c5_draws(dist, margin, rng, 100)
        checks = pushforward_bound_check(dist, frame, x0, times, Y0, cfg,
                                         m_const=m_const)
        passed = sum(chk.passed for chk in checks)
        detail.append(f"{name}:{passed}/100")
        ok = ok and passed == 100
    _report("C5 pushforward bound", ok, " ".join(detail))


def test_c5_batched_checks_equal_per_check_path():
    """On the first 10 of C5's draws per distribution, the batched call's
    lhs, rhs and verdicts equal one call per check, bit for bit."""
    sf, pde = pde_example_2()
    cases = [(involutive_distribution(), 0.15),
             (contact_distribution(), 0.15), (pde.distribution(), 0.1)]
    cfg = FlowConfig(step=2.5e-3)
    rng = np.random.default_rng(0)
    for dist, margin in cases:
        frame = annihilator_frame(dist)
        pts = dist.domain.lattice(5)
        m_const = involutivity_constant(frame, dist.orthonormal_bases_at(pts),
                                        pts).value
        x0, times, Y0 = c5_draws(dist, margin, rng, 100)
        batch = pushforward_bound_check(dist, frame, x0[:10], times[:10],
                                        Y0[:10], cfg, m_const=m_const)
        for r, chk in enumerate(batch):
            solo = pushforward_bound_check(dist, frame, x0[r], times[r],
                                           Y0[r], cfg, m_const=m_const)
            assert (chk.lhs, chk.rhs, chk.passed) == \
                (solo.lhs, solo.rhs, solo.passed)


def test_c6_oracle_equivalence():
    """Mollified-frame surfaces converge onto the separable solver graph."""
    sf, pde = pde_example_2(alpha=0.8, beta=0.4)
    eps_list = [2.0 ** -k for k in (3, 4, 5, 6)]
    fams = involutive_mollified_frames(sf, eps_list, check_res=4)
    wedge_ok = all(f.wedge_sup <= 1e-10 for f in fams)

    x0 = np.array([0.3, 0.3])
    y0 = np.array([0.5, 0.5])
    base = np.concatenate([x0, y0])
    cfg = FlowConfig(step=0.1 / 16.0)
    patches = [build_surface(f.distribution, base, 0.1, 9, cfg)
               for f in fams]
    conv = converge_surfaces(patches, pde.distribution())

    limit = patches[-1]
    flat = limit.flat_points()
    targets = flat[:, :2]
    oracle = special_solve(sf, x0, y0, targets, residual_check=False)
    sup_err = float(np.max(np.abs(flat[:, 2:] - oracle.values)))
    ok = wedge_ok and conv.verdict == "Converged" and sup_err <= 1e-4
    _report("C6 oracle equivalence", ok,
            f"verdict={conv.verdict} sup_err={sup_err:.2e} "
            f"displacements={['%.2e' % d for d in conv.displacements]} "
            f"wedge_ok={wedge_ok}")


def test_c7_mollification_bounds():
    """Fitted K stable within x2 for |x|; sqrt scaling within 25%."""
    xs = np.linspace(-1.0, 1.0, 3201)
    from contfrob.moduli import Hoelder, Lipschitz
    g_abs = GridFunction((xs,), np.abs(xs))
    ks = []
    for eps in (0.1, 0.05, 0.025):
        rep = verify_bounds(g_abs, Lipschitz(1.0), [Lipschitz(1.0)], [eps])[0]
        ks.append(rep.fitted_K)
    k_stable = max(ks) / min(ks) < 2.0

    g_sqrt = GridFunction((xs,), np.sqrt(np.abs(xs)))
    reps = verify_bounds(g_sqrt, Hoelder(0.5, 1.0), [Hoelder(0.5, 1.0)],
                         [0.1, 0.05, 0.025])
    scaled = [r.deriv_sup[0] * math.sqrt(r.eps) for r in reps]
    sqrt_ok = max(scaled) / min(scaled) <= 1.25
    ok = k_stable and sqrt_ok
    _report("C7 mollification bounds", ok,
            f"K-ratio={max(ks)/min(ks):.3f} "
            f"scaled-spread={max(scaled)/min(scaled):.3f}")


def test_c8_cat_map_rates():
    """Restricted norms reproduce the eigenvalues; decay ratio <= 0.2."""
    phi = cat_map()
    pts = _torus_lattice(2, 3)
    lam_minus, lam_plus = cat_eigenvalues()
    rep = domination_report(phi, cat_contracting_direction()[:, None],
                            cat_expanding_direction()[:, None], 15, pts,
                            eps_list=(1.0,))
    rates_ok, conorm_ok = True, True
    for i, k in enumerate(rep.k_values):
        if 5 <= k <= 15:
            rates_ok &= abs(rep.norm_E[i] ** (1.0 / k) / lam_minus - 1) <= 0.05
            conorm_ok &= abs(rep.conorm_F[i] ** (1.0 / k) / lam_plus - 1) <= 0.05
    q = rep.q[1.0]
    decay_ok = all(q[i + 1] < q[i] and q[i + 1] / q[i] <= 0.2
                   for i in range(2, len(q) - 1))
    ok = rates_ok and conorm_ok and decay_ok
    _report("C8 cat-map rates", ok,
            f"rate={rep.norm_E[9] ** 0.1:.4f}~{lam_minus:.4f} "
            f"conorm={rep.conorm_F[9] ** 0.1:.4f}~{lam_plus:.4f} "
            f"q-ratio={q[5] / q[4]:.3f}")


def test_c9_skew_product_growth_and_traces():
    """Linear-growth slope <= 0.05; both traces decay x10 from k=1 to 8."""
    phi = skew_product()
    pts = _torus_lattice(3, 4)
    eu = np.concatenate([cat_expanding_direction(), [0.0]])[:, None]
    f_bases = transport(phi.inverted(), eu, 8, pts).bases
    from contfrob.dynsys import PlaneFieldSamples
    f_samples = PlaneFieldSamples(pts, f_bases)
    rep = domination_report(phi, skew_center_stable_bases(), f_samples, 8,
                            pts)
    growth_ok = rep.growth_C <= 0.05

    base = constant_annihilator_frame(np.array([[0.0, 1.0, 0.0]]),
                                      ("x1", "x2", "x3"), ("x2",))
    lim = np.broadcast_to(skew_center_stable_bases(), (len(pts), 3, 2)).copy()
    traces_ok = True
    details = [f"C={rep.growth_C:.4f}"]
    for eps in (0.1, 0.5, 1.0):
        _, asym, ext = splitting_involutivity_pipeline(
            phi, skew_seed_bases(), base, f_samples, 8, eps, pts,
            limit=lim)
        a_ok = asym[-1].q <= asym[0].q / 10.0
        e_ok = ext[-1].q <= ext[0].q / 10.0
        traces_ok = traces_ok and a_ok and e_ok
        details.append(f"eps={eps}: ext {ext[0].q:.3g}->{ext[-1].q:.3g}")
    ok = growth_ok and traces_ok
    _report("C9 skew-product", ok, " ".join(details))


def _per_step_rate(values, ks):
    """exp of the least-squares slope of log(values) against ks, or 0.0
    when a value is not positive."""
    values = np.asarray(values)
    if not np.all(values > 0.0):
        return 0.0
    return math.exp(np.polyfit(ks, np.log(values), 1)[0])


def test_c9b_non_closed_frame_decays_at_the_stable_rate():
    """A base frame with d(eta) != 0: q > 0, and q and the restricted
    d(eta) fall at lambda_s^2 and lambda_s per step within 1 %."""
    phi = skew_product()
    pts = _torus_lattice(3, 4)  # {k/4}^3, invariant under the cat map
    k_max = 10
    coords = ("x1", "x2", "x3")
    g = 0.3 * fsin(2.0 * math.pi * Coord("x1"))
    base = FrameSection((one_form(coords, {"x2": fcos(g), "x3": fsin(g)}),),
                        coords, ("x2",))
    eu = np.concatenate([cat_expanding_direction(), [0.0]])[:, None]
    f_samples = PlaneFieldSamples(
        pts, transport(phi.inverted(), eu, k_max, pts).bases)
    lim = np.broadcast_to(skew_center_stable_bases(), (len(pts), 3, 2)).copy()
    lam_s = cat_eigenvalues()[0]
    ks = np.arange(5, k_max + 1)
    ok, details = True, []
    for eps in (0.1, 0.5, 1.0):
        _, asym, ext = splitting_involutivity_pipeline(
            phi, skew_seed_bases(), base, f_samples, k_max, eps, pts,
            limit=lim)
        late = asym[ks[0] - 1:]  # entry i is step i + 1
        q_rate = _per_step_rate([e.q for e in late], ks)
        d_rate = _per_step_rate([e.parts["d_restricted"] for e in late], ks)
        ok = (ok and asym[0].q > 0.0
              and abs(q_rate / lam_s ** 2 - 1.0) <= 0.01
              and abs(d_rate / lam_s - 1.0) <= 0.01
              and asym[-1].q <= asym[0].q / 10.0
              and ext[-1].q <= ext[0].q / 10.0)
        details.append(f"eps={eps}: q0={asym[0].q:.3g} "
                       f"q-rate={q_rate:.5f}~{lam_s ** 2:.5f} "
                       f"d-rate={d_rate:.5f}~{lam_s:.5f}")
    _report("C9b non-closed skew-product frame", ok, " ".join(details))


def test_c10_invariant_suites(tmp_path):
    """Cross-module property checks: d(d(.)) = 0, annihilation, vertical
    invariance, linearization, cocycle, conorm duality, report
    determinism."""
    x, y, z = Coord("x"), Coord("y"), Coord("z")
    rng = np.random.default_rng(1)

    pool = [x * y, y + z * z, fexp(x * z), fsin(y * z), flog(1 + x * x)]
    dd_ok = True
    for _ in range(10):
        comps = {n: pool[rng.integers(len(pool))] for n in ("x", "y", "z")}
        omega = one_form(("x", "y", "z"), comps)
        dd_ok &= exterior_derivative(exterior_derivative(omega)).is_zero()

    dist = contact_distribution()
    frame = annihilator_frame(dist)
    pts = dist.domain.sample(rng, 1_000_000)
    annihilation = float(np.max(np.abs(frame.matrix_at(pts) @
                                       dist.spanning_matrix_at(pts))))
    ann_ok = annihilation <= 1e-14

    cfg = FlowConfig(step=1e-3)
    vert_ok = True
    for _ in range(5):
        x0 = rng.uniform(-0.3, 0.3, size=3)
        Y0 = np.array([0.0, 0.0, rng.uniform(-1, 1)])
        _, Y = variational_flow(dist.spanning_fields()[0], dist.coords,
                                x0, 0.2, Y0, cfg)
        vert_ok &= bool(np.max(np.abs(Y[:2])) <= 1e-10)

    # linearization: Y is the derivative of the flow along Y0, on a
    # distribution whose coefficients depend on the vertical coordinates
    lin_rng = np.random.default_rng(10)
    pde_dist = pde_example_2()[1].distribution()
    inner, h, lin_err = pde_dist.domain.shrink(0.1), 1e-6, 0.0
    lin_cfg = FlowConfig(step=2.5e-3)
    for _ in range(5):
        x0 = inner.sample(lin_rng, 1)[0]
        Y0 = lin_rng.uniform(-1.0, 1.0, pde_dist.dim)
        Y0 /= np.linalg.norm(Y0)
        for X in pde_dist.spanning_fields():
            _, Y = variational_flow(X, pde_dist.coords, x0, 0.1, Y0, lin_cfg)
            ahead, behind = (flow(X, pde_dist.coords, x0 + s * h * Y0, 0.1,
                                  lin_cfg) for s in (1.0, -1.0))
            lin_err = max(lin_err, float(np.max(np.abs(
                Y - (ahead - behind) / (2.0 * h)))))
    lin_ok = lin_err <= 1e-8

    phi = cat_map()
    tpts = _torus_lattice(2, 3)
    e0 = np.array([[1.0], [0.0]])
    direct = transport(phi, e0, 7, tpts)
    composed = transport(phi, lambda qs: transport(phi, e0, 4, qs).bases,
                         3, tpts)
    cocycle_ok = float(np.max(max_principal_angle(
        direct.bases, composed.bases))) <= 1e-8

    f_dir = cat_expanding_direction()[:, None]
    orbit = phi.orbit(tpts, 6)
    M = np.broadcast_to(f_dir, (len(tpts), 2, 1)).copy()
    for j in range(6):
        M = phi.jacobian(orbit[j]) @ M
    smin = np.linalg.svd(M, compute_uv=False)[:, -1]
    dual = 1.0 / np.linalg.svd(np.linalg.pinv(M), compute_uv=False)[:, 0]
    conorm_ok = bool(np.allclose(smin, dual, atol=1e-10))

    from contfrob.presets import ode_contraction
    spec = ode_contraction()
    r1 = funnel(spec, [0.0, 1.0], 0.5, [1e-2, 1e-3], ensemble=4,
                cfg=FlowConfig(step=2e-3), seed=5)
    r2 = funnel(spec, [0.0, 1.0], 0.5, [1e-2, 1e-3], ensemble=4,
                cfg=FlowConfig(step=2e-3), seed=5)
    det_ok = funnel_to_csv(r1) == funnel_to_csv(r2)

    ok = (dd_ok and ann_ok and vert_ok and lin_ok and cocycle_ok
          and conorm_ok and det_ok)
    _report("C10 invariant suites", ok,
            f"dd={dd_ok} annihilation={annihilation:.1e} vert={vert_ok} "
            f"linearization={lin_err:.1e} cocycle={cocycle_ok} "
            f"conorm={conorm_ok} determinism={det_ok}")
