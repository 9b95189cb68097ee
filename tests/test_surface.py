import math

import numpy as np
import pytest

from contfrob.boxes import Box
from contfrob.errors import EscapeError, EvalDomainError, RangeError
from contfrob.fields import Const, coord, parse_field
from contfrob.geometry import Distribution, annihilator_frame
from contfrob.surface import (FlowConfig, _integrate, build_surface,
                              converge_surfaces, flow, patch_to_csv,
                              pushforward_bound_check, tangency_defect,
                              variational_flow)

x, y, z = coord("x"), coord("y"), coord("z")
CFG = FlowConfig(step=1.0e-3)

BOX3 = Box.from_dict({"x": (-0.6, 0.6), "y": (-0.6, 0.6), "z": (-0.6, 0.6)})


def contact():
    return Distribution(("x", "y"), ("z",), [[y], [Const(0.0)]], BOX3)


def involutive():
    return Distribution(("x", "y"), ("z",), [[x], [Const(0.0)]], BOX3)


# ---------------------------------------------------------------------------
# flows


def test_flow_translation():
    out = flow([Const(1.0), Const(0.0)], ("x", "y"), np.zeros(2), 1.0, CFG)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_flow_linear_exponential():
    out = flow([Const(1.0), y], ("x", "y"), np.array([0.0, 1.0]), 1.0, CFG)
    assert abs(out[0] - 1.0) < 1e-12
    assert abs(out[1] - math.e) < 1e-8


def test_flow_peano_stays_on_zero_branch():
    f = [Const(1.0), parse_field("(y^2)^(1/3)")]
    out = flow(f, ("t", "y"), np.zeros(2), 1.0, CFG)
    assert out[1] == 0.0  # RK4 only ever evaluates the field at y = 0


def test_flow_escape_error():
    box = Box.from_dict({"x": (-0.5, 0.5)})
    with pytest.raises(EscapeError) as exc:
        flow([Const(1.0)], ("x",), np.zeros(1), 1.0, CFG, box)
    assert 0.45 < exc.value.exit_time < 0.55


def test_variational_flow_identity_and_diagonal():
    xe, Y = variational_flow([Const(1.0), Const(0.0)], ("x", "y"),
                             np.zeros(2), 0.7, np.array([0.3, -0.2]), CFG)
    assert np.allclose(Y, [0.3, -0.2], atol=1e-12)

    xe, Y = variational_flow([Const(1.0), y], ("x", "y"),
                             np.array([0.0, 1.0]), 1.0,
                             np.array([0.0, 1.0]), CFG)
    assert abs(Y[0]) < 1e-12
    assert abs(Y[1] - math.e) < 1e-8


def test_variational_flow_linear_in_y0():
    f = [Const(1.0), x * y]
    _, Y1 = variational_flow(f, ("x", "y"), np.array([0.1, 0.2]), 0.5,
                             np.array([0.0, 1.0]), CFG)
    _, Y3 = variational_flow(f, ("x", "y"), np.array([0.1, 0.2]), 0.5,
                             np.array([0.0, 3.0]), CFG)
    assert np.allclose(3.0 * Y1, Y3, atol=1e-10)


def test_variational_flow_matches_centered_flow_differences():
    f = [Const(1.0), x * y + y * y]
    x0, Y0, t, h = np.array([0.1, 0.2]), np.array([0.2, 1.0]), 0.4, 1e-6
    _, Ys = variational_flow(f, ("x", "y"), x0, t, Y0, CFG)
    fp = flow(f, ("x", "y"), x0 + h * Y0, t, CFG)
    fm = flow(f, ("x", "y"), x0 - h * Y0, t, CFG)
    assert np.allclose(Ys, (fp - fm) / (2.0 * h), atol=1e-6)


@pytest.mark.parametrize("fields,coords,t,box", [
    (contact().spanning_fields()[0], ("x", "y", "z"), 0.2, BOX3),
    (contact().spanning_fields()[1], ("x", "y", "z"), -0.2, BOX3),
    (involutive().spanning_fields()[0], ("x", "y", "z"), 0.2, BOX3),
    (involutive().spanning_fields()[1], ("x", "y", "z"), 0.2, BOX3),
    ([Const(1.0), parse_field("(y^2)^(1/3)")], ("t", "y"), 1.0, None),
], ids=["contact-X1", "contact-X2", "involutive-X1", "involutive-X2",
        "peano"])
def test_batched_flow_equals_rowwise_flow(fields, coords, t, box):
    rng = np.random.default_rng(2)
    rows = rng.uniform(-0.3, 0.3, size=(17, len(coords)))
    batch = flow(fields, coords, rows, t, CFG, box)
    single = np.stack([flow(fields, coords, r, t, CFG, box) for r in rows])
    assert batch.shape == rows.shape
    assert np.array_equal(batch, single)


def test_per_row_times_equal_solo_runs():
    f = contact().spanning_fields()[0]
    rng = np.random.default_rng(5)
    rows = rng.uniform(-0.3, 0.3, size=(6, 3))
    ts = np.array([0.2, -0.15, 0.0, 0.0371, -0.2, 0.05])
    Y0 = rng.uniform(-1.0, 1.0, size=(6, 3))
    xs, Ys = variational_flow(f, ("x", "y", "z"), rows, ts, Y0, CFG, BOX3)
    for r, t, y0, xe, Ye in zip(rows, ts, Y0, xs, Ys):
        xo, Yo = variational_flow(f, ("x", "y", "z"), r, t, y0, CFG, BOX3)
        assert np.array_equal(xe, xo) and np.array_equal(Ye, Yo)
    assert np.array_equal(xs[2], rows[2]) and np.array_equal(Ys[2], Y0[2])


# dy/dt = sqrt(y) - 1/2 in a box reaching below y = 0: a row that sinks to
# y < 0 raises EvalDomainError in a stage, rows that climb past 0.6 leave
# the box, and the others finish next to them.  The last row starts outside
# the box at y < 0: its first step raises, which is its only exit record.
SQRT_FIELD = [Const(1.0), parse_field("y^0.5 - 0.5")]
SQRT_BOX = Box.from_dict({"t": (-2.0, 2.0), "y": (-1.0, 0.6)})
SQRT_ROWS = np.array([[0.0, 0.05], [0.0, 0.5], [0.1, 0.3], [0.0, 0.2],
                      [0.2, 0.35], [0.0, 0.4], [3.0, -0.5]])
SQRT_TIMES = np.array([1.0, 1.0, 0.7, -0.4, 0.0, 1.3, 0.5])


def test_stopped_rows_do_not_stop_their_neighbours():
    step = 1.0e-2
    Y0 = np.tile([0.0, 1.0], (len(SQRT_ROWS), 1))
    run = _integrate(SQRT_FIELD, ("t", "y"), SQRT_ROWS, SQRT_TIMES, step,
                     SQRT_BOX, Y0)
    assert [type(e) for e in run.error] == [
        EvalDomainError, EscapeError, type(None), type(None), type(None),
        EscapeError, EvalDomainError]
    for i, (r, t) in enumerate(zip(SQRT_ROWS, SQRT_TIMES)):
        try:
            xo, Yo = variational_flow(SQRT_FIELD, ("t", "y"), r, t, Y0[i],
                                      FlowConfig(step=step), SQRT_BOX)
        except (EscapeError, EvalDomainError) as err:
            assert type(run.error[i]) is type(err)
            if isinstance(err, EscapeError):
                assert run.exit_time[i] == err.exit_time
            continue
        assert run.error[i] is None and np.isnan(run.exit_time[i])
        assert np.array_equal(run.x[i], xo) and np.array_equal(run.Y[i], Yo)
    # row 0 raises in the step that starts at t = 0.14 and row 6 in its
    # first step; a stopped row keeps the state it stopped at, so its
    # clock coordinate has advanced by its exit time
    assert run.exit_time[0] == 14 * 0.01 and run.exit_time[6] == 0.0
    stopped = ~np.isnan(run.exit_time)
    assert np.allclose(run.x[stopped, 0],
                       SQRT_ROWS[stopped, 0] + run.exit_time[stopped])


def test_flow_on_a_batch_with_stopped_rows_still_raises():
    cfg = FlowConfig(step=1.0e-2)
    # row 0 raises in the step that starts at t = 0.14, before row 1 leaves
    # the box at the end of the step ending at t = 0.42 and row 5 at 1.02:
    # flow raises the earliest
    with pytest.raises(EvalDomainError):
        flow(SQRT_FIELD, ("t", "y"), SQRT_ROWS[:6], SQRT_TIMES[:6], cfg,
             SQRT_BOX)
    with pytest.raises(EscapeError) as batch:
        flow(SQRT_FIELD, ("t", "y"), SQRT_ROWS[1:6], SQRT_TIMES[1:6], cfg,
             SQRT_BOX)
    with pytest.raises(EscapeError) as solo:
        flow(SQRT_FIELD, ("t", "y"), SQRT_ROWS[1], SQRT_TIMES[1], cfg,
             SQRT_BOX)
    assert batch.value.exit_time == solo.value.exit_time == 0.42


def test_vertical_invariance_of_pushforwards():
    # graph-form fields leave the vertical subspace invariant
    d = contact()
    rng = np.random.default_rng(4)
    for _ in range(5):
        x0 = rng.uniform(-0.3, 0.3, size=3)
        Y0 = np.array([0.0, 0.0, rng.uniform(-1, 1)])
        _, Y = variational_flow(d.spanning_fields()[0], d.coords, x0, 0.2,
                                Y0, CFG)
        assert np.max(np.abs(Y[:2])) <= 1e-10


# ---------------------------------------------------------------------------
# surface builds


def test_build_surface_zero_coeffs_is_plane():
    d = Distribution(("x", "y"), ("z",), [[Const(0.0)], [Const(0.0)]], BOX3)
    cfg = FlowConfig(step=0.1 / 16)
    patch = build_surface(d, np.zeros(3), 0.1, 5, cfg)
    t1, t2 = np.meshgrid(patch.param_axes[0], patch.param_axes[1],
                         indexing="ij")
    assert np.allclose(patch.points[..., 0], t1, atol=1e-12)
    assert np.allclose(patch.points[..., 1], t2, atol=1e-12)
    assert np.allclose(patch.points[..., 2], 0.0, atol=1e-12)


def test_build_surface_center_is_basepoint():
    d = contact()
    cfg = FlowConfig(step=0.1 / 16)
    x0 = np.array([0.05, -0.1, 0.2])
    patch = build_surface(d, x0, 0.1, 5, cfg)
    c = patch.res // 2
    assert np.all(patch.points[c, c] == x0)


def test_build_surface_involutive_graph():
    d = involutive()
    cfg = FlowConfig(step=0.1 / 16)
    x0 = np.array([0.0, 0.0, 0.1])
    patch = build_surface(d, x0, 0.1, 9, cfg)
    xs = patch.points[..., 0]
    zs = patch.points[..., 2]
    # integral surfaces of dz - x dx are z = x^2/2 + const
    assert np.max(np.abs(zs - (xs ** 2 / 2.0 + 0.1))) <= 1e-6


def test_build_surface_contact_explicit():
    d = contact()
    cfg = FlowConfig(step=0.1 / 16)
    x0 = np.array([0.0, 0.1, 0.0])
    patch = build_surface(d, x0, 0.1, 5, cfg)
    t1, t2 = np.meshgrid(patch.param_axes[0], patch.param_axes[1],
                         indexing="ij")
    # e^{t2 X2} e^{t1 X1}(0, y0, 0) = (t1, y0 + t2, t1 y0)
    assert np.allclose(patch.points[..., 0], t1, atol=1e-10)
    assert np.allclose(patch.points[..., 1], 0.1 + t2, atol=1e-10)
    assert np.allclose(patch.points[..., 2], 0.1 * t1, atol=1e-10)


def test_order_sensitivity_diagnostic():
    cfg = FlowConfig(step=0.1 / 16)
    x0 = np.array([0.0, 0.1, 0.0])
    inv = involutive()
    p1 = build_surface(inv, x0, 0.1, 5, cfg)
    p2 = build_surface(inv, x0, 0.1, 5, cfg, order=(1, 0))
    assert np.max(np.abs(p1.points - p2.points)) <= 1e-6

    con = contact()
    q1 = build_surface(con, x0, 0.1, 5, cfg)
    q2 = build_surface(con, x0, 0.1, 5, cfg, order=(1, 0))
    assert np.max(np.abs(q1.points - q2.points)) > 1e-4


def test_build_surface_step_guard():
    with pytest.raises(ValueError):
        build_surface(contact(), np.zeros(3), 0.1, 5, FlowConfig(step=0.05))
    with pytest.raises(ValueError):
        build_surface(contact(), np.zeros(3), 0.1, 4, FlowConfig(step=1e-3))


# ---------------------------------------------------------------------------
# tangency and pushforward bounds


def test_tangency_defect_involutive():
    d = involutive()
    cfg = FlowConfig(step=0.1 / 32)
    patch = build_surface(d, np.zeros(3), 0.1, 9, cfg)
    rep = tangency_defect(patch, d, sup_res=5)
    # bound right side vanishes (dA restricted to the distribution is 0)
    assert rep.rhs <= 1e-12
    assert rep.max_defect <= rep.fd_tol
    assert rep.ok()


def test_tangency_defect_contact_bound_and_scaling():
    d = contact()
    cfg = FlowConfig(step=0.1 / 32)
    patch = build_surface(d, np.zeros(3), 0.1, 9, cfg)
    rep = tangency_defect(patch, d, sup_res=5)
    assert rep.max_defect > 0.0
    assert rep.ok()
    # defect_1 = |t2| for the contact build: max ~ eps1
    assert rep.max_defect == pytest.approx(0.1, rel=0.05)

    patch2 = build_surface(d, np.zeros(3), 0.05, 9, FlowConfig(step=0.05 / 32))
    rep2 = tangency_defect(patch2, d, sup_res=5)
    assert rep2.rhs == pytest.approx(rep.rhs / 2.0, rel=0.2)
    assert rep2.max_defect <= rep.max_defect / 2.0 + rep.fd_tol


def test_pushforward_bound_trivial_times():
    d = involutive()
    frame = annihilator_frame(d)
    chk = pushforward_bound_check(d, frame, np.zeros(3), [0.0, 0.0],
                                  np.array([0.0, 0.0, 1.0]), CFG, sup_res=3)
    assert chk.passed
    assert chk.lhs == pytest.approx(1.0)


def test_pushforward_bound_randomized():
    rng = np.random.default_rng(12)
    cfg = FlowConfig(step=1e-3)
    for d in (involutive(), contact()):
        frame = annihilator_frame(d)
        pts = d.domain.lattice(5)
        bases = d.orthonormal_bases_at(pts)
        from contfrob.geometry import involutivity_constant
        m_const = involutivity_constant(frame, bases, pts).value
        for _ in range(25):
            x0 = rng.uniform(-0.2, 0.2, size=3)
            times = rng.uniform(-0.1, 0.1, size=2)
            Y0 = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
            chk = pushforward_bound_check(d, frame, x0, times, Y0, cfg,
                                          m_const=m_const)
            assert chk.passed, (d, x0, times, Y0, chk)


def test_pushforward_zero_coeff_translation():
    d = Distribution(("x", "y"), ("z",), [[Const(0.0)], [Const(0.0)]], BOX3)
    frame = annihilator_frame(d)
    Y0 = np.array([0.0, 0.0, 0.7])
    chk = pushforward_bound_check(d, frame, np.zeros(3), [0.1, -0.1], Y0,
                                  CFG, m_const=0.0)
    assert chk.passed
    assert chk.lhs == pytest.approx(0.7, abs=1e-12)


# ---------------------------------------------------------------------------
# convergence


def test_converge_constant_involutive_sequence():
    d = involutive()
    cfg = FlowConfig(step=0.1 / 32)
    patch = build_surface(d, np.zeros(3), 0.1, 9, cfg)
    rep = converge_surfaces([patch, patch, patch], d)
    assert rep.displacements == [0.0, 0.0]
    assert rep.verdict == "Converged"


def test_converge_contact_not_converged():
    d = contact()
    cfg = FlowConfig(step=0.1 / 32)
    patch = build_surface(d, np.array([0.0, 0.2, 0.0]), 0.1, 9, cfg)
    rep = converge_surfaces([patch, patch, patch], d)
    assert rep.verdict == "NotConverged"
    assert rep.angles[-1] > 1e-3


def test_converge_slow_decay_is_inconclusive():
    import copy
    d = involutive()
    cfg = FlowConfig(step=0.1 / 32)
    p1 = build_surface(d, np.zeros(3), 0.1, 9, cfg)
    p2 = copy.deepcopy(p1)
    p2.points = p1.points + np.array([0.0, 0.0, 1e-5])
    p3 = copy.deepcopy(p1)
    p3.points = p2.points + np.array([0.0, 0.0, 0.6e-5])
    rep = converge_surfaces([p1, p2, p3], d)
    # displacement shrinks, but below the x10 threshold: undecidable
    assert rep.verdict == "Inconclusive"


def test_converge_mismatched_grids():
    d = involutive()
    cfg = FlowConfig(step=0.1 / 32)
    p1 = build_surface(d, np.zeros(3), 0.1, 9, cfg)
    p2 = build_surface(d, np.zeros(3), 0.1, 5, cfg)
    with pytest.raises(RangeError, match=r"^patches must share the "
                       r"parameter grid: \(9, 9, 3\) at res 9 against "
                       r"\(5, 5, 3\) at res 5$"):
        converge_surfaces([p1, p2], d)
    with pytest.raises(RangeError, match=r"^need at least two patches, "
                       r"got 1$"):
        converge_surfaces([p1], d)


def test_patch_csv_export():
    d = contact()
    cfg = FlowConfig(step=0.1 / 16)
    patch = build_surface(d, np.zeros(3), 0.1, 5, cfg)
    rep = tangency_defect(patch, d, sup_res=3)
    text = patch_to_csv(patch, rep)
    lines = text.strip().splitlines()
    assert lines[-1].count(",") == 2 + 3 + 2 - 1  # t1,t2,x,y,z,defect1,defect2
    assert any(ln.startswith("# rhs=") for ln in lines)
    assert len([ln for ln in lines if not ln.startswith("#")]) == 1 + 25



def test_tangency_bound_evaluates_frame_once(monkeypatch):
    from contfrob import geometry, surface
    calls = {}

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    dist = contact()
    patch = build_surface(dist, np.zeros(3), 0.1, 5,
                          FlowConfig(step=0.1 / 16))
    counted(geometry.FrameSection, "matrix_at")
    counted(geometry.FrameSection, "d_matrices_at")
    counted(surface, "evaluate_frame")
    tangency_defect(patch, dist, sup_res=5)
    assert calls == {"matrix_at": 1, "d_matrices_at": 1,
                     "evaluate_frame": 1}
