import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contfrob import presets
from contfrob.boxes import Box
from contfrob.errors import (EscapeError, EvalDomainError, RangeError,
                             TransversalityError)
from contfrob.fields import (ONE, ZERO, Const, Coord, add, compile_fields,
                             parse_field)
from contfrob.geometry import (Distribution, FrameSection,
                               annihilator_frame, involutivity_constant)
from contfrob.odelab import _OFFSET
from contfrob.surface import (MAX_TIME, FlowConfig, _integrate,
                              build_surface, converge_surfaces, flow,
                              patch_to_csv, pushforward_bound_check,
                              tangency_defect, variational_flow)
from test_compiled import _EXPRS, with_partials

x, y, z = Coord("x"), Coord("y"), Coord("z")
CFG = FlowConfig(step=1.0e-3)

BOX3 = Box.from_dict({"x": (-0.6, 0.6), "y": (-0.6, 0.6), "z": (-0.6, 0.6)})


def contact():
    return Distribution(("x", "y"), ("z",), [[y], [Const(0.0)]], BOX3)


def involutive():
    return Distribution(("x", "y"), ("z",), [[x], [Const(0.0)]], BOX3)


# ---------------------------------------------------------------------------
# flows


def boxed_flow(fields, coords, x0, t, cfg, box):
    """flow's endpoints and first exit, with escapes from box."""
    return _integrate(fields, coords, x0, t, cfg.step,
                      box).raise_first_exit()[0]


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
        boxed_flow([Const(1.0)], ("x",), np.zeros(1), 1.0, CFG, box)
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
    batch = boxed_flow(fields, coords, rows, t, CFG, box)
    single = np.stack([boxed_flow(fields, coords, r, t, CFG, box)
                       for r in rows])
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
        boxed_flow(SQRT_FIELD, ("t", "y"), SQRT_ROWS[:6], SQRT_TIMES[:6],
                   cfg, SQRT_BOX)
    with pytest.raises(EscapeError) as batch:
        boxed_flow(SQRT_FIELD, ("t", "y"), SQRT_ROWS[1:6], SQRT_TIMES[1:6],
                   cfg, SQRT_BOX)
    with pytest.raises(EscapeError) as solo:
        boxed_flow(SQRT_FIELD, ("t", "y"), SQRT_ROWS[1], SQRT_TIMES[1],
                   cfg, SQRT_BOX)
    assert batch.value.exit_time == solo.value.exit_time == 0.42


# ---------------------------------------------------------------------------
# the engine against a frozen reference


def _reference_step(fn, x, Y, dt, half, sixth):
    """The RK4 step the engine took before its step was generated: x and
    Y apart, the compiled field function (followed by the Jacobian's
    entries, row-major, when Y is carried) called once per stage."""
    def rhs(xs, ys):
        out = fn(xs)
        if ys is None:
            return out, None
        d = xs.shape[-1]
        jac = np.ascontiguousarray(out[..., d:]).reshape(xs.shape + (d,))
        return out[..., :d], sum((jac[..., j] * ys[..., None, j]
                                  for j in range(1, d)),
                                 jac[..., 0] * ys[..., None, 0])

    def ahead(ys, h, ls):
        return None if ys is None else ys + h * ls

    k1, l1 = rhs(x, Y)
    k2, l2 = rhs(x + half * k1, ahead(Y, half, l1))
    k3, l3 = rhs(x + half * k2, ahead(Y, half, l2))
    k4, l4 = rhs(x + dt * k3, ahead(Y, dt, l3))
    x = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if Y is not None:
        Y = Y + sixth * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
    return x, Y


def _reference_run(fields, coords, x0, t, step, box, Y0=None):
    """Each row alone through _reference_step, with the engine's stop
    rules: (x, Y, exit times, error types) for a batch (N, d)."""
    fn = compile_fields(fields if Y0 is None else
                        with_partials(fields, coords), coords)
    xs = np.array(x0, dtype=float)
    Ys = None if Y0 is None else np.array(Y0, dtype=float)
    ts = np.broadcast_to(np.asarray(t, dtype=float), len(xs))
    exit_time, errors = np.full(len(xs), np.nan), [None] * len(xs)
    for i, ti in enumerate(ts):
        if not abs(ti) <= MAX_TIME:
            exit_time[i], errors[i] = ti, EscapeError
            continue
        n = max(math.ceil(abs(ti) / step - 1e-12), ti != 0.0)
        dt = np.array([[ti / max(n, 1.0)]])
        x, Y = xs[i:i + 1], None if Ys is None else Ys[i:i + 1]
        for k in range(n):
            try:
                x, Y = _reference_step(fn, x, Y, dt, 0.5 * dt, dt / 6.0)
            except EvalDomainError:
                exit_time[i], errors[i] = k * dt[0, 0], EvalDomainError
                break
            if box is not None and not box.contains(x[0], tol=1e-9):
                exit_time[i], errors[i] = (k + 1) * dt[0, 0], EscapeError
                break
        xs[i] = x[0]
        if Y is not None:
            Ys[i] = Y[0]
    return xs, Ys, exit_time, errors


def _warned(run):
    """run's result and the texts of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = run()
    return out, {str(w.message) for w in caught}


def _nan_blind(a):
    """a's nan mask, and its bits with every nan set to 0."""
    nan = np.isnan(a)
    return nan.tobytes(), np.where(nan, 0.0, a).tobytes()


def assert_engine_is_reference(fields, coords, x0, t, step, box, Y0=None,
                               nan_sign=True):
    """The engine's run is the reference's: x and Y bit for bit (but for
    the sign of a nan unless nan_sign), exit times, error types and
    warning texts exactly."""
    got, got_warn = _warned(lambda: _integrate(fields, coords, x0, t, step,
                                               box, Y0))
    (x, Y, exit_time, errors), want_warn = _warned(
        lambda: _reference_run(fields, coords, x0, t, step, box, Y0))
    bits = (lambda a: a.tobytes()) if nan_sign else _nan_blind
    assert bits(got.x) == bits(x)
    assert (got.Y is None and Y is None) or bits(got.Y) == bits(Y)
    assert np.array_equal(got.exit_time, exit_time, equal_nan=True)
    assert [type(e) for e in got.error] == [
        type(None) if e is None else e for e in errors]
    assert got_warn == want_warn


def _funnel_fields(spec):
    """odelab.funnel's list: F with an offset column every component
    adds, over the domain box and an unbounded offset."""
    off, dom = Coord(_OFFSET), spec.domain
    box = Box(dom.names + (_OFFSET,), dom.lows + (-math.inf,),
              dom.highs + (math.inf,))
    return [ONE] + [add(f, off) for f in spec.F] + [ZERO], box.names, box


def _flowed_lists():
    """(fields, coords, box) for every preset field list a flow runs."""
    out = []
    for dist in (presets.contact_distribution(),
                 presets.involutive_distribution(),
                 presets.pde_example_2()[1].distribution()):
        out += [(X, dist.coords, dist.domain)
                for X in dist.spanning_fields()]
    out += [_funnel_fields(presets.ode_peano()),
            _funnel_fields(presets.ode_example_1())]
    return out


def _rows(rng, coords, box, n):
    lo, hi = np.maximum(box.lows, -1.0), np.minimum(box.highs, 1.0)
    return lo + rng.random((n, len(coords))) * (hi - lo)


@pytest.mark.parametrize("n", [1, 9])
@pytest.mark.parametrize("variational", [False, True])
def test_engine_matches_the_reference_on_preset_lists(n, variational):
    rng = np.random.default_rng(16)
    times = np.array([0.07, 0.0, -0.05, 0.013, -0.1, 0.3, 0.02, -0.0, 0.1])
    for fields, coords, box in _flowed_lists():
        x0 = _rows(rng, coords, box, n)
        x0[0, -1] = -0.0
        Y0 = rng.uniform(-1.0, 1.0, x0.shape) if variational else None
        assert_engine_is_reference(fields, coords, x0, times[:n], 0.01,
                                   box, Y0)
        assert_engine_is_reference(fields, coords, x0, 0.05, 0.01, None,
                                   Y0)


def test_engine_matches_the_reference_with_an_inf_in_y0():
    # 0 * inf in J @ Y is nan, and nothing folds the zero entries away
    for fields, coords, box in _flowed_lists():
        rng = np.random.default_rng(3)
        x0 = _rows(rng, coords, box, 3)
        x0[1, 0] = -0.0
        Y0 = rng.uniform(-1.0, 1.0, x0.shape)
        Y0[0, 0], Y0[2, -1] = math.inf, -math.inf
        assert_engine_is_reference(fields, coords, x0,
                                   np.array([0.04, -0.03, 0.05]), 0.01,
                                   None, Y0)


XY = ("x", "y")
_AXIS = np.array([-2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])
# starts that make the float loop hand a row to the arrays.  In numpy's
# add and multiply the nan of two nans of opposite sign follows the
# element's place in an array of more than 8, so a batch row's nan need
# not carry its solo run's sign: a batch from these starts is compared
# with every nan read as nan
_EDGE_AXIS = np.concatenate([_AXIS, [math.inf, -math.inf, math.nan, 1e300,
                                     -1e300]])
# (rows, starting values, nan signs compared)
_GENERATED_CASES = [(1, _EDGE_AXIS, True), (9, _AXIS, True),
                    (9, _EDGE_AXIS, False)]


@settings(max_examples=100, deadline=None)
@given(st.lists(_EXPRS, min_size=2, max_size=2), st.booleans(),
       st.sampled_from(_GENERATED_CASES), st.integers(0, 2 ** 32 - 1))
def test_engine_matches_the_reference_on_generated_lists(texts, variational,
                                                         case, seed):
    n, axis, nan_sign = case
    try:
        fields = [parse_field(t) for t in texts]
        if variational:
            [f.diff(c) for f in fields for c in XY]
    except EvalDomainError:
        assume(False)  # a constant folded to a domain error
    rng = np.random.default_rng(seed)
    x0 = rng.choice(axis, size=(n, 2))
    times = rng.choice([0.0, 0.03, -0.02, 0.05, -0.04], size=n)
    Y0 = rng.choice(axis, size=(n, 2)) if variational else None
    box = Box.from_dict({"x": (-2.5, 3.5), "y": (-2.5, 3.5)})
    assert_engine_is_reference(fields, XY, x0, times, 0.01, box, Y0,
                               nan_sign)


def test_a_row_raising_at_stage_four_stops_alone():
    # row 0 sinks toward y = 0: the step that starts at t = 0.07 begins at
    # y > 0 and its stage-2 and stage-3 points are >= 0, but its stage-4
    # point y + h*k3 is < 0, so only the last evaluation of the step raises
    rows = np.array([[0.0, 0.03], [0.0, 0.3], [0.1, 0.5]])
    Y0 = np.tile([0.0, 1.0], (3, 1))
    run = _integrate(SQRT_FIELD, ("t", "y"), rows, 0.2, 0.01, None, Y0)
    h = 0.2 / 20
    assert isinstance(run.error[0], EvalDomainError)
    assert run.exit_time[0] == 7 * h
    velocity = compile_fields(SQRT_FIELD, ("t", "y"))
    stage = run.x[:1]
    k1 = velocity(stage)
    k2 = velocity(stage + 0.5 * h * k1)
    k3 = velocity(stage + 0.5 * h * k2)
    assert stage[0, 1] > 0.0 > stage[0, 1] + h * k3[0, 1]
    for i in (1, 2):
        xo, Yo = variational_flow(SQRT_FIELD, ("t", "y"), rows[i], 0.2,
                                  Y0[i], FlowConfig(step=0.01))
        assert run.error[i] is None
        assert np.array_equal(run.x[i], xo) and np.array_equal(run.Y[i], Yo)
    assert_engine_is_reference(SQRT_FIELD, ("t", "y"), rows, 0.2, 0.01,
                               None, Y0)


def test_a_nan_flow_time_is_a_range_error():
    X1 = contact().spanning_fields()[0]
    with pytest.raises(RangeError, match=r"^flow time of row 0 is nan$"):
        boxed_flow(X1, ("x", "y", "z"), np.zeros(3), math.nan,
                   FlowConfig(step=0.01), BOX3)
    with pytest.raises(RangeError, match=r"^flow time of row 1 is nan$"):
        _integrate(X1, ("x", "y", "z"), np.zeros((2, 3)), [0.1, math.nan],
                   0.01, BOX3)


@pytest.mark.parametrize("coords, x0, t, Y0, message", [
    ("xyz", np.zeros(3), 0.1, np.zeros(2),
     "Y0 must have x0's shape (3,), got (2,)"),
    ("xyz", np.zeros((2, 3)), 0.1, np.zeros((3, 3)),
     "Y0 must have x0's shape (2, 3), got (3, 3)"),
    ("xyz", np.zeros(2), 0.1, None,
     "x0 over 3 coordinates must have shape (3,) or (N, 3), got (2,)"),
    ("xyz", np.zeros((2, 3)), np.full(3, 0.1), None,
     "t must be a scalar or have shape (2,), got (3,)"),
    ("xy", np.zeros(2), 0.1, None,
     "a flow over 2 coordinates needs 2 fields, got 3"),
], ids=["Y0-of-a-point", "Y0-of-a-batch", "x0", "t", "fields"])
def test_malformed_shapes_are_range_errors(coords, x0, t, Y0, message):
    X1 = contact().spanning_fields()[0]
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        _integrate(X1, tuple(coords), x0, t, 0.01, None, Y0)


def test_a_time_beyond_max_time_is_not_divided():
    # 1e308 / step overflows; such a row escapes at once and takes no
    # step count, so no RuntimeWarning fires
    X1 = contact().spanning_fields()[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = _integrate(X1, ("x", "y", "z"), np.zeros((2, 3)),
                         [1e308, 0.05], 1e-3, BOX3)
    assert isinstance(run.error[0], EscapeError)
    assert run.exit_time[0] == 1e308 and run.error[1] is None


@pytest.mark.parametrize("step,count", [(1e-310, "inf"), (1e-12, "1e+12")])
def test_a_step_count_over_the_cap_is_a_range_error(step, count):
    # |t|/step overflows at step 1e-310 and is 10^12 at step 1e-12; both
    # are over MAX_STEPS, a RangeError before any step and with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RangeError, match=(
                f"^flow time 1.0 of row 0 takes {re.escape(count)} steps of "
                f"{step}, more than MAX_STEPS = 1000000$")):
            flow([parse_field("1")], ("x",), [0.0], 1.0, FlowConfig(step))


def _counted_runs(monkeypatch):
    """The steps each call of a generated RK4 run reports, in order."""
    import contfrob.surface as surface
    reports = []

    def counted(fields, coords, variational=False,
                _orig=surface.compile_rk4_run):
        run = _orig(fields, coords, variational)

        def counting(*args):
            done, err, out = run(*args)
            reports.append(done)
            return done, err, out
        return counting
    monkeypatch.setattr(surface, "compile_rk4_run", counted)
    return reports


def test_an_all_live_flow_is_one_run(monkeypatch):
    reports = _counted_runs(monkeypatch)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-0.2, 0.2, (3, 3))
    Y0 = rng.uniform(-1.0, 1.0, (3, 3))
    variational_flow(contact().spanning_fields()[0], ("x", "y", "z"), x0,
                     0.1, Y0, FlowConfig(step=2.5e-3), BOX3)
    assert reports == [40]


def test_a_box_exit_in_mid_stretch_matches_the_reference(monkeypatch):
    # contact's X1 moves x at unit speed, and BOX3 ends at |x| = 0.6.
    # Row 0 leaves in step 6 of the first stretch, which would end at
    # row 3's 10 steps; row 1 leaves in step 10, that stretch's last;
    # row 4 flows backwards and leaves in step 16, and row 2 runs its 20
    reports = _counted_runs(monkeypatch)
    x0 = np.array([[0.545, 0.1, 0.0], [0.505, -0.1, 0.1], [0.0, 0.2, -0.1],
                   [0.3, 0.0, 0.0], [-0.445, 0.1, 0.2]])
    t = np.array([0.2, 0.2, 0.2, 0.1, -0.2])
    Y0 = np.random.default_rng(8).uniform(-1.0, 1.0, x0.shape)
    X1 = contact().spanning_fields()[0]
    assert_engine_is_reference(X1, ("x", "y", "z"), x0, t, 0.01, BOX3, Y0)
    assert reports == [6, 4, 6, 4]
    run = _integrate(X1, ("x", "y", "z"), x0, t, 0.01, BOX3, Y0)
    assert np.array_equal(run.exit_time, [6 * 0.01, 10 * 0.01, math.nan,
                                          math.nan, 16 * -0.01],
                          equal_nan=True)


# ---------------------------------------------------------------------------
# the one-row loop and its hand-off to the arrays


def assert_one_row_is_reference(monkeypatch, loop_calls, fields, coords,
                                x0, t, step, box, Y0=None):
    """One row through the engine against _reference_run: bits, exit
    time, error type and text, and warnings.  Returns the loop calls of
    the engine's run: one call of one, which hands the row to one call of
    rows at its first step that raises or is not finite."""
    texts = []

    def recording(*args, _orig=_reference_step):
        try:
            return _orig(*args)
        except EvalDomainError as err:
            texts.append(str(err))
            raise
    monkeypatch.setattr(sys.modules[__name__], "_reference_step",
                        recording)
    x0 = np.reshape(np.asarray(x0, dtype=float), (1, len(coords)))
    Y0 = None if Y0 is None else np.reshape(Y0, x0.shape)
    loop_calls.clear()
    assert_engine_is_reference(fields, coords, x0, t, step, box, Y0)
    counted = dict(loop_calls)
    err = _warned(lambda: _integrate(fields, coords, x0, t, step, box,
                                     Y0))[0].error[0]
    if isinstance(err, EvalDomainError):
        assert [str(err)] == texts
    elif isinstance(err, EscapeError):
        assert str(err) == "trajectory left the domain box"
    assert counted["one"] == 1 and counted.get("rows", 0) <= 1
    return counted


def _variational():
    """Fresh fields with a full Jacobian, so a test compiles their run."""
    return [parse_field("x*y + 1"), parse_field("sin(x) - y^2")]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("column", [0, 3])
def test_a_non_finite_start_is_replayed(monkeypatch, loop_calls, value,
                                        column):
    # the first step starts non-finite, so the arrays take every step
    z0 = np.array([0.3, -0.2, 0.5, 1.0])
    z0[column] = value
    calls = assert_one_row_is_reference(monkeypatch, loop_calls,
                                        _variational(), XY, z0[:2], 0.03,
                                        0.01, None, z0[2:])
    assert calls["rows"] == 1


def test_a_nan_row_is_handed_off_once(loop_calls):
    # no box stops a nan row: its 100 steps are one call of each loop
    run = _integrate(_variational(), XY, np.array([math.nan, 0.5]), 1.0,
                     0.01, None)
    assert np.isnan(run.x).all() and run.error == [None]
    assert loop_calls == {"one": 1, "rows": 1}


@pytest.mark.parametrize("x0", [[-0.0, 2.0], [1e-200, -1e-200]])
def test_a_negative_zero_product_is_the_arrays(monkeypatch, loop_calls, x0):
    # x*y of -0.0 is guarded to +0.0; 1e-200 * -1e-200 underflows to -0.0
    # with no zero factor.  Both are finite: nothing is handed off
    fields = [parse_field("x*y"), parse_field("y - x*y")]
    for Y0 in (None, [1.0, -0.0]):
        calls = assert_one_row_is_reference(monkeypatch, loop_calls, fields,
                                            XY, x0, 0.02, 0.01, None, Y0)
        assert calls.get("rows", 0) == 0


def test_zero_times_infinity_is_guarded_on_floats(monkeypatch, loop_calls):
    # y*exp(x) at y = 0 and exp(x) = inf is 0; the inf statement value
    # hands the row to the arrays at its first step
    fields = [parse_field("1"), parse_field("y*exp(x)")]
    calls = assert_one_row_is_reference(monkeypatch, loop_calls, fields,
                                        ("x", "y"), [1000.0, 0.0], 0.02,
                                        0.01, None, [0.0, 1.0])
    assert calls["rows"] == 1


def _raising_stage(fields, coords, x, h):
    """The stage (1-4) of one RK4 step from x whose evaluation raises, or
    None."""
    velocity = compile_fields(fields, coords)
    k, point = None, x
    for stage, scale in enumerate((None, 0.5 * h, 0.5 * h, h), 1):
        if scale is not None:
            point = x + scale * k
        try:
            k = velocity(point)
        except EvalDomainError:
            return stage
    return None


@pytest.mark.parametrize("y0, stage", [(0.16, 2), (0.1765, 3),
                                       (0.185, 4)])
def test_a_domain_error_in_a_late_stage_is_replayed(monkeypatch, loop_calls,
                                                    y0, stage):
    # dy/dt = sqrt(y) - 1 sinks below y = 0 in the third step, at the
    # given stage; the two steps before it run as floats, and the arrays
    # redo the third, whose error is the lone row's own
    fields = [parse_field("1"), parse_field("y^0.5 - 1")]
    coords, h = ("t", "y"), 0.1
    run = _integrate(fields, coords, np.array([[0.0, y0]]), 0.5, h, None)
    assert run.exit_time[0] == 2 * h
    assert _raising_stage(fields, coords, run.x, h) == stage
    calls = assert_one_row_is_reference(monkeypatch, loop_calls, fields,
                                        coords, [0.0, y0], 0.5, h, None,
                                        [0.0, 1.0])
    assert calls == {"one": 1, "rows": 1}


def test_a_log_of_a_negative_masked_by_a_zero_factor_raises(monkeypatch,
                                                            loop_calls):
    # y*log(x) at y = 0, x falling at unit speed in steps of 1/4: step 2
    # starts at x = 1/8, its second and third stages take log(0) = -inf,
    # guarded to 0, and its fourth the log of x = -1/8, which raises
    fields = [parse_field("-1"), parse_field("y*log(x)")]
    calls = assert_one_row_is_reference(monkeypatch, loop_calls, fields, XY,
                                        [0.375, 0.0], 0.75, 0.25, None)
    assert calls == {"one": 1, "rows": 1}
    run = _integrate(fields, XY, np.array([0.375, 0.0]), 0.75, 0.25, None)
    assert run.exit_time[0] == 0.25 and run.x[0] == 0.125
    assert str(run.error[0]) == "log of a negative value"


@pytest.mark.parametrize("Y0", [None, [1.0, 0.5]])
def test_an_add_overflow_hidden_by_a_power_is_replayed(monkeypatch,
                                                       loop_calls, Y0):
    # 1e10*x + 1e10*y overflows to inf, which warns on arrays, and its
    # -2nd power is 0, so the state and the stage points stay finite:
    # only the statement value shows it
    fields = [parse_field("(1e10*x + 1e10*y)^-2"), parse_field("0")]
    calls = assert_one_row_is_reference(monkeypatch, loop_calls, fields, XY,
                                        [1e298, 1e298], 0.03, 0.01, None,
                                        Y0)
    assert calls["rows"] == 1


def test_a_stage_point_overflow_hidden_by_the_step_is_replayed(
        monkeypatch, loop_calls):
    # x + h/2*y overflows at the second stage, which warns on arrays; no
    # statement reads x, and y falls to 0 at the later stages, so the
    # step's new x is x itself
    fields = [parse_field("y"), parse_field("-2e307")]
    calls = assert_one_row_is_reference(monkeypatch, loop_calls, fields, XY,
                                        [1.79e308, 1e307], 1.0, 1.0, None)
    assert calls["rows"] == 1


def test_a_one_row_box_exit_is_not_replayed(monkeypatch, loop_calls):
    # contact's X1 moves x at unit speed out of BOX3 in step 6
    X1 = [parse_field("1"), parse_field("0"), parse_field("y")]
    calls = assert_one_row_is_reference(monkeypatch, loop_calls, X1,
                                        ("x", "y", "z"), [0.545, 0.1, 0.0],
                                        0.2, 0.01, BOX3, [0.3, -0.2, 1.0])
    assert calls == {"one": 1}


_DENSE = [parse_field("x*y + z"), parse_field("sin(z)*x"),
          parse_field("exp(y) - x*z")]


def _pinned_step(x, Y, h, ordered):
    """One RK4 step of _DENSE and its variational equation in Python
    floats, the field values and Jacobian from compile_fields; the
    carried part is (J[i,0]*Y[0] + J[i,1]*Y[1]) + J[i,2]*Y[2], or
    J[i,0]*Y[0] + (J[i,1]*Y[1] + J[i,2]*Y[2]) unless ordered."""
    fn = compile_fields(with_partials(_DENSE, "xyz"), "xyz")

    def rhs(p, q):
        out = fn(np.array(p)).tolist()
        k, J = out[:3], [out[3 + 3 * i:6 + 3 * i] for i in range(3)]
        if ordered:
            return k + [(J[i][0] * q[0] + J[i][1] * q[1]) + J[i][2] * q[2]
                        for i in range(3)]
        return k + [J[i][0] * q[0] + (J[i][1] * q[1] + J[i][2] * q[2])
                    for i in range(3)]

    z = list(x) + list(Y)
    k1 = rhs(z[:3], z[3:])
    a = [u + 0.5 * h * v for u, v in zip(z, k1)]
    k2 = rhs(a[:3], a[3:])
    a = [u + 0.5 * h * v for u, v in zip(z, k2)]
    k3 = rhs(a[:3], a[3:])
    a = [u + h * v for u, v in zip(z, k3)]
    k4 = rhs(a[:3], a[3:])
    return [u + h / 6.0 * (((p + 2.0 * q) + 2.0 * r) + s)
            for u, p, q, r, s in zip(z, k1, k2, k3, k4)]


@pytest.mark.parametrize("n", [1, 50])
def test_the_carried_product_sums_in_column_order(n):
    # each stage's J.Y is (J[i,0]*Y[0] + J[i,1]*Y[1]) + J[i,2]*Y[2] on
    # floats (one row) and on arrays (a batch); the other association
    # moves some bits, and the one row is a row where it does, so the
    # test sees the order
    rng = np.random.default_rng(28)
    x0 = rng.uniform(-1.0, 1.0, (50, 3))
    Y0 = rng.uniform(-1.0, 1.0, (50, 3))
    h = 0.05
    want = np.array([_pinned_step(x, Y, h, True) for x, Y in zip(x0, Y0)])
    other = np.array([_pinned_step(x, Y, h, False) for x, Y in zip(x0, Y0)])
    moved = np.flatnonzero(np.any(want != other, axis=1))
    assert len(moved) > 0
    rows = moved[:1] if n == 1 else slice(None)
    run = _integrate(_DENSE, "xyz", x0[rows], h, h, None, Y0[rows])
    got = np.concatenate([run.x, run.Y], axis=1)
    assert got.tobytes() == want[rows].tobytes()


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


@pytest.mark.parametrize("eps1", [0.0, -0.1, math.inf, math.nan])
def test_build_surface_eps1_is_checked_before_any_flow(monkeypatch, eps1):
    import contfrob.surface as surface

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")
    monkeypatch.setattr(surface, "_integrate", no_flow)
    with pytest.raises(RangeError, match=re.escape(
            f"eps1 must be positive and finite, got {eps1}")):
        build_surface(contact(), np.zeros(3), eps1, 5, FlowConfig(step=1e-3))


@pytest.mark.parametrize("x0,message", [
    ([5.0, 5.0, 5.0], "x must be finite and lie in the domain's [-0.6, 0.6], "
     "got 5.0"),
    ([0.0, math.nan, 0.0], "y must be finite and lie in the domain's "
     "[-0.6, 0.6], got nan"),
    ([0.0, 0.0], "points over ('x', 'y', 'z') need 3 coordinates, got 2")])
def test_build_surface_start_outside_domain_is_checked_before_any_flow(
        monkeypatch, x0, message):
    # a start outside the box is no escape: no node was ever inside
    import contfrob.surface as surface

    def no_flow(*args, **kwargs):
        raise AssertionError("a flow ran")
    monkeypatch.setattr(surface, "_integrate", no_flow)
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        build_surface(contact(), x0, 0.1, 5, FlowConfig(step=1e-3))


# x0 of each build, and the error, node and exit_time of the sweep that
# fills the + nodes of a layer before its - nodes, read before the two
# directions shared a flow call: a + escape is raised even where the -
# side stopped at an earlier node, and a - error only once the + side is
# done.  ROOT_FIELD's flow takes x below -0.55, where its root raises
ROOT_FIELD = parse_field("(x + 0.55)^(1/2)")


@pytest.mark.parametrize("coeff, x0, error, node, exit_time", [
    (y, [-0.57, 0.5, 0.56], EscapeError, (0, 4), 0.03125),
    (y, [-0.57, 0.0, 0.0], EscapeError, (0, 1), -0.03125),
    (y, [0.57, 0.0, 0.0], EscapeError, (0, 3), 0.03125),
    (y, [0.0, 0.56, 0.0], EscapeError, (1, 3), 0.040625),
    (y, [0.0, -0.57, 0.0], EscapeError, (1, 1), -0.03125),
    (y, [-0.57, 0.57, 0.0], EscapeError, (0, 1), -0.03125),
    (ROOT_FIELD, [-0.5, 0.0, 0.0], EvalDomainError, None, None),
    (ROOT_FIELD, [-0.5, 0.5, 0.58], EscapeError, (0, 4),
     0.021875000000000002),
], ids=["both-sides-plus-later", "minus", "plus", "second-layer-plus",
        "second-layer-minus", "first-layer-minus-before-second",
        "minus-domain-error", "minus-domain-error-then-plus"])
def test_build_surface_escape_is_the_plus_then_minus_sweeps(
        coeff, x0, error, node, exit_time):
    dist = Distribution(("x", "y"), ("z",), [[coeff], [Const(0.0)]], BOX3)
    with pytest.raises(error) as exc:
        build_surface(dist, np.array(x0), 0.1, 5, FlowConfig(step=0.1 / 32))
    assert type(exc.value) is error
    assert getattr(exc.value, "node", None) == node
    assert getattr(exc.value, "exit_time", None) == exit_time


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
    pts = d.domain.lattice(3)
    m_const = involutivity_constant(frame, d.orthonormal_bases_at(pts),
                                    pts).value
    chk = pushforward_bound_check(d, frame, np.zeros(3), [0.0, 0.0],
                                  np.array([0.0, 0.0, 1.0]), CFG, m_const)
    assert chk.passed
    assert chk.lhs == pytest.approx(1.0)


@pytest.mark.parametrize("scale, error, text", [
    ("x", TransversalityError, "frame loses transversality"),
    ("log(x^2)", EvalDomainError, "frame is not finite")])
def test_pushforward_bound_checks_the_endpoint_frame_alone(
        monkeypatch, scale, error, text):
    # the check reads only ||(A|_Y)^{-1}|| at the endpoints: A is checked
    # there as every frame is, by row, and dA is never evaluated
    d = involutive()
    frame = annihilator_frame(d).scale(parse_field(scale))

    def unread(*args):
        raise AssertionError("dA evaluated")
    monkeypatch.setattr(FrameSection, "matrices_at", unread)
    x0 = np.array([[0.1, 0.0, 0.0], [0.0, 0.2, 0.0]])
    Y0 = np.array([[0.0, 0.0, 1.0]] * 2)
    with pytest.raises(error, match=re.escape(
            f"{text} at frame 0, lattice point 1 [0.0, 0.2, 0.0]")):
        pushforward_bound_check(d, frame, x0, np.zeros((2, 2)), Y0, CFG,
                                1.0)
    checks = pushforward_bound_check(d, annihilator_frame(d), x0,
                                     np.zeros((2, 2)), Y0, CFG, 1.0)
    assert [c.passed for c in checks] == [True, True]


def test_pushforward_bound_randomized():
    rng = np.random.default_rng(12)
    cfg = FlowConfig(step=1e-3)
    for d in (involutive(), contact()):
        frame = annihilator_frame(d)
        pts = d.domain.lattice(5)
        bases = d.orthonormal_bases_at(pts)
        m_const = involutivity_constant(frame, bases, pts).value
        for _ in range(25):
            x0 = rng.uniform(-0.2, 0.2, size=3)
            times = rng.uniform(-0.1, 0.1, size=2)
            Y0 = np.array([0.0, 0.0, rng.uniform(-1.0, 1.0)])
            chk = pushforward_bound_check(d, frame, x0, times, Y0, cfg,
                                          m_const=m_const)
            assert chk.passed, (d, x0, times, Y0, chk)


@pytest.mark.parametrize("x0, times, Y0, message", [
    (np.zeros(3), [0.1, -0.1, 5.0], [0.0, 0.0, 1.0],
     "times must have shape (2,), got (3,)"),
    (np.zeros(3), [0.1], [0.0, 0.0, 1.0],
     "times must have shape (2,), got (1,)"),
    (np.zeros((2, 3)), [0.1, -0.1, 0.1], np.zeros((2, 3)),
     "times must have shape (2, 2), got (3,)"),
    (np.zeros(3), [0.1, -0.1], [0.0, 1.0],
     "Y0 must have shape (3,), got (2,)"),
    (np.zeros((2, 3)), np.zeros((2, 2)), [0.0, 0.0, 1.0],
     "Y0 must have shape (2, 3), got (3,)"),
    (np.zeros(2), [0.1, -0.1], [0.0, 1.0],
     "x0 must have shape (3,) or (N, 3), got (2,)"),
], ids=["three-times", "one-time", "three-times-two-rows", "Y0-of-a-point",
        "Y0-of-a-batch", "x0"])
def test_pushforward_shapes_are_range_errors(x0, times, Y0, message):
    d = contact()
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        pushforward_bound_check(d, annihilator_frame(d), x0, times, Y0, CFG,
                                m_const=0.0)


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
    counted(geometry.FrameSection, "matrices_at")
    counted(surface, "evaluate_frames")
    tangency_defect(patch, dist, sup_res=5)
    assert calls == {"matrices_at": 1, "evaluate_frames": 1}
