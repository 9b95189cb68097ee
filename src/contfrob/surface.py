"""Candidate integral surfaces built by composed coordinate flows.

The surface through x0 is W(t_1,...,t_m) = e^{t_m X_m} o ... o e^{t_1 X_1}(x0)
with the composition order fixed (X_1 first); a permuted order is exposed
only as a diagnostic.  Flows are fixed-step RK4 for reproducibility of the
sup-norm diagnostics; tangents come from centered differences of the stored
grid, and the finite-difference error is folded into tolerances as
10 * (grid spacing)^2.

One RK4 loop, _integrate, serves flow, variational_flow and the funnel
probe of odelab.  It takes one point (d,) or a batch (N, d), with one time
for every row or one time per row, and each row gives the same bits as
its solo run, except the sign of a nan: build_surface takes one step
outward in both directions from a whole layer of the lattice per call
(per-row times +dt and -dt), and pushforward_bound_check flows a batch
of checks in one call per
spanning field.  A per-row alive mask retires a row once it has taken its
steps, once a step ends outside the domain box, or once its field raises
EvalDomainError, and records that row's exit time and cause while its
neighbours go on; only live rows are evaluated.  flow and
variational_flow still raise: the error of the row that stopped first,
an EscapeError carrying its exit_time, to which build_surface adds the
lattice node (flow index, grid index) being filled.  The steps run in
stretches: a stretch ends where a row has taken its steps or stops, and
each is one call of the run from fields.compile_rk4_run, cached on the
field objects.  The run holds two loops generated from one statement
list and takes one by the stretch's row count.  A batch steps one array
state z = [x | Y] in place, its scratch allocated once per call, the
field statements (and, with a carried vector, the Jacobian J and the
product J.Y, each row summed in column order, (J_i0 Y_0 + J_i1 Y_1) +
J_i2 Y_2) inline in the four stages.  A single row, such as each
pushforward check, steps as Python floats through the same operations
in the same order, so it has the batch's bits without numpy's cost per
call; from its first step that raises, or that makes a value that is
not finite, the row steps on arrays, which own every edge: error texts,
warnings and the bits of inf and nan.  Either loop returns before the
stage that raises, or after the step that leaves the box with the mask
of the rows outside it, the engine's only box test.  So a second flow of
the same fields takes no symbolic derivative and compiles nothing, and
the Python loop turns once per stretch, not once per step.

The three quantitative checks:

* tangency_defect compares |dW/dt_i - X_i(W)| per node against
  m*eps1 * ||dA|_E||_inf * ||A^{-1}||_inf * e^{m*eps1*M_A},
* pushforward_bound_check compares a composed variational flow of a
  vertical vector against |A_{x0}(Y)| * ||(A_{x_m}|_Y)^{-1}|| * e^{m*eps1*M_A},
* converge_surfaces runs the Cauchy/angle test on a sequence of patches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .boxes import Box
from .errors import EscapeError, EvalDomainError, RangeError
from .fields import compile_rk4_run, eval_fields
from .report import cells, csv_text
from .geometry import (Distribution, FrameSection, annihilator_frame,
                       bound_parts, evaluate_frames, frame_values,
                       max_principal_angle, orthonormalize, scaled_exp)

__all__ = [
    "FlowConfig", "SurfacePatch", "flow", "variational_flow", "build_surface",
    "tangency_defect", "pushforward_bound_check", "converge_surfaces",
    "TangencyReport", "PushforwardCheck", "ConvergenceReport",
    "patch_to_csv",
]


MAX_TIME = 10.0  # longest flow time accepted; longer requests escape
MAX_STEPS = 10 ** 6  # most RK4 steps one row may take; more is a RangeError


@dataclass(frozen=True)
class FlowConfig:
    step: float = 1.0e-3

    def __post_init__(self):
        if not self.step > 0.0:
            raise RangeError(f"step must be positive, got {self.step}")


class Trajectories(NamedTuple):
    """What _integrate returns: the endpoints x (and the carried vectors Y,
    None when no Y0 was given) with one exit record per row.  A row that
    stopped early keeps the state it stopped at; exit_time[i] is then the
    time it stopped and error[i] the EscapeError or EvalDomainError that
    stopped it.  Rows that ran their full time have nan and None."""

    x: np.ndarray
    Y: np.ndarray
    exit_time: np.ndarray
    error: list

    def raise_first_exit(self):
        """(x, Y), or the error of the row that stopped earliest.  A box
        exit at the end of step k and a domain error in step k + 1 record
        the same time; the box exit came first."""
        if any(self.error):
            stopped = np.flatnonzero(~np.isnan(self.exit_time))
            raise self.error[min(stopped, key=lambda i: (
                abs(self.exit_time[i]),
                isinstance(self.error[i], EvalDomainError)))]
        return self.x, self.Y


def _integrate(fields, coords, x0, t, step, box, Y0=None) -> Trajectories:
    """The one RK4 loop, behind flow, variational_flow and the funnel.

    x0 is one point (d,) or a batch (N, d) over the d coords, with one
    field per coordinate; Y0, when given, has x0's shape and is carried
    along by the variational equation dY/dt = DX(x(t)) Y in the same
    steps, as the columns d: of one state z = [x | Y].  t is a scalar or
    one time per row: row i takes n_i = ceil(|t_i|/step) steps of
    t_i/n_i (none when t_i = 0).  A row stops once it has taken its
    steps, once a step ends outside the box (exit time: the end of that
    step), or once its field evaluation raises EvalDomainError (exit
    time: the start of that step); |t_i| beyond MAX_TIME stops it at
    once.  Only live rows are stepped, and the arithmetic is per row, so
    each row's bits, except the sign of a nan, and exit record are those
    of its solo run.  A lone row's raising step gives its own error; a
    batch's is redone one row at a time, box test included, to find the
    rows that raise, and the rest keep their solo results.  A shape that
    does not fit, a nan time, or a row of more than MAX_STEPS steps
    raises RangeError before any step.
    """
    x = np.array(x0, dtype=float)
    d = len(coords)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise RangeError(f"x0 over {d} coordinates must have shape ({d},) "
                         f"or (N, {d}), got {x.shape}")
    if len(fields) != d:
        raise RangeError(f"a flow over {d} coordinates needs {d} fields, "
                         f"got {len(fields)}")
    if Y0 is not None and np.shape(Y0) != x.shape:
        raise RangeError(f"Y0 must have x0's shape {x.shape}, got "
                         f"{np.shape(Y0)}")
    single = x.ndim == 1
    z = x.reshape(-1, d)  # x is a copy, which the runs step in place
    N = len(z)
    if np.ndim(t) and np.shape(t) != (N,):
        raise RangeError(f"t must be a scalar or have shape ({N},), got "
                         f"{np.shape(t)}")
    if Y0 is not None:
        z = np.concatenate([z, np.reshape(np.asarray(Y0, dtype=float),
                                          (N, d))], axis=1)
    t = np.full(N, t, dtype=float)
    exit_time = np.full(N, np.nan)
    error = [None] * N
    # step counts only for rows within MAX_TIME; the division may
    # overflow for the others, which take no step.  A tiny step can
    # overflow it too, and such a count is over MAX_STEPS
    span = np.abs(t)
    within = span <= MAX_TIME
    with np.errstate(over="ignore"):
        n = np.where(within, np.maximum(np.ceil(span / step - 1e-12),
                                        t != 0.0), 0.0)
    if np.count_nonzero(n > MAX_STEPS):
        i = np.flatnonzero(n > MAX_STEPS)[0]
        raise RangeError(f"flow time {t[i]} of row {i} takes {n[i]:g} steps "
                         f"of {step}, more than MAX_STEPS = {MAX_STEPS}")
    dt = t / np.maximum(n, 1.0)
    live = n > 0.0

    def stop(i, time, err):
        exit_time[i], error[i], live[i] = time, err, False

    def leave(i, k):
        """Stop row i, outside the box after k steps."""
        time = k * dt[i]
        stop(i, time, EscapeError("trajectory left the domain box",
                                  exit_time=float(time)))

    if np.count_nonzero(within) < N:
        for i in np.flatnonzero(~within):
            if np.isnan(t[i]):
                raise RangeError(f"flow time of row {i} is nan")
            stop(i, t[i], EscapeError("requested time beyond MAX_TIME",
                                      exit_time=float(t[i])))
    run = compile_rk4_run(fields, coords, Y0 is not None)
    bounds = None if box is None else box.bounds(tol=1e-9)

    # one run per stretch of steps: a stretch ends where a row has taken
    # its steps or stops.  While every row is live the rows are a slice
    # and the run steps z itself; otherwise they are gathered before the
    # stretch and scattered after it
    k, count = 0, np.count_nonzero(live)
    while count:
        rows = slice(None) if count == N else np.flatnonzero(live)
        zs, h = z[rows], dt[rows, None]
        done, err, out = run(zs, int(n[rows].min()) - k, h, bounds)
        k += done
        if err is not None:
            # a stage raised in step k + 1: a batch redoes it row by row
            for j, i in enumerate(np.arange(N)[rows]):
                if count > 1:
                    _, err, out = run(zs[j:j + 1], 1, h[j:j + 1], bounds)
                if err is not None:
                    stop(i, k * dt[i], err)
                elif out is not None:
                    leave(i, k + 1)
            k += 1
        elif out is not None:
            for i in np.arange(N)[rows][out]:
                leave(i, k)
        if count < N:
            z[rows] = zs
        live &= n > k
        count = np.count_nonzero(live)
    x, Y = (z, None) if Y0 is None else (z[:, :d].copy(), z[:, d:].copy())
    if single:
        return Trajectories(x[0], None if Y is None else Y[0], exit_time,
                            error)
    return Trajectories(x, Y, exit_time, error)


def flow(fields, coords, x0, t, cfg: FlowConfig):
    """RK4 endpoint of the flow of sum_c fields[c] d/dc after time t.

    x0 is one point (d,) or a batch of points (N, d); the result has the
    same shape, and t is a scalar or one time per row.  Each row gives the
    bits of its solo run, except the sign of a nan.  No box bounds the
    flow: a row whose field raises EvalDomainError raises that, the
    earliest in the batch, and |t| beyond MAX_TIME raises EscapeError at
    once.
    """
    return _integrate(fields, coords, x0, t, cfg.step, None
                      ).raise_first_exit()[0]


def variational_flow(fields, coords, x0, t, Y0, cfg: FlowConfig,
                     box: Box = None):
    """Integrate the flow and its linearization: returns (x(t), De^{tX} Y0).

    The variational equation dY/dt = DX(x(t)) Y runs alongside the base
    trajectory in one RK4 step, so the result is linear in Y0 to rounding.
    Shapes and the escape contract are those of flow.
    """
    return _integrate(fields, coords, x0, t, cfg.step, box,
                      Y0).raise_first_exit()


@dataclass
class SurfacePatch:
    """Composed-flow surface samples over the parameter cube (-eps1, eps1)^m."""

    coords: tuple
    m: int
    eps1: float
    param_axes: tuple  # m arrays of parameter values, each containing 0
    points: np.ndarray  # (res,)*m + (dim,)
    tangents: np.ndarray  # (m,) + (res,)*m + (dim,)
    x0: np.ndarray
    order: tuple

    @property
    def res(self):
        return len(self.param_axes[0])

    @property
    def spacing(self):
        return float(self.param_axes[0][1] - self.param_axes[0][0])

    def flat_points(self):
        return self.points.reshape(-1, self.points.shape[-1])


def _check_eps1(eps1):
    """RangeError unless the parameter half-width eps1 is positive and
    finite."""
    if not 0.0 < eps1 < math.inf:
        raise RangeError(f"eps1 must be positive and finite, got {eps1}")


def build_surface(dist: Distribution, x0, eps1, grid_res, cfg: FlowConfig,
                  order=None):
    """Compose the spanning flows over a parameter lattice.

    Applies X_{order[0]} first; the written order (X_1 first) is the
    default, a permutation is a diagnostic only.  grid_res must be odd so
    the lattice contains t = 0 and W(0) = x0 is exact by construction,
    eps1 positive and finite, and x0 a point of the domain; all three
    are checked before any flow.  A flow that stops raises the error a
    sweep over the + nodes and then over the - nodes of each layer would:
    the + side's first, else the - side's once the + side is done.  An
    EscapeError carries the node (flow index, grid index) it was filling.
    """
    _check_eps1(eps1)
    if grid_res < 3 or grid_res % 2 == 0:
        raise RangeError(f"grid must be odd and at least 3 so the lattice "
                         f"contains 0, got {grid_res}")
    if cfg.step > eps1 / 16.0 + 1e-15:
        raise RangeError("flow step must satisfy h <= eps1/16 for builds")
    m = dist.m
    order = tuple(order) if order is not None else tuple(range(m))
    if sorted(order) != list(range(m)):
        raise RangeError(f"order must be a permutation of 0..{m - 1}, got "
                         f"{order}")
    x0 = dist.check_point(x0)
    fields = dist.spanning_fields()
    axis = np.linspace(-eps1, eps1, grid_res)
    center = grid_res // 2
    dt = axis[1] - axis[0]

    pts = x0[None, :]  # flat list of current-layer points
    shape = ()
    for k in range(m):
        Xi = fields[order[k]]
        P = len(pts)
        new = np.empty((P, grid_res, dist.dim))
        new[:, center] = pts
        # sweep outward from the centre: node center + s flows from its
        # inner neighbour by +dt and node center - s by -dt, both sides
        # of all current-layer points in one call; a - side that stops
        # is dropped and its error raised once the + side is done
        signs, late = (1, -1), None
        for s in range(1, center + 1):
            starts = np.concatenate([new[:, center + (s - 1) * g]
                                     for g in signs])
            run = _integrate(Xi, dist.coords, starts,
                             np.repeat(np.multiply(signs, dt), P), cfg.step,
                             dist.domain)
            for i, g in enumerate(signs):
                rows, j = slice(i * P, (i + 1) * P), center + s * g
                side = Trajectories(run.x[rows], None, run.exit_time[rows],
                                    run.error[rows])
                try:
                    new[:, j] = side.raise_first_exit()[0]
                except (EscapeError, EvalDomainError) as err:
                    if isinstance(err, EscapeError):
                        err.node = (order[k], j)
                    if g > 0:
                        raise
                    late, signs = err, (1,)
        if late is not None:
            raise late
        shape = shape + (grid_res,)
        pts = new.reshape(-1, dist.dim)

    points = pts.reshape(shape + (dist.dim,))
    # sweep axis k holds parameter t_{order[k]}; transpose to natural order
    points = np.moveaxis(points, list(range(m)), [int(p) for p in order])
    tangents = np.stack([np.gradient(points, dt, axis=i, edge_order=2)
                         for i in range(m)])
    return SurfacePatch(dist.coords, m, eps1, tuple([axis.copy() for _ in
                                                     range(m)]),
                        points, tangents, x0, order)


@dataclass
class TangencyReport:
    defects: np.ndarray  # (m,) + grid shape
    rhs: float
    fd_tol: float
    parts: dict = field(default_factory=dict)

    @property
    def max_defect(self):
        return float(np.max(self.defects))

    @property
    def margin(self):
        return self.rhs + self.fd_tol - self.max_defect

    def ok(self):
        return bool(np.all(self.defects <= self.rhs + self.fd_tol))


def tangency_defect(patch: SurfacePatch, dist: Distribution, sup_res=17, *,
                    n_dirs=None, seed=None):
    """Per-node, per-direction defect |dW/dt_i - X_i(W)| and its bound,
    from the annihilator frame of the distribution.  n_dirs and seed are
    ignored, as in geometry.involutivity_constant."""
    X = eval_fields(dist.spanning_fields(), dist.coords, patch.flat_points())
    diff = patch.tangents.reshape(patch.m, -1, dist.dim) - np.swapaxes(X, 0, 1)
    defects = np.linalg.norm(diff, axis=-1).reshape(patch.tangents.shape[:-1])

    pts = dist.domain.lattice(sup_res)
    parts, = bound_parts(evaluate_frames([annihilator_frame(dist)], pts),
                         dist.orthonormal_bases_at(pts))
    d_restr, inv_norm, m_const = (e.value for e in parts)
    rhs = scaled_exp(patch.m * patch.eps1 * d_restr * inv_norm,
                     patch.m * patch.eps1 * m_const)
    fd_tol = 10.0 * patch.spacing ** 2
    return TangencyReport(defects, rhs, fd_tol, {
        "d_restricted": d_restr, "inv_norm": inv_norm, "M": m_const,
        "m": patch.m, "eps1": patch.eps1, "sup_res": sup_res})


@dataclass
class PushforwardCheck:
    lhs: float
    rhs: float
    passed: bool
    parts: dict = field(default_factory=dict)


def pushforward_bound_check(dist: Distribution, frame: FrameSection, x0,
                            times, Y0, cfg: FlowConfig, m_const):
    """Composed variational flow of a vertical vector against its bound,
    passed when lhs <= rhs * (1 + 1e-3); m_const is the mixing constant
    M_A of the bound, such as geometry.involutivity_constant gives.

    One check takes x0 (d,), times (m,) and Y0 (d,) and returns a
    PushforwardCheck.  A batch takes x0 (N, d), times (N, m) and Y0
    (N, d), flows every row in one call per spanning field with per-row
    times, and returns a list of N checks, each equal to its solo check.
    An escape raises as in flow: the earliest exit time of the batch.
    Arrays of other shapes are a RangeError.
    """
    x0 = np.asarray(x0, dtype=float)
    times = np.asarray(times, dtype=float)
    Y0 = np.asarray(Y0, dtype=float)
    d = dist.dim
    if x0.ndim not in (1, 2) or x0.shape[-1] != d:
        raise RangeError(f"x0 must have shape ({d},) or (N, {d}), got "
                         f"{x0.shape}")
    single = x0.ndim == 1
    for name, value, width in (("times", times, dist.m), ("Y0", Y0, d)):
        want = x0.shape[:-1] + (width,)
        if value.shape != want:
            raise RangeError(f"{name} must have shape {want}, got "
                             f"{value.shape}")
    x0, times, Y0 = np.atleast_2d(x0), np.atleast_2d(times), np.atleast_2d(Y0)
    fields = dist.spanning_fields()
    x, Y = x0, Y0
    for i in range(dist.m):
        x, Y = variational_flow(fields[i], dist.coords, x, times[:, i], Y,
                                cfg, dist.domain)
    A0 = frame.matrix_at(x0)
    inv_norm_end = frame_values(x, frame.matrix_at(x), None,
                                frame.y_indices).inv_norms
    checks = []
    for r in range(len(x0)):
        eps1 = float(np.max(np.abs(times[r]))) if times.shape[1] else 0.0
        lhs = float(np.linalg.norm(Y[r]))
        inv_norm = float(inv_norm_end[r])
        rhs = scaled_exp(float(np.linalg.norm(A0[r] @ Y0[r])) * inv_norm,
                         dist.m * eps1 * m_const)
        checks.append(PushforwardCheck(lhs, rhs, lhs <= rhs * (1.0 + 1.0e-3), {
            "M": m_const, "inv_norm_end": inv_norm, "eps1": eps1,
            "endpoint": x[r]}))
    return checks[0] if single else checks


@dataclass
class ConvergenceReport:
    displacements: list
    angles: list
    verdict: str
    limit_index: int
    params: dict = field(default_factory=dict)


_ANGLE_TOL = 1.0e-3
_DECAY_FACTOR = 10.0


def converge_surfaces(patches, limit_dist: Distribution):
    """Cauchy trace plus tangent-angle trace for a patch sequence.

    Converged   : displacements shrink by >= 10x overall (or are
                  identically zero) and the final tangent planes align
                  with the limit distribution within 1e-3 rad.
    NotConverged: the angle trace stays away from zero.
    Inconclusive: decay below the threshold (slow convergence and
                  divergence are indistinguishable at finite depth).
    """
    if len(patches) < 2:
        raise RangeError(f"need at least two patches, got {len(patches)}")
    shape = patches[0].points.shape
    for p in patches[1:]:
        if p.points.shape != shape or p.res != patches[0].res:
            raise RangeError(f"patches must share the parameter grid: "
                             f"{shape} at res {patches[0].res} against "
                             f"{p.points.shape} at res {p.res}")

    displacements = []
    for a, b in zip(patches, patches[1:]):
        displacements.append(float(np.max(np.linalg.norm(
            b.points - a.points, axis=-1))))

    angles = []
    for p in patches:
        flat = p.flat_points()
        tng = np.stack([p.tangents[i].reshape(-1, len(p.coords))
                        for i in range(p.m)], axis=-1)
        t_bases = orthonormalize(tng)
        e_bases = limit_dist.orthonormal_bases_at(flat)
        angles.append(float(np.max(max_principal_angle(t_bases, e_bases))))

    d0, dlast = displacements[0], displacements[-1]
    all_zero = max(displacements) <= 1e-14
    decay_ok = all_zero or dlast <= 1e-14 or d0 / dlast >= _DECAY_FACTOR
    final_angle = angles[-1]
    if decay_ok and final_angle <= _ANGLE_TOL:
        verdict = "Converged"
    elif final_angle > _ANGLE_TOL and final_angle >= 0.9 * angles[0]:
        verdict = "NotConverged"
    else:
        verdict = "Inconclusive"
    return ConvergenceReport(displacements, angles, verdict,
                             len(patches) - 1,
                             {"angle_tol": _ANGLE_TOL,
                              "decay_factor": _DECAY_FACTOR,
                              "final_angle": final_angle})


def patch_to_csv(patch: SurfacePatch, report: TangencyReport):
    meta = [("m", patch.m), ("eps1", float(patch.eps1)),
            ("order", cells(patch.order)), ("rhs", float(report.rhs)),
            ("fd_tol", float(report.fd_tol))]
    header = ([f"t{i+1}" for i in range(patch.m)] + list(patch.coords)
              + [f"defect{i+1}" for i in range(patch.m)])
    columns = [np.stack(np.meshgrid(*patch.param_axes, indexing="ij"), -1),
               patch.points, np.moveaxis(report.defects, 0, -1)]
    rows = np.concatenate(columns, -1).reshape(-1, len(header)).tolist()
    return csv_text(meta, header, rows)
