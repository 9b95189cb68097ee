"""Candidate integral surfaces built by composed coordinate flows.

The surface through x0 is W(t_1,...,t_m) = e^{t_m X_m} o ... o e^{t_1 X_1}(x0)
with the composition order fixed (X_1 first); a permuted order is exposed
only as a diagnostic.  Flows are fixed-step RK4 for reproducibility of the
sup-norm diagnostics; tangents come from centered differences of the stored
grid, and the finite-difference error is folded into tolerances as
10 * (grid spacing)^2.

One RK4 loop serves flow and variational_flow.  It takes one point (d,)
or a batch (N, d), and a batch gives the same bits as its rows flowed one
at a time, so build_surface sweeps a whole layer of the lattice per call.
A batch stops at the first step in which any row leaves the domain box:
the EscapeError carries that step's time as exit_time, and build_surface
adds the lattice node (flow index, grid index) being filled.

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

import numpy as np

from .boxes import Box, env_of
from .errors import EscapeError, RangeError
from .fields import eval_fields
from .report import cells, csv_text
from .geometry import (Distribution, FrameSection, annihilator_frame,
                       bound_parts, evaluate_frame, involutivity_constant,
                       max_principal_angle, orthonormalize, sup_inverse_norm)

__all__ = [
    "FlowConfig", "SurfacePatch", "flow", "variational_flow", "build_surface",
    "tangency_defect", "pushforward_bound_check", "converge_surfaces",
    "TangencyReport", "PushforwardCheck", "ConvergenceReport",
    "patch_to_csv",
]


MAX_TIME = 10.0  # longest flow time accepted; longer requests escape


@dataclass(frozen=True)
class FlowConfig:
    step: float = 1.0e-3

    def __post_init__(self):
        if not self.step > 0.0:
            raise RangeError(f"step must be positive, got {self.step}")


def _integrate(fields, coords, x0, t, step, box, Y0=None):
    """The RK4 loop behind flow and variational_flow.

    x0 is one point (d,) or a batch (N, d); Y0, when given, has the same
    shape and is carried along by the variational equation
    dY/dt = DX(x(t)) Y in the same steps.  Returns (x(t), Y(t)), with
    Y(t) None when Y0 is.
    """
    if abs(t) > MAX_TIME:
        raise EscapeError("requested time beyond MAX_TIME", exit_time=t)
    x = np.array(x0, dtype=float)
    Y = None if Y0 is None else np.array(Y0, dtype=float)
    if t == 0.0:
        return x, Y
    single = x.ndim == 1
    x = np.atleast_2d(x)
    jac = None
    if Y is not None:
        Y = np.atleast_2d(Y)
        jac = [[f.diff(c) for c in coords] for f in fields]
    n_steps = max(1, int(math.ceil(abs(t) / step - 1e-12)))
    dt = t / n_steps

    def rhs(xs, ys):
        env = env_of(coords, xs)
        if ys is None:
            return eval_fields(fields, env), None
        return (eval_fields(fields, env),
                (eval_fields(jac, env) @ ys[..., None])[..., 0])

    def ahead(ys, h, ks):
        return None if ys is None else ys + h * ks

    for k in range(n_steps):
        k1, l1 = rhs(x, Y)
        k2, l2 = rhs(x + 0.5 * dt * k1, ahead(Y, 0.5 * dt, l1))
        k3, l3 = rhs(x + 0.5 * dt * k2, ahead(Y, 0.5 * dt, l2))
        k4, l4 = rhs(x + dt * k3, ahead(Y, dt, l3))
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if Y is not None:
            Y = Y + (dt / 6.0) * (l1 + 2.0 * l2 + 2.0 * l3 + l4)
        if box is not None and not np.all(box.contains(x, tol=1e-9)):
            raise EscapeError("trajectory left the domain box",
                              exit_time=(k + 1) * dt)
    if single:
        return x[0], None if Y is None else Y[0]
    return x, Y


def flow(fields, coords, x0, t, cfg: FlowConfig, box: Box = None):
    """RK4 endpoint of the flow of sum_c fields[c] d/dc after time t.

    x0 is one point (d,) or a batch of points (N, d); the result has the
    same shape.  Rows are integrated together in fixed steps and give the
    same bits as flowing each row alone.  A batch stops at the first step
    in which any row leaves the box: EscapeError carries that step's time
    as exit_time.  |t| beyond MAX_TIME raises EscapeError at once.
    """
    return _integrate(fields, coords, x0, t, cfg.step, box)[0]


def variational_flow(fields, coords, x0, t, Y0, cfg: FlowConfig,
                     box: Box = None):
    """Integrate the flow and its linearization: returns (x(t), De^{tX} Y0).

    The variational equation dY/dt = DX(x(t)) Y runs alongside the base
    trajectory in one RK4 step, so the result is linear in Y0 to rounding.
    Shapes and the escape contract are those of flow.
    """
    return _integrate(fields, coords, x0, t, cfg.step, box, Y0)


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


def build_surface(dist: Distribution, x0, eps1, grid_res, cfg: FlowConfig,
                  order=None):
    """Compose the spanning flows over a parameter lattice.

    Applies X_{order[0]} first; the written order (X_1 first) is the
    default, a permutation is a diagnostic only.  grid_res must be odd so
    the lattice contains t = 0 and W(0) = x0 is exact by construction.
    """
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
    x0 = np.asarray(x0, dtype=float)
    fields = dist.spanning_fields()
    axis = np.linspace(-eps1, eps1, grid_res)
    center = grid_res // 2
    dt = axis[1] - axis[0]

    pts = x0[None, :]  # flat list of current-layer points
    shape = ()
    for k in range(m):
        Xi = fields[order[k]]
        new = np.empty((len(pts), grid_res, dist.dim))
        new[:, center] = pts
        # sweep outward from the centre: each node flows from its inner
        # neighbour, all current-layer points in one batch
        sweep = [(j, j - 1, dt) for j in range(center + 1, grid_res)] + \
            [(j, j + 1, -dt) for j in range(center - 1, -1, -1)]
        for j, prev, h in sweep:
            try:
                new[:, j] = flow(Xi, dist.coords, new[:, prev], h, cfg,
                                 dist.domain)
            except EscapeError as err:
                err.node = (order[k], j)
                raise
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


def tangency_defect(patch: SurfacePatch, dist: Distribution, sup_res=17,
                    n_dirs=256, seed=0):
    """Per-node, per-direction defect |dW/dt_i - X_i(W)| and its bound,
    from the annihilator frame of the distribution."""
    X = eval_fields(dist.spanning_fields(),
                    env_of(dist.coords, patch.flat_points()))
    diff = patch.tangents.reshape(patch.m, -1, dist.dim) - np.swapaxes(X, 0, 1)
    defects = np.linalg.norm(diff, axis=-1).reshape(patch.tangents.shape[:-1])

    pts = dist.domain.lattice(sup_res)
    d_restr, inv_norm, m_const = (e.value for e in bound_parts(
        evaluate_frame(annihilator_frame(dist), pts),
        dist.orthonormal_bases_at(pts), n_dirs, seed))
    rhs = patch.m * patch.eps1 * d_restr * inv_norm * \
        math.exp(patch.m * patch.eps1 * m_const)
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
                            times, Y0, cfg: FlowConfig, m_const=None,
                            sup_res=17, n_dirs=256, seed=0):
    """Composed variational flow of a vertical vector against its bound,
    passed when lhs <= rhs * (1 + 1e-3)."""
    times = np.asarray(times, dtype=float)
    eps1 = float(np.max(np.abs(times))) if len(times) else 0.0
    if m_const is None:
        pts = dist.domain.lattice(sup_res)
        bases = dist.orthonormal_bases_at(pts)
        m_const = involutivity_constant(frame, bases, pts, n_dirs, seed).value
    fields = dist.spanning_fields()
    x = np.asarray(x0, dtype=float)
    Y = np.asarray(Y0, dtype=float)
    for i in range(dist.m):
        x, Y = variational_flow(fields[i], dist.coords, x, float(times[i]), Y,
                                cfg, dist.domain)
    lhs = float(np.linalg.norm(Y))
    A0 = frame.matrix_at(np.asarray(x0, dtype=float)[None])[0]
    inv_norm_end = sup_inverse_norm(frame, x).value
    rhs = float(np.linalg.norm(A0 @ np.asarray(Y0, dtype=float))) * \
        inv_norm_end * math.exp(dist.m * eps1 * m_const)
    return PushforwardCheck(lhs, rhs, lhs <= rhs * (1.0 + 1.0e-3), {
        "M": m_const, "inv_norm_end": inv_norm_end, "eps1": eps1,
        "endpoint": x})


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
        raise ValueError("need at least two patches")
    shape = patches[0].points.shape
    for p in patches[1:]:
        if p.points.shape != shape or p.res != patches[0].res:
            raise ValueError("patches must share the parameter grid")

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


def patch_to_csv(patch: SurfacePatch, report: TangencyReport = None):
    meta = [("m", patch.m), ("eps1", float(patch.eps1)),
            ("order", cells(patch.order))]
    header = [f"t{i+1}" for i in range(patch.m)] + list(patch.coords)
    if report is not None:
        meta += [("rhs", float(report.rhs)), ("fd_tol", float(report.fd_tol))]
        header += [f"defect{i+1}" for i in range(patch.m)]
    rows = []
    for idx in np.ndindex(patch.points.shape[:-1]):
        row = [float(patch.param_axes[i][idx[i]]) for i in range(patch.m)]
        row += [float(v) for v in patch.points[idx]]
        if report is not None:
            row += [float(report.defects[(i,) + idx]) for i in range(patch.m)]
        rows.append(row)
    return csv_text(meta, header, rows)
