"""Uniqueness and integrability diagnostics for dy_i/dx_j = F_ij(x, y).

The matrix extension of an n x m right-hand side F adjoins an n x n
identity block: hat(F) = [I_n | F].  Columns pair with variables as
column j <= n -> y_j (the identity block is the y-block of the
annihilator matrix) and column n+j -> x_j; the uniqueness certificate for
a column choice I takes w2 as the declared modulus with respect to those
variables and requires det(hat(F)^I) != 0 at the point.

For the separable family F_ij = G_i(y_i) * dH_i/dx_j solutions exist
through every point and are computed here in closed quadrature form:
int_{y0}^{y} ds/G_i(s) = H_i(x) - H_i(x0), solved by monotone
root-finding on a tabulated antiderivative.  This solver is the oracle
the surface-convergence pipeline is checked against, so it never goes
through the flow machinery.

Smoothing the same family at scale eps gives C^1 frames
eta_i = dy_i - G_i^eps d_x H_i^eps whose top wedge with d(eta) vanishes
structurally (the dy_i repeat and the alpha ^ alpha cancellation);
`involutive_mollified_frames` builds that sequence and asserts it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, GraphForm
from .errors import BranchCrossingError, EvalDomainError, RangeError
from .fields import Const, SplineLeaf, add, eval_fields, mul, neg
from .geometry import (Distribution, FrameSection, annihilator_frame,
                       frobenius_defect)
from .moduli import (NONZERO_THRESHOLD, CriterionReport, ModuliDecl,
                     declared_limit_check)
from .mollify import _check_eps, grid_from_field, mollify, to_spline_field

__all__ = [
    "PdeSpec", "SpecialFormSpec", "hat_matrix", "submatrix_det",
    "theorem2_check", "Theorem2Certificate", "special_solve", "SolveResult",
    "involutive_mollified_frames", "MollifiedFamily",
]

FD_STEP = 1.0e-5  # centered-difference step of the special_solve residuals
WEDGE_TOL = 1.0e-10  # largest top-wedge sup a mollified frame may show


@dataclass
class PdeSpec(GraphForm):
    x_names: tuple
    y_names: tuple
    F: list          # F[i][j]: field for dy_i/dx_j over (x, y)
    domain: Box      # over x_names + y_names
    moduli: ModuliDecl = None

    def __post_init__(self):
        self.x_names = tuple(self.x_names)
        self.y_names = tuple(self.y_names)
        if len(self.F) != self.n or any(len(row) != self.m for row in self.F):
            raise RangeError(f"pde spec needs {self.n} rows of {self.m} "
                             f"fields, got rows of "
                             f"{[len(row) for row in self.F]}")
        self._check_domain("pde spec")

    def distribution(self):
        """Spanning fields X_j = d/dx_j + sum_i F_ij d/dy_i."""
        coeffs = [[self.F[i][j] for i in range(self.n)]
                  for j in range(self.m)]
        return Distribution(self.x_names, self.y_names, coeffs, self.domain)


def hat_matrix(spec: PdeSpec):
    """The n rows of fields of [I_n | F]; column j pairs with the variable
    (y_names + x_names)[j - 1]."""
    return [[Const(1.0) if i == j else Const(0.0) for j in range(spec.n)]
            + list(spec.F[i]) for i in range(spec.n)]


def submatrix_det(rows, I):
    """Column submatrix of the rows of hat_matrix for a 1-based strictly
    increasing index list, with its exact symbolic determinant."""
    n, total = len(rows), len(rows[0])
    I = tuple(int(i) for i in I)
    if len(I) != n or sorted(set(I)) != list(I) or I[0] < 1 or I[-1] > total:
        raise RangeError(f"columns must pick {n} distinct columns "
                         f"in 1..{total}, got {I}")
    sub = [[row[i - 1] for i in I] for row in rows]
    terms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if perm[a] > perm[b])
        prod = mul(*(sub[r][perm[r]] for r in range(n)))
        terms.append(prod if inversions % 2 == 0 else neg(prod))
    return sub, add(*terms)


@dataclass
class Theorem2Certificate:
    columns: tuple
    det_value: float
    w1: object
    w2: object
    report: CriterionReport = None

    @property
    def verdict(self):
        return self.report.verdict if self.report else "NotApplicable"


def theorem2_check(spec: PdeSpec, xi, I) -> Theorem2Certificate:
    """Uniqueness certificate from an invertible column choice of [I_n | F]."""
    _, det = submatrix_det(hat_matrix(spec), I)
    det_val = float(eval_fields([det], spec.coords,
                                spec.check_point(xi))[0])
    if abs(det_val) <= NONZERO_THRESHOLD:
        return Theorem2Certificate(tuple(I), det_val, None, None, None)
    columns = spec.y_names + spec.x_names
    w1, w2, report = declared_limit_check(spec.moduli,
                                          [columns[j - 1] for j in I])
    report.params["columns"] = ",".join(str(j) for j in I)
    report.params["det"] = det_val
    return Theorem2Certificate(tuple(I), det_val, w1, w2, report)


# ---------------------------------------------------------------------------
# separable special form


@dataclass
class SpecialFormSpec(GraphForm):
    """F_ij(x, y) = G_i(y_i) * dH_i/dx_j(x)."""

    x_names: tuple
    y_names: tuple
    G: list   # G[i]: field of the single variable y_i
    H: list   # H[i]: field over the x variables
    domain: Box

    def __post_init__(self):
        self.x_names = tuple(self.x_names)
        self.y_names = tuple(self.y_names)
        if not len(self.G) == len(self.H) == self.n:
            raise RangeError(f"special-form spec needs one G and one H per "
                             f"y variable {self.y_names}, got {len(self.G)} "
                             f"G and {len(self.H)} H")
        for i, g in enumerate(self.G):
            if not g.free_vars <= {self.y_names[i]}:
                raise RangeError(f"special-form spec: G{i + 1} may only "
                                 f"depend on {self.y_names[i]}, got {g}")
        for i, h in enumerate(self.H):
            if not h.free_vars <= set(self.x_names):
                raise RangeError(f"special-form spec: H{i + 1} may only "
                                 f"depend on {self.x_names}, got {h}")
        self._check_domain("special-form spec")

    def induced_F(self):
        return [[mul(self.G[i], self.H[i].diff(xj))
                 for xj in self.x_names] for i in range(self.n)]

    def pde_spec(self, moduli=None) -> PdeSpec:
        return PdeSpec(self.x_names, self.y_names, self.induced_F(),
                       self.domain, moduli)


@dataclass
class SolveResult:
    targets: np.ndarray        # (T, m)
    values: np.ndarray         # (T, n)
    residuals: np.ndarray      # (T, n, m) FD residual dy/dx - F
    params: dict = field(default_factory=dict)

    @property
    def max_residual(self):
        return float(np.max(np.abs(self.residuals))) if self.residuals.size \
            else 0.0


class _SeparableComponent:
    """Tabulated antiderivative Phi(y) = int_{y0}^y ds/G(s) on the branch
    of y0, with monotone inversion."""

    _ZERO_TOL = 1.0e-12
    _N_GRID = 4001

    def __init__(self, g_field, y_name, y0, y_lo, y_hi):
        self.y0 = float(y0)
        g0 = float(eval_fields([g_field], (y_name,), [self.y0])[0])
        self.constant = abs(g0) < self._ZERO_TOL
        if self.constant:
            return
        self.sign = math.copysign(1.0, g0)
        table = grid_from_field(g_field, Box((y_name,), (y_lo,), (y_hi,)),
                                self._N_GRID)
        ys, gs = table.axes[0], table.values
        # restrict to the maximal same-sign interval containing y0
        i0 = min(int(np.searchsorted(ys, self.y0)), len(ys) - 1)
        bad = np.flatnonzero(~(self.sign * gs > self._ZERO_TOL))
        lo = int(bad[bad < i0].max(initial=-1)) + 1
        hi = int(bad[bad > i0].min(initial=len(ys))) - 1
        self.ys = ys[lo:hi + 1]
        if len(self.ys) < 8:
            raise BranchCrossingError("denominator branch around y0 is "
                                      "too narrow to tabulate")
        inv = 1.0 / gs[lo:hi + 1]
        phi = _cumulative_quadrature(self.ys, inv)
        phi -= np.interp(self.y0, self.ys, phi)
        from scipy.interpolate import CubicSpline
        self.phi = CubicSpline(self.ys, phi)
        self.phi_min = float(min(phi[0], phi[-1]))
        self.phi_max = float(max(phi[0], phi[-1]))

    def solve(self, delta_h):
        """y with Phi(y) = delta_h, on the branch of y0."""
        if self.constant or delta_h == 0.0:
            return self.y0
        if not (self.phi_min - 1e-14 <= delta_h <= self.phi_max + 1e-14):
            raise BranchCrossingError(
                "target lies beyond the branch of the denominator "
                "(it vanishes, or the domain box ends, before the "
                "required displacement)")
        delta_h = min(max(delta_h, self.phi_min), self.phi_max)
        from scipy.optimize import brentq
        f = lambda yv: float(self.phi(yv)) - delta_h
        a, b = self.ys[0], self.ys[-1]
        return float(brentq(f, a, b, xtol=1.0e-12, rtol=8.9e-16))


def _cumulative_quadrature(xs, vals):
    """Cumulative Simpson-type integral on a uniform grid."""
    h = xs[1] - xs[0]
    out = np.zeros_like(vals)
    # composite trapezoid corrected to Simpson accuracy via end derivatives
    out[1:] = np.cumsum(0.5 * h * (vals[1:] + vals[:-1]))
    # fourth-order end correction (Euler-Maclaurin first term)
    dv = np.gradient(vals, h)
    out[1:] -= (h ** 2 / 12.0) * (dv[1:] - dv[0])
    return out


def special_solve(sf: SpecialFormSpec, x0, y0, targets, residual_check=True):
    """Solve the separable system through (x0, y0) at the target x points.

    Per component: int_{y0_i}^{y_i} ds/G_i = H_i(x) - H_i(x0), inverted by
    monotone root-finding on a tabulated antiderivative; components with
    G_i(y0_i) = 0 stay constant (equilibrium branch).  The residuals are
    centered differences of the solution with step FD_STEP minus F.
    An x0 or y0 without one value per variable, or (x0, y0) outside the
    domain, is a RangeError.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    n, m = sf.n, sf.m
    if x0.shape != (m,):
        raise RangeError(f"x0 needs one value per x variable {sf.x_names}, "
                         f"got {x0.size}")
    if y0.shape != (n,):
        raise RangeError(f"y0 needs one value per y variable {sf.y_names}, "
                         f"got {y0.size}")
    sf.check_point(np.concatenate([x0, y0]))
    y_bounds = [(sf.domain.lows[m + i], sf.domain.highs[m + i])
                for i in range(n)]
    comps = [_SeparableComponent(sf.G[i], sf.y_names[i], y0[i],
                                 *y_bounds[i]) for i in range(n)]
    # the targets, then each one moved by +FD_STEP and -FD_STEP along x_j
    xs = [targets]
    if residual_check:
        for j in range(m):
            xp, xm = targets.copy(), targets.copy()
            xp[:, j] += FD_STEP
            xm[:, j] -= FD_STEP
            xs += [xp, xm]
    h0 = eval_fields(sf.H, sf.x_names, x0)
    dh = eval_fields(sf.H, sf.x_names, np.concatenate(xs)) - h0
    ys = np.array([[comps[i].solve(row[i]) for i in range(n)] for row in dh])
    ys = ys.reshape(len(xs), len(targets), n)
    values = ys[0]
    residuals = np.zeros((len(targets), n, m))
    if residual_check:
        F = eval_fields(sf.induced_F(), sf.coords,
                        np.concatenate([targets, values], axis=1))
        for j in range(m):
            dy = (ys[1 + 2 * j] - ys[2 + 2 * j]) / (2.0 * FD_STEP)
            residuals[:, :, j] = dy - F[:, :, j]
    return SolveResult(targets, values, residuals,
                       {"fd_step": FD_STEP, "x0": x0, "y0": y0})


# ---------------------------------------------------------------------------
# mollified involutive frames


@dataclass
class MollifiedFamily:
    eps: float
    frame: FrameSection
    distribution: Distribution
    h_smooth: list
    wedge_sup: float


def _smoothed(f, box, pad, eps, h, label):
    """f sampled at spacing at most h on box padded by pad, mollified at
    eps and fitted as a spline leaf over box's names.  A fitted region
    that falls short of box, beyond the spline's clip tolerance, is a
    RangeError naming the coordinate and the shortfall."""
    padded = box.shrink(-pad)
    n_pts = [int(math.ceil((hi - lo) / h)) + 1
             for lo, hi in zip(padded.lows, padded.highs)]
    leaf = to_spline_field(mollify(grid_from_field(f, padded, n_pts), eps),
                           box.names, label=label)
    ev = leaf.evaluator
    for name, lo, hi, (a, b) in zip(box.names, box.lows, box.highs,
                                    ev.bounds):
        short = max(a - lo, hi - b)
        if short > ev.tol:
            raise RangeError(f"spline {label} is fitted on {name} in "
                             f"[{a:g}, {b:g}], {short:g} short of the "
                             f"box's [{lo:g}, {hi:g}]")
    return leaf


def involutive_mollified_frames(sf: SpecialFormSpec, eps_list, pad=None,
                                cells_per_radius=10, check_res=5):
    """Smooth G_i and H_i at each scale and build eta_i = dy_i - G_i d_x H_i.

    Equal H_i are sampled, mollified and fitted once per scale; each still
    gets a spline leaf of its own.  An eps that is not positive is a
    RangeError, and so is a pad below the largest eps: mollifying leaves a
    margin of eps on every side of the padded grids, and the frame could
    not be evaluated along the domain's faces.  Both are checked before
    any sampling.  The fit starts at the first sample at least eps inside
    a padded grid, which lies less than one grid cell beyond eps, so the
    default pad is the largest eps plus one cell at that scale; a spline
    whose fitted region still falls short of the domain (a pad given
    below that) is a RangeError from _smoothed.  The top wedge
    eta_1 ^ ... ^ eta_n ^ d eta_l collapses structurally (repeated dy_l
    and alpha_l ^ alpha_l), asserted numerically on a lattice at every
    scale: its sup may not exceed WEDGE_TOL.
    """
    eps_list = [float(e) for e in eps_list]
    _check_eps(eps_list)
    if pad is None:
        pad = max(eps_list) * (1.0 + 1.0 / cells_per_radius)
    if pad < max(eps_list):
        raise RangeError(
            f"pad {pad:g} is below eps {max(eps_list):g}: the mollified "
            f"splines would leave a strip of width {max(eps_list) - pad:g} "
            f"uncovered on every side of the domain (the lower side of "
            f"{sf.coords[0]} first)")
    m, n = sf.m, sf.n
    x_box = Box(sf.x_names, sf.domain.lows[:m], sf.domain.highs[:m])
    y_boxes = [Box((y,), (lo,), (hi,)) for y, lo, hi in
               zip(sf.y_names, sf.domain.lows[m:], sf.domain.highs[m:])]
    families = []
    for eps in eps_list:
        h = eps / cells_per_radius
        fitted = {}  # H_i -> the spline leaf of its first occurrence
        h_smooth = []
        for i, f in enumerate(sf.H):
            label = f"H{i+1}e"
            if f in fitted:
                # same spline, but a leaf of its own for the frame's rows
                h_smooth.append(SplineLeaf(fitted[f].evaluator, sf.x_names,
                                           label=label))
            else:
                fitted[f] = _smoothed(f, x_box, pad, eps, h, label)
                h_smooth.append(fitted[f])
        g_smooth = [_smoothed(f, box, pad, eps, h, f"G{i+1}e")
                    for i, (f, box) in enumerate(zip(sf.G, y_boxes))]
        coeffs = [[mul(g_smooth[i], h_smooth[i].diff(xn)) for i in range(n)]
                  for xn in sf.x_names]
        dist = Distribution(sf.x_names, sf.y_names, coeffs, sf.domain)
        frame = annihilator_frame(dist)
        wedge_sup = float(np.max(frobenius_defect(
            frame, sf.domain.lattice(check_res))))
        if wedge_sup > WEDGE_TOL:
            raise EvalDomainError(
                f"structural involutivity violated: wedge sup {wedge_sup:g}")
        families.append(MollifiedFamily(eps, frame, dist, h_smooth,
                                        wedge_sup))
    return families
