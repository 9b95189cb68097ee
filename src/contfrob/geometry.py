"""Distributions in graph form, annihilator frames, and sup-norm functionals.

A rank-m distribution on a box in R^{m+n} is spanned by
X_i = d/dx_i + sum_j a_ij d/dy_j; its annihilator frame has rows
eta_j = dy_j - sum_i a_ij dx_i.  On top of these the module computes the
quantities the integrability diagnostics are made of:

* the involutivity defect |eta_1 ^ ... ^ eta_n ^ d eta_j| per point,
* the restricted inverse (A|_Y)^{-1} and its spectral norm,
* the mixing constant  M_A = sup |dA(A^{-1} w, v)|  over unit w in R^n
  and unit v in the distribution, and
* the per-step traces combining them with scaled_exp's e^{eps M} weights.

A sup over a region is approximated from below by a sup over a point
lattice, exact per point for each frame shape the toolkit builds (n rows,
r = dim E): ||dA|_E|| for n == 1 or r <= 2, M_A for n == 1, r == 1 or
n == r == 2 (the sup kernels below and stacked.pencil_sigma_max say
how).  Other shapes raise RangeError.  For n == r == 2, M_A's per-point
value is exact only at the points that can hold the lattice sup; the
others get a closed-form lower bound below it, so the sup and its argmax
are still those of exact values.

Cost model: frame_values holds the one finiteness check and the one
transversality check.  It takes K frames over one lattice of N points
as K*N frame-major rows and computes the singular values and the inverse
of A|_Y for all of them at once with stacked.py's kernels (see there for
their closed forms, error bounds and the matrices LAPACK takes instead).
evaluate_frames fills those rows with each frame's matrices_at once,
one frame as a list of one; dynsys's Cocycle.pullback_values fills them
for a whole pullback family with one call on the base frame.  The sup
kernels contract dA with stacked.congruence and compute per-row values
over the whole stack in one call each, and reduce them per frame
segment (the n == r == 2 M_A root-finds only the rows whose upper bound
reaches their segment's largest lower bound, typically a handful), so a
trace makes the same number of library calls for K frames as for one,
and a tangency bound or a wrapper such as involutivity_constant
evaluates its frame exactly once.  matrices_at evaluates every entry
of the rows and of d(rows) in one fields.eval_fields call, and
matrix_at the rows' alone: one compiled function each instead of a tree
walk per entry, so the partials of a spline leaf share its cell search
(see compile_fields).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxes import Box, GraphForm
from .errors import (DegenerateSubspaceError, EvalDomainError, RangeError,
                     TransversalityError)
from .fields import Const, ONE, ZERO, eval_fields, neg
from .forms import (exterior_derivative, one_form, stacked_wedge_norms,
                    two_form_matrix_norm, wedge, wedge_all)
from .stacked import (congruence, inverse, pencil_sigma_max, sigma_max,
                      signed_qr, singular_values)

__all__ = [
    "Distribution", "FrameSection", "SupEstimate", "annihilator_frame",
    "frobenius_defect", "FrameValues", "evaluate_frames",
    "frame_values", "bound_parts",
    "involutivity_constant",
    "asymptotic_involutivity_trace", "exterior_regularity_trace",
    "orthonormalize", "max_principal_angle",
    "TraceEntry",
]


@dataclass
class Distribution(GraphForm):
    """Rank-m tangent distribution in graph form over a coordinate box."""

    x_names: tuple
    y_names: tuple
    coeffs: list  # coeffs[i][j]: coefficient of d/dy_j in X_i
    domain: Box

    def __post_init__(self):
        self.x_names = tuple(self.x_names)
        self.y_names = tuple(self.y_names)
        if len(self.coeffs) != self.m or \
                any(len(row) != self.n for row in self.coeffs):
            raise RangeError(f"distribution needs {self.m} rows of {self.n} "
                             f"coefficients, got rows of "
                             f"{[len(row) for row in self.coeffs]}")
        self._check_domain("distribution")

    @property
    def dim(self):
        return self.m + self.n

    def spanning_fields(self):
        """X_i as coordinate vectors of fields (leading identity block)."""
        out = []
        for i in range(self.m):
            vec = [ONE if c == i else ZERO for c in range(self.m)]
            vec += list(self.coeffs[i])
            out.append(vec)
        return out

    def spanning_matrix_at(self, points):
        """Columns X_1..X_m at each point: shape (N, dim, m)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(pts), self.dim, self.m))
        out[:, :self.m] = np.eye(self.m)
        out[:, self.m:] = np.swapaxes(
            eval_fields(self.coeffs, self.coords, pts), 1, 2)
        return out

    def orthonormal_bases_at(self, points):
        return orthonormalize(self.spanning_matrix_at(points))

    @cached_property
    def _annihilator(self):
        rows = []
        for j, y in enumerate(self.y_names):
            comps = {y: Const(1.0)}
            for i, x in enumerate(self.x_names):
                comps[x] = neg(self.coeffs[i][j])
            rows.append(one_form(self.coords, comps))
        return FrameSection(tuple(rows), self.coords, self.y_names)


def orthonormalize(bases):
    """Per-point QR orthonormalization of (..., dim, r) basis stacks."""
    q, bad = signed_qr(bases)
    if np.any(bad):
        raise DegenerateSubspaceError("rank-deficient subspace basis")
    return q


def max_principal_angle(b1, b2):
    """Largest principal angle between equal-rank orthonormal bases, as
    arctan2 of its sine, sigma_max of b2 - b1 (b1^T b2), and its cosine,
    sigma_min of b1^T b2 (Knyazev and Argentati, 2002).  The sine
    resolves small angles that the cosine rounds away (arccos alone
    reads multiples of 2^-26 below about 1e-8), and the result is within
    8u max(1, theta) of the angle theta, u = 2^-53."""
    cos = np.swapaxes(b1, -1, -2) @ b2
    return np.arctan2(sigma_max(b2 - b1 @ cos),
                      singular_values(cos)[..., -1])


@dataclass
class FrameSection:
    """n one-forms whose common kernel is the intended distribution."""

    rows: tuple  # KForm degree 1
    coords: tuple
    y_names: tuple

    def __post_init__(self):
        self.rows = tuple(self.rows)
        self.coords = tuple(self.coords)
        self.y_names = tuple(self.y_names)
        for i, r in enumerate(self.rows):
            if r.degree != 1 or r.coords != self.coords:
                raise RangeError(f"frame row {i} must be a 1-form over "
                                 f"{self.coords}, got a {r.degree}-form "
                                 f"over {r.coords}")

    @property
    def n(self):
        return len(self.rows)

    @property
    def dim(self):
        return len(self.coords)

    @property
    def y_indices(self):
        return tuple(self.coords.index(y) for y in self.y_names)

    @cached_property
    def d_rows(self):
        return tuple(exterior_derivative(r) for r in self.rows)

    def matrix_at(self, points):
        """(N, n, dim) component matrices of the rows."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return eval_fields([[row.comps.get((i,), ZERO) for i in
                             range(self.dim)] for row in self.rows],
                           self.coords, pts)

    def matrices_at(self, points):
        """(N, n, dim) component matrices of the rows and (N, n, dim, dim)
        antisymmetric matrices of d(rows), every entry of both from one
        compiled function."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        entries, (r, a, b) = self._entries
        vals = eval_fields(entries, self.coords, pts)
        split = self.n * self.dim
        A = np.ascontiguousarray(vals[:, :split]).reshape(
            len(pts), self.n, self.dim)
        dA = np.zeros((len(pts), self.n, self.dim, self.dim))
        dA[:, r, a, b] = vals[:, split:]
        dA[:, r, b, a] = -vals[:, split:]
        return A, dA

    @cached_property
    def _entries(self):
        """The fields of matrices_at, the rows' components and then each
        d(row)'s, and the (row, i, j) index of each d(row) component."""
        comps = [(r, i, j, f) for r, dr in enumerate(self.d_rows)
                 for (i, j), f in dr.comps.items()]
        fields = [row.comps.get((i,), ZERO) for row in self.rows
                  for i in range(self.dim)] + [f for *_, f in comps]
        index = np.array([c[:3] for c in comps], dtype=int).reshape(-1, 3)
        return fields, tuple(index.T)

    def scale(self, c):
        return FrameSection(tuple(r.scale(c) for r in self.rows),
                            self.coords, self.y_names)


def annihilator_frame(dist: Distribution) -> FrameSection:
    """Rows eta_j = dy_j - sum_i a_ij dx_i; kills X_i by cancellation.
    Built once per distribution, so a check that asks for it on every
    call reuses its fields, their compiled functions and its d_rows."""
    return dist._annihilator


def frobenius_defect(frame, points):
    """max_j |eta_1 ^ ... ^ eta_n ^ d eta_j| at each point (l2 norm)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = wedge_all(list(frame.rows))
    out = np.zeros(len(pts))
    for dr in frame.d_rows:
        w = wedge(base, dr)
        out = np.maximum(out, w.norm_at(pts))
    return out


# ---------------------------------------------------------------------------
# frames evaluated on a point set


@dataclass
class FrameValues:
    """K frames evaluated once on a lattice of N points: everything the
    sups read, over K*N frame-major rows (row f*N + p is frame f at
    points[p])."""

    points: np.ndarray  # (N, D)
    A: np.ndarray  # (K*N, n, D) row matrices
    dA: np.ndarray  # (K*N, n, D, D) antisymmetric matrices of d(rows)
    inv: np.ndarray  # (K*N, n, n) (A|_Y)^{-1}
    U: np.ndarray  # (K*N, D, n) (A|_Y)^{-1} embedded in R^D

    @property
    def frames(self):
        """K, the number of frames; a RangeError on an empty lattice,
        whose sups would be empty."""
        if not len(self.points):
            raise RangeError(f"a lattice sup needs points, got points of "
                             f"shape {self.points.shape}")
        return len(self.A) // len(self.points)

    @cached_property
    def inv_norms(self):
        """(K*N,) ||(A|_Y)^{-1}||, computed once for every trace."""
        return sigma_max(self.inv)

    @cached_property
    def d_sups(self):
        """(K,) max_{p, i} |d eta_i|_p per frame, once for every trace."""
        return _segment_max(two_form_matrix_norm(self.dA), self.frames)


def evaluate_frames(frames, points) -> FrameValues:
    """The frames on one lattice as one FrameValues: each frame's
    matrices_at once, stacked frame-major, then frame_values.  The
    frames must share their rows, coordinates and vertical axes."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shapes = {(f.n, tuple(f.coords), tuple(f.y_indices)) for f in frames}
    if len(shapes) != 1:
        raise RangeError(f"frames stacked on one lattice must share rows, "
                         f"coordinates and vertical axes, got {shapes}")
    A, dA = zip(*(f.matrices_at(pts) for f in frames))
    return frame_values(pts, np.concatenate(A), np.concatenate(dA),
                        frames[0].y_indices)


def frame_values(points, A, dA, y_indices) -> FrameValues:
    """FrameValues of the K*N frame-major rows A (n, D) and dA (n, D, D)
    on the N points, with the one finiteness and transversality checks:
    EvalDomainError where some A_p or dA_p is not finite, and
    TransversalityError where some A_p|_Y is singular, at the first such
    row's frame and point.  dA is None where only A and the inverse are
    read."""
    finite = np.isfinite(A).all((1, 2))
    if dA is not None:
        finite &= np.isfinite(dA).all((1, 2, 3))
    if not finite.all():
        raise EvalDomainError(f"frame is not finite "
                              f"{_first_row(~finite, points)}")
    y_idx = list(y_indices)
    Ay = A[:, :, y_idx]
    s = singular_values(Ay)
    singular = s[:, -1] < 1e-12 * np.maximum(1.0, s[:, 0])
    if singular.any():
        raise TransversalityError(f"frame loses transversality "
                                  f"{_first_row(singular, points)}")
    inv, _ = inverse(Ay)
    U = np.zeros((len(A), A.shape[2], A.shape[1]))
    U[:, y_idx, :] = inv
    return FrameValues(points, A, dA, inv, U)


def _first_row(bad, points):
    """Where the first row of the frame-major mask bad lies."""
    frame, p = divmod(int(np.argmax(bad)), len(points))
    return f"at frame {frame}, lattice point {p} {points[p].tolist()}"


# ---------------------------------------------------------------------------
# sup-norm kernels on evaluated arrays


@dataclass
class SupEstimate:
    """A lattice sup, a lower bound of the region's sup, with its
    protocol."""

    value: float
    argmax_point: np.ndarray = None
    protocol: dict = field(default_factory=dict)


def _lattice_sups(vals, values, protocol):
    """Per frame segment of the per-row values on the rows of the
    FrameValues values, their max over its lattice with its point."""
    pts = values.points
    per_frame = np.reshape(vals, (values.frames, -1))
    return [SupEstimate(float(row[i]), pts[i], dict(protocol))
            for row, i in zip(per_frame, np.argmax(per_frame, axis=1))]


def _segment_max(vals, frames):
    """Max per frame segment over all its entries, 0.0 when empty."""
    return np.max(np.reshape(vals, (frames, -1)), axis=1, initial=0.0)


def _shape_error(n, r):
    return RangeError(f"no exact sup for n = {n} frame rows on rank r = {r}: "
                      f"supported are n = 1, r = 1 and n = r = 2")


def _d_restricted(dA, bases):
    """Per row, sup over unit u, v in span(bases) of |dA(u, v)|_l2, from
    the r x r antisymmetric matrices D2_j = B^T dA_j B: sigma_max(D2_0)
    for n == 1, and for r <= 2, where D2_j = a_j J, |a|_2.  Returns the
    values and how u was maximized."""
    D2 = congruence(bases, dA, bases)  # (R, n, r, r)
    n, r = D2.shape[1:3]
    if n == 1:
        return sigma_max(D2[:, 0]), "exact-svd"
    if r <= 2:
        return (np.linalg.norm(D2[:, :, 0, 1], axis=1) if r == 2
                else np.zeros(len(D2))), "exact-antisymmetric"
    raise _shape_error(n, r)


def _mixing(dA, U, bases, segment):
    """Per row, M_A's sup over unit w and unit v in span(bases); see
    involutivity_constant.  For n = r = 2 a row is exact only where it can
    hold the max of its frame segment of segment rows.  Returns the values
    and how u was maximized."""
    # C[p, j, l, a] = (A^{-1} e_l)^T dA_j (B e_a)
    C = congruence(U, dA, bases)
    n, r = C.shape[1], C.shape[3]
    if n == 1:
        return np.linalg.norm(C[:, 0, 0], axis=-1), "exact-svd"
    if r == 1:
        return sigma_max(C[..., 0]), "exact-svd"
    if n == r == 2:
        return (pencil_sigma_max(C[..., 0], C[..., 1], segment),
                "exact-angles")
    raise _shape_error(n, r)


def _mixing_sups(values, bases):
    vals, how = _mixing(values.dA, values.U, bases, len(values.points))
    return _lattice_sups(vals, values, {
        "points": len(values.points), "kind": "lower-bound",
        "w_maximization": "exact-svd", "u_maximization": how})


def bound_parts(values: FrameValues, bases):
    """Per evaluated frame, (sup ||dA|_E||, sup ||(A|_Y)^{-1}||, M_A): the
    factors of the asymptotic involutivity trace and the tangency bound.
    bases holds one (D, r) basis per row of values."""
    pts = values.points
    d_vals, how = _d_restricted(values.dA, bases)
    return list(zip(
        _lattice_sups(d_vals, values, {"points": len(pts),
                                       "kind": "lower-bound",
                                       "u_maximization": how}),
        _lattice_sups(values.inv_norms, values, {"points": len(pts)}),
        _mixing_sups(values, bases)))


def involutivity_constant(frame, dist_or_bases, points, *, n_dirs=None,
                          seed=None):
    """M_A = sup |dA_p((A_p|_Y)^{-1} w, v)| over unit w, unit v in E, p.

    The lattice sup of exact per-point values (see the module docstring),
    so a lower bound of the region's sup only through the lattice.  n_dirs
    and seed are ignored: they set the sphere sampler this replaced, and
    the cfbench workloads still pass them.
    """
    v = evaluate_frames([frame], points)
    bases = _as_bases(dist_or_bases, v.points, "dist_or_bases")
    return _mixing_sups(v, bases)[0]


def _as_bases(dist_or_bases, points, name):
    """The bases of a distribution at points, or given bases (N, D, r),
    one per point, with 1 <= r <= D for points of width D; name is the
    argument's, for the RangeError.  Orthonormality is not checked."""
    if isinstance(dist_or_bases, Distribution):
        return dist_or_bases.orthonormal_bases_at(points)
    b = np.asarray(dist_or_bases, dtype=float)
    width = points.shape[-1]
    if b.ndim != 3 or b.shape[1] != width or not 1 <= b.shape[2] <= width:
        raise RangeError(f"{name} must be bases of shape (N, {width}, r) "
                         f"with 1 <= r <= {width}, got {b.shape}")
    if b.shape[0] != len(points):
        raise RangeError(f"bases for {b.shape[0]} points given on a lattice "
                         f"of {len(points)} points")
    return b


# ---------------------------------------------------------------------------
# per-step traces


@dataclass
class TraceEntry:
    k: int
    q: float
    strong: float
    parts: dict = field(default_factory=dict)


def scaled_exp(prefactor, exponent):
    """prefactor * math.exp(exponent), the one e^x weight of every bound
    and trace: the tangency and pushforward bounds, both traces here and
    the splitting report's decay quantity.  inf (with the prefactor's
    sign) where the exponential overflows, and exactly 0.0 for a zero
    prefactor, where 0 * inf would be nan."""
    if prefactor == 0.0:
        return 0.0
    try:
        return prefactor * math.exp(exponent)
    except OverflowError:
        return prefactor * math.inf


def _frame_values(frames, pts):
    """frames as FrameValues on pts: evaluated here, or as given."""
    if not isinstance(frames, FrameValues):
        return evaluate_frames(frames, pts)
    if not np.array_equal(frames.points, pts):
        raise RangeError(f"frames evaluated on {len(frames.points)} points "
                         f"given for a lattice of {len(pts)} points")
    return frames


def asymptotic_involutivity_trace(frames, dists, eps, points):
    """Per-step quantities q_k = ||dA_k|_{E_k}|| ||A_k^{-1}|| e^{eps M_k}.

    Also returns the strong-form surrogate
    max_j |eta_1 ^ .. ^ eta_n ^ d eta_j|_inf * e^{eps max_i |d eta_i|_inf}.
    frames is a list of frames or their FrameValues on points; all steps
    are evaluated as one stack.
    """
    n_frames = frames.frames if isinstance(frames, FrameValues) \
        else len(frames)
    if n_frames != len(dists):
        raise RangeError(f"frame and distribution sequences must align, got "
                         f"{n_frames} frames and {len(dists)} distributions")
    if not n_frames:
        return []
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = _frame_values(frames, pts)
    bases = np.concatenate([_as_bases(d, pts, "dists") for d in dists])
    wedge_sups = _segment_max(stacked_wedge_norms(values.A, values.dA),
                              values.frames).tolist()
    out = []
    for k, (parts, wedge_sup, d_sup) in enumerate(zip(
            bound_parts(values, bases), wedge_sups, values.d_sups.tolist())):
        d_restr, inv_norm, m_const = (e.value for e in parts)
        q = scaled_exp(d_restr * inv_norm, eps * m_const)
        strong = scaled_exp(wedge_sup, eps * d_sup)
        out.append(TraceEntry(k, q, strong, {
            "d_restricted": d_restr, "inv_norm": inv_norm, "M": m_const,
            "wedge_sup": wedge_sup, "d_sup": d_sup, "eps": eps}))
    return out


def exterior_regularity_trace(frames, limit, eps, points, *, n_dirs=None,
                              seed=None):
    """Per-step quantities ||B_k|_E|| ||B_k^{-1}|| e^{eps M_k} against the
    limit distribution E, plus the strong surrogate
    max_j |beta^k_j - beta_j|_inf * e^{eps max_i |d beta^k_i|_inf} when a
    symbolic limit frame is available (limit given as a Distribution).
    frames is a list of frames or their FrameValues on points; all steps
    are evaluated as one stack.  n_dirs and seed are ignored, as in
    involutivity_constant."""
    if not isinstance(frames, FrameValues) and not frames:
        return []
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = _frame_values(frames, pts)
    K, N = values.frames, len(pts)
    bases = _as_bases(limit, pts, "limit")
    A = values.A.reshape((K, N) + values.A.shape[1:])
    restr = _segment_max(sigma_max(A @ bases), K).tolist()
    inv_norm = _segment_max(values.inv_norms, K).tolist()
    m_const = [e.value for e in
               _mixing_sups(values, np.concatenate([bases] * K))]
    row_sup = None
    if isinstance(limit, Distribution):
        diff = A - annihilator_frame(limit).matrix_at(pts)
        row_sup = _segment_max(np.linalg.norm(diff, axis=-1), K).tolist()
    out = []
    for k, (r, inv, m, d) in enumerate(zip(restr, inv_norm, m_const,
                                           values.d_sups.tolist())):
        strong = None if row_sup is None else scaled_exp(row_sup[k], eps * d)
        out.append(TraceEntry(k, scaled_exp(r * inv, eps * m), strong, {
            "restricted": r, "inv_norm": inv, "M": m, "d_sup": d,
            "eps": eps}))
    return out
