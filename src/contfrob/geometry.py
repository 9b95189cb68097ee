"""Distributions in graph form, annihilator frames, and sup-norm functionals.

A rank-m distribution on a box in R^{m+n} is spanned by
X_i = d/dx_i + sum_j a_ij d/dy_j; its annihilator frame has rows
eta_j = dy_j - sum_i a_ij dx_i.  On top of these the module computes the
quantities the integrability diagnostics are made of:

* the involutivity defect |eta_1 ^ ... ^ eta_n ^ d eta_j| per point,
* the restricted inverse (A|_Y)^{-1} and its spectral norm,
* the mixing constant  M_A = sup |dA(A^{-1} w, v)|  over unit w in R^n
  and unit v in the distribution, and
* the per-step traces combining them with e^{eps M} weights.

A sup over a region is approximated from below by a sup over a point
lattice, exact per point for each frame shape the toolkit builds (n rows,
r = dim E): ||dA|_E|| for n == 1 or r <= 2, M_A for n == 1, r == 1 or
n == r == 2 (the kernels below say how).  Other shapes raise RangeError.
For n == r == 2, M_A's per-point value is exact only at the points that
can hold the lattice sup; the others get a closed-form lower bound below
it, so the sup and its argmax are still those of exact values.

Cost model: frame_values holds the one transversality check.  It takes
K frames over one lattice of N points as K*N frame-major rows and makes
one batched SVD and one inverse of A|_Y for all of them.  evaluate_frames
fills those rows with each frame's matrix_at and d_matrices_at once, and
evaluate_frame is its K = 1 case; dynsys's Cocycle.pullback_values fills
them for a whole pullback family with one call of each on the base
frame.  The sup kernels compute per-row values over the whole stack in
one call each and reduce them per frame segment (the n == r == 2 M_A
root-finds only the rows whose upper bound reaches their segment's
largest lower bound, typically a handful), so a trace makes the
same number of library calls for K frames as for one, and a tangency
bound or a wrapper such as involutivity_constant evaluates its frame
exactly once.  matrix_at evaluates all entries of the rows in one
fields.eval_fields call, and d_matrices_at one per row of d(rows): one
compiled function each instead of a tree walk per entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxes import Box, GraphForm
from .errors import (DegenerateSubspaceError, RangeError,
                     TransversalityError)
from .fields import Const, ONE, ZERO, eval_fields, neg
from .forms import (exterior_derivative, one_form, stacked_wedge_norms,
                    two_form_matrix_norm, wedge, wedge_all)

__all__ = [
    "Distribution", "FrameSection", "SupEstimate", "annihilator_frame",
    "frobenius_defect", "FrameValues", "evaluate_frame", "evaluate_frames",
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
    _annihilator: "FrameSection" = field(default=None, init=False,
                                         repr=False, compare=False)

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


def orthonormalize(bases):
    """Per-point QR orthonormalization of (..., dim, r) basis stacks."""
    q, bad = signed_qr(bases)
    if np.any(bad):
        raise DegenerateSubspaceError("rank-deficient subspace basis")
    return q


def signed_qr(bases):
    """Q with the signs that make diag(R) positive, and a mask (...,) of
    the rank-deficient bases (some |R_ii| < 1e-12)."""
    q, r = np.linalg.qr(bases)
    diag = np.einsum("...ii->...i", r)
    return (q * np.sign(diag)[..., None, :],
            np.any(np.abs(diag) < 1e-12, axis=-1))


def max_principal_angle(b1, b2):
    """Largest principal angle between equal-rank orthonormal bases."""
    s = np.linalg.svd(np.swapaxes(b1, -1, -2) @ b2, compute_uv=False)
    return np.arccos(np.clip(np.min(s, axis=-1), -1.0, 1.0))


def subspace_distance(b1, b2):
    """sin of the largest principal angle (projector gap, 2-norm).

    Unlike the arccos form this stays accurate down to rounding for
    nearly identical subspaces.
    """
    p1 = b1 @ np.swapaxes(b1, -1, -2)
    p2 = b2 @ np.swapaxes(b2, -1, -2)
    return np.linalg.svd(p1 - p2, compute_uv=False)[..., 0]


@dataclass
class FrameSection:
    """n one-forms whose common kernel is the intended distribution."""

    rows: tuple  # KForm degree 1
    coords: tuple
    y_names: tuple
    _d_rows: tuple = field(default=None, init=False, repr=False,
                           compare=False)

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

    def d_rows(self):
        if self._d_rows is None:
            self._d_rows = tuple(exterior_derivative(r) for r in self.rows)
        return self._d_rows

    def matrix_at(self, points):
        """(N, n, dim) component matrices of the rows."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return eval_fields([[row.comps.get((i,), ZERO) for i in
                             range(self.dim)] for row in self.rows],
                           self.coords, pts)

    def d_matrices_at(self, points):
        """(N, n, dim, dim) antisymmetric matrices of d(rows)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(pts), self.n, self.dim, self.dim))
        for r, dr in enumerate(self.d_rows()):
            out[:, r] = dr.two_form_matrices_at(pts)
        return out

    def scale(self, c):
        return FrameSection(tuple(r.scale(c) for r in self.rows),
                            self.coords, self.y_names)


def annihilator_frame(dist: Distribution) -> FrameSection:
    """Rows eta_j = dy_j - sum_i a_ij dx_i; kills X_i by cancellation.
    Built once per distribution, so a check that asks for it on every
    call reuses its fields, their compiled functions and its d_rows."""
    if dist._annihilator is None:
        rows = []
        for j, y in enumerate(dist.y_names):
            comps = {y: Const(1.0)}
            for i, x in enumerate(dist.x_names):
                comps[x] = neg(dist.coeffs[i][j])
            rows.append(one_form(dist.coords, comps))
        dist._annihilator = FrameSection(tuple(rows), dist.coords,
                                         dist.y_names)
    return dist._annihilator


def frobenius_defect(frame, points):
    """max_j |eta_1 ^ ... ^ eta_n ^ d eta_j| at each point (l2 norm)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    base = wedge_all(list(frame.rows))
    out = np.zeros(len(pts))
    for dr in frame.d_rows():
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
        return len(self.A) // len(self.points)

    @cached_property
    def inv_norms(self):
        """(K*N,) ||(A|_Y)^{-1}||, computed once for every trace."""
        return _sigma_max(self.inv)

    @cached_property
    def d_norms(self):
        """(K*N, n) |d eta_i|, computed once for every trace."""
        return two_form_matrix_norm(self.dA)


def evaluate_frame(frame, points) -> FrameValues:
    """evaluate_frames of the one frame."""
    return evaluate_frames([frame], points)


def evaluate_frames(frames, points) -> FrameValues:
    """The frames on one lattice as one FrameValues: each frame's
    matrix_at and d_matrices_at once, stacked frame-major, then
    frame_values.  The frames must share their rows, coordinates and
    vertical axes."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    shapes = {(f.n, tuple(f.coords), tuple(f.y_indices)) for f in frames}
    if len(shapes) != 1:
        raise RangeError(f"frames stacked on one lattice must share rows, "
                         f"coordinates and vertical axes, got {shapes}")
    A = np.concatenate([f.matrix_at(pts) for f in frames])
    dA = np.concatenate([f.d_matrices_at(pts) for f in frames])
    return frame_values(pts, A, dA, frames[0].y_indices)


def frame_values(points, A, dA, y_indices) -> FrameValues:
    """FrameValues of the K*N frame-major rows A (n, D) and dA (n, D, D)
    on the N points, with the one transversality check:
    TransversalityError where some A_p|_Y is singular."""
    y_idx = list(y_indices)
    Ay = A[:, :, y_idx]
    s = np.linalg.svd(Ay, compute_uv=False)
    if np.any(s[:, -1] < 1e-12 * np.maximum(1.0, s[:, 0])):
        raise TransversalityError("frame loses transversality on the lattice")
    inv = np.linalg.inv(Ay)
    U = np.zeros((len(A), A.shape[2], A.shape[1]))
    U[:, y_idx, :] = inv
    return FrameValues(points, A, dA, inv, U)


# ---------------------------------------------------------------------------
# sup-norm kernels on evaluated arrays


@dataclass
class SupEstimate:
    """A lattice sup, a lower bound of the region's sup, with its
    protocol."""

    value: float
    argmax_point: np.ndarray = None
    protocol: dict = field(default_factory=dict)


def _sigma_max(stack):
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _lattice_sups(vals, pts, protocol):
    """Per frame segment of the frame-major per-row values, their max
    over the lattice pts with its point."""
    per_frame = np.reshape(vals, (-1, len(pts)))
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
    D2 = np.einsum("pda,pjde,peb->pjab", bases, dA, bases)  # (R,n,r,r)
    n, r = D2.shape[1:3]
    if n == 1:
        return _sigma_max(D2[:, 0]), "exact-svd"
    if r <= 2:
        return (np.linalg.norm(D2[:, :, 0, 1], axis=1) if r == 2
                else np.zeros(len(D2))), "exact-antisymmetric"
    raise _shape_error(n, r)


def _polymul(a, b):
    """Row-wise product of coefficient rows."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _root_real_parts(coeffs):
    """Real parts of the roots of each row of coeffs (lowest degree
    first), padded with 0.  Coefficients below 1e-14 of their row's
    largest are dropped; one batched companion-matrix eigvals serves the
    rows of full degree, np.roots the others."""
    c = coeffs[:, ::-1].copy()
    c[np.abs(c) <= 1e-14 * np.max(np.abs(c), axis=1, keepdims=True)] = 0.0
    out = np.zeros((len(c), c.shape[1] - 1))
    full = c[:, 0] != 0.0
    comp = np.tile(np.eye(c.shape[1] - 1, k=-1), (int(np.sum(full)), 1, 1))
    comp[:, 0] = -c[full, 1:] / c[full, :1]
    out[full] = np.linalg.eigvals(comp).real
    for p in np.flatnonzero(~full):
        roots = np.roots(c[p]).real
        out[p, :len(roots)] = roots
    return out


def _pencil_norms(pairs, theta):
    """sqrt(P) + sqrt(Q) at each angle of theta, (R, S) for R rows."""
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    return sum(np.linalg.norm(cos * w0[:, None] + sin * w1[:, None], axis=-1)
               for w0, w1 in pairs)


def _two_by_two_sup(C0, C1, segment=None):
    """Per point, max over theta of sigma_max(cos(theta) C0 + sin(theta) C1)
    for (N, 2, 2) stacks, exact on every row that can hold the max of its
    segment (consecutive runs of segment rows, by default all N).

    sigma_max([[a, b], [c, d]]) = (|(a + d, b - c)| + |(a - d, b + c)|) / 2
    = (sqrt(P) + sqrt(Q)) / 2, with P and Q quadratic forms in (cos, sin).
    Smooth maxima solve P'^2 Q = Q'^2 P, a degree-6 polynomial in
    tan(theta).  Where it vanishes identically, sqrt(P) +- sqrt(Q) is
    constant and the max lies at a critical point of P or Q.  Kinks are
    never maxima, so theta = 0, pi/2, the roots and those critical points
    hold the max; any angle gives a lower bound.

    The six closed-form angles give a lower bound per row, and the square
    roots of the largest eigenvalues of P's and Q's matrices an upper one.
    Only rows whose upper bound reaches their segment's largest lower
    bound (with a 1e-12 margin for rounding) go on to the roots; every
    other row lies strictly below its segment's max and returns its lower
    bound.  Each segment's max and first argmax are thus those of exact
    per-row values, bit for bit.
    """
    w = [np.stack([K[:, 0, 0] + s * K[:, 1, 1], K[:, 0, 1] - s * K[:, 1, 0]],
                  -1) for s in (1.0, -1.0) for K in (C0, C1)]
    pairs = (w[:2], w[2:])  # sqrt(P) = |cos w0 + sin w1|, likewise sqrt(Q)
    theta = [np.zeros(len(C0)), np.full(len(C0), 0.5 * np.pi)]
    polys, upper = [], 0.0
    for w0, w1 in pairs:
        # |cos w0 + sin w1|^2 = A cos^2 + 2 B cos sin + C sin^2; over
        # cos^2, it and half its derivative are polynomials in tan(theta)
        A, B, C = (np.sum(x * y, -1)
                   for x, y in ((w0, w0), (w0, w1), (w1, w1)))
        crit = 0.5 * np.arctan2(2.0 * B, A - C)
        theta += [crit, crit + 0.5 * np.pi]
        polys += [np.stack([A, 2.0 * B, C], -1), np.stack([B, C - A, -B], -1)]
        upper = upper + np.sqrt(0.5 * (A + C) + np.hypot(0.5 * (A - C), B))
    sig = np.max(_pencil_norms(pairs, np.stack(theta, -1)), axis=1)
    lower = sig.reshape(-1, segment or len(sig))
    # ~(upper < lower) rather than upper >= lower: a nan bound is exact too
    exact = ~(upper.reshape(lower.shape) * (1.0 + 1e-12)
              < np.max(lower, axis=1, keepdims=True)).ravel()
    if np.any(exact):
        p, dp, q, dq = (c[exact] for c in polys)
        g = _polymul(_polymul(dp, dp), q) - _polymul(_polymul(dq, dq), p)
        roots = _pencil_norms([(w0[exact], w1[exact]) for w0, w1 in pairs],
                              np.arctan(_root_real_parts(g)))
        sig[exact] = np.maximum(sig[exact], np.max(roots, axis=1))
    return 0.5 * sig


def _mixing(dA, U, bases, segment):
    """Per row, M_A's sup over unit w and unit v in span(bases); see
    involutivity_constant.  For n = r = 2 a row is exact only where it can
    hold the max of its frame segment of segment rows.  Returns the values
    and how u was maximized."""
    # C[p, j, l, a] = (A^{-1} e_l)^T dA_j (B e_a)
    C = np.einsum("pcl,pjcd,pda->pjla", U, dA, bases)
    n, r = C.shape[1], C.shape[3]
    if n == 1:
        return np.linalg.norm(C[:, 0, 0], axis=-1), "exact-svd"
    if r == 1:
        return _sigma_max(C[..., 0]), "exact-svd"
    if n == r == 2:
        return (_two_by_two_sup(C[..., 0], C[..., 1], segment),
                "exact-angles")
    raise _shape_error(n, r)


def _mixing_sups(values, bases):
    vals, how = _mixing(values.dA, values.U, bases, len(values.points))
    return _lattice_sups(vals, values.points, {
        "points": len(values.points), "kind": "lower-bound",
        "w_maximization": "exact-svd", "u_maximization": how})


def _d_sups(values):
    """Per frame, max_{p, i} |d eta_i|_p."""
    return _segment_max(values.d_norms, values.frames)


def bound_parts(values: FrameValues, bases):
    """Per evaluated frame, (sup ||dA|_E||, sup ||(A|_Y)^{-1}||, M_A): the
    factors of the asymptotic involutivity trace and the tangency bound.
    bases holds one (D, r) basis per row of values."""
    pts = values.points
    d_vals, how = _d_restricted(values.dA, bases)
    return list(zip(
        _lattice_sups(d_vals, pts, {"points": len(pts), "kind": "lower-bound",
                                    "u_maximization": how}),
        _lattice_sups(values.inv_norms, pts, {"points": len(pts)}),
        _mixing_sups(values, bases)))


def involutivity_constant(frame, dist_or_bases, points, *, n_dirs=None,
                          seed=None):
    """M_A = sup |dA_p((A_p|_Y)^{-1} w, v)| over unit w, unit v in E, p.

    The lattice sup of exact per-point values (see the module docstring),
    so a lower bound of the region's sup only through the lattice.  n_dirs
    and seed are ignored: they set the sphere sampler this replaced, and
    the cfbench workloads still pass them.
    """
    v = evaluate_frame(frame, points)
    return _mixing_sups(v, _as_bases(dist_or_bases, v.points))[0]


def _as_bases(dist_or_bases, points):
    if isinstance(dist_or_bases, Distribution):
        return dist_or_bases.orthonormal_bases_at(points)
    b = np.asarray(dist_or_bases, dtype=float)
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


def _weighted(prefactor, eps, exponent):
    """prefactor * e^{eps * exponent}, and exactly 0.0 for a zero prefactor:
    the exponential may overflow to inf, silently as in scaled_exp, and
    0 * inf is nan."""
    if prefactor == 0.0:
        return 0.0
    with np.errstate(over="ignore"):
        return prefactor * float(np.exp(eps * exponent))


def scaled_exp(prefactor, exponent):
    """prefactor * math.exp(exponent) for the scalar bounds of surface.py
    and dynsys.py: inf (with the prefactor's sign) where the exponential
    overflows, and exactly 0.0 for a zero prefactor.  It keeps math.exp,
    whose last bit can differ from the np.exp of _weighted."""
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
    bases = np.concatenate([_as_bases(d, pts) for d in dists])
    wedge_sups = _segment_max(stacked_wedge_norms(values.A, values.dA),
                              values.frames)
    out = []
    for k, (parts, wedge_sup, d_sup) in enumerate(zip(
            bound_parts(values, bases), wedge_sups, _d_sups(values))):
        d_restr, inv_norm, m_const = (e.value for e in parts)
        q = _weighted(d_restr * inv_norm, eps, m_const)
        wedge_sup, d_sup = float(wedge_sup), float(d_sup)
        strong = _weighted(wedge_sup, eps, d_sup)
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
    bases = _as_bases(limit, pts)
    A = values.A.reshape((K, N) + values.A.shape[1:])
    restr = _segment_max(_sigma_max(A @ bases), K)
    inv_norm = _segment_max(values.inv_norms, K)
    m_const = _mixing_sups(values, np.concatenate([bases] * K))
    d_sup = _d_sups(values)
    row_sup = None
    if isinstance(limit, Distribution):
        diff = A - annihilator_frame(limit).matrix_at(pts)
        row_sup = _segment_max(np.linalg.norm(diff, axis=-1), K)
    out = []
    for k in range(K):
        q = _weighted(float(restr[k]) * float(inv_norm[k]), eps,
                      m_const[k].value)
        strong = None if row_sup is None else \
            _weighted(float(row_sup[k]), eps, float(d_sup[k]))
        out.append(TraceEntry(k, q, strong, {
            "restricted": float(restr[k]), "inv_norm": float(inv_norm[k]),
            "M": m_const[k].value, "d_sup": float(d_sup[k]), "eps": eps}))
    return out
