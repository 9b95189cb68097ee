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

Cost model: evaluate_frame is the one place a frame meets a point set
and the one transversality check.  It calls matrix_at once and
d_matrices_at once, and takes one batched SVD and inverse of A|_Y.  The
sup kernels read those arrays, so a trace step, a tangency bound or a
wrapper such as involutivity_constant evaluates its frame exactly once.
matrix_at evaluates all entries of the rows in one fields.eval_fields
call, and d_matrices_at one per row of d(rows): one compiled function
each instead of a tree walk per entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Box
from .errors import (DegenerateSubspaceError, RangeError,
                     TransversalityError)
from .fields import Const, ONE, ZERO, eval_fields, neg
from .forms import (exterior_derivative, one_form, stacked_wedge_norms,
                    two_form_matrix_norm, wedge, wedge_all)

__all__ = [
    "Distribution", "FrameSection", "SupEstimate", "annihilator_frame",
    "frobenius_defect", "FrameValues", "evaluate_frame", "bound_parts",
    "involutivity_constant",
    "asymptotic_involutivity_trace", "exterior_regularity_trace",
    "orthonormalize", "max_principal_angle",
    "TraceEntry",
]


@dataclass
class Distribution:
    """Rank-m tangent distribution in graph form over a coordinate box."""

    x_names: tuple
    y_names: tuple
    coeffs: list  # coeffs[i][j]: coefficient of d/dy_j in X_i
    domain: Box
    _annihilator: "FrameSection" = field(default=None, repr=False)

    def __post_init__(self):
        self.x_names = tuple(self.x_names)
        self.y_names = tuple(self.y_names)
        if len(self.coeffs) != self.m or \
                any(len(row) != self.n for row in self.coeffs):
            raise RangeError(f"distribution needs {self.m} rows of {self.n} "
                             f"coefficients, got rows of "
                             f"{[len(row) for row in self.coeffs]}")
        self.domain.require_names(self.coords, "distribution")

    @property
    def m(self):
        return len(self.x_names)

    @property
    def n(self):
        return len(self.y_names)

    @property
    def coords(self):
        return self.x_names + self.y_names

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
    """Per-point QR orthonormalization of (N, dim, r) basis stacks."""
    q, r = np.linalg.qr(bases)
    diag = np.einsum("...ii->...i", r)
    if np.any(np.abs(diag) < 1e-12):
        raise DegenerateSubspaceError("rank-deficient subspace basis")
    return q * np.sign(diag)[..., None, :]


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
    domain: Box = None
    _d_rows: tuple = field(default=None, repr=False)

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
                            self.coords, self.y_names, self.domain)


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
                                         dist.y_names, dist.domain)
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
# one frame evaluated on a point set


@dataclass
class FrameValues:
    """A frame evaluated once on a point set: everything the sups read."""

    points: np.ndarray  # (N, D)
    A: np.ndarray  # (N, n, D) row matrices
    dA: np.ndarray  # (N, n, D, D) antisymmetric matrices of d(rows)
    inv: np.ndarray  # (N, n, n) (A|_Y)^{-1}
    U: np.ndarray  # (N, D, n) (A|_Y)^{-1} embedded in R^D


def evaluate_frame(frame, points) -> FrameValues:
    """One matrix_at, one d_matrices_at and the transversality check:
    TransversalityError where some A_p|_Y is singular."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    A = frame.matrix_at(pts)
    y_idx = list(frame.y_indices)
    Ay = A[:, :, y_idx]
    s = np.linalg.svd(Ay, compute_uv=False)
    if np.any(s[:, -1] < 1e-12 * np.maximum(1.0, s[:, 0])):
        raise TransversalityError("frame loses transversality on the lattice")
    inv = np.linalg.inv(Ay)
    U = np.zeros((len(pts), A.shape[2], frame.n))
    U[:, y_idx, :] = inv
    return FrameValues(pts, A, frame.d_matrices_at(pts), inv, U)


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


def _lattice_sup(vals, pts, protocol):
    """Max of per-point values over the lattice, with its point."""
    i = int(np.argmax(vals))
    return SupEstimate(float(vals[i]), pts[i], protocol)


def _shape_error(n, r):
    return RangeError(f"no exact sup for n = {n} frame rows on rank r = {r}: "
                      f"supported are n = 1, r = 1 and n = r = 2")


def _d_restricted_sup(dA, bases, pts):
    """sup over p and unit u, v in span(bases_p) of |dA_p(u, v)|_l2, from
    the r x r antisymmetric matrices D2_j = B^T dA_j B: sigma_max(D2_0)
    for n == 1, and for r <= 2, where D2_j = a_j J, |a|_2."""
    D2 = np.einsum("pda,pjde,peb->pjab", bases, dA, bases)  # (N,n,r,r)
    n, r = D2.shape[1:3]
    if n == 1:
        vals, how = _sigma_max(D2[:, 0]), "exact-svd"
    elif r <= 2:
        vals = np.linalg.norm(D2[:, :, 0, 1], axis=1) if r == 2 \
            else np.zeros(len(pts))
        how = "exact-antisymmetric"
    else:
        raise _shape_error(n, r)
    return _lattice_sup(vals, pts, {"points": len(pts), "kind": "lower-bound",
                                    "u_maximization": how})


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


def _two_by_two_sup(C0, C1):
    """Per point, max over theta of sigma_max(cos(theta) C0 + sin(theta) C1)
    for (N, 2, 2) stacks.

    sigma_max([[a, b], [c, d]]) = (|(a + d, b - c)| + |(a - d, b + c)|) / 2
    = (sqrt(P) + sqrt(Q)) / 2, with P and Q quadratic forms in (cos, sin).
    Smooth maxima solve P'^2 Q = Q'^2 P, a degree-6 polynomial in
    tan(theta).  Where it vanishes identically, sqrt(P) +- sqrt(Q) is
    constant and the max lies at a critical point of P or Q.  Kinks are
    never maxima, so theta = 0, pi/2, the roots and those critical points
    hold the max; any angle gives a lower bound.
    """
    w = [np.stack([K[:, 0, 0] + s * K[:, 1, 1], K[:, 0, 1] - s * K[:, 1, 0]],
                  -1) for s in (1.0, -1.0) for K in (C0, C1)]
    pairs = (w[:2], w[2:])  # sqrt(P) = |cos w0 + sin w1|, likewise sqrt(Q)
    theta = [np.zeros(len(C0)), np.full(len(C0), 0.5 * np.pi)]
    polys = []
    for w0, w1 in pairs:
        # |cos w0 + sin w1|^2 = A cos^2 + 2 B cos sin + C sin^2; over
        # cos^2, it and half its derivative are polynomials in tan(theta)
        A, B, C = (np.sum(x * y, -1)
                   for x, y in ((w0, w0), (w0, w1), (w1, w1)))
        crit = 0.5 * np.arctan2(2.0 * B, A - C)
        theta += [crit, crit + 0.5 * np.pi]
        polys += [np.stack([A, 2.0 * B, C], -1), np.stack([B, C - A, -B], -1)]
    p, dp, q, dq = polys
    g = _polymul(_polymul(dp, dp), q) - _polymul(_polymul(dq, dq), p)
    theta = np.concatenate([np.stack(theta, -1),
                            np.arctan(_root_real_parts(g))], axis=1)
    cos, sin = np.cos(theta)[..., None], np.sin(theta)[..., None]
    sig = sum(np.linalg.norm(cos * w0[:, None] + sin * w1[:, None], axis=-1)
              for w0, w1 in pairs)
    return 0.5 * np.max(sig, axis=1)


def _mixing_sup(dA, U, bases, pts):
    """M_A from evaluated arrays; see involutivity_constant."""
    # C[p, j, l, a] = (A^{-1} e_l)^T dA_j (B e_a)
    C = np.einsum("pcl,pjcd,pda->pjla", U, dA, bases)
    n, r = C.shape[1], C.shape[3]
    if n == 1:
        vals, how = np.linalg.norm(C[:, 0, 0], axis=-1), "exact-svd"
    elif r == 1:
        vals, how = _sigma_max(C[..., 0]), "exact-svd"
    elif n == r == 2:
        vals, how = _two_by_two_sup(C[..., 0], C[..., 1]), "exact-angles"
    else:
        raise _shape_error(n, r)
    return _lattice_sup(vals, pts, {
        "points": len(pts), "kind": "lower-bound",
        "w_maximization": "exact-svd", "u_maximization": how})


def _d_sup(dA):
    """max_{p, i} |d eta_i|_p."""
    return float(np.max(two_form_matrix_norm(dA))) if dA.size else 0.0


def bound_parts(values: FrameValues, bases):
    """(sup ||dA|_E||, sup ||(A|_Y)^{-1}||, M_A) of one evaluated frame: the
    factors of the asymptotic involutivity trace and the tangency bound."""
    pts, dA = values.points, values.dA
    return (_d_restricted_sup(dA, bases, pts),
            _lattice_sup(_sigma_max(values.inv), pts, {"points": len(pts)}),
            _mixing_sup(dA, values.U, bases, pts))


def involutivity_constant(frame, dist_or_bases, points, *, n_dirs=None,
                          seed=None):
    """M_A = sup |dA_p((A_p|_Y)^{-1} w, v)| over unit w, unit v in E, p.

    Exact per lattice point (see the module docstring), so a lower bound
    of the region's sup only through the lattice.  n_dirs and seed are
    ignored: they set the sphere sampler this replaced, and the cfbench
    workloads still pass them.
    """
    v = evaluate_frame(frame, points)
    return _mixing_sup(v.dA, v.U, _as_bases(dist_or_bases, v.points),
                       v.points)


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
    the exponential may overflow to inf, and 0 * inf is nan."""
    if prefactor == 0.0:
        return 0.0
    return prefactor * float(np.exp(eps * exponent))


def asymptotic_involutivity_trace(frames, dists, eps, points):
    """Per-step quantities q_k = ||dA_k|_{E_k}|| ||A_k^{-1}|| e^{eps M_k}.

    Also returns the strong-form surrogate
    max_j |eta_1 ^ .. ^ eta_n ^ d eta_j|_inf * e^{eps max_i |d eta_i|_inf}.
    """
    if len(frames) != len(dists):
        raise ValueError("frame and distribution sequences must align")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = []
    for k, (frame, dist) in enumerate(zip(frames, dists)):
        v = evaluate_frame(frame, pts)
        d_restr, inv_norm, m_const = (e.value for e in bound_parts(
            v, _as_bases(dist, pts)))
        q = _weighted(d_restr * inv_norm, eps, m_const)
        wedge_sup = float(np.max(stacked_wedge_norms(v.A, v.dA), initial=0.0))
        d_sup = _d_sup(v.dA)
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
    n_dirs and seed are ignored, as in involutivity_constant."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    bases = _as_bases(limit, pts)
    limit_frame = annihilator_frame(limit) if isinstance(limit, Distribution) \
        else None
    limit_matrix = limit_frame.matrix_at(pts) if limit_frame else None
    out = []
    for k, frame in enumerate(frames):
        v = evaluate_frame(frame, pts)
        restr = float(np.max(_sigma_max(v.A @ bases)))
        inv_norm = float(np.max(_sigma_max(v.inv)))
        m_const = _mixing_sup(v.dA, v.U, bases, pts).value
        q = _weighted(restr * inv_norm, eps, m_const)
        d_sup = _d_sup(v.dA)
        strong = None
        if limit_matrix is not None:
            diff = v.A - limit_matrix
            row_sup = float(np.max(np.linalg.norm(diff, axis=2)))
            strong = _weighted(row_sup, eps, d_sup)
        out.append(TraceEntry(k, q, strong, {
            "restricted": restr, "inv_norm": inv_norm, "M": m_const,
            "d_sup": d_sup, "eps": eps}))
    return out
