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
K frames over one lattice of N points as K*N frame-major rows and computes
the singular values and the inverse of A|_Y for all of them at once (for
one row, A|_Y = [[a]], |a| (see _abs_1x1) and 1 / a).  The singular values
and QR factors of stacks of tiny matrices are closed forms over the whole
stack, not one LAPACK call per matrix (see "stacked kernels" below):
|a| of a 1 x 1, with LAPACK's bits; a column's norm for d x 1 and 1 x d;
sigma_max = (|(a + d, c - b)| + |(a - d, b + c)|) / 2 and
sigma_min = |ad - bc| / sigma_max for 2 x 2; Gram-Schmidt with one
re-orthogonalisation pass for d x 2, which gives signed_qr's Q and the
2 x 2 R whose values are the stack's.  Each value is within 2^-49
sigma_max of the exact one, and a 2 x 2 sigma_min within 2^-44 relative
where |ad - bc| >= 2^-8 (|ad| + |bc|).  LAPACK takes larger shapes, every
matrix with a non-finite entry or a largest |entry| outside
[2^-459, 2^459], each 2 x 2 sigma_min whose determinant cancels, and the
inverse of a 2 x 2 or larger A|_Y.  evaluate_frames
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


# ---------------------------------------------------------------------------
# stacked kernels for tiny matrices
#
# np.linalg's QR and SVD pay a fixed cost per matrix, which is most of the
# time on the stacks of 3 x 2, 3 x 1, 1 x 2 and 2 x 2 matrices that the
# sweeps and sups make.  Matrices of d x 1, 1 x d, 2 x 2 and d x 2 take
# closed forms over the whole stack instead, with the forward-error bounds
# below (u = 2^-53); other shapes take LAPACK, and so does every matrix
# outside _UNSCALED.  The closed forms read the stack entry-major, as one
# (m, n, ...) array, so each elementwise pass covers the whole stack:
# numpy pays per inner loop, and a loop over a short matrix axis would
# cost more than the arithmetic.

# LAPACK's SVD rescales a matrix whose largest |entry| lies outside
# [sqrt(tiny) / eps, eps / sqrt(tiny)], [2^-459, 2^459] for doubles, which
# moves the last bit of some 1 x 1 results; inside, that of [[a]] is |a|.
# Inside it, the squares and products the closed forms take of a matrix's
# largest entries neither overflow nor leave the normal range.
_UNSCALED = (2.0 ** -459, 2.0 ** 459)
# every singular value of a closed form is within _SIGMA_REL * sigma_max
# of the exact one, so sigma_max is within _SIGMA_REL relative
_SIGMA_REL = 2.0 ** -49
# a 2 x 2 sigma_min = |ad - bc| / sigma_max is within _SIGMA_MIN_REL
# relative where |ad - bc| >= _CANCEL (|ad| + |bc|) and stays normal
# (>= _DET_TINY); LAPACK takes the other matrices
_SIGMA_MIN_REL = 2.0 ** -44
_CANCEL = 2.0 ** -8
_DET_TINY = 2.0 ** -1000
# signed_qr's rank threshold on |R_ii|
_RANK_TOL = 1e-12


def _entry_major(stack):
    """The (..., m, n) stack as one contiguous (m, n, ...) array."""
    return np.ascontiguousarray(np.moveaxis(stack, (-2, -1), (0, 1)))


def _in_range(E, columns=False):
    """Mask (...,) of the matrices of the entry-major stack E that the
    closed forms take: finite, with the largest |entry| in _UNSCALED or 0
    (np.maximum keeps a nan).  With columns, the largest |entry| of each
    column, as _gram_schmidt needs: a column of tiny entries beside a
    large one has a squared norm below the normal range, which costs its
    q and r bits."""
    big = np.abs(E)
    big = np.maximum.reduce(big if columns else
                            big.reshape((-1,) + E.shape[2:]))
    ok = (big <= _UNSCALED[1]) & ((big >= _UNSCALED[0]) | (big == 0.0))
    return np.logical_and.reduce(ok) if columns else ok


def _by_rows(ok, stack, E, kernel, lapack):
    """The tuple kernel(E) gives on the matrices where ok holds and
    lapack(stack) on the others, merged matrix by matrix."""
    if ok.all():
        return kernel(E)
    if not ok.any():
        return lapack(stack)
    out = []
    for k, f in zip(kernel(E[:, :, ok]), lapack(stack[~ok])):
        merged = np.empty(ok.shape + k.shape[1:], np.result_type(k, f))
        merged[ok], merged[~ok] = k, f
        out.append(merged)
    return tuple(out)


def _dot(u, v):
    """Column dot products over the leading (entry) axis, in order."""
    return np.add.reduce(u * v)


def _normalized(v):
    """The columns v / |v| (v itself where |v| is 0), and |v|."""
    norm = np.sqrt(_dot(v, v))
    return v / np.where(norm > 0.0, norm, 1.0), norm


def _gram_schmidt(E):
    """Thin QR of the entry-major stack E (d, c, ...), c <= 2, by
    Gram-Schmidt with one re-orthogonalisation pass: the columns of Q,
    diag(R) >= 0 and R_12 (None for c = 1).  Q R = a within a few u |a|,
    and Q^T Q = I within a few u where diag(R) is well away from 0."""
    q, r11 = _normalized(E[:, 0])
    if E.shape[1] == 1:
        return [q], r11[..., None], None
    v, r12 = E[:, 1], 0.0
    for _ in range(2):
        c = _dot(q, v)
        v = v - c * q
        r12 = r12 + c
    q2, r22 = _normalized(v)
    return [q, q2], np.stack([r11, r22], -1), r12


def _lapack_signed_qr(bases):
    q, r = np.linalg.qr(bases)
    diag = np.einsum("...ii->...i", r)
    return (q * np.sign(diag)[..., None, :],
            np.any(np.abs(diag) < _RANK_TOL, axis=-1))


def _signed_gram_schmidt(E):
    cols, diag, _ = _gram_schmidt(E)
    Q = np.empty(E.shape[2:] + E.shape[:2])
    for j, col in enumerate(cols):
        for i, entry in enumerate(col):
            Q[..., i, j] = entry
    return Q, np.any(diag < _RANK_TOL, axis=-1)


def signed_qr(bases):
    """Q with the signs that make diag(R) positive, and a mask (...,) of
    the rank-deficient bases (some |R_ii| < 1e-12).  d x 1 and d x 2
    bases take _gram_schmidt where _in_range holds, and LAPACK's QR
    elsewhere; a zero or degenerate column sets the mask, and Q is then
    unspecified there."""
    if bases.shape[-1] > 2 or bases.shape[-2] < bases.shape[-1]:
        return _lapack_signed_qr(bases)
    E = _entry_major(bases)
    return _by_rows(_in_range(E, columns=True), bases, E,
                    _signed_gram_schmidt, _lapack_signed_qr)


def _abs_1x1(stack):
    """The singular values (..., 1) of a stack of 1 x 1 matrices as |a|
    when every entry lies in _UNSCALED, where they are LAPACK's bits;
    None for other entries (nan, inf, 0 among them), which LAPACK
    takes."""
    s = np.abs(stack[..., 0])
    return s if np.all((s >= _UNSCALED[0]) & (s <= _UNSCALED[1])) else None


def _two_by_two(a, b, c, d, smallest):
    """(sigma_max, sigma_min) of [[a, b], [c, d]] entrywise, stacked on the
    last axis; sigma_max alone unless smallest."""
    s_max = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    if not smallest:
        return s_max[..., None]
    det = np.abs(a * d - b * c)
    s_min = det / np.where(s_max > 0.0, s_max, 1.0)
    return np.stack([s_max, s_min], -1)


def _min_resolved(E):
    """Mask of the 2 x 2 matrices of the entry-major stack E whose
    closed-form sigma_min meets _SIGMA_MIN_REL: |ad - bc| >=
    max(_CANCEL (|ad| + |bc|), _DET_TINY), or ad and bc both exactly 0."""
    (a, b), (c, d) = E
    with np.errstate(all="ignore"):  # matrices outside _UNSCALED
        det = np.abs(a * d - b * c)
        return ((det >= np.maximum(_CANCEL * (np.abs(a * d) + np.abs(b * c)),
                                   _DET_TINY))
                | (((a == 0.0) | (d == 0.0)) & ((b == 0.0) | (c == 0.0))))


def _closed_svals(E, smallest):
    """Singular values of the entry-major stack E (m, n, ...) with
    n <= 2 <= m or m = n = 2: a column's norm, the 2 x 2 closed form, or
    that of the R of a d x 2 stack's _gram_schmidt."""
    m, n = E.shape[:2]
    if n == 1:
        return (np.sqrt(_dot(E[:, 0], E[:, 0]))[..., None],)
    if m == 2:
        (a, b), (c, d) = E
        return (_two_by_two(a, b, c, d, smallest),)
    _, diag, r12 = _gram_schmidt(E)
    return (_two_by_two(diag[..., 0], r12, 0.0, diag[..., 1], smallest),)


def _singular_values(stack, smallest=True):
    """np.linalg.svd(stack, compute_uv=False) of a stack of matrices by
    the closed forms within their bounds (see _SIGMA_REL): all values,
    descending, or only the largest ((..., 1)) unless smallest.  1 x 1
    stacks keep _abs_1x1 and LAPACK's bits; LAPACK takes the matrices
    that are outside _in_range, larger than d x 2 or 2 x d, or 2 x 2 but
    not _min_resolved where sigma_min is asked for."""
    def lapack(s):
        vals = np.linalg.svd(s, compute_uv=False)
        return (vals if smallest else vals[..., :1],)

    if stack.shape[-2:] == (1, 1):
        s = _abs_1x1(stack)
        return lapack(stack)[0] if s is None else s
    if min(stack.shape[-2:]) > 2:
        return lapack(stack)[0]
    E = _entry_major(stack)
    if E.shape[0] < E.shape[1]:
        E = E.swapaxes(0, 1)  # the values of A^T
    ok = _in_range(E, columns=E.shape[0] > 2)
    if smallest and E.shape[:2] == (2, 2):
        ok &= _min_resolved(E)
    return _by_rows(ok, stack, E, lambda e: _closed_svals(e, smallest),
                    lapack)[0]


def _sigma_max(stack):
    return _singular_values(stack, smallest=False)[..., 0]


def max_principal_angle(b1, b2):
    """Largest principal angle between equal-rank orthonormal bases, as
    arctan2 of its sine, sigma_max of b2 - b1 (b1^T b2), and its cosine,
    sigma_min of b1^T b2 (Knyazev and Argentati, 2002).  The sine
    resolves small angles that the cosine rounds away (arccos alone
    reads multiples of 2^-26 below about 1e-8), and the result is within
    8u max(1, theta) of the angle theta, u = 2^-53."""
    cos = np.swapaxes(b1, -1, -2) @ b2
    return np.arctan2(_sigma_max(b2 - b1 @ cos),
                      _singular_values(cos)[..., -1])


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
    s = _singular_values(Ay)
    if np.any(s[:, -1] < 1e-12 * np.maximum(1.0, s[:, 0])):
        raise TransversalityError("frame loses transversality on the lattice")
    # 1 / a is LAPACK's inverse of [[a]], bit for bit, at every magnitude
    inv = 1.0 / Ay if Ay.shape[-2:] == (1, 1) else np.linalg.inv(Ay)
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
