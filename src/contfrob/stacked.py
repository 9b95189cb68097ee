"""Kernels for stacks of tiny matrices: singular values, signed QR, the
inverse, the 2 x 2 pencil sup, the product A B and congruence
L^T D_j R, each over a whole (..., m, n) stack, and the fused step of a
backward transport sweep.

np.linalg's QR and SVD pay a fixed cost per matrix, which is most of the
time on the stacks of 1 x 1, 3 x 1, 1 x 2, 2 x 2 and 3 x 2 matrices that
the sweeps and sups make.  d x 1, 1 x d, 2 x 2 and d x 2 matrices take
closed forms instead, read entry-major as one (m, n, ...) array so that
each elementwise pass covers the whole stack: a column's norm for d x 1
and 1 x d (|a|, LAPACK's bits, for 1 x 1); sigma_max = (|(a + d, c - b)|
+ |(a - d, b + c)|) / 2 and sigma_min = |ad - bc| / sigma_max for 2 x 2;
Gram-Schmidt with one re-orthogonalisation pass for d x 2, which gives
signed_qr's Q and a 2 x 2 R whose singular values are the matrix's.  Each
singular value is within 2^-49 sigma_max of the exact one (_SIGMA_REL),
and a 2 x 2 sigma_min within 2^-44 relative (_SIGMA_MIN_REL) where
|ad - bc| >= 2^-8 (|ad| + |bc|) and stays normal.

The fallback rule is one per matrix.  A matrix takes its closed form
where it is finite and its largest |entry| (each column's, for d x 2 QR)
lies in [2^-459, 2^459] or is 0: outside that range LAPACK's SVD
rescales, which moves the last bit of some 1 x 1 results, and inside it
the closed forms' squares and products neither overflow nor leave the
normal range.  One scalar test takes a whole stack at once when the
least and the largest of those maxima lie in the range; a nan or a 0
fails it, and only then is the per-matrix mask built.  Each kernel has
one shape: its closed form runs over the whole stack (silently, unless
that test passed), then one LAPACK call takes the matrices the rule
names (the others, and each 2 x 2 whose sigma_min is asked for and whose
determinant cancels) and writes over theirs, each with the bits of its
own call (a nan raises, as there).  Larger shapes take LAPACK whole.

The inverse of an n x n matrix, n <= 3, is adj / det, with 2 x 2
cofactors and det expanded along the first row.  Its conditioning test
is per matrix, like the 2 x 2 sigma_min's: largest |entry| at most
2^200, |det| at least 2^-600 and 2^-8 times the sum of |.| of its terms,
and (3 x 3) no cofactor whose two products sum in |.| to more than 2^8
times the largest |cofactor|.  Then det is within 5 * 2^-45 relative,
each cofactor within 2^-44 of the largest, and each entry of the inverse
within 2^-42 (_INV_REL) of the largest exact one.  Other matrices, the
non-finite among them, take LAPACK's inverse with their own call's bits,
and one it rejects gets nan and a singular flag; a 1 x 1 takes 1 / a
where a != 0, LAPACK's bits.

product sums each entry's products in index order, (A_i0 B_0s + A_i1
B_1s) + ..., by elementwise passes over entry-major arrays, and
congruence is T = D_j R, then L^T T: their bits depend on no BLAS kernel
or einsum path.  Where no partial sum overflows, each entry of L^T D_j R
is within (a + b + 1) u S + (a + b sum_c |L_cl|) 2^-1074 of the exact
one, with u = 2^-53 and S = sum_{c,d} |L_cl| |D_jcd| |R_dr|.

transport_step is one step of a backward transport sweep on chains kept
entry-major, (d, r, chain, point): product's arithmetic by the step's
inverse, then signed_qr's, whose Q goes straight back into the chains.
A sweep of them transposes nothing per step, and gives each chain
signed_qr(product(inv, chain)) bit for bit.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from .errors import RangeError

__all__ = ["singular_values", "sigma_max", "signed_qr", "inverse",
           "product", "congruence", "transport_step", "pencil_sigma_max"]

# the closed forms' range and bounds (see above); LAPACK's SVD rescales
# outside [sqrt(tiny) / eps, eps / sqrt(tiny)]
_UNSCALED = (2.0 ** -459, 2.0 ** 459)
_SIGMA_REL = 2.0 ** -49
_SIGMA_MIN_REL = 2.0 ** -44
_CANCEL = 2.0 ** -8
_DET_TINY = 2.0 ** -1000
# the closed-form inverse's range, determinant floor and bound
_INV_RANGE = 2.0 ** 200
_INV_DET_TINY = 2.0 ** -600
_INV_REL = 2.0 ** -42
# signed_qr's rank threshold on |R_ii|
_RANK_TOL = 1e-12


def _entry_major(stack):
    """The (..., m, n) stack as one contiguous (m, n, ...) array (by
    transpose, which costs a few times less than np.moveaxis here)."""
    lead = tuple(range(stack.ndim - 2))
    return np.ascontiguousarray(stack.transpose((-2, -1) + lead))


def _in_range(E, columns=False):
    """Mask (...,) of the matrices of the entry-major stack E that the
    closed forms take, or np.True_ for all of them: finite, with the
    largest |entry| in _UNSCALED or 0 (np.maximum keeps a nan).  With
    columns, the largest |entry| of each column, as _gram_schmidt needs:
    a column of tiny entries beside a large one has a squared norm below
    the normal range, which costs its q and r bits."""
    big = np.maximum.reduce(np.abs(E)) if columns else _entry_max(np.abs(E))
    if big.size and _UNSCALED[0] <= big.min() and big.max() <= _UNSCALED[1]:
        return np.True_
    ok = (big <= _UNSCALED[1]) & ((big >= _UNSCALED[0]) | (big == 0.0))
    return np.logical_and.reduce(ok) if columns else ok


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
    the entries of diag(R) >= 0 and R_12 (None for c = 1).  Q R = a
    within a few u |a|, and Q^T Q = I within a few u where diag(R) is
    well away from 0."""
    q, r11 = _normalized(E[:, 0])
    if E.shape[1] == 1:
        return [q], [r11], None
    v, r12 = E[:, 1], 0.0
    for _ in range(2):
        c = _dot(q, v)
        v = v - c * q
        r12 = r12 + c
    q2, r22 = _normalized(v)
    return [q, q2], [r11, r22], r12


def _lapack_signed_qr(bases):
    q, r = np.linalg.qr(bases)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return (q * np.sign(diag)[..., None, :],
            np.any(np.abs(diag) < _RANK_TOL, axis=-1))


def _signed_qr_into(E, Q):
    """signed_qr of the entry-major stack E (d, r, ...), r <= d, written
    into the entry-major Q of E's shape; returns the rank mask (...,).
    _gram_schmidt fills Q for r <= 2; then one call's LAPACK signed Q
    overwrites the matrices outside _in_range (all of them for r > 2)."""
    ok, bad = np.False_, np.empty(E.shape[2:], bool)
    if E.shape[1] <= 2:
        ok = _in_range(E, columns=True)
        with nullcontext() if ok is np.True_ else np.errstate(all="ignore"):
            cols, diag, _ = _gram_schmidt(E)
        for j, col in enumerate(cols):
            Q[:, j] = col
        bad[...] = np.logical_or.reduce([r < _RANK_TOL for r in diag])
    if not ok.all():
        at = ~ok if ok.ndim else ...  # a bare matrix's mask is 0-d
        q, bad[at] = _lapack_signed_qr(_standard(E[:, :, at]))
        Q[:, :, at] = _entry_major(q)
    return bad


def signed_qr(bases):
    """Q with the signs that make diag(R) positive, and a mask (...,) of
    the rank-deficient bases (some |R_ii| < 1e-12).  d x 1 and d x 2
    bases take _gram_schmidt where _in_range holds, and LAPACK's QR
    elsewhere; a zero or degenerate column sets the mask, and Q is then
    unspecified there.  Bases with more columns than rows are a
    RangeError."""
    if bases.shape[-2] < bases.shape[-1]:
        raise RangeError(f"signed_qr needs bases (..., d, r) with r <= d, "
                         f"got shape {bases.shape}")
    E = _entry_major(bases)
    Q = np.empty(E.shape)
    bad = _signed_qr_into(E, Q)
    return np.ascontiguousarray(_standard(Q)), bad


def transport_step(inv, chains):
    """One step of a backward transport sweep, in place on entry-major
    stacks: the chains (d, r, c, N) become the signed Q of inv @ chains,
    for the inverses inv (d, d, 1, N), by product's and signed_qr's
    arithmetic with no transpose.  Returns signed_qr's rank mask (c, N)."""
    return _signed_qr_into(_product(inv, chains), chains)


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
    n <= min(m, 2): a column's norm, the 2 x 2 closed form, or that of
    the R of a d x 2 stack's _gram_schmidt."""
    m, n = E.shape[:2]
    if n == 1:
        return np.sqrt(_dot(E[:, 0], E[:, 0]))[..., None]
    if m == 2:
        (a, b), (c, d) = E
        return _two_by_two(a, b, c, d, smallest)
    _, (r11, r22), r12 = _gram_schmidt(E)
    return _two_by_two(r11, r12, 0.0, r22, smallest)


def singular_values(stack, smallest=True):
    """np.linalg.svd(stack, compute_uv=False) of a stack of matrices by
    the closed forms within their bounds, and by LAPACK for the matrices
    the fallback rule names: all values, descending, or only the largest
    ((..., 1)) unless smallest."""
    def lapack(s):
        vals = np.linalg.svd(s, compute_uv=False)
        return vals if smallest else vals[..., :1]

    if min(stack.shape[-2:]) > 2:
        return lapack(stack)
    E = _entry_major(stack)
    if E.shape[0] < E.shape[1]:
        E = E.swapaxes(0, 1)  # the values of A^T
    ok = _in_range(E, columns=E.shape[0] > 2)
    quiet = ok is np.True_  # in range, the closed forms cannot warn
    if smallest and E.shape[:2] == (2, 2):
        ok = ok & _min_resolved(E)
    with nullcontext() if quiet else np.errstate(all="ignore"):
        vals = _closed_svals(E, smallest)
    if not ok.all():
        at = ~ok if ok.ndim else ...
        vals[at] = lapack(stack[at])
    return vals


def sigma_max(stack):
    """The largest singular value (...,) of each matrix of the stack."""
    return singular_values(stack, smallest=False)[..., 0]


def _closed_inverse(E):
    """adj / det of the entry-major stack E of n x n matrices, n <= 3,
    and the mask of the matrices that meet the conditioning test (see
    above); the others may overflow or divide by 0, silently."""
    with np.errstate(all="ignore"):
        if len(E) == 1:
            return 1.0 / E, E[0, 0] != 0.0
        if len(E) == 2:
            (a, b), (c, d) = E
            adj, p, q = np.array([[d, -b], [-c, a]]), a * d, b * c
            det, terms, resolved = p - q, np.abs(p) + np.abs(q), True
        else:
            # adj[i, j] = E[j+1, i+1] E[j+2, i+2] - E[j+1, i+2] E[j+2, i+1]
            i1, i2 = np.array([1, 2, 0]), np.array([2, 0, 1])
            p = E[i1[None], i1[:, None]] * E[i2[None], i2[:, None]]
            q = E[i1[None], i2[:, None]] * E[i2[None], i1[:, None]]
            adj, sizes = p - q, np.abs(p) + np.abs(q)
            det, terms = _dot(E[0], adj[:, 0]), _dot(np.abs(E[0]), sizes[:, 0])
            resolved = _CANCEL * _entry_max(sizes) <= _entry_max(np.abs(adj))
        ok = ((_entry_max(np.abs(E)) <= _INV_RANGE) & resolved
              & (np.abs(det) >= np.maximum(_CANCEL * terms, _INV_DET_TINY)))
        return adj / det, ok


def _entry_max(E):
    """The largest entry (...,) of each matrix of the entry-major E."""
    return np.maximum.reduce(E.reshape((E.shape[0] * E.shape[1],)
                                       + E.shape[2:]))


def _lapack_inverse(stack):
    """np.linalg.inv of each matrix of the stack in one call, or matrix
    by matrix where LAPACK rejects one: the inverses (nan where singular)
    and the mask (...,) of the singular matrices."""
    try:
        return np.linalg.inv(stack), np.zeros(stack.shape[:-2], bool)
    except np.linalg.LinAlgError:
        if stack.ndim == 2:
            return np.full(stack.shape, np.nan), np.ones((), bool)
        inv, singular = zip(*map(_lapack_inverse, stack))
        return np.stack(inv), np.stack(singular)


def inverse(stack):
    """np.linalg.inv of each matrix of the stack, and a mask (...,) of
    the matrices LAPACK rejects as singular, whose inverse is nan: adj /
    det within _INV_REL for the n x n, n <= 3, that pass the conditioning
    test, LAPACK for the others and for larger shapes (see above)."""
    if stack.shape[-1] > 3:
        return _lapack_inverse(stack)
    inv, ok = _closed_inverse(_entry_major(stack))
    inv = _standard(inv)
    singular = np.zeros(ok.shape, bool)
    if not ok.all():
        at = ~ok if ok.ndim else ...
        inv[at], singular[at] = _lapack_inverse(stack[at])
    return inv, singular


def _standard(E):
    """The entry-major array E (m, n, ...) as a (..., m, n) stack."""
    return E.transpose(tuple(range(2, E.ndim)) + (0, 1))


def product(A, B):
    """A @ B for stacks (..., m, k) and (..., k, n) whose stack axes
    broadcast, each entry summed in index order over entry-major arrays:
    (A_i0 B_0s + A_i1 B_1s) + ..."""
    rank = max(A.ndim, B.ndim)
    return _standard(_product(*(
        _entry_major(X.reshape((1,) * (rank - X.ndim) + X.shape))
        for X in (A, B))))


def _product(A, B):
    """A B of the entry-major stacks A (m, k, ...) and B (k, n, ...)."""
    out = A[:, 0, None] * B[0]
    for k in range(1, len(B)):
        out += A[:, k, None] * B[k]
    return out


def congruence(L, D, R):
    """L_p^T D_pj R_p (N, J, l, r) for stacks L (N, a, l), D (N, J, a, b)
    and R (N, b, r): the products T = D_pj R_p, then L_p^T T."""
    return product(L.swapaxes(-1, -2)[:, None], product(D, R[:, None]))


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


def pencil_sigma_max(C0, C1, segment=None):
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
