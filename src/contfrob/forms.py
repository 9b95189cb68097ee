"""Differential forms with field-valued components.

A k-form stores components only on strictly ascending coordinate
multi-indices; antisymmetry is structural.  The induced norm on k-forms
at a point is the l2 norm of that sorted component vector.  Wedge and
exterior derivative are exact on the field layer, so d(d(omega)) and
annihilation identities collapse symbolically, not just numerically.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import RangeError
from .fields import Field, ZERO, add, eval_fields, is_zero_field, mul, neg

__all__ = [
    "KForm", "one_form", "wedge", "exterior_derivative", "zero_form",
    "numeric_wedge_with_two_form", "two_form_matrix_norm",
]


class KForm:
    """Exterior form of fixed degree over named coordinates."""

    def __init__(self, coords, degree, comps=None):
        self.coords = tuple(coords)
        self.degree = int(degree)
        clean = {}
        for idx, f in (comps or {}).items():
            idx = tuple(idx)
            if len(idx) != self.degree or list(idx) != sorted(set(idx)):
                raise RangeError(f"index {idx} of a {self.degree}-form is "
                                 f"not {self.degree} ascending coordinates")
            if isinstance(f, Field) and not is_zero_field(f, structural_only=True):
                clean[idx] = f
        self.comps = clean

    @property
    def dim(self):
        return len(self.coords)

    def is_zero(self):
        return all(is_zero_field(f) for f in self.comps.values())

    def __add__(self, other):
        if (self.degree, self.coords) != (other.degree, other.coords):
            raise RangeError(f"cannot add a {self.degree}-form over "
                             f"{self.coords} to a {other.degree}-form over "
                             f"{other.coords}")
        out = dict(self.comps)
        for idx, f in other.comps.items():
            out[idx] = add(out[idx], f) if idx in out else f
        return KForm(self.coords, self.degree, out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        return KForm(self.coords, self.degree,
                     {idx: mul(c, f) for idx, f in self.comps.items()})

    def __eq__(self, other):
        return (isinstance(other, KForm) and self.degree == other.degree
                and self.coords == other.coords and self.comps == other.comps)

    def norm_at(self, points):
        """Induced Euclidean norm at points (..., dim): l2 over sorted
        components."""
        if not self.comps:
            shape = np.shape(points)[:-1]
            return np.zeros(shape) if shape else 0.0
        vals = eval_fields([self.comps[i] for i in sorted(self.comps)],
                           self.coords, points)
        return np.linalg.norm(vals, axis=-1)

    def pair_vector(self, vector_fields):
        """Contract a 1-form with a coordinate vector of fields."""
        if self.degree != 1:
            raise RangeError(f"pair_vector needs a 1-form, got a "
                             f"{self.degree}-form")
        terms = [mul(f, vector_fields[idx[0]]) for idx, f in self.comps.items()]
        return add(*terms) if terms else ZERO

    def two_form_matrices_at(self, points):
        """Antisymmetric matrices (..., dim, dim) of a 2-form at points
        (..., dim)."""
        if self.degree != 2:
            raise RangeError(f"two_form_matrices_at needs a 2-form, got a "
                             f"{self.degree}-form")
        D = self.dim
        out = np.zeros(np.shape(points)[:-1] + (D, D))
        if self.comps:
            a, b = np.array(list(self.comps)).T
            v = eval_fields(list(self.comps.values()), self.coords, points)
            out[..., a, b] = v
            out[..., b, a] = -v
        return out

    def __str__(self):
        if not self.comps:
            return "0"
        parts = []
        for idx in sorted(self.comps):
            basis = "^".join(f"d{self.coords[i]}" for i in idx) or "1"
            parts.append(f"({self.comps[idx]}) {basis}".strip())
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self.degree}-form {self}>"


def zero_form(coords, degree):
    return KForm(coords, degree, {})


def one_form(coords, comps):
    """Build a 1-form from a name->field or index->field mapping."""
    coords = tuple(coords)
    out = {}
    for key, f in comps.items():
        i = key if isinstance(key, int) else coords.index(key)
        out[(i,)] = f
    return KForm(coords, 1, out)


def _merge_sign(idx_a, idx_b):
    """Sign of sorting the concatenation of two ascending index tuples."""
    inv = 0
    for b in idx_b:
        inv += sum(1 for a in idx_a if a > b)
    return -1 if inv % 2 else 1


def wedge(a: KForm, b: KForm):
    """Exterior product; degrees beyond the ambient dimension give 0."""
    if a.coords != b.coords:
        raise RangeError(f"cannot wedge forms over {a.coords} and "
                         f"{b.coords}")
    k = a.degree + b.degree
    if k > a.dim:
        return zero_form(a.coords, k)
    out = {}
    for ia, fa in a.comps.items():
        for ib, fb in b.comps.items():
            if set(ia) & set(ib):
                continue
            sign = _merge_sign(ia, ib)
            idx = tuple(sorted(ia + ib))
            term = mul(fa, fb) if sign > 0 else neg(mul(fa, fb))
            out[idx] = add(out[idx], term) if idx in out else term
    return KForm(a.coords, k, out)


def wedge_all(forms):
    out = forms[0]
    for f in forms[1:]:
        out = wedge(out, f)
    return out


def exterior_derivative(a: KForm):
    """Exact symbolic exterior derivative."""
    coords = a.coords
    if a.degree + 1 > a.dim:
        return zero_form(coords, a.degree + 1)
    out = {}
    for idx, f in a.comps.items():
        for i, name in enumerate(coords):
            if i in idx:
                continue
            df = f.diff(name)
            if is_zero_field(df, structural_only=True):
                continue
            merged = tuple(sorted(idx + (i,)))
            sign = 1 if merged.index(i) % 2 == 0 else -1
            term = df if sign > 0 else neg(df)
            out[merged] = add(out[merged], term) if merged in out else term
    return KForm(coords, a.degree + 1, out)


# ---------------------------------------------------------------------------
# pointwise numeric wedge (for frames given only as sampled matrices)


def numeric_wedge_with_two_form(rows, two_form):
    """Components of r_1 ^ ... ^ r_n ^ T for numeric covectors and a 2-form.

    rows: (n, D) covector components; two_form: (D, D) antisymmetric.
    Returns (indices, coeffs) over ascending (n+2)-multi-indices.
    """
    rows = np.asarray(rows, dtype=float)
    T = np.asarray(two_form, dtype=float)
    n, D = rows.shape
    k = n + 2
    indices, coeffs = [], []
    if k > D:
        return indices, np.zeros(0)
    for J in combinations(range(D), k):
        total = 0.0
        for pa, pb in combinations(range(k), 2):
            a, b = J[pa], J[pb]
            t = T[a, b]
            if t == 0.0:
                continue
            rest = [J[q] for q in range(k) if q not in (pa, pb)]
            sign = -1.0 if (pa + pb - 1) % 2 else 1.0
            minor = np.linalg.det(rows[:, rest]) if n else 1.0
            total += sign * minor * t
        indices.append(J)
        coeffs.append(total)
    return indices, np.asarray(coeffs)


def numeric_wedge_norm(rows, two_form):
    _, coeffs = numeric_wedge_with_two_form(rows, two_form)
    return float(np.linalg.norm(coeffs)) if len(coeffs) else 0.0


def stacked_wedge_norms(rows, two_forms):
    """|r_1 ^ ... ^ r_n ^ T_j| per point for the rows and each 2-form T_j.

    rows: (N, n, D) covector components; two_forms: (N, J, D, D)
    antisymmetric.  Returns (N, J).  Every point and 2-form takes the
    arithmetic of numeric_wedge_norm in the same order, so the values
    agree with it bit for bit.
    """
    rows = np.asarray(rows, dtype=float)
    T = np.asarray(two_forms, dtype=float)
    n, D = rows.shape[1:]
    k = n + 2
    if k > D:
        return np.zeros(T.shape[:2])
    coeffs = []
    for J in combinations(range(D), k):
        total = np.zeros(T.shape[:2])
        for pa, pb in combinations(range(k), 2):
            rest = [J[q] for q in range(k) if q not in (pa, pb)]
            sign = -1.0 if (pa + pb - 1) % 2 else 1.0
            minor = np.linalg.det(rows[:, :, rest])[:, None] if n else 1.0
            t = T[:, :, J[pa], J[pb]]
            # adding an exact 0 where the reference skips a zero t
            total += np.where(t == 0.0, 0.0, sign * minor * t)
        coeffs.append(total)
    c = np.stack(coeffs, axis=-1)
    # a row times a column is the dot product np.linalg.norm takes of a
    # vector; a sum over the last axis rounds differently
    return np.sqrt((c[..., None, :] @ c[..., :, None])[..., 0, 0])


def two_form_matrix_norm(T):
    """l2 norm over the sorted components of an antisymmetric matrix."""
    T = np.asarray(T, dtype=float)
    iu = np.triu_indices(T.shape[-1], k=1)
    return np.linalg.norm(T[..., iu[0], iu[1]], axis=-1)
