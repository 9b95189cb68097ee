import functools
import inspect
import math
import operator
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from contfrob.boxes import Box
from contfrob.errors import (EvalDomainError, RangeError,
                             TransversalityError)
from contfrob.fields import ZERO, Const, Coord, parse_field
from contfrob.forms import one_form
from contfrob.geometry import (Distribution, FrameSection, FrameValues,
                               annihilator_frame,
                               asymptotic_involutivity_trace, bound_parts,
                               evaluate_frames,
                               exterior_regularity_trace, frame_values,
                               frobenius_defect, involutivity_constant,
                               max_principal_angle, scaled_exp)
from contfrob.mollify import grid_from_field, mollify, to_spline_field
from contfrob.odelab import funnel
from contfrob.presets import contact_distribution, ode_peano
from contfrob.stacked import (congruence, inverse, pencil_sigma_max,
                              product, sigma_max, signed_qr,
                              singular_values, transport_step)

x, y, z = Coord("x"), Coord("y"), Coord("z")

BOX2 = Box.from_dict({"x": (-0.5, 0.5), "y": (-0.5, 0.5)})
BOX3 = Box.from_dict({"x": (-0.5, 0.5), "y": (-0.5, 0.5), "z": (-0.5, 0.5)})


def contact_distribution():
    # X1 = d/dx + y d/dz, X2 = d/dy: annihilated by dz - y dx
    return Distribution(("x", "y"), ("z",), [[y], [Const(0.0)]], BOX3)


def involutive_distribution():
    # X1 = d/dx + x d/dz, X2 = d/dy: annihilated by dz - x dx
    return Distribution(("x", "y"), ("z",), [[x], [Const(0.0)]], BOX3)


def test_annihilator_symbolic_cancellation():
    d = Distribution(("x",), ("y",), [[y]], BOX2)
    frame = annihilator_frame(d)
    for Xi in d.spanning_fields():
        assert frame.rows[0].pair_vector(Xi) == Const(0.0)


def test_annihilator_zero_coeffs():
    d = Distribution(("x",), ("y",), [[Const(0.0)]], BOX2)
    frame = annihilator_frame(d)
    assert frame.rows[0].comps == {(1,): Const(1.0)}


def test_annihilation_at_many_random_points():
    d = contact_distribution()
    frame = annihilator_frame(d)
    rng = np.random.default_rng(0)
    pts = BOX3.sample(rng, 1_000_000)
    A = frame.matrix_at(pts)
    B = d.spanning_matrix_at(pts)
    assert np.max(np.abs(A @ B)) <= 1e-14


def test_frobenius_defect_rank1_in_plane_is_zero():
    d = Distribution(("x",), ("y",), [[x]], BOX2)
    frame = annihilator_frame(d)
    assert np.max(frobenius_defect(frame, BOX2.lattice(9))) == 0.0


def test_frobenius_defect_contact_and_involutive():
    pts = BOX3.lattice(7)
    defect = frobenius_defect(annihilator_frame(contact_distribution()), pts)
    assert np.max(np.abs(defect - 1.0)) <= 1e-10
    defect0 = frobenius_defect(annihilator_frame(involutive_distribution()), pts)
    assert np.max(defect0) <= 1e-10


def test_defect_zero_set_invariant_under_row_rescaling():
    pts = BOX3.lattice(5)
    scalar = 1 + x * x  # nonvanishing
    inv = annihilator_frame(involutive_distribution()).scale(scalar)
    assert np.max(frobenius_defect(inv, pts)) <= 1e-12
    con = annihilator_frame(contact_distribution()).scale(scalar)
    assert np.min(frobenius_defect(con, pts)) > 0.0


def test_restricted_inverse_identity_block():
    frame = annihilator_frame(contact_distribution())
    p = np.array([0.1, 0.2, 0.0])
    assert np.allclose(evaluate_frames([frame], p).inv[0], np.eye(1))
    scaled = frame.scale(2.0)
    assert np.allclose(evaluate_frames([scaled], p).inv[0], 0.5 * np.eye(1))


def test_restricted_inverse_diagonal_and_singular():
    from contfrob.forms import one_form
    from contfrob.geometry import FrameSection
    coords = ("x", "y1", "y2")
    eps = 1e-3
    rows = (one_form(coords, {"y1": Const(1.0)}),
            one_form(coords, {"y2": Const(eps)}))
    frame = FrameSection(rows, coords, ("y1", "y2"))
    inv = evaluate_frames([frame], np.zeros(3)).inv[0]
    assert np.linalg.norm(inv, 2) == pytest.approx(1.0 / eps)

    bad = FrameSection((one_form(coords, {"y1": Const(1.0)}),
                        one_form(coords, {"y1": Const(1.0)})),
                       coords, ("y1", "y2"))
    with pytest.raises(TransversalityError):
        evaluate_frames([bad], np.zeros(3))


def _one_by_one_frames(a):
    """frame_values of one row dz - x0 dx per entry, with A|_Y = [[a]]."""
    A = np.stack([np.zeros_like(a), a], axis=-1)[:, None, :]
    return frame_values(np.zeros((len(a), 2)), A,
                        np.zeros((len(a), 1, 2, 2)), [1])


def _signed_magnitudes(lo, hi, n, seed):
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(lo, hi, n) * rng.choice([-1.0, 1.0], n)


def test_one_by_one_closed_forms_are_lapacks_bits():
    # |a| stands in for the SVD of [[a]]; outside [2^-459, 2^459] LAPACK
    # rescales, and its bits are kept there.  1 / a is the inverse of
    # [[a]] at every magnitude
    a = _signed_magnitudes(-300.0, 300.0, 20000, 3)
    a[:4] = [2.0 ** -459, -(2.0 ** 459), np.nextafter(2.0 ** -459, 0.0),
             -np.nextafter(2.0 ** 459, np.inf)]
    stack = a[:, None, None]
    assert sigma_max(stack).tobytes() == \
        np.linalg.svd(stack, compute_uv=False)[:, 0].tobytes()
    # frame_values takes the entries a transversal frame can have
    a = _signed_magnitudes(-11.9, 300.0, 20000, 4)
    values = _one_by_one_frames(a)
    assert values.inv.tobytes() == np.linalg.inv(a[:, None, None]).tobytes()
    assert values.inv_norms.tobytes() == np.linalg.svd(
        values.inv, compute_uv=False)[:, 0].tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0])
def test_one_by_one_non_finite_and_zero_entries_are_lapacks(bad):
    # nan: LAPACK's SVD does not converge; inf: its singular value is nan
    # and its inverse 0; 0: the frame is not transversal.  A frame takes
    # no non-finite entry: frame_values names its row before any kernel
    a = np.array([2.0, bad])
    stack = a[:, None, None]
    if math.isnan(bad):
        with pytest.raises(np.linalg.LinAlgError):
            sigma_max(stack)
    else:
        want = np.linalg.svd(stack, compute_uv=False)[:, 0]
        assert sigma_max(stack).tobytes() == want.tobytes()
    if bad == 0.0:
        assert want[1] == 0.0
    elif math.isinf(bad):
        assert math.isnan(want[1])
        inv, singular = inverse(stack)
        assert not singular.any()
        assert inv.tobytes() == np.linalg.inv(stack).tobytes()
        assert inv[:, 0, 0].tolist() == [0.5, 1.0 / bad]
        assert math.copysign(1.0, inv[1, 0, 0]) == math.copysign(1.0, bad)
    error = TransversalityError if bad == 0.0 else EvalDomainError
    with pytest.raises(error, match=r"at frame 0, lattice point 1 "
                                    r"\[0\.0, 0\.0\]$"):
        _one_by_one_frames(a)


def test_frame_values_names_the_first_non_finite_row():
    # every row of A and dA is checked, inside A|_Y or not, before any
    # kernel: a 2 x 2 inf passes the transversality check, and a nan
    # fails the SVD of the whole stack
    pts = np.array([[0.0, 0.0, 0.0], [0.25, 0.5, 0.75]])
    A = np.tile(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), (4, 1, 1))
    dA = np.zeros((4, 2, 3, 3))
    for field, bad in ((A, (3, 1, 2)), (A, (1, 0, 0)), (dA, (3, 0, 1, 2))):
        kept, field[bad] = field[bad], math.inf
        with pytest.raises(EvalDomainError,
                           match=re.escape(
                               f"at frame {bad[0] // 2}, lattice point "
                               f"{bad[0] % 2} {pts[bad[0] % 2].tolist()}")):
            frame_values(pts, A, dA, [1, 2])
        field[bad] = math.nan
        with pytest.raises(EvalDomainError, match="frame is not finite"):
            frame_values(pts, A, dA, [1, 2])
        field[bad] = kept
    # a singular A|_Y is named the same way
    A[3, 1] = A[3, 0]
    with pytest.raises(TransversalityError,
                       match=r"at frame 1, lattice point 1 \[0\.25, 0\.5, "
                             r"0\.75\]$"):
        frame_values(pts, A, dA, [1, 2])


def test_log_singularity_on_the_lattice_is_a_domain_error():
    # log(x^2) is -inf at x = 0, the lattice's middle plane: a domain
    # error at the first such point, not a nan sup
    dist = Distribution(("x", "y"), ("z",),
                        [[parse_field("log(x^2)")], [Const(0.0)]], BOX3)
    with pytest.raises(EvalDomainError,
                       match=r"at frame 0, lattice point 9 "
                             r"\[0\.0, -0\.5, -0\.5\]$"):
        involutivity_constant(annihilator_frame(dist), dist,
                              BOX3.lattice(3))


# stacks of d x 1, 1 x d, 2 x 2 and d x 2 matrices, the shapes the closed
# forms take (and one 3 x 3, which LAPACK takes)
_KERNEL_SHAPES = [(1, 2), (1, 3), (2, 1), (3, 1), (4, 1), (2, 2), (3, 2),
                  (4, 2), (2, 3), (3, 3)]


@st.composite
def tiny_stacks(draw, shapes=_KERNEL_SHAPES):
    """Stacks of tiny matrices, scaled by 2^-520..2^520 (so some leave the
    closed forms' range) and plain, near-singular, rank-one or with a zero
    column."""
    m, n = draw(st.sampled_from(shapes))
    count = draw(st.integers(1, 5))
    A = draw(arrays(np.float64, (count, m, n),
                    elements=st.floats(-1.0, 1.0, width=64)))
    kind = draw(st.sampled_from(["plain", "near-singular", "rank-one",
                                 "zero-column"]))
    if kind in ("near-singular", "rank-one"):
        outer = A[:, :, :1] * A[:, :1, :]
        tiny = 0.0 if kind == "rank-one" else \
            2.0 ** -draw(st.integers(20, 50))
        A = outer + tiny * A
    elif kind == "zero-column":
        A[:, :, draw(st.integers(0, n - 1))] = 0.0
    return A * 2.0 ** draw(st.integers(-520, 520))


def _safe(A):
    big = np.max(np.abs(A), axis=(-2, -1))
    return (big == 0.0) | ((big >= 2.0 ** -459) & (big <= 2.0 ** 459))


@settings(max_examples=300, deadline=None)
@given(tiny_stacks())
@example(np.array([[[3e-159, 0.0, 0.0], [1.0, 0.0, 0.0]]]))
def test_singular_value_kernels_within_their_bound_of_lapack(A):
    # every closed-form value is within _SIGMA_REL sigma_max of the exact
    # one, and LAPACK's within a few u sigma_max, so the two are within
    # 2 _SIGMA_REL sigma_max; matrices outside the range are LAPACK's.
    # The example's transpose has a column whose squared norm, 9e-318, is
    # below the normal range, which cost Gram-Schmidt 8e-8 of sigma_max
    from contfrob.stacked import _SIGMA_REL
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = singular_values(A)
        top = sigma_max(A)
    ref = np.linalg.svd(A, compute_uv=False)
    tol = 2.0 * _SIGMA_REL * ref[:, :1]
    assert s.shape == ref.shape
    assert np.all(np.abs(s - ref) <= tol)
    assert np.all(np.abs(top - ref[:, 0]) <= tol[:, 0])
    assert s[~_safe(A)].tobytes() == ref[~_safe(A)].tobytes()


def _exact_two_by_two_sigma_min(M):
    """|ad - bc| / sigma_max in 60-digit arithmetic, the exact sigma_min
    to far below a double's rounding."""
    import mpmath
    with mpmath.workdps(60):
        (a, b), (c, d) = [[mpmath.mpf(float(x)) for x in row] for row in M]
        s_max = (mpmath.hypot(a + d, c - b) + mpmath.hypot(a - d, b + c)) / 2
        return float(abs(a * d - b * c) / s_max) if s_max else 0.0


@settings(max_examples=200, deadline=None)
@given(tiny_stacks(shapes=[(2, 2)]))
def test_two_by_two_sigma_min_meets_its_relative_bound(A):
    # where _min_resolved holds, sigma_min = |ad - bc| / sigma_max is
    # within _SIGMA_MIN_REL relative; LAPACK takes the other matrices
    from contfrob import stacked
    s = singular_values(A)
    resolved = stacked._min_resolved(stacked._entry_major(A)) & _safe(A)
    for M, value, ok in zip(A, s[:, 1], resolved):
        if ok:
            exact = _exact_two_by_two_sigma_min(M)
            assert abs(value - exact) <= stacked._SIGMA_MIN_REL * exact
        else:
            assert value == np.linalg.svd(M, compute_uv=False)[1]


@settings(max_examples=300, deadline=None)
@given(tiny_stacks(shapes=[(2, 1), (3, 1), (4, 1), (2, 2), (3, 2),
                           (4, 2)]))
def test_signed_qr_kernel_against_lapack(A):
    # Gram-Schmidt's R is within a few u |A| of the exact one, as is
    # LAPACK's: the rank masks agree wherever no |R_ii| lies that close
    # to 1e-12, and Q is within a few u kappa(A) of LAPACK's signed Q
    from contfrob import stacked
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, bad = signed_qr(A)
    q_ref, bad_ref = stacked._lapack_signed_qr(A)
    diag = np.abs(np.einsum("...ii->...i", np.linalg.qr(A)[1]))
    s = np.linalg.svd(A, compute_uv=False)
    near = np.abs(diag - 1e-12) <= 2.0 ** -47 * s[:, :1]
    away = ~np.any(near, axis=1)
    assert np.array_equal(bad[away], bad_ref[away])
    full = ~bad & ~bad_ref & (s[:, -1] > 0.0)
    kappa = s[full, :1, None] / s[full, -1:, None]
    assert np.all(np.abs(q[full] - q_ref[full]) <= 2.0 ** -46 * kappa)
    # orthonormal to rounding wherever kappa u is small
    well = full & (s[:, 0] <= 1e8 * s[:, -1])
    gram = np.swapaxes(q[well], 1, 2) @ q[well]
    assert np.all(np.abs(gram - np.eye(A.shape[2])) <= 2.0 ** -48)


def test_kernels_send_unsafe_matrices_to_lapack(linalg_calls):
    # matrices whose largest |entry| leaves [2^-459, 2^459], or that hold
    # inf, take LAPACK's values in one call; the others keep the closed
    # forms' bits.  The same three square matrices fail the inverse's
    # range (2^200) or determinant floor (2^-600), and take one inv call
    rng = np.random.default_rng(5)
    A, S = rng.normal(size=(6, 3, 2)), rng.normal(size=(6, 3, 3))
    for M in (A, S):
        M[1] *= 2.0 ** 500
        M[3] *= 2.0 ** -500
        M[4, 2, 1] = math.inf
    unsafe, safe = [1, 3, 4], [0, 2, 5]
    linalg_calls.clear()
    s, (q, bad), (inv, _) = singular_values(A), signed_qr(A), inverse(S)
    assert dict(linalg_calls) == {"svd": 1, "qr": 1, "inv": 1}
    linalg_calls.clear()
    alone = singular_values(A[safe]), signed_qr(A[safe]), inverse(S[safe])
    assert not linalg_calls
    assert s[safe].tobytes() == alone[0].tobytes()
    assert q[safe].tobytes() == alone[1][0].tobytes()
    assert inv[safe].tobytes() == alone[2][0].tobytes()
    assert s[unsafe].tobytes() == \
        np.linalg.svd(A[unsafe], compute_uv=False).tobytes()
    q_ref, r_ref = np.linalg.qr(A[unsafe])
    assert q[unsafe].tobytes() == (q_ref * np.sign(
        np.einsum("...ii->...i", r_ref))[:, None, :]).tobytes()
    assert inv[unsafe].tobytes() == np.linalg.inv(S[unsafe]).tobytes()
    # the fused transport step by the identity: its products are A's
    # matrices bit for bit where finite (0 * inf makes the inf one nan)
    chains = np.ascontiguousarray(A.transpose(1, 2, 0)[:, :, None])
    eye = np.broadcast_to(np.eye(3)[:, :, None, None], (3, 3, 1, 6))
    linalg_calls.clear()
    with np.errstate(invalid="ignore"):
        transport_step(eye, chains)
    assert dict(linalg_calls) == {"qr": 1}
    got = chains[:, :, 0].transpose(2, 0, 1)
    assert got[safe].tobytes() == alone[1][0].tobytes()
    assert got[unsafe[:2]].tobytes() == q[unsafe[:2]].tobytes()
    # nan: LAPACK's SVD does not converge, as on the whole stack
    A[4, 2, 1] = math.nan
    with pytest.raises(np.linalg.LinAlgError):
        singular_values(A)


# the three-operand subscripts congruence replaced: _d_restricted's
# B^T dA B, _mixing's U^T dA B and the pullback J^T dC J
_CONGRUENCE_SUBSCRIPTS = ("pda,pjde,peb->pjab", "pcl,pjcd,pda->pjla",
                          "pca,pjcd,pdb->pjab")
_FINITE_ENTRIES = st.one_of(
    st.floats(-4.0, 4.0, width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030,
                     -(2.0 ** -1022)]),
    st.floats(allow_nan=False, allow_infinity=False, width=64))


@st.composite
def congruence_stacks(draw):
    """L (N, a, l), D (N, J, a, b) and R (N, b, r) with a, b, l, r in
    {1, 2, 3}, of finite entries: plain, +-0, subnormal or huge."""
    a, b, l, r = (draw(st.integers(1, 3)) for _ in range(4))
    N, J = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    return tuple(draw(arrays(np.float64, shape, elements=_FINITE_ENTRIES))
                 for shape in ((N, a, l), (N, J, a, b), (N, b, r)))


def _ordered_sum(terms):
    """The terms summed left to right in Python floats, first term first
    (so -0.0 + -0.0 stays -0.0)."""
    return functools.reduce(operator.add, terms)


def _ordered_product(A, B):
    """A B of nested lists in Python floats, in the stated order of
    stacked.product: entry (i, s) is (A_i0 B_0s + A_i1 B_1s) + ..."""
    return [[_ordered_sum(row[k] * B[k][s] for k in range(len(B)))
             for s in range(len(B[0]))] for row in A]


def _ordered_congruence(L, D, R):
    """congruence matrix by matrix: T = D_j R, then L^T T, each an
    _ordered_product."""
    L, D, R = L.tolist(), D.tolist(), R.tolist()
    return np.array([[_ordered_product([list(c) for c in zip(*L[p])],
                                       _ordered_product(D_j, R[p]))
                      for D_j in D[p]] for p in range(len(D))])


@settings(max_examples=300, deadline=None)
@given(congruence_stacks())
@example((np.full((1, 3, 2), -0.0), np.full((1, 2, 3, 3), 5e-324),
          np.full((1, 3, 1), 2.0 ** -1030)))
def test_congruence_is_the_ordered_sum_bit_for_bit(stacks):
    # each entry's products summed in index order, whatever the BLAS
    # kernel or einsum path; huge entries overflow alike.  product is
    # congruence's first stage, D_j R
    L, D, R = stacks
    with np.errstate(all="ignore"):
        assert congruence(L, D, R).tobytes() == \
            _ordered_congruence(L, D, R).tobytes()
        T = [[_ordered_product(D_j, R_p) for D_j in D_p]
             for D_p, R_p in zip(D.tolist(), R.tolist())]
        assert product(D, R[:, None]).tobytes() == np.array(T).tobytes()


def _congruence_error_bound(L, D, R, used):
    """{entry: (exact, bound)} for the entries of L^T D_j R: the value in
    50-digit arithmetic and the error bound of the used order, for
    congruence the stated (a + b + 1) u S + (a + b sum_c |L_cl|) 2^-1074
    (see stacked.py) with S = sum_{c,d} |L_cl D_jcd R_dr|, for the einsum
    ((L D) R per term) its own.  Entries where a partial sum of that
    order can overflow are left out."""
    import mpmath
    (N, J, a, b), l, r = D.shape, L.shape[2], R.shape[2]
    limit = mpmath.mpf(2) ** 1020
    out = {}
    with mpmath.workdps(50):
        L, D, R = (np.vectorize(mpmath.mpf, otypes=[object])(X)
                   for X in (L, D, R))
        for p, j, i, s in np.ndindex(N, J, l, r):
            terms = [[L[p, c, i] * D[p, j, c, d] * R[p, d, s]
                      for d in range(b)] for c in range(a)]
            S = mpmath.fsum(abs(t) for row in terms for t in row)
            if used == "congruence":
                partial = max(mpmath.fsum(abs(D[p, j, c, d] * R[p, d, s])
                                          for d in range(b))
                              for c in range(a))
                tol = ((a + b + 1) * 2.0 ** -53 * S + (a + b * mpmath.fsum(
                    abs(L[p, c, i]) for c in range(a))) * 2.0 ** -1074)
            else:
                partial = max(abs(L[p, c, i] * D[p, j, c, d])
                              for c in range(a) for d in range(b))
                tol = ((a * b + 2) * 2.0 ** -53 * S + a * b * (1 + max(
                    abs(R[p, d, s]) for d in range(b))) * 2.0 ** -1074)
            if max(S, partial) <= limit:
                out[p, j, i, s] = (mpmath.fsum(t for row in terms
                                               for t in row), tol)
    return out


@settings(max_examples=100, deadline=None)
@given(congruence_stacks())
@example((np.full((1, 3, 2), -0.0), np.full((1, 2, 3, 3), 5e-324),
          np.full((1, 3, 1), 2.0 ** -1030)))
def test_congruence_is_within_its_bound_of_exact_and_the_einsum(stacks):
    # congruence within its stated bound of the 50-digit value, and so
    # within that bound plus the einsum's own, (a b + 2) u S and its
    # underflow, of each three-operand einsum it replaced
    import mpmath
    L, D, R = stacks
    with np.errstate(all="ignore"):
        got = congruence(L, D, R)
        einsums = [np.einsum(sub, L, D, R) for sub in _CONGRUENCE_SUBSCRIPTS]
    ours = _congruence_error_bound(L, D, R, "congruence")
    theirs = _congruence_error_bound(L, D, R, "einsum")
    for idx, (exact, tol) in ours.items():
        assert abs(mpmath.mpf(got[idx]) - exact) <= tol
        if idx in theirs:
            for ein in einsums:
                assert abs(mpmath.mpf(got[idx]) - mpmath.mpf(ein[idx])) <= \
                    tol + theirs[idx][1]


def _exact_inverse(M):
    """M^{-1} of a 2 x 2 or 3 x 3 double matrix in 50-digit arithmetic,
    by its adjugate: each cofactor is a correctly rounded difference of
    two exact products, and det a sum of exact terms."""
    import mpmath
    with mpmath.workdps(50):
        A = [[mpmath.mpf(float(x)) for x in row] for row in M]
        n = len(A)
        if n == 2:
            adj = [[A[1][1], -A[0][1]], [-A[1][0], A[0][0]]]
        else:
            adj = [[A[(j + 1) % 3][(i + 1) % 3] * A[(j + 2) % 3][(i + 2) % 3]
                    - A[(j + 1) % 3][(i + 2) % 3] * A[(j + 2) % 3][(i + 1) % 3]
                    for j in range(3)] for i in range(3)]
        det = mpmath.fsum(A[0][j] * adj[j][0] for j in range(n))
        return [[x / det for x in row] for row in adj]


def _assert_lapacks_inverse(M, got, singular):
    """got is np.linalg.inv(M)'s bits, or nan with the singular flag
    where LAPACK rejects M."""
    try:
        want = np.linalg.inv(M)
    except np.linalg.LinAlgError:
        assert singular and np.isnan(got).all()
    else:
        assert not singular and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(tiny_stacks(shapes=[(2, 2), (3, 3)]))
@example(np.array([[[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.5, 0.0, 1.0]],
                   [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 0.0, 1.0]]]))
def test_inverse_within_its_bound_of_the_exact_inverse(A):
    # where the conditioning test holds, each entry of adj / det is
    # within _INV_REL of the largest |entry| of the 50-digit inverse;
    # LAPACK takes every other matrix, with the bits of its own call
    import mpmath
    from contfrob import stacked
    inv, singular = inverse(A)
    _, ok = stacked._closed_inverse(stacked._entry_major(A))
    for M, got, flag, passed in zip(A, inv, singular, ok):
        if not passed:
            _assert_lapacks_inverse(M, got, flag)
            continue
        exact = _exact_inverse(M)
        top = max(abs(x) for row in exact for x in row)
        assert not flag
        for g, x in zip(got.ravel(), (x for row in exact for x in row)):
            assert abs(mpmath.mpf(float(g)) - x) <= stacked._INV_REL * top


_INVERSE_KINDS = ["plain", "singular", "ill-conditioned", "nan", "inf",
                  "out-of-range", "tiny"]


@st.composite
def mixed_inverse_stacks(draw):
    """Stacks of n x n matrices, n = 2 or 3, each plain, singular (rank
    one), ill-conditioned (rank one plus 2^-40 of a plain one), with a nan
    or an inf entry, with an entry beyond 2^200, or scaled by 2^-301 so
    that its determinant lies below 2^-600."""
    n = draw(st.integers(2, 3))
    out = []
    for kind in draw(st.lists(st.sampled_from(_INVERSE_KINDS), min_size=1,
                              max_size=6)):
        M = draw(arrays(np.float64, (n, n),
                        elements=st.floats(-4.0, 4.0, width=64)))
        if kind in ("singular", "ill-conditioned"):
            M = np.outer(M[:, 0], M[0]) + (
                0.0 if kind == "singular" else 2.0 ** -40 * M)
        elif kind in ("nan", "inf", "out-of-range"):
            M[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = {
                "nan": math.nan, "inf": -math.inf,
                "out-of-range": 2.0 ** 201}[kind]
        elif kind == "tiny":
            M = M * 2.0 ** -301
        out.append(M)
    return np.stack(out)


@settings(max_examples=300, deadline=None)
@given(mixed_inverse_stacks())
@example(np.array([[[2.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [2.0, 4.0]],
                   [[math.nan, 1.0], [2.0, 3.0]], [[math.inf, 1.0],
                                                   [2.0, 3.0]],
                   [[2.0 ** 201, 1.0], [2.0, 3.0]], [[0.0, 0.0], [0.0, 0.0]],
                   [[2.0 ** -301, 0.0], [0.0, 2.0 ** -301]]]))
def test_inverse_takes_the_fallback_rule_per_matrix(A):
    # the matrices the conditioning test sends to LAPACK each get the
    # bits of np.linalg.inv of their own, or its error as a singular flag
    # and nan; the others get the bits they get alone
    from contfrob import stacked
    inv, singular = inverse(A)
    _, ok = stacked._closed_inverse(stacked._entry_major(A))
    for M, got, flag, passed in zip(A, inv, singular, ok):
        if passed:
            alone, flag_alone = inverse(M[None])
            assert not flag and not flag_alone[0]
            assert got.tobytes() == alone[0].tobytes()
        else:
            _assert_lapacks_inverse(M, got, flag)


def test_zero_matrices_and_columns_take_the_closed_forms(linalg_calls):
    A = np.zeros((3, 3, 2))
    A[1, :, 0] = [0.0, 3.0, 4.0]
    A[2, :, 1] = [0.0, 3.0, 4.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = singular_values(A)
        q, bad = signed_qr(A)
        s2 = singular_values(np.zeros((2, 2, 2)))
    assert s.tolist() == [[0.0, 0.0], [5.0, 0.0], [5.0, 0.0]]
    assert s2.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    assert bad.tolist() == [True, True, True]
    assert not linalg_calls


# entries on both sides of the closed forms' range [2^-459, 2^459]; nan
# is left out, since LAPACK's SVD raises on it
_EDGE_ENTRIES = [0.0, -0.0, 5e-324, -(2.0 ** -1030), 2.0 ** -459,
                 -(2.0 ** 459), 2.0 ** 460, -(2.0 ** 1000), math.inf,
                 -math.inf]


def _outcome(kernel, A):
    """The arrays kernel(A) returns, as bytes, or the LinAlgError that
    LAPACK's SVD raises on a nan (a matrix without one may not raise).
    signed_qr's Q keeps no nan's sign bit: its sign product of a nan Q
    sets it differently in a stack and alone."""
    try:
        out = kernel(A)
    except np.linalg.LinAlgError:
        if not np.isnan(A).any():
            raise
        return np.linalg.LinAlgError
    out = list(out) if isinstance(out, tuple) else [out]
    if kernel is signed_qr:
        out[0] = np.where(np.isnan(out[0]), np.nan, out[0])
    return [np.ascontiguousarray(x).tobytes() for x in out]


# a nan, a huge and a tiny entry, and a matrix of tiny entries: as bare
# matrices, whose fallback mask is 0-d, and in one stack
_ODD = [math.nan, 2.0 ** 500, 2.0 ** -500]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 2)])
       .flatmap(lambda shape: arrays(
           np.float64, st.tuples(st.integers(1, 6), st.just(shape[0]),
                                 st.just(shape[1])),
           elements=st.floats(-1e3, 1e3, width=64)
           | st.sampled_from(_EDGE_ENTRIES))))
@example(np.array([[[0.0]], [[2.0]], [[-0.0]], [[5e-324]], [[math.inf]]]))
@example(np.array([[[v]] for v in _ODD]))
@example(np.array([[[v, 0.0], [1.0, 1.0]] for v in _ODD]
                  + [np.diag([2.0 ** -500] * 2)]))
@example(np.array([[[v, 0.0], [1.0, 1.0], [0.0, 2.0]] for v in _ODD]
                  + [np.eye(3, 2) * 2.0 ** -500]))
def test_each_matrix_takes_the_fallback_rule_alone(A):
    # the rule is per matrix: in a stack, each matrix's singular values,
    # signed Q and inverse are those of its own call, whatever its
    # neighbours, and a bare matrix's are those of its one-matrix stack;
    # a 1 x 1's singular values are LAPACK's bits
    kernels = [singular_values, sigma_max, signed_qr]
    if A.shape[1] == A.shape[2]:
        kernels.append(inverse)
    for kernel in kernels:
        alone = [_outcome(kernel, M[None]) for M in A]
        assert [_outcome(kernel, M) for M in A] == alone
        if np.linalg.LinAlgError in alone:
            assert _outcome(kernel, A) is np.linalg.LinAlgError
        else:
            assert _outcome(kernel, A) == [b"".join(x) for x in zip(*alone)]
    if A.shape[1:] == (1, 1):
        assert _outcome(singular_values, A) == _outcome(
            lambda a: np.linalg.svd(a, compute_uv=False), A)


@pytest.mark.parametrize("sup", [
    lambda d, f, pts: involutivity_constant(f, d, pts),
    lambda d, f, pts: bound_parts(evaluate_frames([f], pts),
                                  d.orthonormal_bases_at(pts)),
    lambda d, f, pts: asymptotic_involutivity_trace([f], [d], 0.1, pts),
    lambda d, f, pts: asymptotic_involutivity_trace(
        evaluate_frames([f], pts), [d], 0.1, pts),
    lambda d, f, pts: exterior_regularity_trace([f], d, 0.1, pts),
], ids=["involutivity_constant", "bound_parts", "asymptotic_trace",
        "asymptotic_trace_of_values", "exterior_trace"])
def test_sup_over_an_empty_lattice_is_range_error(sup):
    # a sup over no points has no value; an empty pushforward batch,
    # which evaluates its frame the same way but takes no sup, is []
    from contfrob.surface import FlowConfig, pushforward_bound_check
    d = contact_distribution()
    frame, pts = annihilator_frame(d), np.zeros((0, 3))
    with pytest.raises(RangeError, match=r"^a lattice sup needs points, got "
                                         r"points of shape \(0, 3\)$"):
        sup(d, frame, pts)
    assert pushforward_bound_check(d, frame, pts, np.zeros((0, 2)), pts,
                                   FlowConfig(), 1.0) == []


def test_involutivity_constant_involutive_is_zero():
    d = involutive_distribution()
    m = involutivity_constant(annihilator_frame(d), d, BOX3.lattice(5))
    assert m.value == 0.0


def test_involutivity_constant_contact_vertical_insensitive():
    # d eta = dx ^ dy pairs to zero against the vertical d/dz, so the
    # mixing constant vanishes even though the defect is 1.
    d = contact_distribution()
    m = involutivity_constant(annihilator_frame(d), d, BOX3.lattice(5))
    assert m.value <= 1e-12
    assert m.protocol["kind"] == "lower-bound"


def test_involutivity_constant_scale_invariance():
    # a distribution whose frame has a nonzero mixing constant
    d = Distribution(("x",), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x*y1")]],
                     Box.from_dict({"x": (-0.5, 0.5), "y1": (-0.5, 0.5),
                                    "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(5)
    m1 = involutivity_constant(frame, d, pts)
    assert m1.value > 0.0
    for c in (3.0, 0.25):
        m2 = involutivity_constant(frame.scale(c), d, pts)
        assert abs(m2.value - m1.value) <= 1e-12 * max(1.0, m1.value)


def test_involutivity_constant_against_brute_force():
    # dense sampling over both unit spheres must bracket the SVD-assisted
    # estimate from below and land within a few percent
    d = Distribution(("x1", "x2"), ("y1", "y2"),
                     [[parse_field("y1*y2"), parse_field("x2 + y2")],
                      [parse_field("0.5*y2"), parse_field("x1*y1")]],
                     Box.from_dict({"x1": (-0.5, 0.5), "x2": (-0.5, 0.5),
                                    "y1": (-0.5, 0.5), "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    pts = d.domain.lattice(3)
    est = involutivity_constant(frame, d, pts, n_dirs=512, seed=0)
    assert est.value > 0.0

    rng = np.random.default_rng(7)
    bases = d.orthonormal_bases_at(pts)
    A, dA = frame.matrices_at(pts)
    y_idx = list(frame.y_indices)
    inv = np.linalg.inv(A[:, :, y_idx])
    brute = 0.0
    for _ in range(4000):
        w = rng.standard_normal(2)
        w /= np.linalg.norm(w)
        t = rng.standard_normal(2)
        t /= np.linalg.norm(t)
        u = np.zeros((len(pts), 4))
        u[:, y_idx] = np.einsum("pln,n->pl", inv, w)
        v = np.einsum("pda,a->pd", bases, t)
        vals = np.linalg.norm(np.einsum("pc,pjcd,pd->pj", u, dA, v), axis=1)
        brute = max(brute, float(np.max(vals)))
    assert brute <= est.value * (1.0 + 1e-9)
    assert est.value <= brute * 1.05


def _sampled_involutivity_constants(frame, dist, pts, counts, seed=3):
    """M_A with (w, v) restricted to the first k of one seeded sample of
    unit directions on each sphere, for each k in counts: a sphere of
    dimension 0 ({+-1}) is not sampled.  The sets are nested, so the
    values are a lower bound that grows with k."""
    rng = np.random.default_rng(seed)
    bases = dist.orthonormal_bases_at(pts)
    values = evaluate_frames([frame], pts)
    n, r = values.U.shape[-1], bases.shape[-1]
    k_max = max(counts)
    w = _unit(rng.standard_normal((k_max if n > 1 else 1, n)))
    t = _unit(rng.standard_normal((k_max if r > 1 else 1, r)))
    u = np.einsum("pcl,sl->psc", values.U, w)
    v = np.einsum("pda,ta->ptd", bases, t)
    # (P, S, T): |dA_p(u_s, v_t)| over the frame rows j
    grid = np.linalg.norm(np.einsum("psc,pjcd,ptd->pstj", u, values.dA, v),
                          axis=-1)
    return [float(np.max(grid[:, :k, :k])) for k in counts]


def _assert_sampling_climbs_to_exact(frame, dist, pts, counts):
    exact = involutivity_constant(frame, dist, pts).value
    vals = _sampled_involutivity_constants(frame, dist, pts, counts)
    assert vals == sorted(vals)
    assert vals[-1] <= exact * (1.0 + 1e-12)
    assert exact <= vals[-1] * 1.001
    return vals


def test_sphere_sampling_monotone_in_directions():
    # one frame row (n = 1): only the E-sphere is sampled
    d = Distribution(("x1", "x2"), ("y1",),
                     [[parse_field("y1 + x2")], [parse_field("x1*y1")]],
                     Box.from_dict({"x1": (-0.5, 0.5), "x2": (-0.5, 0.5),
                                    "y1": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    _assert_sampling_climbs_to_exact(frame, d, d.domain.lattice(5),
                                     (8, 32, 128))


def test_sphere_sampling_monotone_in_directions_two_rows():
    # two frame rows (n = 2), rank-one E: only the u-sphere is sampled
    d = Distribution(("x",), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x*y1")]],
                     Box.from_dict({"x": (-0.5, 0.5), "y1": (-0.5, 0.5),
                                    "y2": (-0.5, 0.5)}))
    frame = annihilator_frame(d)
    vals = _assert_sampling_climbs_to_exact(frame, d, d.domain.lattice(5),
                                            (8, 32, 128))
    assert vals[0] > 0.0


def test_sphere_sampling_monotone_in_directions_sampled_u_sphere():
    # m = 2 and n = 2: both the E-sphere and the u-sphere are sampled
    names = ("x1", "x2", "y1", "y2")
    d = Distribution(("x1", "x2"), ("y1", "y2"),
                     [[parse_field("y2"), parse_field("x1*y1")],
                      [parse_field("x2*y2"), parse_field("y1")]],
                     Box.from_dict({v: (-0.5, 0.5) for v in names}))
    frame = annihilator_frame(d)
    vals = _assert_sampling_climbs_to_exact(frame, d, d.domain.lattice(4),
                                            (2, 8, 32, 128))
    assert vals[1] > vals[0]


_COEFFS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def graph_distributions(draw, max_m, y_names):
    """X_i = d/dx_i + sum_j a_ij d/dy_j, each a_ij a polynomial of degree
    <= 2 in (x_1..x_m, y_names), 1 <= m <= max_m, on [-0.5, 0.5]^(m+n)."""
    m = draw(st.integers(1, max_m))
    names = tuple(f"x{i}" for i in range(1, m + 1)) + y_names
    monomials = [()] + [(a,) for a in names] + \
        [(a, b) for i, a in enumerate(names) for b in names[i:]]

    def polynomial():
        f = ZERO
        for mono in draw(st.lists(st.sampled_from(monomials), max_size=4)):
            term = Const(draw(_COEFFS))
            for v in mono:
                term = term * Coord(v)
            f = f + term
        return f

    coeffs = [[polynomial() for _ in y_names] for _ in range(m)]
    box = Box.from_dict({v: (-0.5, 0.5) for v in names})
    return Distribution(names[:m], y_names, coeffs, box)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _brute_bilinear_sup(T, L, R, n_samples=128, seed=0):
    """max over p and unit a, b of |(L_p a)^T T_p (R_p b)|.

    Both spheres are sampled densely; each point's best pair is then
    polished by a pattern search on both spheres with the step halved
    down to 1e-10.  No singular value is computed.
    """
    rng = np.random.default_rng(seed)
    a = _unit(rng.standard_normal((n_samples, L.shape[-1])))
    b = _unit(rng.standard_normal((n_samples, R.shape[-1])))
    La = np.einsum("pcr,sr->psc", L, a)
    Rb = np.einsum("pdq,tq->pdt", R, b)
    grid = np.abs(La @ T @ Rb)
    best = grid.reshape(len(T), -1).argmax(axis=1)
    ia, ib = np.unravel_index(best, grid.shape[1:])
    cur = [a[ia], b[ib]]

    def value(pair):
        u = np.einsum("pcr,pr->pc", L, pair[0])
        v = np.einsum("pdq,pq->pd", R, pair[1])
        return np.abs(np.einsum("pc,pcd,pd->p", u, T, v))

    val = value(cur)
    step = 0.1
    while step > 1e-10:
        improved = True
        while improved:
            improved = False
            for s in range(2):
                for c in range(cur[s].shape[-1]):
                    for sign in (1.0, -1.0):
                        cand = [cur[0].copy(), cur[1].copy()]
                        cand[s][:, c] += sign * step
                        cand[s] = _unit(cand[s])
                        v = value(cand)
                        up = v > val
                        if np.any(up):
                            improved = True
                            val = np.where(up, v, val)
                            for k in range(2):
                                cur[k][up] = cand[k][up]
        step /= 2.0
    return float(np.max(val))


@settings(max_examples=30, deadline=None)
@given(graph_distributions(3, ("y",)))
def test_codim_one_sups_are_exact(dist):
    frame = annihilator_frame(dist)
    pts = dist.domain.lattice(3)
    bases = dist.orthonormal_bases_at(pts)
    A, dA = frame.matrices_at(pts)
    y_idx = list(frame.y_indices)
    U = np.zeros((len(pts), dist.dim, 1))
    U[:, y_idx, :] = np.linalg.inv(A[:, :, y_idx])
    atol = 1e-12 * max(1.0, float(np.max(np.abs(dA))))

    d_restr, _, m_const = bound_parts(evaluate_frames([frame], pts), bases)[0]
    assert m_const.value == involutivity_constant(frame, bases, pts).value
    for est in (d_restr, m_const):
        assert est.protocol["u_maximization"] == "exact-svd"
        assert est.protocol["kind"] == "lower-bound"
        assert "n_dirs" not in est.protocol

    for exact, left in ((d_restr.value, bases), (m_const.value, U)):
        brute = _brute_bilinear_sup(dA[:, 0], left, bases)
        assert abs(exact - brute) <= 1e-6 * exact + atol


def rotation_pencil_distribution():
    """X1 = d/dx1 - y1 d/dy1 - y2 d/dy2, X2 = d/dx2 + y2 d/dy1 - y1 d/dy2:
    at each point C[:, :, 0] = I / s and C[:, :, 1] = J / s with
    s = sqrt(1 + |y|^2), so sigma_1 = sigma_2 at every angle and the
    degree-6 stationarity polynomial of the exact M_A vanishes."""
    names = ("x1", "x2", "y1", "y2")
    return Distribution(("x1", "x2"), ("y1", "y2"),
                        [[parse_field("-y1"), parse_field("-y2")],
                         [parse_field("y2"), parse_field("-y1")]],
                        Box.from_dict({v: (-0.5, 0.5) for v in names}))


def _angle_grid_sup(value, n_points, n_angles=512, n_peaks=3):
    """Per-point max over theta of value(theta), theta of period pi.

    value maps angles (P, S) to values (P, S).  Returns the max over a
    grid of n_angles angles, and the max after refining the grid's
    n_peaks best local maxima by golden-section search over their
    neighbouring grid cells.
    """
    h = np.pi / n_angles
    theta = np.broadcast_to(np.arange(n_angles) * h - 0.5 * np.pi,
                            (n_points, n_angles))
    grid = value(theta)
    peak = (grid >= np.roll(grid, 1, axis=1)) & \
        (grid >= np.roll(grid, -1, axis=1))
    best = np.argsort(np.where(peak, grid, -np.inf), axis=1)[:, -n_peaks:]
    lo = np.take_along_axis(theta, best, axis=1) - h
    hi = lo + 2.0 * h
    g = 0.5 * (np.sqrt(5.0) - 1.0)
    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    fc, fd = value(c), value(d)
    for _ in range(60):
        left = fc >= fd  # the max lies in [lo, d]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        new = np.where(left, hi - g * (hi - lo), lo + g * (hi - lo))
        fnew = value(new)
        c, d = np.where(left, new, d), np.where(left, c, new)
        fc, fd = np.where(left, fnew, fd), np.where(left, fc, fnew)
    refined = np.maximum(np.max(fc, axis=1), np.max(fd, axis=1))
    return np.max(grid, axis=1), np.maximum(refined, np.max(grid, axis=1))


def _sigma_max_on_angles(K0, K1):
    """theta (P, S) -> sigma_max(cos(theta) K0_p + sin(theta) K1_p)."""
    def value(theta):
        K = np.cos(theta)[..., None, None] * K0[:, None] + \
            np.sin(theta)[..., None, None] * K1[:, None]
        return np.linalg.svd(K, compute_uv=False)[..., 0]
    return value


@settings(max_examples=30, deadline=None)
@given(graph_distributions(2, ("y1", "y2")))
@example(rotation_pencil_distribution())
def test_two_row_sups_are_exact(dist):
    # n = 2 rows with r = 1 or 2: the exact sups are >= every direction
    # of a dense angle grid and within 1e-12 of its refined maximum
    frame = annihilator_frame(dist)
    pts = dist.domain.lattice(3)
    bases = dist.orthonormal_bases_at(pts)
    values = evaluate_frames([frame], pts)
    d_restr, _, m_const = bound_parts(values, bases)[0]
    assert m_const.value == involutivity_constant(frame, bases, pts).value
    r = dist.m
    C = np.einsum("pcl,pjcd,pda->pjla", values.U, values.dA, bases)
    D2 = np.einsum("pda,pjde,peb->pjab", bases, values.dA, bases)
    if r == 1:
        # the unit v in E is +-B e_0; the angle is that of unit w in R^2
        M_grid, M_brute = _angle_grid_sup(
            lambda th: np.linalg.norm(
                np.cos(th)[..., None] * C[:, None, :, 0, 0]
                + np.sin(th)[..., None] * C[:, None, :, 1, 0], axis=-1),
            len(pts))
        D_grid = D_brute = np.zeros(len(pts))
    else:
        # the angle is that of unit v = B t in E; w is an exact SVD
        M_grid, M_brute = _angle_grid_sup(
            _sigma_max_on_angles(C[..., 0], C[..., 1]), len(pts))
        # the angle is that of unit u = B t in E; v is an exact SVD
        D_grid, D_brute = _angle_grid_sup(
            _sigma_max_on_angles(D2[:, :, 0], D2[:, :, 1]), len(pts))
    # an exactly vanishing sup may read as rounding of the dA entries
    atol = 1e-13 * max(1.0, float(np.max(np.abs(values.dA))))
    for est, grid, brute in ((m_const, M_grid, M_brute),
                             (d_restr, D_grid, D_brute)):
        assert est.protocol["kind"] == "lower-bound"
        assert np.max(grid) <= est.value * (1.0 + 1e-14) + atol
        assert abs(est.value - np.max(brute)) <= 1e-12 * est.value + atol


_I2, _J2 = np.eye(2), np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("C0, C1, expected", [
    (_I2, _J2, 1.0),
    (_I2, 2.0 * _J2, 2.0),
    (_I2, _I2 + _J2, 0.5 * (1.0 + np.sqrt(5.0))),
    (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 1.0)],
    ids=["rotations", "scaled", "golden", "diagonal"])
def test_two_by_two_sup_on_conformal_and_diagonal_pencils(C0, C1, expected):
    # the first three pencils are conformal at every angle (sigma_1 =
    # sigma_2), so the degree-6 polynomial vanishes; the golden one peaks
    # off both axes, at a critical point of |(a + d, b - c)|
    assert pencil_sigma_max(C0[None], C1[None])[0] == \
        pytest.approx(expected, rel=1e-14)


def _pencil_frame_values(C):
    """FrameValues and bases on coordinates (x1, x2, y1, y2), with E the
    x-plane and A|_Y = I, whose n = r = 2 mixing pencil at row p is
    C[p, j, l, a] = dA_j(e_{y_l}, e_{x_a}); one lattice point per row of
    the first frame segment."""
    K, N = C.shape[:2]
    C = C.reshape((K * N, 2, 2, 2))
    dA = np.zeros((K * N, 2, 4, 4))
    dA[:, :, 2:, :2] = C
    dA[:, :, :2, 2:] = -np.swapaxes(C, -1, -2)
    U = np.zeros((K * N, 4, 2))
    U[:, 2:] = np.eye(2)
    bases = np.zeros((K * N, 4, 2))
    bases[:, :2] = np.eye(2)
    pts = np.arange(4.0 * N).reshape(N, 4)
    return FrameValues(pts, np.zeros((K * N, 2, 4)), dA,
                       np.broadcast_to(np.eye(2), (K * N, 2, 2)), U), bases


# this pencil's sup, 2.0655911179772892, lies at a root of the degree-6
# polynomial; at the six closed-form angles it reaches only 2.0
_ROOT_PENCIL = np.array([[[0.0, 0.0], [-2.0, 0.0]], [[2.0, 0.0], [0.0, 1.0]]])


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(2, 3), st.integers(1, 6),
                                    st.just(2), st.just(2), st.just(2)),
              elements=st.integers(-1000, 1000).map(lambda v: v / 1000.0)),
       st.integers(0, 2))
@example(np.stack([[0.5 * _ROOT_PENCIL, _ROOT_PENCIL],
                   [_ROOT_PENCIL, 0.5 * _ROOT_PENCIL]]), 1)
@example(np.ones((3, 4, 2, 2, 2)), 2)
def test_pruned_two_by_two_sups_match_every_row_exact(pencils, scaled):
    # rows pruned by their bounds can be neither a segment's max nor its
    # first argmax: value and argmax equal those of exact per-row values
    # bit for bit, also with one segment 1e3 times the others
    from contfrob import geometry, stacked
    pencils = pencils.copy()
    pencils[scaled % len(pencils)] *= 1e3
    K, N = pencils.shape[:2]
    values, bases = _pencil_frame_values(pencils)
    C = pencils.reshape((K * N, 2, 2, 2))
    with mock.patch.object(stacked, "_root_real_parts",
                           wraps=stacked._root_real_parts) as roots:
        # each row its own segment: every row takes the root path
        every_row = pencil_sigma_max(C[..., 0], C[..., 1], 1)
    assert roots.call_args.args[0].shape[0] == K * N
    exact = every_row.reshape(K, N)
    sups = geometry._mixing_sups(values, bases)
    assert [s.value for s in sups] == [float(v) for v in exact.max(axis=1)]
    for sup, i in zip(sups, exact.argmax(axis=1)):
        assert np.array_equal(sup.argmax_point, values.points[i])
        assert sup.protocol["u_maximization"] == "exact-angles"


def test_root_pencil_sup_lies_off_the_closed_form_angles():
    # beside a pencil 10 times larger, _ROOT_PENCIL's row is pruned and
    # returns the closed-form lower bound; on its own it is exact
    C = np.stack([_ROOT_PENCIL, 10.0 * _ROOT_PENCIL])
    assert pencil_sigma_max(C[:1, ..., 0], C[:1, ..., 1])[0] == \
        pytest.approx(2.0655911179772892, rel=1e-14)
    assert pencil_sigma_max(C[..., 0], C[..., 1])[0] == 2.0


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3)])
def test_unsupported_frame_shapes_are_range_errors(m, n):
    # r = m, n rows: (n, r) = (2, 3) and (3, 2) have no exact sup
    xs = tuple(f"x{i}" for i in range(m))
    ys = tuple(f"y{j}" for j in range(n))
    coeffs = [[Coord(ys[(i + j) % n]) * Coord(xs[i]) for j in range(n)]
              for i in range(m)]
    dist = Distribution(xs, ys, coeffs,
                        Box.from_dict({v: (-0.5, 0.5) for v in xs + ys}))
    frame = annihilator_frame(dist)
    pts = dist.domain.lattice(2)
    shape = f"n = {n} frame rows on rank r = {m}"
    with pytest.raises(RangeError, match=shape):
        involutivity_constant(frame, dist, pts)
    with pytest.raises(RangeError, match=shape):
        bound_parts(evaluate_frames([frame], pts),
                    dist.orthonormal_bases_at(pts))


def test_trace_zero_prefactor_skips_overflowing_exponential():
    # (1 + 1000 x^2) dy is involutive (wedge_sup = 0) with d_sup = 1000,
    # so e^{eps d_sup} overflows at eps = 1; 0 * e^{...} must stay 0
    coords = ("x", "z", "y")
    box = Box.from_dict({"x": (-0.5, 0.5), "z": (-0.5, 0.5),
                         "y": (-0.5, 0.5)})
    frame = FrameSection((one_form(coords,
                                   {"y": parse_field("1 + 1000*x^2")}),),
                         coords, ("y",))
    dist = Distribution(("x", "z"), ("y",), [[ZERO], [ZERO]], box)
    # the limit's own annihilator dy - 1000 z^2 dx: no gap, d_sup = 1000
    limit = Distribution(("x", "z"), ("y",),
                         [[parse_field("1000*z^2")], [ZERO]], box)
    pts = box.lattice(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asym = asymptotic_involutivity_trace([frame], [dist], 1.0, pts)
        ext = exterior_regularity_trace([annihilator_frame(limit)], limit,
                                        1.0, pts)
    assert asym[0].parts["wedge_sup"] == 0.0
    assert asym[0].parts["d_sup"] == 1000.0
    assert asym[0].strong == 0.0
    assert ext[0].parts["d_sup"] == 1000.0
    assert ext[0].strong == 0.0


def test_trace_weights_overflow_to_inf_without_warning():
    # dz - 1000 y dx is not closed: d_sup = 1000 and wedge_sup > 0, so the
    # strong surrogate's e^{eps d_sup} overflows at eps = 1 to inf, as
    # scaled_exp gives, and no RuntimeWarning fires
    dist = Distribution(("x", "y"), ("z",), [[1000.0 * y], [ZERO]], BOX3)
    pts = BOX3.lattice(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        asym, = asymptotic_involutivity_trace([annihilator_frame(dist)],
                                              [dist], 1.0, pts)
    assert asym.parts["d_sup"] == 1000.0 and asym.parts["wedge_sup"] > 0.0
    assert asym.strong == math.inf


def test_asymptotic_trace_involutive_sequence_zero():
    d = involutive_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = asymptotic_involutivity_trace([frame] * 3, [d] * 3, 1.0, pts)
    assert all(t.q == 0.0 and t.strong == 0.0 for t in trace)


def test_asymptotic_trace_names_both_lengths():
    d = involutive_distribution()
    frame = annihilator_frame(d)
    with pytest.raises(RangeError, match=r"^frame and distribution "
                       r"sequences must align, got 3 frames and 2 "
                       r"distributions$"):
        asymptotic_involutivity_trace([frame] * 3, [d] * 2, 1.0,
                                      BOX3.lattice(3))


def test_evaluate_frames_needs_one_frame_shape():
    frame = annihilator_frame(contact_distribution())
    pts = BOX3.lattice(3)
    both = evaluate_frames([frame, frame.scale(parse_field("2"))], pts)
    assert both.frames == 2 and np.array_equal(both.A[27:], 2.0 * both.A[:27])
    tilted = FrameSection(frame.rows, frame.coords, ("y",))
    with pytest.raises(RangeError, match="must share rows, coordinates and "
                       "vertical axes"):
        evaluate_frames([frame, tilted], pts)


def test_asymptotic_trace_contact_no_decay():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = asymptotic_involutivity_trace([frame] * 3, [d] * 3, 1.0, pts)
    qs = [t.q for t in trace]
    assert qs[0] > 0.0
    assert qs[0] == pytest.approx(qs[-1])
    strongs = [t.strong for t in trace]
    assert strongs[0] > 0.0 and strongs[0] == pytest.approx(strongs[-1])


def test_exterior_regularity_annihilator_sequence_zero():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    trace = exterior_regularity_trace([frame] * 3, d, 1.0, pts)
    assert all(t.q <= 1e-13 for t in trace)
    assert all(t.strong == 0.0 for t in trace)


def _mollified_graph_frames(expr_text, eps_list, one_dim_var=None):
    """Frames dy - a^eps dx for a = expr over (x, y), per-eps regridding."""
    from contfrob.forms import one_form
    from contfrob.geometry import FrameSection
    coords = ("x", "y")
    frames = []
    for eps in eps_list:
        h = eps / 10.0
        if one_dim_var is None:
            pad = Box.from_dict({"x": (-0.9, 0.9), "y": (-0.9, 0.9)})
            g = grid_from_field(parse_field(expr_text), pad,
                                [int(1.8 / h) + 1] * 2)
            a_eps = to_spline_field(mollify(g, eps), ("x", "y"))
        else:
            pad = Box.from_dict({one_dim_var: (-0.9, 0.9)})
            g = grid_from_field(parse_field(expr_text), pad,
                                int(1.8 / h) + 1)
            a_eps = to_spline_field(mollify(g, eps), (one_dim_var,))
        rows = (one_form(coords, {"y": Const(1.0), "x": -a_eps}),)
        frames.append(FrameSection(rows, coords, ("y",)))
    return frames


def test_exterior_regularity_mollified_lipschitz_decays():
    eps_list = [2.0 ** -k for k in (2, 3, 4, 5)]
    frames = _mollified_graph_frames(
        "((x - 0.1)^2)^0.5 + 0.5*((y + 0.05)^2)^0.5", eps_list)
    limit = Distribution(
        ("x",), ("y",),
        [[parse_field("((x - 0.1)^2)^0.5 + 0.5*((y + 0.05)^2)^0.5")]],
        Box.from_dict({"x": (-0.4, 0.4), "y": (-0.4, 0.4)}))
    pts = limit.domain.lattice(7)
    trace = exterior_regularity_trace(frames, limit, 1.0, pts)
    strongs = [t.strong for t in trace]
    # |a^eps - a| ~ eps while |d eta| stays bounded: geometric decay
    assert strongs[-1] < strongs[0] / 4.0
    for t in trace:
        assert t.parts["d_sup"] < 3.0


def test_exterior_regularity_mollified_hoelder_diverges():
    eps_list = [2.0 ** -k for k in (4, 6, 8, 10)]
    frames = _mollified_graph_frames("((y^2)^0.5)^0.5", eps_list,
                                     one_dim_var="y")
    limit = Distribution(("x",), ("y",), [[parse_field("((y^2)^0.5)^0.5")]],
                         Box.from_dict({"x": (-0.4, 0.4),
                                        "y": (-0.4, 0.4)}))
    # probe points must resolve the width-eps kink region around y = 0
    ys = sorted({0.0, 0.1, 0.2, 0.39} |
                {s * e for e in eps_list for s in (0.25, 0.5, 1.0, 2.0)} |
                {-s * e for e in eps_list for s in (0.25, 0.5, 1.0)})
    pts = np.array([[xv, yv] for xv in (-0.3, 0.0, 0.3) for yv in ys])
    trace = exterior_regularity_trace(frames, limit, 1.0, pts)
    strongs = [t.strong for t in trace]
    # sqrt-kernel derivative blows up like eps^{-1/2}: e^{eps0 |d eta|} wins
    assert strongs[-1] > 10.0 * strongs[0]
    assert trace[-1].parts["d_sup"] > 1.5 * trace[0].parts["d_sup"]


def test_compatibility_defect_orthonormal_rotated():
    from contfrob.forms import one_form
    from contfrob.geometry import FrameSection
    coords = ("x", "y1", "y2")
    rows_a = (one_form(coords, {"y1": Const(1.0)}),
              one_form(coords, {"y2": Const(1.0)}))
    c, s = np.cos(0.3), np.sin(0.3)
    rows_b = (one_form(coords, {"y1": Const(c), "y2": Const(s)}),
              one_form(coords, {"y1": Const(-s), "y2": Const(c)}))
    a = FrameSection(rows_a, coords, ("y1", "y2"))
    b = FrameSection(rows_b, coords, ("y1", "y2"))
    pts = np.zeros((1, 3))
    # A o (B|_Y)^{-1} is a rotation: every singular value is 1
    comp = a.matrix_at(pts) @ evaluate_frames([b], pts).U
    sigma = np.linalg.svd(comp, compute_uv=False)
    assert np.max(np.abs(sigma - 1.0)) <= 1e-12


def test_max_principal_angle():
    b1 = np.eye(3)[:, :2][None]
    c, s = np.cos(0.2), np.sin(0.2)
    b2 = np.array([[c, 0.0], [0.0, 1.0], [s, 0.0]])[None]
    assert max_principal_angle(b1, b2)[0] == pytest.approx(0.2)


def _bases_at_angle(rng, d, r, theta, count):
    """count pairs of orthonormal d x r bases whose largest principal
    angle is theta, built in extended precision and rounded once, so
    each is orthonormal to within the rounding of its entries: b1 holds
    r columns of a random orthonormal Q, b2 turns b1's first column by
    theta toward Q's column r and, for r = 2, turns its two columns by a
    random angle within their plane."""
    ld = np.longdouble
    cols = []
    for v in np.moveaxis(rng.standard_normal((count, d, d)).astype(ld), -1,
                         0):
        for _ in range(2):
            for q in cols:
                v = v - np.sum(q * v, -1, keepdims=True) * q
        cols.append(v / np.sqrt(np.sum(v * v, -1, keepdims=True)))
    c, s = ((ld(0.0), ld(1.0)) if theta == np.pi / 2
            else (np.cos(ld(theta)), np.sin(ld(theta))))
    b2 = [c * cols[0] + s * cols[r]] + cols[1:r]
    if r == 2:
        phi = rng.uniform(0.0, 2.0 * np.pi, (count, 1)).astype(ld)
        b2 = [np.cos(phi) * b2[0] + np.sin(phi) * b2[1],
              np.cos(phi) * b2[1] - np.sin(phi) * b2[0]]
    return (np.stack(cols[:r], -1).astype(float),
            np.stack(b2, -1).astype(float))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the bases are built in extended precision")
@pytest.mark.parametrize("d, r", [(2, 1), (3, 1), (3, 2)])
def test_max_principal_angle_is_accurate_at_every_angle(d, r):
    # the sine resolves what arccos of the cosine rounds to multiples of
    # 2^-26; every angle is within 8u max(1, theta)
    rng = np.random.default_rng(30 + 10 * d + r)
    thetas = np.concatenate([[0.0], np.geomspace(1e-15, np.pi / 2, 40)[:-1],
                             [np.pi / 2]])
    for theta in thetas:
        b1, b2 = _bases_at_angle(rng, d, r, theta, 500)
        err = np.abs(max_principal_angle(b1, b2) - theta)
        assert np.max(err) <= 8 * 2.0 ** -53 * max(1.0, theta), theta


def test_sup_helpers_exactness():
    d = contact_distribution()
    frame = annihilator_frame(d)
    pts = BOX3.lattice(5)
    inv = evaluate_frames([frame], pts).inv
    assert np.max(np.linalg.norm(inv, 2, axis=(1, 2))) == pytest.approx(1.0)
    bases = d.orthonormal_bases_at(pts)
    # annihilator restricted to its own kernel is ~0
    ext = exterior_regularity_trace([frame], bases, 1.0, pts)
    assert ext[0].parts["restricted"] <= 1e-13


def _special_form_trace_inputs():
    """Two mollified special-form frames (n = 2, the second rescaled so
    ||A^{-1}|| != 1) against the symbolic limit of paper example 2, on a
    lattice that reaches the domain's faces."""
    from contfrob import presets
    from contfrob.pdelab import involutive_mollified_frames
    sf, pde = presets.pde_example_2()
    fams = involutive_mollified_frames(sf, [2.0 ** -3, 2.0 ** -4],
                                       cells_per_radius=8)
    frames = [fams[0].frame,
              fams[1].frame.scale(parse_field("1 + x1*y2"))]
    return frames, pde.distribution(), sf.domain.lattice(3)


# the two traces of _special_form_trace_inputs on FITPACK-fitted leaves,
# field for field: (k, q, strong, parts).  Captured again when signed_qr
# and the 2 x 2 singular values became closed forms: the limit's
# orthonormal bases moved by rounding, and with them d_restricted and q
# by up to 1.0e-13 relative, restricted by 1.1e-14 and M by 2.4e-16.
# Captured again when congruence began to sum D_j R, then L^T of it, in
# index order, and the 2 x 2 inverse became adj / det: frame 1's
# d_restricted went 0.0005721178015040361 -> 0.000572117801504024
# (-2.1e-14 relative; the 50-digit sup of its rows lies between them,
# 1.06e-14 from each) and q with it, M 0.9072183773486597 ->
# 0.9072183773486596 and the exterior q by 1.9e-16 relative
_PINNED_ASYM = [
    (0, 6.0181676347742676e-05, 1.2765621906239134e-17,
     {"d_restricted": 4.914919529135052e-05, "inv_norm": 1.0,
      "M": 0.40501490484547503, "wedge_sup": 1.0408340855860843e-17,
      "d_sup": 0.40829655813057025, "eps": 0.5}),
    (1, 0.0008742752901018273, 1.7209835247275504e-16,
     {"d_restricted": 0.000572117801504024,
      "inv_norm": 0.970873786407767, "M": 0.9072183773486596,
      "wedge_sup": 7.786767633870738e-17, "d_sup": 1.586110402420285,
      "eps": 0.5})]
_PINNED_EXT = [
    (0, 0.006308669806908847, 0.004533192168730292,
     {"restricted": 0.00515216695820803, "inv_norm": 1.0,
      "M": 0.40501490484547503, "d_sup": 0.40829655813057025,
      "eps": 0.5}),
    (1, 0.0022392794612833542, 1.4065874642246625,
     {"restricted": 0.0014653641214008623,
      "inv_norm": 0.970873786407767, "M": 0.9072183773486596,
      "d_sup": 1.586110402420285, "eps": 0.5})]


def _special_form_traces():
    frames, limit, pts = _special_form_trace_inputs()
    asym = asymptotic_involutivity_trace(frames, [limit] * 2, 0.5, pts)
    ext = exterior_regularity_trace(frames, limit, 0.5, pts)
    return ([(e.k, e.q, e.strong, e.parts) for e in asym],
            [(e.k, e.q, e.strong, e.parts) for e in ext])


def test_trace_parts_pinned_two_row_special_form(fitpack_leaves):
    # d_restricted and M are the exact lattice sups of the n = r = 2
    # closed forms; every field must keep its bits.  The leaves are
    # FITPACK's, so the bits pin the trace arithmetic, not the spline's
    assert _special_form_traces() == (_PINNED_ASYM, _PINNED_EXT)


def _flat(entries):
    return [v for k, q, strong, parts in entries
            for v in (k, q, strong, *parts.values())]


def test_trace_parts_of_numpy_leaves_are_the_pinned_parts():
    # the numpy leaf is FITPACK's interpolant to rounding: each field
    # within 1e-9 relative, or 1e-15 for the rounding-level wedges
    got = _special_form_traces()
    for entries, pinned in zip(got, (_PINNED_ASYM, _PINNED_EXT)):
        assert [e[3].keys() for e in entries] == [e[3].keys() for e in pinned]
        assert _flat(entries) == pytest.approx(_flat(pinned), rel=1e-9,
                                               abs=1e-15)


def test_tangency_parts_pinned_contact():
    from contfrob import presets
    from contfrob.surface import FlowConfig, build_surface, tangency_defect
    contact = presets.contact_distribution()
    patch = build_surface(contact, np.array([0.1, -0.05, 0.02]), 0.1, 9,
                          FlowConfig(step=0.1 / 16))
    tan = tangency_defect(patch, contact, sup_res=5)
    assert tan.rhs == 0.2
    assert tan.parts == {"d_restricted": 1.0, "inv_norm": 1.0, "M": 0.0,
                         "m": 2, "eps1": 0.1, "sup_res": 5}


def test_scaled_exp_is_math_exp_with_overflow_as_inf():
    for prefactor, exponent in ((0.3, 1.7), (2.0, -40.0), (-1.5, 709.0)):
        assert scaled_exp(prefactor, exponent) == \
            prefactor * math.exp(exponent)
    assert scaled_exp(2.0, 1e4) == math.inf
    assert scaled_exp(-2.0, 1e4) == -math.inf
    # zero weights stay zero, even where the exponential overflows
    assert scaled_exp(0.0, 1e4) == 0.0


# (build, fill the cache, the cache's name): a cache is no constructor
# parameter, and filling it leaves equality as it was
_CACHES = {
    "distribution": (contact_distribution, annihilator_frame,
                     "_annihilator"),
    "frame": (lambda: annihilator_frame(contact_distribution()),
              lambda frame: frame.d_rows, "d_rows"),
    "ode-spec": (ode_peano, lambda spec: funnel(spec, [0.0, 0.0], 0.1,
                                                [1e-3, 1e-4], ensemble=2),
                 "_funnel_fields"),
}


@pytest.mark.parametrize("build, fill, name", _CACHES.values(), ids=_CACHES)
def test_equality_survives_caching(build, fill, name):
    a, b = build(), build()
    assert name not in inspect.signature(type(a)).parameters
    fill(a)
    assert name in vars(a) and name not in vars(b)
    assert a == b and repr(a) == repr(b)


def test_distribution_mismatch_is_range_error():
    with pytest.raises(RangeError, match="distribution needs 2 rows of 1"):
        Distribution(("x", "y"), ("z",), [[Const(0.0)]], BOX3)
    with pytest.raises(RangeError, match="distribution needs a domain box"):
        Distribution(("x",), ("y",), [[Const(0.0)]], BOX3)


def test_frame_rows_must_be_one_forms_over_its_coords():
    coords = ("x", "y")
    with pytest.raises(RangeError, match=r"frame row 1 must be a 1-form "
                                         r"over \('x', 'y'\)"):
        FrameSection((one_form(coords, {"y": Const(1.0)}),
                      one_form(("x", "z"), {"z": Const(1.0)})),
                     coords, ("y",))


def test_bases_for_another_lattice_are_range_error():
    d = contact_distribution()
    pts = BOX3.lattice(3)
    bases = d.orthonormal_bases_at(pts[:5])
    with pytest.raises(RangeError, match="bases for 5 points given on a "
                                         "lattice of 27 points"):
        involutivity_constant(annihilator_frame(d), bases, pts)


def test_bases_of_another_shape_are_range_error():
    # both calls returned a value before bases were checked by shape
    d = contact_distribution()
    pts = BOX3.lattice(3)
    frame = annihilator_frame(d)
    with pytest.raises(RangeError, match=re.escape(
            "dist_or_bases must be bases of shape (N, 3, r) with "
            "1 <= r <= 3, got (1, 3, 5)")):
        involutivity_constant(frame, np.ones((1, 3, 5)), pts[:1])
    with pytest.raises(RangeError, match=re.escape(
            "limit must be bases of shape (N, 3, r) with 1 <= r <= 3, "
            "got (27, 3, 4)")):
        exterior_regularity_trace([frame], np.ones((27, 3, 4)), 1.0, pts)
