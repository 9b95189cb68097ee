"""Dominated-splitting laboratory on torus maps.

Plane fields are transported by pullback, E_k(p) = Dphi^{-k} E_0(phi^k p),
with re-orthonormalization every step (raw jacobian products overflow in
conditioning long before they overflow in magnitude).  Domination reports
compare sup ||Dphi^k|_{E_k}|| against inf m(Dphi^k|_F) with the conorm
computed as the smallest singular value of the restriction, fit the
linear-growth envelope ||Dphi^k|_E|| <= kC + D, and evaluate the decay
quantity  ||Dphi^k|_E||^2 / m(Dphi^k|_F) * e^{eps ||Dphi^k|_E||}.

Pullback frames (phi^k)^* C_0 of a constant orthonormal annihilator frame
are exact annihilators of the transported plane field; their exterior
derivative is the pullback of dC_0, so it is computed pointwise from the
base frame's symbolic derivative and jacobian products, never from
composed expression trees: (Dphi^k)^T dC_0 Dphi^k, one
stacked.congruence over every step and point.

Cost model: every orbit and jacobian product comes from a Cocycle, which
evaluates phi once per orbit step over a fixed point set, Dphi once on
the stacked orbit, and builds the cumulative products Dphi^k when first
read.  A report, a transport sweep or a splitting pipeline up to k_max
therefore makes k_max map evaluations and one jacobian evaluation.
Cocycle.pullback_values evaluates the base frame of all its pullback
frames with one matrices_at on the stacked orbit points phi^k(p).  The
matrix work is O(k_max^2) in arithmetic but O(k_max) in library calls:
every E_k comes from one backward sweep over the chains with k > j,
which takes one stacked.inverse of the jacobians and makes no LAPACK
solve.  The sweep keeps its chains entry-major, (d, r, chain, point),
and transposes three times in all: the seed Q (one QR per point for a
constant E_0, broadcast to every chain), the inverses and the result.
Its step j is one stacked.transport_step: the live chains side by side
times the inverse at phi^j(p), by stacked.product's arithmetic, then
their signed Q, signed_qr's Gram-Schmidt closed form, in place.  The
forward chains Dphi^k E_k and Dphi^k F advance together with one matmul
per family and step, Dphi^k Y of the vertical unit vectors Y is read
from the products' columns, and each family's singular values are one
call of stacked.py's closed forms: sigma_max of a d x 2 from its R, the
norm of a d x 1 column (see there for their error bounds and the
matrices LAPACK takes instead).  Every kernel acts elementwise over its
stack, and a matrix LAPACK takes gets the bits of a call of its own, so
the stacked sweep gives the per-k results bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConeError, DegenerateSubspaceError, RangeError,
                     StepCountError)
from .fields import eval_fields
from .geometry import (FrameSection, asymptotic_involutivity_trace,
                       exterior_regularity_trace, frame_values,
                       max_principal_angle, scaled_exp)
from .report import csv_text
from .stacked import (congruence, inverse, sigma_max, signed_qr,
                      singular_values, transport_step)

__all__ = [
    "DiffeoSpec", "Cocycle", "PlaneFieldSamples", "SplittingReport",
    "transport", "domination_report",
    "splitting_involutivity_pipeline", "splitting_report_to_csv",
]


@dataclass
class DiffeoSpec:
    """Expression-backed diffeomorphism of the torus; points wrap mod 1."""

    coords: tuple
    forward: list       # fields for phi
    inverse: list       # fields for phi^{-1}

    def __post_init__(self):
        self.coords = tuple(self.coords)
        if not len(self.forward) == len(self.inverse) == self.dim:
            raise RangeError(f"diffeo spec needs one forward and one inverse "
                             f"field per coordinate {self.coords}, got "
                             f"{len(self.forward)} forward and "
                             f"{len(self.inverse)} inverse")
        self._jac_fwd = [[f.diff(c) for c in self.coords]
                         for f in self.forward]

    @property
    def dim(self):
        return len(self.coords)

    def inverted(self):
        """The inverse map as a DiffeoSpec (pullback under it = pushforward)."""
        return DiffeoSpec(self.coords, self.inverse, self.forward)

    def apply(self, pts):
        """phi pointwise: one forward step, (N, d)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.mod(eval_fields(self.forward, self.coords, pts), 1.0)

    def jacobian(self, pts):
        """(N, d, d) jacobians of phi at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return eval_fields(self._jac_fwd, self.coords, np.mod(pts, 1.0))

    def orbit(self, pts, k):
        """[p, phi(p), ..., phi^k(p)]: shape (k+1, N, d)."""
        out = [np.mod(np.atleast_2d(np.asarray(pts, dtype=float)), 1.0)]
        for _ in range(k):
            out.append(self.apply(out[-1]))
        return np.stack(out)


@dataclass
class PlaneFieldSamples:
    points: np.ndarray   # (N, d)
    bases: np.ndarray    # (N, d, r) orthonormal


class Cocycle:
    """Orbit and derivative cocycle of phi over fixed points, up to k_max.

    orbit[j] = phi^j(p) for j = 0..k_max, jacobians[j] = Dphi at phi^j(p)
    for j < k_max, as one (k_max, N, d, d) array from one jacobian call
    on the stacked orbit, and products[k] = Dphi^k_p, one
    (k_max + 1, N, d, d) array built on first read as P_0 = I and
    P_k = J_{k-1} @ P_{k-1}.  Everything that needs phi^k or Dphi^k
    over these points, for any k <= k_max, reads it from here.
    """

    def __init__(self, phi: DiffeoSpec, points, k_max):
        if k_max < 0:
            raise StepCountError(f"k_max must be >= 0, got {k_max}")
        self.phi = phi
        self.points = np.array(points, dtype=float, ndmin=2)
        self.k_max = int(k_max)
        self.orbit = phi.orbit(self.points, self.k_max)
        shape = (len(self.points), phi.dim, phi.dim)
        self.jacobians = phi.jacobian(
            self.orbit[:-1].reshape(-1, phi.dim)).reshape(
                (self.k_max,) + shape)

    @cached_property
    def products(self):
        """Dphi^k_p for k = 0..k_max, built on first read: a transport
        builds none."""
        P = np.empty((self.k_max + 1,) + self.jacobians.shape[1:])
        P[0] = np.eye(self.phi.dim)
        for k, J in enumerate(self.jacobians):
            np.matmul(J, P[k], out=P[k + 1])
        return P

    def transports(self, e0_bases, ks):
        """E_k for each k of the increasing steps ks: (len(ks), N, d, r).

        One backward sweep: chain i starts as E_0 at phi^{ks[i]}(p), and
        step j, from max(ks) - 1 down to 0, multiplies the chains with
        ks[i] > j, side by side, by the inverse of Dphi at phi^j(p), from
        one inverse of the jacobians of every step, and takes one QR
        over them, both in one stacked.transport_step on the chains kept
        entry-major; the seed Q, the inverses and the result are each
        transposed once, and a constant E_0 takes one QR per point,
        broadcast to every chain.  Every chain meets the products and
        QRs of a lone transport in the same order, so each E_k equals it
        bit for bit.
        A chain that meets a singular Dphi or loses transversality
        raises ConeError; of several, the one with the smallest k, as a
        loop over k would find first.
        """
        ks = self._steps(ks)
        if not ks or any(a >= b for a, b in zip(ks, ks[1:])):
            raise StepCountError(f"transport steps must increase, got {ks}")
        chains, bad = self._seed_chains(e0_bases, ks)
        # chains [lo, hi) are live: started (ks > j) and below any failure;
        # a chain with a degenerate seed stops there, as a lone one would
        hi = seed_hi = _first_bad_chain(bad) if bad.any() else len(ks)
        failure = None
        inv, singular = inverse(self.jacobians[:ks[-1]])
        stuck = singular.any(axis=1)
        # entry-major (d, d, step, 1, N), as transport_step takes them
        inv = np.ascontiguousarray(inv.transpose(2, 3, 0, 1))[:, :, :, None]
        for j in range(ks[-1] - 1, -1, -1):
            lo = bisect_right(ks, j)
            if lo >= hi:
                continue
            if stuck[j]:
                failure = (lo, j, int(np.argmax(singular[j])),
                           "Singular matrix")
                hi = lo
                continue
            bad = transport_step(inv[:, :, j], chains[:, :, lo:hi])
            if bad.any():
                i = lo + _first_bad_chain(bad)
                failure = (i, j, int(np.argmax(bad[i - lo])),
                           "rank-deficient subspace basis")
                hi = i
        if failure is not None:
            i, j, row, err = failure
            point = self.points[row]
            raise ConeError(f"transversality lost at step {j}: {err} (depth "
                            f"k = {ks[i]}, lattice point {row} at "
                            f"{point.tolist()})", point=point)
        if seed_hi < len(ks):
            raise DegenerateSubspaceError("rank-deficient subspace basis")
        return np.ascontiguousarray(chains.transpose(2, 3, 0, 1))

    def pullback_values(self, base: FrameSection, ks):
        """The pullback frames (phi^k)^* C_0 of the base frame C_0 for
        the steps ks on these points, as one FrameValues over len(ks)*N
        frame-major rows.

        The base is evaluated once on the stacked orbit points phi^k(p):
        one matrices_at gives A = C_0(phi^k p) Dphi^k_p and the pullback
        of dC_0 (zero when C_0 is constant), from jacobian products
        rather than composed expression trees.
        """
        ks = self._steps(ks)
        dim = self.phi.dim
        ends = self.orbit[ks].reshape(-1, dim)
        J = self.products[ks].reshape(-1, dim, dim)
        A, dA = base.matrices_at(ends)
        return frame_values(self.points, A @ J, congruence(J, dA, J),
                            base.y_indices)

    def _steps(self, ks):
        """The steps ks as ints, each checked to lie in 0..k_max."""
        ks = [int(k) for k in ks]
        for k in ks:
            if not 0 <= k <= self.k_max:
                raise StepCountError(f"k must lie in 0..{self.k_max}, "
                                     f"got {k}")
        return ks

    def _seed_chains(self, e0_bases, ks):
        """The signed Q of E_0 at phi^k(p) for each k of ks, entry-major
        (d, r, len(ks), N), and its rank mask (len(ks), N).  A constant
        E_0 takes one QR per point, broadcast to every chain."""
        if callable(e0_bases):
            seeds = [np.asarray(e0_bases(self.orbit[k]), dtype=float)
                     for k in ks]
        else:
            seeds = [np.asarray(e0_bases, dtype=float)]
        if seeds[0].shape[-2:-1] != (self.phi.dim,):
            raise RangeError(f"e0_bases must have d = {self.phi.dim} rows, "
                             f"got shape {seeds[0].shape}")
        shape = (len(self.points),) + seeds[0].shape[-2:]
        Q, bad = signed_qr(np.stack([np.broadcast_to(b, shape)
                                     for b in seeds]))
        return (np.broadcast_to(Q.transpose(2, 3, 0, 1),
                                Q.shape[2:] + (len(ks), shape[0])).copy(),
                np.broadcast_to(bad, (len(ks), shape[0])))


def _first_bad_chain(bad):
    """Index of the first chain with a rank-deficient row."""
    return int(np.argmax(np.any(bad, axis=1)))


def transport(phi: DiffeoSpec, e0_bases, k, points):
    """Pull back a plane field: E_k(p) = Dphi^{-k}(E_0 at phi^k(p)).

    e0_bases: (d, r) constant or callable points -> (N, d, r).
    Re-orthonormalizes after every inverse jacobian step.
    """
    cc = Cocycle(phi, points, k)
    return PlaneFieldSamples(cc.points, cc.transports(e0_bases, [k])[0])


@dataclass
class SplittingReport:
    k_values: list
    norm_E: list         # sup ||Dphi^k|_{E_k}||
    conorm_F: list       # inf m(Dphi^k|_F)
    growth_C: float
    growth_D: float
    growth_residual: float
    q: dict              # eps -> list of q_k
    dominated: bool
    angles: list = None  # angle(E_k, E_{k+1}) sup, when transported
    vertical_C: float = math.nan
    params: dict = field(default_factory=dict)


def domination_report(phi: DiffeoSpec, e0_bases, f_samples, k_max, points,
                      eps_list=(0.1, 0.5, 1.0)) -> SplittingReport:
    """Domination, linear-growth fit, and decay quantities up to k_max.

    e0_bases seeds the pulled-back family E_k; f_samples is the sampled
    complementary bundle (fixed per point).  The decay quantity per step
    is ||Dphi^k|_{E_k}||^2 / m(Dphi^k|_F) * e^{eps ||Dphi^k|_{E_k}||}
    for each eps of eps_list, each nonnegative and finite.  vertical_C
    is nan here; the splitting pipeline fits it.
    """
    report, _ = _domination(Cocycle(phi, points, k_max), e0_bases, f_samples,
                            eps_list, None)
    return report


def _domination(cc: Cocycle, e0_bases, f_samples, eps_list, y_indices):
    """domination_report over a built cocycle; also returns the E_k bases
    as one (k_max, N, d, r) stack.  When y_indices names the vertical
    coordinate axes, vertical_C is the empirical minimum of
    |Dphi^k v| / m(Dphi^k|_F) over unit vertical v, the fitted value of
    the existential comparison constant."""
    if cc.k_max < 1:
        raise StepCountError(f"domination needs k_max >= 1, got {cc.k_max}")
    for eps in eps_list:
        if not 0.0 <= eps < math.inf:
            raise RangeError(f"eps must be nonnegative and finite, got {eps}")
    points, dim = cc.points, cc.phi.dim
    f_bases = f_samples.bases if isinstance(f_samples, PlaneFieldSamples) \
        else np.asarray(f_samples, dtype=float)
    if f_bases.shape[:-2] not in ((), (len(points),)) \
            or f_bases.shape[-2:-1] != (dim,):
        raise RangeError(f"f_samples must be d = {dim} row bases, one for "
                         f"all {len(points)} lattice points or one for each, "
                         f"got shape {f_bases.shape}")
    f_bases = np.broadcast_to(f_bases, (len(points),) + f_bases.shape[-2:])
    ks = list(range(1, cc.k_max + 1))
    e_bases = cc.transports(e0_bases, ks)
    # one forward sweep: row k - 1 of M becomes Dphi^k E_k, and F_k
    # collects Dphi^k F, k = 1..k_max, one jacobian at a time: on the cat
    # map's 5 x 5 lattice, products P_k E_k miss a 60-digit reference by
    # up to 4.8e-5 relative at k = 15, and these steps' norms by 1.2e-16
    M, F, F_k = e_bases.copy(), f_bases.copy(), []
    for j, J in enumerate(cc.jacobians):
        M[j:] = J @ M[j:]
        F = J @ F
        F_k.append(F)
    norm_E = [float(v) for v in np.max(sigma_max(M), axis=1)]
    bot = singular_values(np.stack(F_k))[..., -1]
    conorm_F = [float(v) for v in np.min(bot, axis=1)]
    vertical_C = math.nan
    if y_indices is not None:
        y_min = singular_values(cc.products[1:][..., list(y_indices)])[..., -1]
        vertical_C = min([math.inf] + [float(v) for v in
                                       np.min(y_min / bot, axis=1)])
    angles = [float(v) for v in np.max(max_principal_angle(
        e_bases[:-1], e_bases[1:]), axis=1)]

    A = np.stack([np.asarray(ks, dtype=float), np.ones(len(ks))], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.asarray(norm_E), rcond=None)
    resid = float(np.max(np.abs(A @ sol - np.asarray(norm_E))))
    q = {}
    for eps in eps_list:
        q[eps] = [scaled_exp(nE ** 2 / cF, eps * nE)
                  for nE, cF in zip(norm_E, conorm_F)]
    dominated = norm_E[0] < conorm_F[0]
    report = SplittingReport(ks, norm_E, conorm_F, float(sol[0]),
                             float(sol[1]), resid, q, dominated, angles,
                             vertical_C, {"points": len(points),
                                          "eps_list": list(eps_list)})
    return report, e_bases


def splitting_involutivity_pipeline(phi: DiffeoSpec, e0_bases,
                                    base_frame: FrameSection, f_samples,
                                    k_max, eps, points, limit, *,
                                    n_dirs=None, seed=None):
    """Assemble pullback frames and transported fields, run both traces.

    Requires domination on the lattice; returns (report, asymptotic
    trace, exterior-regularity trace), the traces None when it fails.
    The regularity trace restricts against limit, the (N, d, r) limit
    bases, and vertical_C is fitted over the base frame's y_indices.
    The k_max frames are evaluated once, as one stack, and both traces
    read it.  n_dirs and seed are ignored, as in
    geometry.involutivity_constant.
    """
    cc = Cocycle(phi, points, k_max)
    report, dists = _domination(cc, e0_bases, f_samples, (eps,),
                                base_frame.y_indices)
    if not report.dominated:
        return report, None, None
    values = cc.pullback_values(base_frame, range(1, k_max + 1))
    asym = asymptotic_involutivity_trace(values, dists, eps, cc.points)
    ext = exterior_regularity_trace(values, limit, eps, cc.points)
    return report, asym, ext


def splitting_report_to_csv(rep: SplittingReport):
    meta = [("report", "splitting"), ("dominated", rep.dominated),
            ("growth_C", rep.growth_C), ("growth_D", rep.growth_D),
            ("growth_residual", rep.growth_residual),
            ("vertical_C", rep.vertical_C)]
    meta += [(f"param.{k}", rep.params[k]) for k in sorted(rep.params)]
    eps_cols = sorted(rep.q)
    header = ["k", "norm_E", "conorm_F"] + [f"q_eps{e}" for e in eps_cols]
    if rep.angles:
        header.append("angle_to_next")
    rows = []
    for i, k in enumerate(rep.k_values):
        row = [k, float(rep.norm_E[i]), float(rep.conorm_F[i])]
        row += [float(rep.q[e][i]) for e in eps_cols]
        if rep.angles:
            row.append(float(rep.angles[i]) if i < len(rep.angles) else "")
        rows.append(row)
    return csv_text(meta, header, rows)
