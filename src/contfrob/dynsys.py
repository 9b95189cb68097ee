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
composed expression trees.

Cost model: every orbit and jacobian product comes from a Cocycle, which
evaluates phi and Dphi once per orbit step over a fixed point set and
keeps the cumulative products Dphi^k.  A report, a transport sweep, a
splitting pipeline up to k_max or the frames of orthonormal_pullback_frames
evaluated on one point set therefore make k_max map and k_max jacobian
evaluations.  Only the matrix work stays O(k_max^2): the
backward solves of each E_k and the forward chain Dphi^k E_k, both of
which start afresh at every k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConeError, DegenerateSubspaceError, RangeError,
                     StepCountError)
from .fields import eval_fields
from .geometry import (FrameSection, asymptotic_involutivity_trace,
                       exterior_regularity_trace, max_principal_angle,
                       orthonormalize)
from .report import csv_text

__all__ = [
    "DiffeoSpec", "Cocycle", "PlaneFieldSamples", "SplittingReport",
    "PullbackFrame", "transport", "domination_report",
    "orthonormal_pullback_frames",
    "splitting_involutivity_pipeline", "splitting_report_to_csv",
]


@dataclass
class DiffeoSpec:
    """Expression-backed diffeomorphism, optionally torus-periodic."""

    coords: tuple
    forward: list       # fields for phi
    inverse: list       # fields for phi^{-1}
    torus: bool = True

    def __post_init__(self):
        self.coords = tuple(self.coords)
        if not len(self.forward) == len(self.inverse) == self.dim:
            raise RangeError(f"diffeo spec needs one forward and one inverse "
                             f"field per coordinate {self.coords}, got "
                             f"{len(self.forward)} forward and "
                             f"{len(self.inverse)} inverse")
        self._jac_fwd = [[f.diff(c) for c in self.coords]
                         for f in self.forward]
        self._jac_inv = [[f.diff(c) for c in self.coords]
                         for f in self.inverse]

    @property
    def dim(self):
        return len(self.coords)

    def inverted(self):
        """The inverse map as a DiffeoSpec (pullback under it = pushforward)."""
        return DiffeoSpec(self.coords, self.inverse, self.forward, self.torus)

    def _wrap(self, pts):
        return np.mod(pts, 1.0) if self.torus else pts

    def apply(self, pts, k=1):
        """phi^k pointwise; negative k uses the inverse map."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        fields = self.forward if k >= 0 else self.inverse
        for _ in range(abs(k)):
            pts = self._wrap(eval_fields(fields, self.coords, pts))
        return pts

    def jacobian(self, pts, inverse=False):
        """(N, d, d) jacobians of phi (or phi^{-1}) at the points."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        jac = self._jac_inv if inverse else self._jac_fwd
        return eval_fields(jac, self.coords, self._wrap(pts))

    def orbit(self, pts, k):
        """[p, phi(p), ..., phi^k(p)]: shape (k+1, N, d)."""
        pts = self._wrap(np.atleast_2d(np.asarray(pts, dtype=float)))
        out = [pts]
        for _ in range(k):
            out.append(self.apply(out[-1], 1))
        return np.stack(out)


@dataclass
class PlaneFieldSamples:
    points: np.ndarray   # (N, d)
    bases: np.ndarray    # (N, d, r) orthonormal

    @property
    def rank(self):
        return self.bases.shape[-1]


class Cocycle:
    """Orbit and derivative cocycle of phi over fixed points, up to k_max.

    orbit[j] = phi^j(p) for j = 0..k_max, jacobians[j] = Dphi at phi^j(p)
    for j < k_max, and products[k] = Dphi^k_p, built as P_0 = I and
    P_k = J_{k-1} @ P_{k-1}.  Everything that needs phi^k or Dphi^k over
    these points, for any k <= k_max, reads it from here.
    """

    def __init__(self, phi: DiffeoSpec, points, k_max):
        if k_max < 0:
            raise StepCountError(f"k_max must be >= 0, got {k_max}")
        self.phi = phi
        self.points = np.array(points, dtype=float, ndmin=2)
        self.k_max = int(k_max)
        self.orbit = phi.orbit(self.points, self.k_max)
        self.jacobians = [phi.jacobian(x) for x in self.orbit[:-1]]
        P = np.broadcast_to(np.eye(phi.dim),
                            (len(self.points), phi.dim, phi.dim)).copy()
        self.products = [P]
        for J in self.jacobians:
            P = J @ P
            self.products.append(P)

    def transport(self, e0_bases, k):
        """E_k(p) = Dphi^{-k}(E_0 at phi^k(p)); see the module function."""
        if not 0 <= k <= self.k_max:
            raise StepCountError(f"k must lie in 0..{self.k_max}, got {k}")
        if callable(e0_bases):
            B = np.asarray(e0_bases(self.orbit[k]), dtype=float)
        else:
            e0 = np.asarray(e0_bases, dtype=float)
            B = np.broadcast_to(e0, (len(self.points),) + e0.shape).copy()
        B = orthonormalize(B)
        for j in range(k - 1, -1, -1):
            try:
                B = np.linalg.solve(self.jacobians[j], B)
                B = orthonormalize(B)
            except (np.linalg.LinAlgError, DegenerateSubspaceError) as err:
                raise ConeError(f"transversality lost at step {j}: {err}",
                                point=self.points[0]) from None
        return PlaneFieldSamples(self.points, B)

    def chain(self, bases, k):
        """Yield Dphi^j bases for j = 1..k, each one step on from the last."""
        M = bases.copy()
        for J in self.jacobians[:k]:
            M = J @ M
            yield M


def transport(phi: DiffeoSpec, e0_bases, k, points):
    """Pull back a plane field: E_k(p) = Dphi^{-k}(E_0 at phi^k(p)).

    e0_bases: (d, r) constant or callable points -> (N, d, r).
    Re-orthonormalizes after every jacobian inversion step.
    """
    return Cocycle(phi, points, k).transport(e0_bases, k)


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
                      eps_list=(0.1, 0.5, 1.0),
                      y_indices=None) -> SplittingReport:
    """Domination, linear-growth fit, and decay quantities up to k_max.

    e0_bases seeds the pulled-back family E_k; f_samples is the sampled
    complementary bundle (fixed per point).  The decay quantity per step
    is ||Dphi^k|_{E_k}||^2 / m(Dphi^k|_F) * e^{eps ||Dphi^k|_{E_k}||}.
    When y_indices names the vertical coordinate axes, vertical_C is the
    empirical minimum of |Dphi^k v| / m(Dphi^k|_F) over unit vertical v,
    the fitted value of the existential comparison constant.
    """
    report, _ = _domination(Cocycle(phi, points, k_max), e0_bases, f_samples,
                            eps_list, y_indices)
    return report


def _domination(cc: Cocycle, e0_bases, f_samples, eps_list, y_indices):
    """domination_report over a built cocycle; also returns the E_k bases."""
    if cc.k_max < 1:
        raise StepCountError(f"domination needs k_max >= 1, got {cc.k_max}")
    points, dim = cc.points, cc.phi.dim
    f_bases = f_samples.bases if isinstance(f_samples, PlaneFieldSamples) \
        else np.broadcast_to(np.asarray(f_samples, dtype=float),
                             (len(points), dim,
                              np.asarray(f_samples).shape[-1]))
    y_chain = None
    if y_indices is not None:
        y_bases = np.zeros((len(points), dim, len(y_indices)))
        for c, idx in enumerate(y_indices):
            y_bases[:, idx, c] = 1.0
        y_chain = cc.chain(y_bases, cc.k_max)
    f_chain = cc.chain(f_bases, cc.k_max)
    ks = list(range(1, cc.k_max + 1))
    e_bases, norm_E, conorm_F, angles = [], [], [], []
    vertical_C = math.inf if y_chain is not None else math.nan
    for k in ks:
        ek = cc.transport(e0_bases, k).bases
        *_, M = cc.chain(ek, k)
        top = np.linalg.svd(M, compute_uv=False)[:, 0]
        norm_E.append(float(np.max(top)))
        bot = np.linalg.svd(next(f_chain), compute_uv=False)[:, -1]
        conorm_F.append(float(np.min(bot)))
        if y_chain is not None:
            y_min = np.linalg.svd(next(y_chain), compute_uv=False)[:, -1]
            vertical_C = min(vertical_C, float(np.min(y_min / bot)))
        if e_bases:
            angles.append(float(np.max(max_principal_angle(e_bases[-1], ek))))
        e_bases.append(ek)

    A = np.stack([np.asarray(ks, dtype=float), np.ones(len(ks))], axis=1)
    sol, *_ = np.linalg.lstsq(A, np.asarray(norm_E), rcond=None)
    resid = float(np.max(np.abs(A @ sol - np.asarray(norm_E))))
    q = {}
    for eps in eps_list:
        q[eps] = [nE ** 2 / cF * math.exp(eps * nE)
                  for nE, cF in zip(norm_E, conorm_F)]
    dominated = norm_E[0] < conorm_F[0]
    report = SplittingReport(ks, norm_E, conorm_F, float(sol[0]),
                             float(sol[1]), resid, q, dominated, angles,
                             vertical_C, {"points": len(points),
                                          "eps_list": list(eps_list)})
    return report, e_bases


class _CocycleSource:
    """The last Cocycle of phi up to k_max, rebuilt only when asked about
    other points.  Frames sharing one source evaluate phi and Dphi
    k_max times per point set between them."""

    def __init__(self, phi: DiffeoSpec, k_max, cocycle=None):
        self.phi = phi
        self.k_max = k_max
        self.cocycle = cocycle

    def at(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        cc = self.cocycle
        if cc is None or not np.array_equal(cc.points, pts):
            cc = self.cocycle = Cocycle(self.phi, pts, self.k_max)
        return cc


class PullbackFrame:
    """(phi^k)^* C_0 for a frame C_0 with field components.

    Implements the same pointwise interface as FrameSection: the matrix
    is C_0(phi^k p) Dphi^k_p and the derivative matrices are the pullback
    of dC_0 (zero when C_0 is constant), evaluated with jacobian products
    rather than composed expression trees.  The orbit and Dphi^k come
    from a Cocycle over the queried points, kept until the frame is asked
    about other points; frames made together share it.
    """

    def __init__(self, phi: DiffeoSpec, base: FrameSection, k: int):
        self.phi = phi
        self.base = base
        self.k = int(k)
        self.coords = base.coords
        self.y_names = base.y_names
        self._source = _CocycleSource(phi, self.k)

    @property
    def n(self):
        return self.base.n

    @property
    def dim(self):
        return len(self.coords)

    @property
    def y_indices(self):
        return tuple(self.coords.index(y) for y in self.y_names)

    def matrix_at(self, points):
        cc = self._source.at(points)
        C = self.base.matrix_at(cc.orbit[self.k])
        return C @ cc.products[self.k]

    def d_matrices_at(self, points):
        cc = self._source.at(points)
        J = cc.products[self.k]
        dC = self.base.d_matrices_at(cc.orbit[self.k])  # (N, n, d, d)
        return np.einsum("pca,pjcd,pdb->pjab", J, dC, J)


def orthonormal_pullback_frames(phi: DiffeoSpec, base: FrameSection, k,
                                check_points=None, tol=1.0e-8):
    """Frames (phi^j)^* C_0 for j = 0..k from an orthonormal base frame.

    The frames share one cocycle, so evaluating all of them on one point
    set makes k map and k jacobian evaluations.
    """
    if check_points is not None:
        M = base.matrix_at(check_points)
        gram = M @ np.swapaxes(M, 1, 2)
        if np.max(np.abs(gram - np.eye(base.n))) > tol:
            raise ValueError("base frame rows are not orthonormal")
    return _shared_frames(phi, base, range(k + 1), _CocycleSource(phi, k))


def _shared_frames(phi, base, ks, source):
    """PullbackFrames for the steps ks, all reading one _CocycleSource."""
    frames = [PullbackFrame(phi, base, k) for k in ks]
    for frame in frames:
        frame._source = source
    return frames


def splitting_involutivity_pipeline(phi: DiffeoSpec, e0_bases,
                                    base_frame: FrameSection, f_samples,
                                    k_max, eps, points, limit=None, *,
                                    n_dirs=None, seed=None):
    """Assemble pullback frames and transported fields, run both traces.

    Requires domination on the lattice; returns (report, asymptotic
    trace, exterior-regularity trace) where the regularity trace needs a
    limit plane field (samples) to restrict against.  n_dirs and seed
    are ignored, as in geometry.involutivity_constant.
    """
    y_indices = [base_frame.coords.index(y) for y in base_frame.y_names]
    cc = Cocycle(phi, points, k_max)
    report, dists = _domination(cc, e0_bases, f_samples, (eps,), y_indices)
    if not report.dominated:
        return report, None, None
    frames = _shared_frames(phi, base_frame, range(1, k_max + 1),
                            _CocycleSource(phi, k_max, cc))
    asym = asymptotic_involutivity_trace(frames, dists, eps, points)
    ext = None
    if limit is not None:
        lim_bases = limit.bases if isinstance(limit, PlaneFieldSamples) \
            else limit
        ext = exterior_regularity_trace(frames, lim_bases, eps, points)
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
