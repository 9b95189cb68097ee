"""Smoothing of sampled functions by compactly supported bump kernels.

The kernel phi_eps(y) ~ exp(eps^2 / (|y|^2 - eps^2)) on |y| < eps is laid
on the same grid as the data and renormalized so its *discrete* mass is
exactly 1; smoothing a constant then returns the constant to rounding.
Convolution is direct (grids are desk-scale) and the output carries an
interior-margin marker instead of any boundary extension: sup-norms are
only ever taken over the region the convolution actually resolves.

`grid_from_field` samples a field through eval_fields on a Box lattice;
`to_spline_field` fits the trusted samples of 1 or 2 axes with one
cubic spline adapter and wraps it as a SplineLeaf.

`verify_bounds` measures |f^eps - f| and |d f^eps / dx_j| against the
scaled integrals (1/eps^d) int_0^eps s^{d-1} w(s) ds  and
(1/eps^{d+1}) int_0^eps s^{d-1} w_j(s) ds and reports the smallest
constant K that makes every inequality hold across the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import Box
from .errors import EvalDomainError, MarginError, RangeError, ResolutionError
from .fields import SplineLeaf, eval_fields

__all__ = [
    "GridFunction", "MollifyReport", "kernel", "mollify", "verify_bounds",
    "grid_from_field", "to_spline_field",
]

_MIN_CELLS_PER_RADIUS = 8


@dataclass
class GridFunction:
    """Sampled function on a uniform tensor grid.

    margin marks the width (per side, physical units) on which the values
    are not trustworthy; smoothing increases it by the kernel radius.
    """

    axes: tuple
    values: np.ndarray
    margin: float = 0.0

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=float) for a in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        axes_shape = tuple(len(a) for a in self.axes)
        if self.values.shape != axes_shape:
            raise RangeError(f"grid values of shape {self.values.shape} do "
                             f"not match axes of lengths {axes_shape}")
        for a in self.axes:
            d = np.diff(a)
            if not (len(d) >= 1 and np.allclose(d, d[0], rtol=1e-9)
                    and d[0] > 0.0):
                raise RangeError("grid axes must be uniform and increasing, "
                                 "with at least 2 points")

    @property
    def dim(self):
        return len(self.axes)

    @property
    def spacings(self):
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @property
    def extents(self):
        return tuple(float(a[-1] - a[0]) for a in self.axes)

    def interior_slices(self, extra=0.0):
        width = self.margin + extra
        out = []
        for a, h in zip(self.axes, self.spacings):
            k = int(np.ceil(width / h - 1e-12))
            if 2 * k >= len(a):
                raise MarginError("margin consumes the whole grid")
            out.append(slice(k, len(a) - k if k else None))
        return tuple(out)


def grid_from_field(f, box: Box, n):
    """Sample a field on a box lattice (n points per axis, int or list)."""
    if np.isscalar(n):
        n = [int(n)] * box.dim
    axes = [np.linspace(lo, hi, k) for lo, hi, k in
            zip(box.lows, box.highs, n)]
    vals = eval_fields([f], box.names, box.lattice(n))[:, 0].reshape(n)
    return GridFunction(tuple(axes), vals)


def _check_eps(eps_list):
    """RangeError naming the first smoothing scale that is not positive."""
    for eps in eps_list:
        if not eps > 0.0:
            raise RangeError(f"eps must be positive, got {eps:g}")


def kernel(eps, spacings):
    """Bump kernel sampled on the grid's spacings, discrete mass exactly 1.

    Returns a GridFunction of kernel *density* values; the discrete sum
    times the cell volume is 1 up to rounding (the analytic normalizing
    constant is absorbed by the renormalization).
    """
    spacings = tuple(float(h) for h in spacings)
    _check_eps([eps])
    for h in spacings:
        if eps / h < _MIN_CELLS_PER_RADIUS:
            raise ResolutionError(
                f"grid spacing {h:g} under-resolves radius {eps:g} "
                f"(need >= {_MIN_CELLS_PER_RADIUS} cells)")
    axes = []
    for h in spacings:
        r = int(np.ceil(eps / h))
        axes.append(np.arange(-r, r + 1) * h)
    mesh = np.meshgrid(*axes, indexing="ij")
    r2 = sum(m ** 2 for m in mesh)
    with np.errstate(divide="ignore", over="ignore"):
        raw = np.where(r2 < eps ** 2,
                       np.exp(eps ** 2 / np.where(r2 < eps ** 2,
                                                  r2 - eps ** 2, -1.0)),
                       0.0)
    cellvol = float(np.prod(spacings))
    raw /= raw.sum() * cellvol
    return GridFunction(tuple(axes), raw)


def mollify(f: GridFunction, eps):
    """Direct convolution with the bump kernel; widens the margin by eps."""
    for h, ext in zip(f.spacings, f.extents):
        if eps >= ext / 2.0:
            raise MarginError(
                f"smoothing scale {eps:g} too large for extent {ext:g}")
    from scipy import ndimage
    ker = kernel(eps, f.spacings)
    weights = ker.values * float(np.prod(f.spacings))
    out = ndimage.convolve(f.values, weights, mode="constant", cval=0.0)
    return GridFunction(f.axes, out, margin=f.margin + eps)


@dataclass
class MollifyReport:
    eps: float
    sup_dist: float
    deriv_sup: tuple
    bound_rhs: dict = field(default_factory=dict)
    fitted_K: float = np.nan

    def ok(self):
        tol = 1e-12
        if self.sup_dist > self.bound_rhs["dist"] + tol:
            return False
        return all(d <= b + tol for d, b in
                   zip(self.deriv_sup, self.bound_rhs["deriv"]))


def verify_bounds(f: GridFunction, w, per_axis_w, eps_list):
    """Check the smoothing-error and derivative bounds over an eps sweep.

    Left sides are measured directly (derivatives by centered differences
    at the grid spacing, which must resolve each eps as kernel requires);
    right sides come from quadrature of the moduli.  The single fitted K
    is the smallest constant making every inequality in the sweep hold.
    """
    d = f.dim
    _check_eps(eps_list)
    if len(per_axis_w) != d:
        raise RangeError(f"need one directional modulus per axis: {d} axes, "
                         f"got {len(per_axis_w)} moduli")
    from scipy.integrate import quad
    rows = []
    for eps in eps_list:
        g = mollify(f, eps)
        sl = g.interior_slices(extra=max(f.spacings))
        sup_dist = float(np.max(np.abs(g.values[sl] - f.values[sl])))
        deriv_sup = []
        for j, h in enumerate(f.spacings):
            dg = np.gradient(g.values, h, axis=j)
            deriv_sup.append(float(np.max(np.abs(dg[sl]))))
        i_dist = quad(lambda s: s ** (d - 1) * w(s), 0.0, eps, limit=200)[0]
        i_deriv = [quad(lambda s: s ** (d - 1) * wj(s), 0.0, eps,
                        limit=200)[0] for wj in per_axis_w]
        rows.append((float(eps), sup_dist, tuple(deriv_sup), i_dist, i_deriv))

    fitted = 0.0
    for eps, sup_dist, deriv_sup, i_dist, i_deriv in rows:
        if i_dist > 0.0:
            fitted = max(fitted, sup_dist * eps ** d / i_dist)
        for ds, ij in zip(deriv_sup, i_deriv):
            if ij > 0.0:
                fitted = max(fitted, ds * eps ** (d + 1) / ij)

    reports = []
    for eps, sup_dist, deriv_sup, i_dist, i_deriv in rows:
        rhs = {
            "dist": fitted / eps ** d * i_dist,
            "deriv": tuple(fitted / eps ** (d + 1) * ij for ij in i_deriv),
        }
        reports.append(MollifyReport(eps, sup_dist, deriv_sup, rhs, fitted))
    return reports


# ---------------------------------------------------------------------------
# the spline adapter into the field layer


class _SplineEvaluator:
    """Cubic spline on 1 or 2 axes.  Points within 1e-9 of the widest
    extent outside an axis are clipped onto it; farther out they raise."""

    def __init__(self, axes, values):
        from scipy.interpolate import CubicSpline, RectBivariateSpline
        if len(axes) == 1:
            self.spline = CubicSpline(axes[0], values)
        elif len(axes) == 2:
            self.spline = RectBivariateSpline(axes[0], axes[1], values,
                                              kx=3, ky=3)
        else:
            raise NotImplementedError("spline fields support 1 or 2 dims")
        self.bounds = [(a[0], a[-1]) for a in axes]
        self.tol = 1e-9 * max(a[-1] - a[0] for a in axes)

    def ev(self, args, orders):
        args = np.broadcast_arrays(*[np.asarray(t, float) for t in args])
        for t, (lo, hi) in zip(args, self.bounds):
            if np.any(t < lo - self.tol) or np.any(t > hi + self.tol):
                raise EvalDomainError("point outside the spline's valid region")
        t = [np.clip(t, lo, hi) for t, (lo, hi) in zip(args, self.bounds)]
        if len(t) == 1:
            out = self.spline(t[0], nu=orders[0])
        else:
            out = self.spline.ev(t[0].ravel(), t[1].ravel(), dx=orders[0],
                                 dy=orders[1]).reshape(t[0].shape)
        return float(out) if out.ndim == 0 else out


def to_spline_field(gf: GridFunction, names, label="spl"):
    """Wrap a grid function as a differentiable field over named coords.

    Only the samples inside the valid margin enter the fit: spline
    ringing from boundary garbage would otherwise bleed a few cells into
    the interior.
    """
    sl = gf.interior_slices()
    ev = _SplineEvaluator([a[s] for a, s in zip(gf.axes, sl)], gf.values[sl])
    return SplineLeaf(ev, names, label=label)
