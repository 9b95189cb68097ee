"""Smoothing of sampled functions by compactly supported bump kernels.

The kernel phi_eps(y) ~ exp(eps^2 / (|y|^2 - eps^2)) on |y| < eps is laid
on the same grid as the data and renormalized so its *discrete* mass is
exactly 1; smoothing a constant then returns the constant to rounding.
Convolution is direct (grids are desk-scale) and the output carries an
interior-margin marker instead of any boundary extension: sup-norms are
only ever taken over the region the convolution actually resolves.  It
is numpy shifted sums in the order of scipy's ndimage.convolve, so it
gives ndimage's bits.

`grid_from_field` samples a field through eval_fields on a Box lattice;
`to_spline_field` fits the trusted samples of 1 or 2 axes with the
not-a-knot cubic spline (the interpolant of FITPACK and CubicSpline, to
rounding), held as per-cell polynomial coefficients, and wraps it as a
SplineLeaf.  Neither imports SciPy; only `verify_bounds` does, for quad.

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
_DBL_EPSILON = np.finfo(float).eps
# below this many rows a dense solve costs less than a reduction level
_DENSE_ROWS = 32


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
    ker = kernel(eps, f.spacings)
    weights = ker.values * float(np.prod(f.spacings))
    return GridFunction(f.axes, _convolve(f.values, weights),
                        margin=f.margin + eps)


def _convolve(values, weights):
    """values convolved with an odd-sized kernel, zero outside the grid.

    The arithmetic of ndimage.convolve(mode="constant", cval=0.0), so its
    bits: the flipped kernel is laid over the zero-padded grid, weights
    with |w| <= DBL_EPSILON are skipped, and each point sums w * value
    over the kept offsets in C order, starting from 0.0.
    """
    flipped = weights[(slice(None, None, -1),) * weights.ndim]
    keep = np.abs(flipped) > _DBL_EPSILON
    padded = np.pad(values, [(k // 2, k // 2) for k in weights.shape])
    windows = np.lib.stride_tricks.sliding_window_view(padded, values.shape)
    out = np.zeros_like(values)
    tmp = np.empty_like(values)
    for off, w in zip(map(tuple, np.argwhere(keep).tolist()),
                      flipped[keep].tolist()):
        np.multiply(windows[off], w, out=tmp)
        np.add(out, tmp, out=out)
    return out


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


def _cyclic_reduction(lower, diag, upper, b):
    """s with lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = b[i]
    for each column of b (m, k), the coefficients given as (m, 1)
    columns of a diagonally dominant system with lower[0] = upper[-1] =
    0.  The even rows absorb the odd rows beside them, the even unknowns
    are solved for recursively and the odd ones follow from their rows:
    log2(m / _DENSE_ROWS) levels of array operations over all columns at
    once, down to a system small enough for one dense solve."""
    n = len(diag)
    if n <= _DENSE_ROWS:
        return np.linalg.solve(np.diag(diag[:, 0]) + np.diag(lower[1:, 0], -1)
                               + np.diag(upper[:-1, 0], 1), b)
    ne, no = (n + 1) // 2, n // 2
    odd_lo, odd_dg, odd_up, odd_b = (lower[1::2], diag[1::2], upper[1::2],
                                     b[1::2])
    left = lower[2::2] / odd_dg[:ne - 1]  # even row j takes odd row j - 1
    right = upper[:2 * no:2] / odd_dg     # and odd row j
    dg = diag[::2].copy()
    dg[1:] -= left * odd_up[:ne - 1]
    dg[:no] -= right * odd_lo
    rhs = b[::2].copy()
    rhs[1:] -= left * odd_b[:ne - 1]
    rhs[:no] -= right * odd_b
    lo, up = np.zeros_like(dg), np.zeros_like(dg)
    lo[1:] = -left * odd_lo[:ne - 1]
    up[:no] = -right * odd_up
    even = _cyclic_reduction(lo, dg, up, rhs)
    odd = odd_b - odd_lo * even[:no]
    odd[:ne - 1] -= odd_up[:ne - 1] * even[1:]
    s = np.empty_like(b)
    s[::2] = even
    s[1::2] = odd / odd_dg
    return s


def _slopes(x, secants):
    """Slopes at the n >= 4 knots x of the not-a-knot cubic interpolants
    whose secant slopes (y[i + 1] - y[i]) / (x[i + 1] - x[i]) are the
    columns of secants (n - 1, k): scipy CubicSpline's system, whose end
    rows, subtracted from their neighbours, leave rows 1..n-2 diagonally
    dominant for cyclic reduction."""
    h = np.diff(x)
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    first = ((h[0] + 2.0 * d0) * h[1] * secants[0]
             + h[0] ** 2 * secants[1]) / d0
    last = (h[-1] ** 2 * secants[-2]
            + (2.0 * d1 + h[-1]) * h[-2] * secants[-1]) / d1
    rhs = 3.0 * (h[1:, None] * secants[:-1] + h[:-1, None] * secants[1:])
    rhs[0] -= first
    rhs[-1] -= last
    diag = 2.0 * (h[:-1] + h[1:])
    diag[0], diag[-1] = d0, d1
    s = np.empty((len(x), secants.shape[1]))
    s[1:-1] = _cyclic_reduction(np.append(0.0, h[2:])[:, None],
                                diag[:, None],
                                np.append(h[:-2], 0.0)[:, None], rhs)
    s[0] = (first - d0 * s[1]) / h[1]
    s[-1] = (last - d1 * s[-2]) / h[-2]
    return s


def _cells(x, y, s):
    """Per-cell coefficients (4, ..., n - 1) of the cubics with values y
    and slopes s at the knots x along the last axis, lowest power of
    x - x[i] first."""
    inv_h = 1.0 / np.diff(x)
    slope = np.diff(y) * inv_h
    c = np.empty((4,) + slope.shape)
    c[0] = y[..., :-1]
    c[1] = s[..., :-1]
    np.subtract(slope, c[1], out=c[2])
    # t = (s[i] + s[i + 1] - 2 slope) / h, then c2 = (slope - s[i]) / h - t
    np.subtract(s[..., 1:], slope, out=c[3])
    c[3] -= c[2]
    c[3] *= inv_h
    c[2] *= inv_h
    c[2] -= c[3]
    c[3] *= inv_h
    return c


# d^p/du^p of u^a is _FALLING[p][a - p] * u^(a - p), for a = p..3
_FALLING = {1: np.array([1.0, 2.0, 3.0]), 2: np.array([2.0, 6.0]),
            3: np.array([6.0])}


class _SplineEvaluator:
    """Not-a-knot cubic spline on 1 or 2 axes (the interpolant FITPACK
    and CubicSpline fit), held as per-cell polynomial coefficients: the
    tensor product of one cubic per axis, evaluated by a cell search and
    Horner's rule.  A partial of order 4 or more is 0.  Points within
    1e-9 of the widest extent outside an axis are clipped onto it;
    farther out they raise."""

    def __init__(self, axes, values):
        if len(axes) not in (1, 2):
            raise NotImplementedError("spline fields support 1 or 2 dims")
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        if min(len(a) for a in self.axes) < 4:
            raise RangeError("a cubic spline needs at least 4 samples per "
                             "axis")
        x0, v = self.axes[0], np.asarray(values, dtype=float)
        h0 = np.diff(x0)[:, None]
        if len(axes) == 1:
            c = _cells(x0, v, _slopes(x0, np.diff(v)[:, None] / h0)[:, 0])
        else:
            # the slopes are linear in the secants: one operator per axis,
            # whose products give the slopes along x, along y and across
            # both, from which the cells' bicubics follow
            x1 = self.axes[1]
            k0 = _slopes(x0, np.eye(len(x0) - 1))
            k1 = k0 if np.array_equal(x0, x1) else _slopes(
                x1, np.eye(len(x1) - 1))
            sx = k0 @ (np.diff(v, axis=0) / h0)
            sy = (np.diff(v) / np.diff(x1)) @ k1.T
            sxy = k0 @ (np.diff(sy, axis=0) / h0)
            c = _cells(x1, np.stack([v, sx]), np.stack([sy, sxy]))
            c = c.transpose(1, 0, 3, 2).copy()      # (2, 4, n1 - 1, n0)
            c = _cells(x0, c[0], c[1])              # (4, 4, n1 - 1, n0 - 1)
        # one power index per axis, then the cells with axis 0 fastest
        self.coef = c.reshape(c.shape[:len(axes)] + (-1,))
        self.bounds = [(a[0], a[-1]) for a in self.axes]
        self.tol = 1e-9 * max(a[-1] - a[0] for a in self.axes)

    def ev(self, args, orders):
        args = np.broadcast_arrays(*[np.asarray(t, float) for t in args])
        for t, (lo, hi) in zip(args, self.bounds):
            if np.any(t < lo - self.tol) or np.any(t > hi + self.tol):
                raise EvalDomainError("point outside the spline's valid region")
        shape = args[0].shape
        if max(orders) > 3:
            return 0.0 if shape == () else np.zeros(shape)
        cell, offsets = 0, []
        for t, x in zip(args[::-1], self.axes[::-1]):
            t = np.clip(t.ravel(), x[0], x[-1])
            # the cell whose left knot is the last one at or below t; the
            # last knot belongs to the last cell
            i = np.searchsorted(x[1:-1], t, side="right")
            offsets.insert(0, t - x[i])
            cell = cell * (len(x) - 1) + i
        c = self.coef.take(cell, axis=-1)
        for u, p in zip(offsets, orders):
            if p:
                c = c[p:] * _FALLING[p].reshape((-1,) + (1,) * (c.ndim - 1))
            out = c[-1]
            for k in range(len(c) - 2, -1, -1):
                out = out * u + c[k]
            c = out
        return float(c[0]) if shape == () else c.reshape(shape)


def to_spline_field(gf: GridFunction, names, label="spl"):
    """Wrap a grid function as a differentiable field over named coords.

    Only the samples inside the valid margin enter the fit: spline
    ringing from boundary garbage would otherwise bleed a few cells into
    the interior.
    """
    sl = gf.interior_slices()
    ev = _SplineEvaluator([a[s] for a, s in zip(gf.axes, sl)], gf.values[sl])
    return SplineLeaf(ev, names, label=label)
