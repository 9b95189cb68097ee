"""Smoothing of sampled functions by compactly supported bump kernels.

The kernel phi_eps(y) ~ exp(eps^2 / (|y|^2 - eps^2)) on |y| < eps is laid
on the same grid as the data and renormalized so its *discrete* mass is
exactly 1; smoothing a constant then returns the constant to rounding.
Convolution is direct (grids are desk-scale) and there is no boundary
extension: only the points whose kernel footprint stays inside the grid
are computed, and every other point is NaN.  The output carries that
margin as an interior-margin marker, and sup-norms and fits are only
ever taken over the interior it marks, which the computed points cover.
The sums are numpy shifted sums in the order of scipy's ndimage.convolve,
so each computed point has ndimage's bits; each kernel weight is one
pass over one contiguous slice of the flattened grid.

`grid_from_field` samples a field through eval_fields on a Box lattice;
`to_spline_field` fits the trusted samples of 1 or 2 axes with the
not-a-knot cubic spline (the interpolant of FITPACK and CubicSpline, to
rounding), held as per-cell polynomial coefficients, and wraps it as a
SplineLeaf.  The evaluator's protocol, which compiled field code calls,
is two steps: locate(args) checks the points against the valid region,
clips them and takes each point's cell coefficients, the block, and its
offsets in the cell; poly(block, offsets, orders) runs Horner's rule for
one partial.  ev(args, orders) is the two in a row, the reference that
SplineLeaf.evaluate calls.  A 2-D fit writes each cell pass in place
and reuses the read-only slope operators of its last four knot vectors
(one functools.lru_cache, keyed on their bytes).

`verify_bounds` measures |f^eps - f| and |d f^eps / dx_j| against the
scaled integrals (1/eps^d) int_0^eps s^{d-1} w(s) ds  and
(1/eps^{d+1}) int_0^eps s^{d-1} w_j(s) ds, integrated by moduli's
quadrature, and reports the smallest constant K that makes every
inequality hold across the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .boxes import Box
from .errors import EvalDomainError, MarginError, RangeError, ResolutionError
from .fields import SplineLeaf, eval_fields
from .moduli import _integrals

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
            if not (len(d) >= 1 and d[0] > 0.0 and _uniform(d)):
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


def _uniform(d):
    """np.allclose(d, d[0], rtol=1e-9) as one elementwise test: every
    spacing within 1e-8 + 1e-9 |d[0]| of a finite d[0], or equal to one
    that is not finite."""
    s = d[0]
    if math.isfinite(s):
        return bool(np.all(np.abs(d - s) <= 1e-8 + 1e-9 * abs(s)))
    return bool(np.all(d == s))


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
    """Direct convolution with the bump kernel; widens the margin by eps.

    The points within the margin that the kernel does not resolve, its
    footprint reaching past the grid, are NaN; interior_slices() of the
    result holds none of them.  NaNs in f's own margin spread by less
    than eps, so they stay inside the widened one."""
    for h, ext in zip(f.spacings, f.extents):
        if eps >= ext / 2.0:
            raise MarginError(
                f"smoothing scale {eps:g} too large for extent {ext:g}")
    ker = kernel(eps, f.spacings)
    weights = ker.values * float(np.prod(f.spacings))
    return GridFunction(f.axes, _convolve(f.values, weights),
                        margin=f.margin + eps)


def _convolve(values, weights):
    """values convolved with an odd-sized kernel at the points it
    resolves, NaN elsewhere.

    A point is resolved when every kept offset of the flipped kernel
    stays inside the grid; weights with |w| <= DBL_EPSILON are not kept.
    Each resolved point sums w * value over the kept offsets in C order,
    starting from 0.0: the arithmetic of ndimage.convolve, so its bits
    there, whatever its mode outside the grid.  In the flattened grid
    the values one offset reads for all resolved points lie in one
    contiguous run, so each kept weight is one pass over one 1-D slice;
    the run also covers points between the resolved rows, whose sums are
    computed and dropped.
    """
    flipped = weights[(slice(None, None, -1),) * weights.ndim]
    keep = np.abs(flipped) > _DBL_EPSILON
    offsets = np.argwhere(keep)
    first, last = offsets.min(axis=0), offsets.max(axis=0)
    shape = np.array(values.shape) - (last - first)
    values = np.ascontiguousarray(values, dtype=float)
    strides = np.array(values.strides) // values.itemsize
    # the resolved point at index p reads offset o - first at flat index
    # (p + o - first) . strides: a slice from (o - first) . strides, of
    # the length that reaches the last resolved point
    length = int((shape - 1) @ strides) + 1
    flat = values.ravel()
    acc = np.zeros(length)
    tmp = np.empty(length)
    for start, w in zip(((offsets - first) @ strides).tolist(),
                        flipped[keep].tolist()):
        np.multiply(flat[start:start + length], w, out=tmp)
        np.add(acc, tmp, out=acc)
    out = np.full(values.shape, np.nan)
    start = np.array(weights.shape) // 2 - first
    out[tuple(slice(i, i + n) for i, n in zip(start, shape))] = \
        np.lib.stride_tricks.as_strided(acc, tuple(shape), values.strides)
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
    rows = []
    for eps in eps_list:
        g = mollify(f, eps)
        sl = g.interior_slices(extra=max(f.spacings))
        sup_dist = float(np.max(np.abs(g.values[sl] - f.values[sl])))
        deriv_sup = []
        for j, h in enumerate(f.spacings):
            dg = np.gradient(g.values, h, axis=j)
            deriv_sup.append(float(np.max(np.abs(dg[sl]))))
        i_dist = _moment(w, d, eps)
        i_deriv = [_moment(wj, d, eps) for wj in per_axis_w]
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


def _moment(w, d, eps):
    """int_0^eps s^(d-1) w(s) ds for a nondecreasing w >= 0, integrated
    over the dyadic intervals of [2^-60 eps, eps]: the dropped
    [0, 2^-60 eps] holds less than 2^-59 of the whole."""
    edges = eps * 2.0 ** -np.arange(60.0, -1.0, -1.0)
    return math.fsum(_integrals(lambda s: s ** (d - 1) * w(s), edges))


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


def _cells(x, y, s, axis=-1):
    """Per-cell coefficients (4,) + the shape of y with its knot axis one
    shorter, of the cubics with values y and slopes s at the knots x
    along that axis (the last, or axis=-2), lowest power of x - x[i]
    first.  Written in place into the one output: no temporaries, and y
    and s may be strided views."""
    head = (slice(None),) * (y.ndim + axis)
    left, right = head + (slice(None, -1),), head + (slice(1, None),)
    inv_h = (1.0 / np.diff(x)).reshape((-1,) + (1,) * (-1 - axis))
    c = np.empty((4,) + y[left].shape)
    c[0] = y[left]
    c[1] = s[left]
    np.subtract(y[right], c[0], out=c[2])
    c[2] *= inv_h  # the secant slope
    # t = (s[i] + s[i + 1] - 2 slope) / h, then c2 = (slope - s[i]) / h - t
    np.subtract(s[right], c[2], out=c[3])
    c[2] -= c[1]
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
    tensor product of one cubic per axis.  A partial of order 4 or more
    is 0.  Points within 1e-9 of the widest extent outside an axis are
    clipped onto it; farther out they raise.  A sample that is not
    finite, which would spread through its whole axis's solve, is a
    RangeError naming its grid index.

    Evaluation has two steps, the protocol of compiled spline
    statements: locate(args) finds the points' cells once, and
    poly(block, offsets, orders) evaluates one partial there, so the
    partials of one spline at one point set share one cell search.
    ev(args, orders) is the two in a row."""

    def __init__(self, axes, values):
        if len(axes) not in (1, 2):
            raise NotImplementedError("spline fields support 1 or 2 dims")
        self.axes = [np.asarray(a, dtype=float) for a in axes]
        if min(len(a) for a in self.axes) < 4:
            raise RangeError("a cubic spline needs at least 4 samples per "
                             "axis")
        x0, v = self.axes[0], np.asarray(values, dtype=float)
        bad = np.argwhere(~np.isfinite(v))
        if len(bad):
            i = tuple(bad[0].tolist())
            raise RangeError(f"spline sample at grid index {i} is not "
                             f"finite: {float(v[i])!r}")
        h0 = np.diff(x0)[:, None]
        if len(axes) == 1:
            c = _cells(x0, v, _slopes(x0, np.diff(v)[:, None] / h0)[:, 0])
        else:
            # the slopes are linear in the secants: one operator per axis,
            # whose products give the slopes along x, along y and across
            # both; the cubics along y of the values and the x-slopes,
            # then along x of their coefficients, give the bicubics
            x1 = self.axes[1]
            k0, k1 = (_slope_operator(x.tobytes()) for x in (x0, x1))
            y = np.empty((2,) + v.shape)  # values, x-slopes
            s = np.empty((2,) + v.shape)  # y-slopes, cross slopes
            y[0] = v
            np.matmul(k0, np.diff(v, axis=0) / h0, out=y[1])
            np.matmul(np.diff(v) / np.diff(x1), k1.T, out=s[0])
            np.matmul(k0, np.diff(s[0], axis=0) / h0, out=s[1])
            c = _cells(x1, y, s)  # (4, 2, n0, n1 - 1)
            c = _cells(x0, c[:, 0], c[:, 1], axis=-2)  # (4, 4, n0-1, n1-1)
        # one power index per axis, then the cells with the last axis
        # fastest
        self.coef = c.reshape(c.shape[:len(axes)] + (-1,))
        self.bounds = [(a[0], a[-1]) for a in self.axes]
        self.tol = 1e-9 * max(a[-1] - a[0] for a in self.axes)

    def locate(self, args):
        """(block, offsets) of the points args, one array or float per
        axis: the check against the valid region, the clip, and per
        point the coefficients of its cell and its offsets from the
        cell's lower knots."""
        args = np.broadcast_arrays(*[np.asarray(t, float) for t in args])
        for t, (lo, hi) in zip(args, self.bounds):
            if np.any(t < lo - self.tol) or np.any(t > hi + self.tol):
                raise EvalDomainError("point outside the spline's valid region")
        cell, offsets = 0, []
        for t, x in zip(args, self.axes):
            t = np.clip(t, x[0], x[-1])
            # the cell whose left knot is the last one at or below t; the
            # last knot belongs to the last cell
            i = np.searchsorted(x[1:-1], t, side="right")
            offsets.append(t - x[i])
            cell = cell * (len(x) - 1) + i
        return self.coef.take(cell, axis=-1), offsets

    def poly(self, block, offsets, orders):
        """The partial of the given orders at located points: Horner's
        rule along each axis in turn, a float for a point given as
        floats."""
        if max(orders) > 3:
            shape = np.shape(offsets[0])
            return 0.0 if shape == () else np.zeros(shape)
        c = block
        for u, p in zip(offsets, orders):
            if p:
                c = c[p:] * _FALLING[p].reshape((-1,) + (1,) * (c.ndim - 1))
            out = c[-1]
            for k in range(len(c) - 2, -1, -1):
                out = out * u + c[k]
            c = out
        return c if np.ndim(c) else float(c)

    def ev(self, args, orders):
        return self.poly(*self.locate(args), orders)


@lru_cache(maxsize=4)
def _slope_operator(knots):
    """The (n, n - 1) matrix taking secant slopes to knot slopes on the
    knots whose float64 bytes are knots, _slopes of the identity.  It
    depends on the knots alone, so the last 4 knot vectors keep theirs,
    read-only, each the size of one n x n sample grid: a fit over a grid
    seen before solves nothing."""
    x = np.frombuffer(knots)
    k = _slopes(x, np.eye(len(x) - 1))
    k.flags.writeable = False
    return k


def to_spline_field(gf: GridFunction, names, label="spl"):
    """Wrap a grid function as a differentiable field over named coords.

    Only the samples inside the valid margin enter the fit: spline
    ringing from boundary garbage would otherwise bleed a few cells into
    the interior.
    """
    sl = gf.interior_slices()
    ev = _SplineEvaluator([a[s] for a, s in zip(gf.axes, sl)], gf.values[sl])
    return SplineLeaf(ev, names, label=label)
