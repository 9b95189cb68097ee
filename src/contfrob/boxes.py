"""Coordinate boxes, sampling lattices and the graph-form base."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RangeError


@dataclass(frozen=True)
class Box:
    """Axis-aligned box over named coordinates."""

    names: tuple
    lows: tuple
    highs: tuple

    def __post_init__(self):
        if not len(self.names) == len(self.lows) == len(self.highs):
            raise RangeError(f"box needs one low and one high per "
                             f"coordinate, got {len(self.names)} names, "
                             f"{len(self.lows)} lows, {len(self.highs)} highs")
        for name, lo, hi in zip(self.names, self.lows, self.highs):
            if not lo < hi:
                raise RangeError(f"box coordinate {name!r} needs low < high, "
                                 f"got [{lo}, {hi}]")

    @classmethod
    def from_dict(cls, ranges):
        names = tuple(ranges)
        lows = tuple(float(ranges[n][0]) for n in names)
        highs = tuple(float(ranges[n][1]) for n in names)
        return cls(names, lows, highs)

    @property
    def dim(self):
        return len(self.names)

    def contains(self, points, tol=0.0):
        """Boolean mask for points (d,) or (N, d)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        lo, hi = self.bounds(tol)
        ok = np.all((p >= lo) & (p <= hi), axis=1)
        return bool(ok[0]) if np.ndim(points) == 1 else ok

    def bounds(self, tol=0.0):
        """The arrays (lows - tol, highs + tol) that contains(., tol)
        tests against; a loop that tests every step computes them once."""
        return np.asarray(self.lows) - tol, np.asarray(self.highs) + tol

    def lattice(self, res=17):
        """Regular lattice, res points per axis (int or per-axis list)."""
        if np.isscalar(res):
            res = [int(res)] * self.dim
        axes = [np.linspace(lo, hi, r) for lo, hi, r in
                zip(self.lows, self.highs, res)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def sample(self, rng, n):
        lo = np.asarray(self.lows)
        hi = np.asarray(self.highs)
        return lo + rng.random((n, self.dim)) * (hi - lo)

    def shrink(self, margin):
        return Box(self.names,
                   tuple(lo + margin for lo in self.lows),
                   tuple(hi - margin for hi in self.highs))


class GraphForm:
    """Base of the graph-form dataclasses over x_names + y_names on a
    domain box (Distribution, OdeSpec with x_names (t_name,), PdeSpec,
    SpecialFormSpec).  It has no fields; each subclass declares them."""

    @property
    def m(self):
        return len(self.x_names)

    @property
    def n(self):
        return len(self.y_names)

    @property
    def coords(self):
        return self.x_names + self.y_names

    def _check_domain(self, owner):
        """RangeError unless the domain box is over exactly coords."""
        if self.domain.names != self.coords:
            raise RangeError(f"{owner} needs a domain box over "
                             f"{self.coords}, got one over "
                             f"{self.domain.names}")


def env_of(names, points):
    """Environment for a point array under an explicit name order."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return {n: p[i] for i, n in enumerate(names)}
    return {n: p[..., i] for i, n in enumerate(names)}
