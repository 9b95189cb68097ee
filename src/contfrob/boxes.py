"""Coordinate boxes and sampling lattices."""

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

    def require_names(self, names, owner):
        """RangeError unless the box is over exactly these coordinates."""
        if self.names != tuple(names):
            raise RangeError(f"{owner} needs a domain box over "
                             f"{tuple(names)}, got one over {self.names}")

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
        lo = np.asarray(self.lows) - tol
        hi = np.asarray(self.highs) + tol
        ok = np.all((p >= lo) & (p <= hi), axis=1)
        return bool(ok[0]) if np.ndim(points) == 1 else ok

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


def env_of(names, points):
    """Environment for a point array under an explicit name order."""
    p = np.asarray(points, dtype=float)
    if p.ndim == 1:
        return {n: p[i] for i, n in enumerate(names)}
    return {n: p[..., i] for i, n in enumerate(names)}
