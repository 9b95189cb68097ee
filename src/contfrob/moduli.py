"""Moduli of continuity: a small family of kinds and uniqueness criteria.

A modulus is an increasing continuous w with w(0+) = 0 bounding increments
|f(p) - f(q)| <= K w(|p - q|).  The kinds are the Lipschitz, Hoelder and
log-Lipschitz leaves, their sums, positive multiples and maxima, and
tabulated empirical moduli; two numerical uniqueness criteria are
evaluated on them:

* the classical divergence criterion for int ds / w(s) near 0, probed by
  adaptive quadrature on a geometric grid (divergence is the verdict that
  favors uniqueness; the report records this sign convention), and
* the limit criterion  w1(s) * e^{w2(s)/s} -> 0, evaluated in the log
  domain so Hoelder moduli do not overflow near s = 1e-3; the ODE and
  PDE certificates apply it to a spec's ModuliDecl.

Verdicts from finite probes cannot certify limits; the thresholds that
make them reproducible are recorded in every report.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (EvalDomainError, InsufficientDataError, ParseError,
                     RangeError, SingularIntegrandError)
from .report import csv_text

__all__ = [
    "Modulus", "Lipschitz", "Hoelder", "LogLip", "SumModulus", "ScaleModulus",
    "MaxModulus", "Tabulated", "CriterionReport", "HOLDS", "FAILS",
    "INCONCLUSIVE", "osgood_check", "limit_condition_check",
    "estimate_modulus", "fit_loglog_slope", "parse_modulus",
    "NONZERO_THRESHOLD", "ModuliDecl", "declared_limit_check",
]

HOLDS = "Holds"
FAILS = "Fails"
INCONCLUSIVE = "Inconclusive"

_E_CAP = 1.0 / math.e


class Modulus:
    """Base class.  Subclasses implement _raw on (0, domain_cap]."""

    domain_cap = math.inf

    def _raw(self, s):
        raise NotImplementedError

    def __call__(self, s):
        arr = np.asarray(s, dtype=float)
        if np.any(arr < 0.0):
            raise EvalDomainError("modulus evaluated at negative scale")
        if np.any(arr > self.domain_cap * (1.0 + 1e-12)):
            raise EvalDomainError(
                f"scale beyond domain cap {self.domain_cap:g}")
        with np.errstate(all="ignore"):
            out = np.where(arr == 0.0, 0.0, self._raw(np.maximum(arr, 1e-300)))
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Lipschitz(Modulus):
    K: float = 1.0
    domain_cap: float = math.inf

    def _raw(self, s):
        return self.K * s


@dataclass(frozen=True)
class Hoelder(Modulus):
    alpha: float = 0.5
    K: float = 1.0
    domain_cap: float = math.inf

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise RangeError(f"Hoelder exponent must lie in (0, 1], "
                             f"got {self.alpha!r}")

    def _raw(self, s):
        return self.K * s ** self.alpha


@dataclass(frozen=True)
class LogLip(Modulus):
    """s -> -K * beta * s * log(s), valid up to 1/e by default."""

    beta: float = 1.0
    K: float = 1.0
    domain_cap: float = _E_CAP

    def _raw(self, s):
        return -self.K * self.beta * s * np.log(s)


@dataclass(frozen=True)
class SumModulus(Modulus):
    a: Modulus
    b: Modulus

    @property
    def domain_cap(self):
        return min(self.a.domain_cap, self.b.domain_cap)

    def _raw(self, s):
        return self.a._raw(s) + self.b._raw(s)


@dataclass(frozen=True)
class ScaleModulus(Modulus):
    c: float
    w: Modulus

    def __post_init__(self):
        if self.c <= 0.0:
            raise RangeError(f"scale factor must be positive, got {self.c!r}")

    @property
    def domain_cap(self):
        return self.w.domain_cap

    def _raw(self, s):
        return self.c * self.w._raw(s)


@dataclass(frozen=True)
class MaxModulus(Modulus):
    a: Modulus
    b: Modulus

    @property
    def domain_cap(self):
        return min(self.a.domain_cap, self.b.domain_cap)

    def _raw(self, s):
        return np.maximum(self.a._raw(s), self.b._raw(s))


@dataclass(frozen=True)
class Tabulated(Modulus):
    """Empirical modulus from (scale, increment-sup) breakpoints."""

    breakpoints: tuple = ()

    def __post_init__(self):
        s = [float(b[0]) for b in self.breakpoints]
        v = [float(b[1]) for b in self.breakpoints]
        if len(s) < 2:
            raise RangeError(f"tabulated modulus needs >= 2 breakpoints, "
                             f"got {len(s)}")
        for a, b in zip(s, s[1:]):
            if not a < b:
                raise RangeError(f"breakpoint scales must be strictly "
                                 f"ascending, got {a} then {b}")
        for a, b in zip(v, v[1:]):
            if not a <= b:
                raise RangeError(f"breakpoint values must be nondecreasing, "
                                 f"got {a} then {b}")
        if v[0] < 0.0:
            raise RangeError(f"breakpoint values must be nonnegative, got "
                             f"{v[0]}")

    @property
    def domain_cap(self):
        return self.breakpoints[-1][0]

    def _raw(self, s):
        xs = np.asarray([0.0] + [b[0] for b in self.breakpoints])
        ys = np.asarray([0.0] + [b[1] for b in self.breakpoints])
        return np.interp(s, xs, ys)


# ---------------------------------------------------------------------------
# criterion reports


@dataclass
class CriterionReport:
    criterion: str
    verdict: str
    trace: np.ndarray  # (N, 2) columns: probe scale, evaluated quantity
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.trace = np.asarray(self.trace, dtype=float)
        if len(self.trace) == 0:
            raise RangeError(f"{self.criterion} report needs a nonempty "
                             f"trace")

    def to_csv(self):
        meta = [("criterion", self.criterion), ("verdict", self.verdict)]
        meta += [(f"param.{k}", self.params[k]) for k in sorted(self.params)]
        return csv_text(meta, ["s", "quantity"], self.trace)


_SUM_CAP = 1.0e6
_STABILIZE_REL = 1.0e-6
_GEO_RATIO = 0.97
_DECAY_FACTOR = 1.0e-3


def osgood_check(w, eps=None, depth=40):
    """Probe divergence of int_delta^eps ds / w(s) on a geometric grid.

    Holds   (uniqueness-favorable): partial sums diverge -- they exceed
            the 1e6 cap or the increments stop shrinking geometrically.
    Fails   : increments shrink geometrically and the sum stabilizes
            within 1e-6 relative.
    The classical criterion ties uniqueness to divergence; the report
    records that convention explicitly.
    """
    if depth < 8:
        raise RangeError(f"depth must be >= 8, got {depth}")
    if eps is None:
        eps = min(w.domain_cap, _E_CAP)
    if not 0.0 < eps < math.inf:
        raise RangeError(f"eps must be positive and finite, got {eps}")
    if eps > w.domain_cap:
        raise EvalDomainError("eps beyond the modulus domain cap")

    deltas = eps * 2.0 ** (-np.arange(depth + 1, dtype=float))
    vals = w(deltas)
    if np.any(vals <= 0.0):
        raise SingularIntegrandError(
            "modulus vanishes at an interior probe point")

    from scipy.integrate import quad
    increments = []
    for k in range(depth):
        val, _ = quad(lambda s: 1.0 / w(s), deltas[k + 1], deltas[k],
                      limit=200)
        increments.append(val)
    increments = np.asarray(increments)
    sums = np.concatenate([[0.0], np.cumsum(increments)])
    trace = np.stack([deltas, sums], axis=1)

    params = {
        "eps": eps, "depth": depth, "sum_cap": _SUM_CAP,
        "stabilize_rel": _STABILIZE_REL, "geometric_ratio": _GEO_RATIO,
        "convention": "holds-on-divergence",
    }
    tail = increments[-8:]
    ratios = tail[1:] / tail[:-1]
    params["max_tail_ratio"] = float(np.max(ratios))
    if np.any(sums > _SUM_CAP):
        verdict = HOLDS
    elif np.max(ratios) < _GEO_RATIO:
        # a geometric tail ratio alone bounds the remaining mass, so the
        # integral converges; the estimate documents how settled it is
        r = float(np.max(ratios))
        remainder = increments[-1] * r / (1.0 - r)
        params["remainder_estimate"] = remainder
        params["stabilized"] = bool(remainder <= _STABILIZE_REL * sums[-1])
        verdict = FAILS
    else:
        verdict = HOLDS
    return CriterionReport("Osgood", verdict, trace, params)


def limit_condition_check(w1, w2):
    """Evaluate q(s) = w1(s) * e^{w2(s)/s} on a geometric grid.

    The grid has 40 scales from the smaller domain cap (1 when both are
    infinite) down to 1e-12.  Holds iff q is eventually decreasing and the
    final value is below 1e-3 of the initial one.  Computed as
    log q = log w1 + w2(s)/s so that exponent overflow cannot occur before
    the comparison, and a w1 that vanishes on the grid raises.
    """
    cap = min(w1.domain_cap, w2.domain_cap)
    grid = np.geomspace(cap if math.isfinite(cap) else 1.0, 1.0e-12, 40)

    v1 = w1(grid)
    if np.any(v1 <= 0.0):
        raise SingularIntegrandError(f"w1 {w1!r} vanishes at scale "
                                     f"{grid[np.argmax(v1 <= 0.0)]:g}")
    logq = np.log(v1) + w2(grid) / grid
    with np.errstate(over="ignore"):
        q = np.exp(logq)
    trace = np.stack([grid, q], axis=1)

    n_tail = max(5, len(grid) // 4)
    diffs = np.diff(logq[-n_tail:])  # along shrinking s
    slack = 1.0e-12
    decreasing = bool(np.all(diffs <= slack))
    increasing = bool(np.all(diffs >= -slack))
    decayed = logq[-1] <= logq[0] + math.log(_DECAY_FACTOR)
    if decreasing and decayed:
        verdict = HOLDS
    elif decreasing or increasing:
        verdict = FAILS
    else:
        verdict = INCONCLUSIVE
    params = {
        "decay_factor": _DECAY_FACTOR, "tail_points": n_tail,
        "s_min": grid[-1], "s_max": grid[0],
        "fitted_slope": fit_loglog_slope(trace),
    }
    return CriterionReport("LimitCondition", verdict, trace, params)


def fit_loglog_slope(trace, window=None):
    """Least-squares slope of log q against log s, optionally windowed."""
    trace = np.asarray(trace, dtype=float)
    s, q = trace[:, 0], trace[:, 1]
    if window is not None:
        lo, hi = window
        keep = (s >= lo) & (s <= hi)
        s, q = s[keep], q[keep]
    good = (q > 0.0) & np.isfinite(q)
    s, q = s[good], q[good]
    if len(s) < 2:
        return math.nan
    coeffs = np.polyfit(np.log(s), np.log(q), 1)
    return float(coeffs[0])


# ---------------------------------------------------------------------------
# declared moduli and the certificate core

NONZERO_THRESHOLD = 1.0e-9  # a component or determinant above it is nonzero


@dataclass
class ModuliDecl:
    """Declared regularity: one overall modulus plus per-variable ones."""

    overall: Modulus
    per_variable: dict

    def group_modulus(self, names):
        declared = [self.per_variable[n] for n in names
                    if n in self.per_variable]
        if not declared:
            raise RangeError(f"no declared modulus for {tuple(names)}; moduli "
                             f"are declared for {tuple(self.per_variable)}")
        return functools.reduce(MaxModulus, declared)


def declared_limit_check(moduli, names):
    """(w1, w2, report) of a uniqueness certificate: the overall declared
    modulus, the one with respect to names, and the limit criterion on
    them.  No declared moduli (None) is a RangeError."""
    if moduli is None:
        raise RangeError(f"the certificate needs declared moduli for "
                         f"{tuple(names)}, and the spec declares none")
    w1, w2 = moduli.overall, moduli.group_modulus(names)
    return w1, w2, limit_condition_check(w1, w2)


# ---------------------------------------------------------------------------
# empirical moduli


def estimate_modulus(points, values, direction_mask=None, n_buckets=12):
    """Tabulate sup |f(p)-f(q)| over scale buckets from sampled data.

    Only pairs whose displacement is supported on the coordinates in
    direction_mask count (all coordinates when the mask is None): the
    other coordinates of a pair may differ by at most 1e-9.  The running
    max over ascending buckets makes the table nondecreasing by
    construction.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 1 and np.ndim(points) == 1:
        pts = pts.T
    vals = np.asarray(values, dtype=float)
    n, d = pts.shape
    if n < 100:
        raise InsufficientDataError("need at least 100 samples")
    if direction_mask is None:
        direction_mask = list(range(d))
    mask = np.zeros(d, dtype=bool)
    mask[list(direction_mask)] = True

    disp = pts[:, None, :] - pts[None, :, :]
    iu = np.triu_indices(n, k=1)
    disp = disp[iu]
    df = np.abs(vals[:, None] - vals[None, :])[iu]
    if np.any(~mask):
        admissible = np.all(np.abs(disp[:, ~mask]) <= 1.0e-9, axis=1)
        disp, df = disp[admissible], df[admissible]
    dist = np.linalg.norm(disp[:, mask], axis=1)
    keep = dist > 0.0
    dist, df = dist[keep], df[keep]
    if len(dist) == 0:
        raise InsufficientDataError("no admissible sample pairs")

    s_max = float(np.max(dist))
    d_min = float(np.min(dist))
    # do not probe below the resolution of the data
    n_buckets = max(2, min(n_buckets, int(math.log2(s_max / d_min)) + 1))
    scales = s_max * 2.0 ** (-np.arange(n_buckets, dtype=float))[::-1]
    if np.count_nonzero(dist <= scales[0]) < 1:
        raise InsufficientDataError(
            f"no sample pairs in the smallest bucket (s={scales[0]:g})")
    order = np.argsort(dist)
    dist, df = dist[order], df[order]
    running = np.maximum.accumulate(df)
    idx = np.searchsorted(dist, scales, side="right") - 1
    sups = np.where(idx >= 0, running[np.maximum(idx, 0)], 0.0)
    sups = np.maximum.accumulate(sups)
    return Tabulated(tuple(zip(scales.tolist(), sups.tolist())))


# ---------------------------------------------------------------------------
# text form


_LEAF_KEYS = {"lipschitz": ("k", "cap"), "hoelder": ("alpha", "k", "cap"),
              "loglip": ("beta", "k", "cap")}


def parse_modulus(text):
    text = text.strip()
    try:
        return _build_modulus(text)
    except ValueError as err:  # a constructor's range check
        raise ParseError(f"invalid modulus {text!r}: {err}") from None


def _build_modulus(text):
    name, body = _split_call(text)
    if name in _LEAF_KEYS:
        kv = _parse_kv(body, _LEAF_KEYS[name])
        for key in ("k", "beta"):
            if key in kv and not kv[key] >= 0.0:
                raise ParseError(f"{key} must be nonnegative, got "
                                 f"{kv[key]!r} in {text!r}")
        if name == "lipschitz":
            return Lipschitz(K=kv.pop("k", 1.0),
                             domain_cap=kv.pop("cap", math.inf))
        if name == "hoelder":
            return Hoelder(alpha=kv.pop("alpha", 0.5), K=kv.pop("k", 1.0),
                           domain_cap=kv.pop("cap", math.inf))
        return LogLip(beta=kv.pop("beta", 1.0), K=kv.pop("k", 1.0),
                      domain_cap=kv.pop("cap", _E_CAP))
    if name in ("sum", "max"):
        a, b = _split_args(body, 2)
        cls = SumModulus if name == "sum" else MaxModulus
        return cls(parse_modulus(a), parse_modulus(b))
    if name == "scale":
        c, w = _split_args(body, 2)
        return ScaleModulus(_number(c, text), parse_modulus(w))
    if name == "tabulated":
        pairs = []
        for piece in _split_args(body):
            s, sep, v = piece.partition(":")
            if not sep:
                raise ParseError(f"expected scale:value, got {piece!r}")
            pairs.append((_number(s, piece), _number(v, piece)))
        return Tabulated(tuple(pairs))
    raise ParseError(f"unknown modulus kind {name!r}")


def _split_call(text):
    i = text.find("(")
    if i < 0 or not text.endswith(")"):
        raise ParseError(f"malformed modulus record {text!r}")
    return text[:i].strip().lower(), text[i + 1:-1]


def _split_args(body, expected=None):
    args, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(body[start:i].strip())
            start = i + 1
    tail = body[start:].strip()
    if tail:
        args.append(tail)
    if expected is not None and len(args) != expected:
        raise ParseError(f"expected {expected} arguments, got {len(args)}")
    return args


def _parse_kv(body, keys):
    kv = {}
    for piece in _split_args(body):
        if not piece:
            continue
        k, sep, v = piece.partition("=")
        if not sep or "=" in v:
            raise ParseError(f"expected key=value, got {piece!r}")
        k = k.strip().lower()
        if k not in keys:
            raise ParseError(f"unknown key {k!r}, expected one of {keys}")
        kv[k] = _number(v, piece)
    return kv


def _number(text, where):
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"malformed number {text.strip()!r} in "
                         f"{where!r}") from None
