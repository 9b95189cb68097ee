"""Uniqueness diagnostics for continuous ODEs dy/dt = F(t, y).

The extended field (1, F) over xi = (t, y) never vanishes, so a
uniqueness certificate picks the largest nonzero component, takes the
declared modulus of F with respect to the remaining variables as w2 and
the overall declared modulus as w1, and evaluates the limit criterion
w1(s) e^{w2(s)/s} -> 0.

The funnel probe is numerical evidence only: it integrates an ensemble
of vertically perturbed initial conditions together with field-offset
runs F +- delta and watches how the terminal dispersion scales with
delta.  All of its trajectories, for every delta, run as one batch of
the RK4 engine in surface.py: the offset rides along as an extra state
column with zero velocity, so F + off replaces the rebuilt F + delta
trees and evaluates to the same bits, and a row that escapes or leaves
the field's domain is retired without stopping its neighbours.  Linear
scaling is the unique-like signature; a plateau far above the smallest
probe is the funnel signature.  Forward integration from a single point
cannot exhibit non-uniqueness by itself, which is why the field-offset
probe exists: it brackets the funnel from outside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .boxes import Box, GraphForm
from .errors import RangeError
from .fields import ONE, ZERO, Coord, add, eval_fields
from .moduli import (NONZERO_THRESHOLD, CriterionReport, ModuliDecl, Modulus,
                     declared_limit_check, fit_loglog_slope)
from .report import cells, csv_text
from .surface import FlowConfig, _integrate

__all__ = [
    "OdeSpec", "FunnelReport", "Theorem1Certificate", "extend",
    "theorem1_check", "funnel", "funnel_to_csv",
]


@dataclass
class OdeSpec(GraphForm):
    """dy/dt = F(t, y): the graph form with the single x variable t."""

    t_name: str
    y_names: tuple
    F: list          # n fields over (t, y_1..y_n)
    domain: Box      # over (t,) + y_names
    moduli: ModuliDecl = None

    def __post_init__(self):
        self.y_names = tuple(self.y_names)
        if len(self.F) != self.n:
            raise RangeError(f"ode spec needs one field per state variable "
                             f"{self.y_names}, got {len(self.F)} fields")
        self._check_domain("ode spec")

    @property
    def x_names(self):
        return (self.t_name,)

    @cached_property
    def _funnel_fields(self):
        """(1, F + off, 0): the funnel's fields, compiled once per spec."""
        off = Coord(_OFFSET)
        return [ONE] + [add(f, off) for f in self.F] + [ZERO]


def extend(spec: OdeSpec):
    """The never-vanishing extended field (1, F^1, ..., F^n) over xi."""
    return [ONE] + list(spec.F)


@dataclass
class Theorem1Certificate:
    component: int          # 1-based index into xi = (t, y_1..y_n)
    component_value: float
    w1: Modulus
    w2: Modulus
    report: CriterionReport

    @property
    def verdict(self):
        return self.report.verdict


def theorem1_check(spec: OdeSpec, xi) -> Theorem1Certificate:
    """Uniqueness certificate at a point of the extended phase space.

    Chooses the largest-magnitude component above 1e-9 (ties break to the
    largest index, i.e. toward the state variables); w2 is the declared
    modulus with respect to every variable except the chosen one.
    """
    values = eval_fields(extend(spec), spec.coords, spec.check_point(xi))
    # never all False: the first component of the extended field is 1
    nz = np.abs(values) > NONZERO_THRESHOLD
    best = np.max(np.abs(values[nz]))
    candidates = [i for i in range(len(values))
                  if nz[i] and abs(values[i]) >= best * (1.0 - 1e-12)]
    chosen = max(candidates)
    others = [c for j, c in enumerate(spec.coords) if j != chosen]
    w1, w2, report = declared_limit_check(spec.moduli, others)
    report.params["component"] = chosen + 1
    report.params["component_value"] = float(values[chosen])
    return Theorem1Certificate(chosen + 1, float(values[chosen]), w1, w2,
                               report)


@dataclass
class FunnelReport:
    basepoint: np.ndarray
    horizon: float
    delta_list: list
    dispersions: list
    verdict: str
    params: dict = field(default_factory=dict)
    escapes: dict = field(default_factory=dict)


_OFFSET = "!off"  # reserved: no identifier, and sorts before every one


def funnel(spec: OdeSpec, xi0, T, delta_list, ensemble=8,
           cfg: FlowConfig = None, seed=0) -> FunnelReport:
    """Perturbation-ensemble probe of the solution funnel through xi0.

    For each delta: integrate from xi0 + delta * (unit vertical vectors)
    and with the field offset by +-delta on every state component; the
    dispersion is the diameter of the terminal points.  Escaped
    trajectories are recorded, not fatal.

    Every trajectory runs in one batch: the base start once, then per
    delta the ensemble starts and two offset rows.  The offset is an
    extra state column with zero velocity that every state component
    adds, so F + off evaluates as add(F, Const(off)) would, bit for bit,
    and the base and ensemble rows carry off = 0.
    """
    cfg = cfg or FlowConfig()
    if not T > 0.0:
        raise RangeError(f"horizon T must be positive, got {T}")
    if ensemble < 0:
        raise RangeError(f"ensemble must be a count >= 0, got {ensemble}")
    delta_list = sorted((float(d) for d in delta_list), reverse=True)
    if not (len(delta_list) >= 2 and delta_list[0] > delta_list[-1]):
        raise RangeError(f"deltas must hold at least two distinct values, "
                         f"got {delta_list}")
    xi0 = spec.check_point(xi0)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((ensemble, spec.n))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    # rows: the base start, then per delta the ensemble and +delta, -delta
    starts, offsets = [xi0], [0.0]
    for delta in delta_list:
        for u in dirs:
            start = xi0.copy()
            start[1:] += delta * u
            starts.append(start)
            offsets.append(0.0)
        starts += [xi0, xi0]
        offsets += [delta, -delta]
    states = np.column_stack([np.asarray(starts), offsets])
    dom = spec.domain
    box = Box(dom.names + (_OFFSET,), dom.lows + (-math.inf,),
              dom.highs + (math.inf,))
    inside = dom.contains(states[:, :-1], tol=1e-12)
    run = _integrate(spec._funnel_fields, box.names, states[inside], T,
                     cfg.step, box)
    done = np.zeros(len(states), dtype=bool)
    done[inside] = np.isnan(run.exit_time)
    ends = np.zeros_like(states)
    ends[inside] = run.x

    dispersions, escapes = [], {}
    per_delta = ensemble + 2
    for j, delta in enumerate(delta_list):
        group = [0] + list(range(1 + j * per_delta, 1 + (j + 1) * per_delta))
        terminals = [ends[i, :-1] for i in group if done[i]]
        if len(terminals) >= 2:
            pts = np.asarray(terminals)
            diff = pts[:, None, :] - pts[None, :, :]
            dispersions.append(float(np.max(np.linalg.norm(diff, axis=-1))))
        else:
            dispersions.append(0.0)
        escapes[delta] = len(group) - len(terminals)

    verdict, fit = _classify_dispersion(delta_list, dispersions)
    params = {"ensemble": ensemble, "seed": seed, "T": T,
              "step": cfg.step, "fit_exponent": fit,
              "plateau_floor": 1.0e3 * delta_list[-1]}
    return FunnelReport(xi0, T, delta_list, dispersions, verdict, params,
                        escapes)


def _classify_dispersion(deltas, dispersions):
    """UniqueLike when dispersion ~ delta (exponent >= 0.9); funnel when it
    plateaus above 1e3 times the smallest probe."""
    v = np.asarray(dispersions)
    p = fit_loglog_slope(np.column_stack([deltas, v]))
    if math.isnan(p):
        return "Inconclusive", p
    if np.all(v[v > 0.0] >= 1.0e3 * deltas[-1]) and p < 0.5:
        return "FunnelDetected", p
    if p >= 0.9:
        return "UniqueLike", p
    return "Inconclusive", p


def funnel_to_csv(rep: FunnelReport):
    meta = [("report", "funnel"), ("verdict", rep.verdict),
            ("basepoint", cells(float(v) for v in rep.basepoint)),
            ("horizon", float(rep.horizon))]
    meta += [(f"param.{k}", rep.params[k]) for k in sorted(rep.params)]
    rows = [(float(dlt), float(disp), rep.escapes[dlt])
            for dlt, disp in zip(rep.delta_list, rep.dispersions)]
    return csv_text(meta, ["delta", "dispersion", "escaped"], rows)
