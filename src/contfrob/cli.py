"""Command-line front end: presets, config files, CSV reports.

The `_KINDS` table declares each experiment kind once: its command words,
handler and params.  The parser is built from it, config files are
checked against it and `main` dispatches through it.  A param's `_Param`
holds its type, run default and lower bound; `_values` reads every param
by it before the handler starts, for flags and config files alike.  Each
example family is one registry of presets.py builders that get only the
values given for their keys, so a preset's defaults are its signature's;
a key that only another example of the family reads is a ParseError.
Every report starts with a '#'-prefixed header block embedding the fully
resolved configuration (sorted keys, no timestamps), so identical configs
and seeds produce byte-identical files.  Exit codes: 0 on completion, 2
when a verdict came out different from a demanded one (--expect), 1 on
errors: argparse usage errors, malformed or out-of-range values and
config text included.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .boxes import Box
from .errors import ContfrobError, EscapeError, ParseError
from .fields import Add, Coord, Mul, expand, mul, parse_field
from .forms import one_form
from .geometry import FrameSection, frobenius_defect, max_principal_angle
from .moduli import (FAILS, HOLDS, fit_loglog_slope, limit_condition_check,
                     osgood_check, parse_modulus)
from .mollify import grid_from_field, verify_bounds
from .odelab import funnel, funnel_to_csv, theorem1_check
from .pdelab import (WEDGE_TOL, involutive_mollified_frames, special_solve,
                     theorem2_check)
from .surface import (FlowConfig, _check_eps1, build_surface, patch_to_csv,
                      tangency_defect)
from .dynsys import (Cocycle, PlaneFieldSamples, domination_report,
                     splitting_involutivity_pipeline,
                     splitting_report_to_csv, transport)
from .report import csv_text
from . import presets

__all__ = ["main", "ExperimentConfig", "run_experiment"]


# ---------------------------------------------------------------------------
# config files


_COMMON_KEYS = {"kind", "out", "seed", "expect"}


class ExperimentConfig:
    """Flat key-value config with an [experiment] and a [params] section."""

    def __init__(self, kind, out=".", seed=0, expect=None, params=None):
        if kind not in _KINDS:
            raise ParseError(f"unknown experiment kind {kind!r}")
        self.kind = kind
        self.out = out
        self.seed = _read(_Param("seed", int), seed)
        self.expect = expect
        self.params = dict(params or {})
        params_of_kind = _KINDS[kind].params
        unknown = set(self.params) - {prm.key for prm in params_of_kind}
        if unknown:
            raise ParseError(
                f"unknown keys for {kind!r}: {sorted(unknown)}")
        missing = [prm.key for prm in params_of_kind
                   if prm.required and prm.key not in self.params]
        if missing:
            raise ParseError(f"missing keys for {kind!r}: {missing}")

    def __eq__(self, other):
        return (isinstance(other, ExperimentConfig)
                and self.to_text() == other.to_text())

    def to_text(self):
        lines = ["[experiment]", f"kind = {self.kind}", f"out = {self.out}",
                 f"seed = {self.seed}"]
        if self.expect is not None:
            lines.append(f"expect = {self.expect}")
        lines.append("")
        lines.append("[params]")
        for k in sorted(self.params):
            lines.append(f"{k} = {self.params[k]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        section = None
        top, params = {}, {}
        for ln_no, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in ("experiment", "params"):
                    raise ParseError(f"unknown section {section!r}", ln_no)
                continue
            if "=" not in line:
                raise ParseError(f"expected key = value, got {line!r}", ln_no)
            key, val = (p.strip() for p in line.split("=", 1))
            if key in (top if section == "experiment" else params):
                raise ParseError(f"repeated key {key!r}", ln_no)
            if section == "experiment":
                if key not in _COMMON_KEYS:
                    raise ParseError(f"unknown experiment key {key!r}", ln_no)
                if key == "seed":
                    try:
                        val = int(val)
                    except ValueError:
                        raise ParseError(f"seed must be an integer, got "
                                         f"{val!r}", ln_no) from None
                top[key] = val
            elif section == "params":
                params[key] = val
            else:
                raise ParseError("key outside any section", ln_no)
        if "kind" not in top:
            raise ParseError("config is missing kind")
        return cls(top["kind"], top.get("out", "."),
                   top.get("seed", 0), top.get("expect"), params)

    def header_lines(self):
        out = [f"# config.kind={self.kind}", f"# config.seed={self.seed}"]
        if self.expect is not None:
            out.append(f"# config.expect={self.expect}")
        for k in sorted(self.params):
            out.append(f"# config.{k}={self.params[k]}")
        return out


def _write(cfg, name, body):
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text("\n".join(cfg.header_lines() + [body]))


# ---------------------------------------------------------------------------
# params


class _Param(NamedTuple):
    """One param of a kind.  `type` reads its text, or each comma-separated
    item of it when `many`.  A None `default` leaves an omitted param to
    the callee.  argparse fills in a choice's default, so a flag run
    records it and a config-file run does not."""

    key: str
    type: type = str
    default: str = None
    least: int = None
    many: bool = False
    choices: tuple = ()
    required: bool = False


def _read(prm, text):
    """One param's text as its typed value, checked against its bound and
    its choices."""
    shape = (f"a comma-separated list of {prm.type.__name__}s"
             if prm.many else f"a single {prm.type.__name__}")
    try:
        value = ([prm.type(v) for v in str(text).split(",") if v != ""]
                 if prm.many else prm.type(text))
    except ValueError:
        raise ParseError(f"{prm.key} must be {shape}, got {text!r}") from None
    if prm.many and not value:
        raise ParseError(f"{prm.key} must be {shape}, got no items in "
                         f"{text!r}")
    if prm.least is not None and value < prm.least:
        raise ParseError(f"{prm.key} must be at least {prm.least}, "
                         f"got {value}")
    if prm.choices and value not in prm.choices:
        raise ParseError(f"{prm.key} must be one of "
                         f"{', '.join(prm.choices)}, got {value!r}")
    return value


def _values(cfg):
    """Every param of a config read by its rule before any work runs: the
    given ones, and the omitted ones that have a default.  A key of the
    example family that the chosen example does not read is an error, so
    the report header records only what shaped the run."""
    kind = _KINDS[cfg.kind]
    values = {prm.key: _read(prm, text) for prm in kind.params
              if (text := cfg.params.get(prm.key, prm.default)) is not None}
    if kind.examples is not None:
        example = values["example"]
        keys = kind.examples[example][1]
        stray = [k for _, ks in kind.examples.values() for k in ks
                 if k in cfg.params and k not in keys]
        if stray:
            raise ParseError(f"example {example!r} does not read "
                             f"{', '.join(stray)}; it reads "
                             f"{', '.join(keys) or 'no keys'}")
    return values


def _point(p, key, coords, default=None):
    """The point given for key (default when omitted), checked to have one
    value per coordinate before any work uses it."""
    point = p.get(key, default)
    if len(point) != len(coords):
        raise ParseError(f"{key} must have {len(coords)} values, one per "
                         f"coordinate {', '.join(coords)}; got {len(point)}")
    return point


def _given(p, keys):
    return {k: p[k] for k in keys if k in p}


def _example(registry, p):
    build, keys = registry[p["example"]]
    return build(**_given(p, keys))


# ---------------------------------------------------------------------------
# experiment handlers (each takes the config and its typed values and
# returns a verdict string or None)


def _run_moduli_check(cfg, p):
    w = parse_modulus(p["w"])
    if p["criterion"] == "osgood":
        rep = osgood_check(w, **_given(p, ("eps", "depth")))
    else:
        w2 = parse_modulus(p["w2"]) if "w2" in p else w
        rep = limit_condition_check(w, w2)
    _write(cfg, "moduli_check.csv", rep.to_csv())
    print(f"criterion={rep.criterion} verdict={rep.verdict}")
    return rep.verdict


def _run_mollify_verify(cfg, p):
    lo, hi = p["lo"], p["hi"]
    if not lo < hi:
        raise ParseError(f"lo must be below hi, got lo={lo}, hi={hi}")
    g = grid_from_field(parse_field(p["expr"]), Box(("x",), (lo,), (hi,)),
                        p["n"])
    w = parse_modulus(p["w"])
    w_axis = parse_modulus(p["w_axis"]) if "w_axis" in p else w
    reports = verify_bounds(g, w, [w_axis], p["eps_list"])
    rows = [[float(v) for v in (r.eps, r.sup_dist, r.deriv_sup[0],
                                r.bound_rhs["dist"], r.bound_rhs["deriv"][0],
                                r.fitted_K)] for r in reports]
    _write(cfg, "mollify_verify.csv", csv_text(
        [], ["eps", "sup_dist", "deriv_sup", "bound_dist", "bound_deriv",
             "fitted_K"], rows))
    ok = all(r.ok() for r in reports)
    print(f"mollify bounds hold={ok} fitted_K={reports[0].fitted_K:.6g}")
    return HOLDS if ok else FAILS


def _parse_one_form_text(text):
    """Differential tokens d<name> become markers, then linear collection."""
    diff_names = sorted(set(re.findall(r"\bd([a-zA-Z]\w*)\b", text)))
    if not diff_names:
        raise ParseError("form has no differential terms")
    marked = re.sub(r"\bd([a-zA-Z]\w*)\b", r"_d_\1", text)
    f = expand(parse_field(marked))
    terms = f.terms if isinstance(f, Add) else [f]
    comps = {}
    for term in terms:
        factors = term.factors if isinstance(term, Mul) else [term]
        markers = [fa for fa in factors
                   if isinstance(fa, Coord) and fa.name.startswith("_d_")]
        if len(markers) != 1:
            raise ParseError(f"term {term} is not linear in differentials")
        rest = [fa for fa in factors if fa not in markers]
        name = markers[0].name[3:]
        coeff = mul(*rest) if rest else parse_field("1")
        comps[name] = coeff + comps[name] if name in comps else coeff
    coords = sorted(set(diff_names) |
                    set().union(*(c.free_vars for c in comps.values())))
    return tuple(coords), comps


def _run_frobenius(cfg, p):
    coords, comps = _parse_one_form_text(p["form"])
    frame = FrameSection((one_form(coords, comps),), coords, ())
    extent = p["extent"]
    if not extent > 0.0:
        raise ParseError(f"extent must be positive, got {extent}")
    box = Box.from_dict({c: (-extent, extent) for c in coords})
    pts = box.lattice(p["grid"])
    defect = frobenius_defect(frame, pts)
    rows = [[*q, v] for q, v in zip(pts, defect)]
    _write(cfg, "frobenius.csv", csv_text([], coords + ("defect",), rows))
    print(f"frobenius defect: max={np.max(defect):.6g} "
          f"min={np.min(defect):.6g} points={len(pts)}")
    return HOLDS if np.max(defect) <= WEDGE_TOL else FAILS


_ODE_EXAMPLES = {
    "paper-ex1": (presets.ode_example_1, ("alpha", "beta", "gamma", "delta")),
    "peano": (presets.ode_peano, ()),
    "contraction": (presets.ode_contraction, ()),
}


def _ode(p):
    """The chosen ODE example and its start point, the origin unless given."""
    spec = _example(_ODE_EXAMPLES, p)
    return spec, _point(p, "point", spec.coords, [0.0] * (spec.n + 1))


def _run_ode_check(cfg, p):
    cert = theorem1_check(*_ode(p))
    rep = cert.report
    rep.params["slope_window_1e-8_1e-3"] = fit_loglog_slope(
        rep.trace, (1e-8, 1e-3))
    _write(cfg, "ode_check.csv", rep.to_csv())
    print(f"component={cert.component} verdict={cert.verdict} "
          f"slope={rep.params['slope_window_1e-8_1e-3']:.4f}")
    return cert.verdict


def _run_ode_funnel(cfg, p):
    spec, point = _ode(p)
    rep = funnel(spec, point, p["T"], p["deltas"], seed=cfg.seed,
                 cfg=FlowConfig(p["step"]) if "step" in p else None,
                 **_given(p, ("ensemble",)))
    _write(cfg, "ode_funnel.csv", funnel_to_csv(rep))
    print(f"funnel verdict={rep.verdict} dispersions={rep.dispersions}")
    return rep.verdict


# example -> (special form, PdeSpec); only the separable ones have the
# special form that solve-special and frames need
_SEPARABLE = {"paper-ex2": (presets.pde_example_2, ("alpha", "beta"))}
_PDE_EXAMPLES = {**_SEPARABLE, "paper-ex3": (
    lambda **kw: (None, presets.pde_example_3(**kw)),
    ("a11", "a12", "a21", "a22", "b1", "b2"))}


def _run_pde_check(cfg, p):
    sf, spec = _example(_PDE_EXAMPLES, p)
    if sf is not None:  # paper-ex2
        point, cols = [0.25, 0.25, 0.5, 0.5], range(1, spec.n + 1)
    else:
        point, cols = [0.0] * (spec.m + spec.n), (2, 3)
    columns = tuple(p.get("columns", cols))
    cert = theorem2_check(spec, _point(p, "point", spec.coords, point),
                          columns)
    if cert.report is None:
        print(f"columns={columns} det={cert.det_value:.3g} "
              f"verdict=NotApplicable")
        _write(cfg, "pde_check.csv",
               f"# verdict=NotApplicable\n# det={cert.det_value!r}\n")
        return "NotApplicable"
    _write(cfg, "pde_check.csv", cert.report.to_csv())
    print(f"columns={columns} det={cert.det_value:.6g} "
          f"verdict={cert.verdict}")
    return cert.verdict


def _run_pde_solve_special(cfg, p):
    sf, spec = _example(_SEPARABLE, p)
    xb = Box(sf.x_names, spec.domain.lows[:sf.m], spec.domain.highs[:sf.m])
    targets = xb.shrink(0.05).lattice(p["targets_res"])
    result = special_solve(sf, np.asarray(_point(p, "x0", sf.x_names)),
                           np.asarray(_point(p, "y0", sf.y_names)), targets)
    rows = [[*targets[t], *result.values[t],
             np.max(np.abs(result.residuals[t]))] for t in range(len(targets))]
    _write(cfg, "pde_solve.csv", csv_text(
        [], sf.x_names + sf.y_names + ("max_residual",), rows))
    print(f"solved {len(targets)} targets, max residual "
          f"{result.max_residual:.3g}")
    return HOLDS if result.max_residual <= 1e-6 else FAILS


def _run_pde_frames(cfg, p):
    sf, _ = _example(_SEPARABLE, p)
    fams = involutive_mollified_frames(sf, p["eps_list"], check_res=p["grid"])
    _write(cfg, "pde_frames.csv", csv_text(
        [], ["eps", "wedge_sup"],
        [(float(fam.eps), float(fam.wedge_sup)) for fam in fams]))
    worst = max(f.wedge_sup for f in fams)
    print(f"{len(fams)} frames, wedge sup {worst:.3g}")
    return HOLDS if worst <= WEDGE_TOL else FAILS


_SURFACE_EXAMPLES = {
    "contact": (presets.contact_distribution, ()),
    "involutive": (presets.involutive_distribution, ()),
}


def _run_surface(cfg, p):
    dist = _example(_SURFACE_EXAMPLES, p)
    eps1 = p["eps1"]
    _check_eps1(eps1)  # before the default step eps1/32 is derived from it
    x0 = np.asarray(_point(p, "x0", dist.coords))
    patch = build_surface(dist, x0, eps1, p["grid"],
                          FlowConfig(step=p.get("step", eps1 / 32.0)),
                          **_given(p, ("order",)))
    rep = tangency_defect(patch, dist, sup_res=5)
    _write(cfg, "surface.csv", patch_to_csv(patch, rep))
    print(f"surface nodes={patch.points.size // len(dist.coords)} "
          f"max_defect={rep.max_defect:.6g} rhs={rep.rhs:.6g} ok={rep.ok()}")
    return HOLDS if rep.ok() else FAILS


def _cat_map():
    e_s = presets.cat_contracting_direction()[:, None]
    e_u = presets.cat_expanding_direction()[:, None]
    return presets.cat_map(), e_s, lambda pts: e_u, e_s


def _skew_product(**kw):
    phi = presets.skew_product(**kw)
    e_u = np.concatenate([presets.cat_expanding_direction(), [0.0]])[:, None]
    return (phi, presets.skew_seed_bases(), lambda pts: PlaneFieldSamples(
        pts, transport(phi.inverted(), e_u, 8, pts).bases),
        presets.skew_center_stable_bases())


# example -> (phi, seed bases e0, points -> complementary bundle f,
# limit plane field); every example's base frame is dx2
_DYN_EXAMPLES = {
    "cat-map": (_cat_map, ()),
    "skew-product": (_skew_product, ("tau_amp",)),
}


def _dyn_setup(p):
    phi, e0, f_at, lim = _example(_DYN_EXAMPLES, p)
    d = len(phi.coords)
    base = presets.constant_annihilator_frame(np.eye(d)[1:2], phi.coords,
                                              ("x2",))
    res = p.get("res", 5 if d == 2 else 4)
    axes = [np.linspace(0.0, 1.0, res, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    lim = np.broadcast_to(lim, (len(pts),) + lim.shape).copy()
    return phi, e0, f_at(pts), base, lim, pts


def _run_dyn_transport(cfg, p):
    phi, e0, _, _, lim, pts = _dyn_setup(p)
    k = p["k"]
    E = Cocycle(phi, pts, k).transports(e0, range(k + 1))
    to_prev = [float("nan")] + [float(a) for a in np.max(
        max_principal_angle(E[:-1], E[1:]), axis=1)]
    to_lim = np.max(max_principal_angle(E, lim), axis=1)
    rows = [(j, to_prev[j], float(to_lim[j])) for j in range(k + 1)]
    _write(cfg, "dyn_transport.csv", csv_text(
        [], ["k", "max_angle_to_next", "max_angle_to_limit"], rows))
    print(f"transported {k} steps over {len(pts)} points")


def _run_dyn_dominate(cfg, p):
    phi, e0, f, _, _, pts = _dyn_setup(p)
    sweep = {"eps_list": p["eps_sweep"]} if "eps_sweep" in p else {}
    rep = domination_report(phi, e0, f, p["k_max"], pts, **sweep)
    _write(cfg, "dyn_dominate.csv", splitting_report_to_csv(rep))
    print(f"dominated={rep.dominated} growth C={rep.growth_C:.4f} "
          f"D={rep.growth_D:.4f}")
    return HOLDS if rep.dominated else FAILS


def _run_dyn_traces(cfg, p):
    phi, e0, f, base, lim, pts = _dyn_setup(p)
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, base, f, p["k_max"], p["eps"], pts, limit=lim)
    if asym is None:
        _write(cfg, "dyn_traces.csv", "# verdict=NotApplicable\n")
        print("domination fails: traces not applicable")
        return "NotApplicable"
    rows = [(a.k + 1, float(a.q), float(a.strong), float(e.q))
            for a, e in zip(asym, ext)]
    _write(cfg, "dyn_traces.csv", csv_text(
        [], ["k", "q_asym", "strong_asym", "q_ext"], rows))
    decay = ext[-1].q <= ext[0].q / 10.0 and asym[-1].q <= asym[0].q / 10.0
    print(f"traces decay={decay} q_ext: {ext[0].q:.3g} -> {ext[-1].q:.3g}")
    return HOLDS if decay else FAILS


class _Kind(NamedTuple):
    words: tuple
    handler: Callable
    params: tuple
    examples: dict = None  # the example registry, for a family's kinds


def _family(words, handler, registry, params=()):
    """A kind over an example registry: its `example` choice, the first
    entry the default, and one float param per key its presets take come
    before its own params."""
    return _Kind(words, handler, (
        _Param("example", default=next(iter(registry)),
               choices=tuple(registry)),
        *(_Param(k, float) for _, keys in registry.values() for k in keys),
        *params), registry)


def _floats(key, default=None):
    return _Param(key, float, default, many=True)


_ODE = (_floats("point"),)
_DYN = (_Param("res", int, least=1),)

_KINDS = {
    "ode-check": _family(("ode", "check"), _run_ode_check, _ODE_EXAMPLES,
                         _ODE),
    "ode-funnel": _family(("ode", "funnel"), _run_ode_funnel, _ODE_EXAMPLES,
                          _ODE + (
        _Param("T", float, "1.0"), _floats("deltas", "1e-3,1e-4,1e-5,1e-6"),
        _Param("ensemble", int, least=0), _Param("step", float))),
    "pde-check": _family(("pde", "check"), _run_pde_check, _PDE_EXAMPLES, (
        _floats("point"), _Param("columns", int, many=True))),
    "pde-solve-special": _family(("pde", "solve-special"),
                                 _run_pde_solve_special, _SEPARABLE, (
        _floats("x0", "0.3,0.3"), _floats("y0", "0.5,0.5"),
        _Param("targets_res", int, "3", least=1))),
    "pde-frames": _family(("pde", "frames"), _run_pde_frames, _SEPARABLE, (
        _floats("eps_list", "0.125,0.0625,0.03125"),
        _Param("grid", int, "4", least=1))),
    "frobenius": _Kind(("frobenius",), _run_frobenius, (
        _Param("form", required=True), _Param("grid", int, "7", least=1),
        _Param("extent", float, "0.5"))),
    "moduli-check": _Kind(("moduli", "check"), _run_moduli_check, (
        _Param("criterion", default="osgood", choices=("osgood", "limit")),
        _Param("w", required=True), _Param("w2"), _Param("eps", float),
        _Param("depth", int))),
    "mollify-verify": _Kind(("mollify", "verify"), _run_mollify_verify, (
        _Param("expr", default="(x^2)^0.5"),
        _floats("eps_list", "0.1,0.05,0.025"),
        _Param("n", int, "1601", least=2), _Param("lo", float, "-1.0"),
        _Param("hi", float, "1.0"), _Param("w", default="lipschitz(k=1)"),
        _Param("w_axis"))),
    "surface": _family(("surface", "build"), _run_surface,
                       _SURFACE_EXAMPLES, (
        _Param("eps1", float, "0.1"), _Param("grid", int, "9"),
        _floats("x0", "0,0,0"), _Param("step", float),
        _Param("order", int, many=True))),
    "dyn-transport": _family(("dyn", "transport"), _run_dyn_transport,
                             _DYN_EXAMPLES, _DYN + (_Param("k", int, "10"),)),
    "dyn-dominate": _family(("dyn", "dominate"), _run_dyn_dominate,
                            _DYN_EXAMPLES, _DYN + (
        _Param("k_max", int, "12"), _floats("eps_sweep"))),
    "dyn-traces": _family(("dyn", "traces"), _run_dyn_traces, _DYN_EXAMPLES,
                          _DYN + (
        _Param("k_max", int, "8"), _Param("eps", float, "1.0"))),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    verdict = _KINDS[cfg.kind].handler(cfg, _values(cfg))
    if cfg.expect is not None and verdict is not None:
        if verdict.lower() != cfg.expect.lower():
            print(f"expected verdict {cfg.expect!r}, got {verdict!r}")
            return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors exiting 1; exit 2 means only an --expect
    mismatch.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parser():
    parser = _Parser(
        prog="contfrob",
        description="integrability diagnostics for continuous distributions")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True)
    groups = {}
    for kind, (words, _, params, _) in _KINDS.items():
        parent = sub
        if len(words) == 2:
            if words[0] not in groups:
                groups[words[0]] = sub.add_parser(words[0]).add_subparsers(
                    dest="action", required=True)
            parent = groups[words[0]]
        sp = parent.add_parser(words[-1])
        sp.set_defaults(kind=kind)
        sp.add_argument("--out", default=".")
        sp.add_argument("--seed")
        sp.add_argument("--expect")
        for prm in params:
            sp.add_argument("--" + prm.key.replace("_", "-"),
                            default=prm.default if prm.choices else None,
                            required=prm.required)
    return parser


def _config(ns):
    """A parsed command's config; a flag is recorded as str() of its typed
    value, so `--T 1` becomes `T=1.0`, and a list as it was written."""
    params = {prm.key: text if prm.many else str(_read(prm, text))
              for prm in _KINDS[ns.kind].params
              if (text := getattr(ns, prm.key)) is not None}
    return ExperimentConfig(ns.kind, ns.out, 0 if ns.seed is None else ns.seed,
                            ns.expect, params)


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    try:
        if ns.command == "run":
            path = Path(ns.config)
            if not path.exists():
                print(f"config file not found: {path}", file=sys.stderr)
                return 1
            cfg = ExperimentConfig.from_text(path.read_text())
        else:
            cfg = _config(ns)
        return run_experiment(cfg)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 1
    except EscapeError as err:
        print(f"error [EscapeError]: {err} (node={err.node}, "
              f"exit_time={err.exit_time})", file=sys.stderr)
        return 1
    except ContfrobError as err:
        print(f"error [{type(err).__name__}]: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
