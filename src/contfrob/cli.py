"""Command-line front end: presets, config files, CSV reports.

The `_KINDS` table declares each experiment kind once: its command words,
handler and params.  The parser is built from it, config files are
checked against it and `main` dispatches through it.  Every report starts
with a '#'-prefixed header block embedding the fully resolved
configuration (sorted keys, no timestamps), so identical configs and
seeds produce byte-identical files.  Exit codes: 0 on completion, 2 when
a verdict came out different from a demanded one (--expect), 1 on errors:
argparse usage errors, malformed flag values, out-of-range values and
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
from .moduli import (fit_loglog_slope, limit_condition_check, osgood_check,
                     parse_modulus)
from .mollify import GridFunction, verify_bounds
from .odelab import funnel, funnel_to_csv, theorem1_check
from .pdelab import involutive_mollified_frames, special_solve, theorem2_check
from .surface import FlowConfig, build_surface, patch_to_csv, tangency_defect
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
        self.seed = int(seed)
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


def _numbers(kind, p, key, default):
    """Comma-separated numbers of one kind under params[key]."""
    text = str(p.get(key, default))
    try:
        return [kind(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ParseError(f"{key} must be a comma-separated list of "
                         f"{kind.__name__}s, got {text!r}") from None


def _floats(p, key, default=None):
    return _numbers(float, p, key, default)


def _ints(p, key, default=None):
    return _numbers(int, p, key, default)


def _scalar(kind, p, key, default):
    """One number of one kind under params[key], or the default."""
    if key not in p:
        return default
    try:
        return kind(p[key])
    except ValueError:
        raise ParseError(f"{key} must be a single {kind.__name__}, got "
                         f"{p[key]!r}") from None


def _float(p, key, default=None):
    return _scalar(float, p, key, default)


def _int(p, key, default=None):
    return _scalar(int, p, key, default)


def _at_least(least, p, key, default):
    """_int(p, key, default), rejected below the smallest usable value."""
    value = _int(p, key, default)
    if value < least:
        raise ParseError(f"{key} must be at least {least}, got {value}")
    return value


def _write(cfg, name, body):
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text("\n".join(cfg.header_lines() + [body]))


# ---------------------------------------------------------------------------
# experiment handlers (each returns a verdict string or None)


def _run_moduli_check(cfg):
    p = cfg.params
    w = parse_modulus(p["w"])
    if p.get("criterion", "osgood") == "osgood":
        rep = osgood_check(w, eps=_float(p, "eps"),
                           depth=_int(p, "depth", 40))
    else:
        w2 = parse_modulus(p["w2"]) if "w2" in p else w
        rep = limit_condition_check(w, w2)
    _write(cfg, "moduli_check.csv", rep.to_csv())
    print(f"criterion={rep.criterion} verdict={rep.verdict}")
    return rep.verdict


def _run_mollify_verify(cfg):
    p = cfg.params
    lo, hi = _float(p, "lo", -1.0), _float(p, "hi", 1.0)
    if not lo < hi:
        raise ParseError(f"lo must be below hi, got lo={lo}, hi={hi}")
    n = _at_least(2, p, "n", 1601)
    f = parse_field(p.get("expr", "(x^2)^0.5"))
    xs = np.linspace(lo, hi, n)
    g = GridFunction((xs,), np.asarray(f.evaluate({"x": xs}), dtype=float))
    w = parse_modulus(p.get("w", "lipschitz(k=1)"))
    w_axis = parse_modulus(p["w_axis"]) if "w_axis" in p else w
    eps_list = _floats(p, "eps_list", "0.1,0.05,0.025")
    reports = verify_bounds(g, w, [w_axis], eps_list)
    rows = [[float(v) for v in (r.eps, r.sup_dist, r.deriv_sup[0],
                                r.bound_rhs["dist"], r.bound_rhs["deriv"][0],
                                r.fitted_K)] for r in reports]
    _write(cfg, "mollify_verify.csv", csv_text(
        [], ["eps", "sup_dist", "deriv_sup", "bound_dist", "bound_deriv",
             "fitted_K"], rows))
    ok = all(r.ok() for r in reports)
    print(f"mollify bounds hold={ok} fitted_K={reports[0].fitted_K:.6g}")
    return "Holds" if ok else "Fails"


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


def _run_frobenius(cfg):
    p = cfg.params
    coords, comps = _parse_one_form_text(p["form"])
    row = one_form(coords, comps)
    frame = FrameSection((row,), coords, (), None)
    extent = _float(p, "extent", 0.5)
    if not extent > 0.0:
        raise ParseError(f"extent must be positive, got {extent}")
    box = Box.from_dict({c: (-extent, extent) for c in coords})
    pts = box.lattice(_at_least(1, p, "grid", 7))
    defect = frobenius_defect(frame, pts)
    rows = [[*q, v] for q, v in zip(pts, defect)]
    _write(cfg, "frobenius.csv", csv_text([], coords + ("defect",), rows))
    print(f"frobenius defect: max={np.max(defect):.6g} "
          f"min={np.min(defect):.6g} points={len(pts)}")
    return "Holds" if np.max(defect) <= 1e-10 else "Fails"


def _ode_spec(p):
    name = p.get("example", "paper-ex1")
    if name == "paper-ex1":
        return presets.ode_example_1(_float(p, "alpha", 0.9),
                                     _float(p, "beta", 0.5),
                                     _float(p, "gamma", 0.5),
                                     _float(p, "delta", 0.5))
    if name == "peano":
        return presets.ode_peano()
    if name == "contraction":
        return presets.ode_contraction()
    raise ParseError(f"unknown ODE example {name!r}")


def _run_ode_check(cfg):
    p = cfg.params
    spec = _ode_spec(p)
    point = _floats(p, "point", "0" + ",0" * spec.n)
    cert = theorem1_check(spec, point)
    rep = cert.report
    rep.params["slope_window_1e-8_1e-3"] = fit_loglog_slope(
        rep.trace, (1e-8, 1e-3))
    _write(cfg, "ode_check.csv", rep.to_csv())
    print(f"component={cert.component} verdict={cert.verdict} "
          f"slope={rep.params['slope_window_1e-8_1e-3']:.4f}")
    return cert.verdict


def _run_ode_funnel(cfg):
    p = cfg.params
    spec = _ode_spec(p)
    point = _floats(p, "point", "0" + ",0" * spec.n)
    deltas = _floats(p, "deltas", "1e-3,1e-4,1e-5,1e-6")
    rep = funnel(spec, point, _float(p, "T", 1.0), deltas,
                 ensemble=_at_least(0, p, "ensemble", 8),
                 cfg=FlowConfig(step=_float(p, "step", 1e-3)),
                 seed=cfg.seed)
    _write(cfg, "ode_funnel.csv", funnel_to_csv(rep))
    print(f"funnel verdict={rep.verdict} dispersions={rep.dispersions}")
    return rep.verdict


def _pde_spec(p):
    name = p.get("example", "paper-ex2")
    if name == "paper-ex2":
        return presets.pde_example_2(_float(p, "alpha", 0.8),
                                     _float(p, "beta", 0.4))
    if name == "paper-ex3":
        kw = {k: _float(p, k)
              for k in ("a11", "a12", "a21", "a22", "b1", "b2") if k in p}
        return None, presets.pde_example_3(**kw)
    raise ParseError(f"unknown PDE example {name!r}")


def _run_pde_check(cfg):
    p = cfg.params
    sf, spec = _pde_spec(p)
    if sf is not None:  # paper-ex2
        point, cols = [0.25, 0.25, 0.5, 0.5], range(1, spec.n + 1)
    else:
        point, cols = [0.0] * (spec.m + spec.n), (2, 3)
    if "point" in p:
        point = _floats(p, "point")
    columns = tuple(_ints(p, "columns", ",".join(map(str, cols))))
    cert = theorem2_check(spec, point, columns)
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


def _run_pde_solve_special(cfg):
    p = cfg.params
    sf, spec = _pde_spec(p)
    if sf is None:
        raise ParseError("solve-special needs a separable example")
    x0 = np.asarray(_floats(p, "x0", "0.3,0.3"))
    y0 = np.asarray(_floats(p, "y0", "0.5,0.5"))
    res_grid = _at_least(1, p, "targets_res", 3)
    xb = Box(sf.x_names, spec.domain.lows[:sf.m], spec.domain.highs[:sf.m])
    targets = xb.shrink(0.05).lattice(res_grid)
    result = special_solve(sf, x0, y0, targets)
    rows = [[*targets[t], *result.values[t],
             np.max(np.abs(result.residuals[t]))] for t in range(len(targets))]
    _write(cfg, "pde_solve.csv", csv_text(
        [], sf.x_names + sf.y_names + ("max_residual",), rows))
    print(f"solved {len(targets)} targets, max residual "
          f"{result.max_residual:.3g}")
    return "Holds" if result.max_residual <= 1e-6 else "Fails"


def _run_pde_frames(cfg):
    p = cfg.params
    sf, _ = _pde_spec(p)
    if sf is None:
        raise ParseError("frames needs a separable example")
    eps_list = _floats(p, "eps_list", "0.125,0.0625,0.03125")
    fams = involutive_mollified_frames(sf, eps_list,
                                       check_res=_at_least(1, p, "grid", 4))
    _write(cfg, "pde_frames.csv", csv_text(
        [], ["eps", "wedge_sup"],
        [(float(fam.eps), float(fam.wedge_sup)) for fam in fams]))
    worst = max(f.wedge_sup for f in fams)
    print(f"{len(fams)} frames, wedge sup {worst:.3g}")
    return "Holds" if worst <= 1e-10 else "Fails"


def _surface_dist(p):
    name = p.get("example", "contact")
    if name == "contact":
        return presets.contact_distribution()
    if name == "involutive":
        return presets.involutive_distribution()
    raise ParseError(f"unknown surface example {name!r}")


def _run_surface(cfg):
    p = cfg.params
    dist = _surface_dist(p)
    eps1 = _float(p, "eps1", 0.1)
    step = _float(p, "step", eps1 / 32.0)
    order = tuple(_ints(p, "order")) if "order" in p else None
    x0 = np.asarray(_floats(p, "x0", "0,0,0"))
    patch = build_surface(dist, x0, eps1, _int(p, "grid", 9),
                          FlowConfig(step=step), order=order)
    rep = tangency_defect(patch, dist, sup_res=5)
    _write(cfg, "surface.csv", patch_to_csv(patch, rep))
    print(f"surface nodes={patch.points.size // len(dist.coords)} "
          f"max_defect={rep.max_defect:.6g} rhs={rep.rhs:.6g} ok={rep.ok()}")
    return "Holds" if rep.ok() else "Fails"


def _dyn_setup(p):
    name = p.get("example", "cat-map")
    if name == "cat-map":
        phi = presets.cat_map()
        e0 = presets.cat_contracting_direction()[:, None]
        f = presets.cat_expanding_direction()[:, None]
        base = presets.constant_annihilator_frame(
            np.array([[0.0, 1.0]]), ("x1", "x2"), ("x2",))
        lim = e0
        d = 2
    elif name == "skew-product":
        phi = presets.skew_product(_float(p, "tau_amp", 0.1))
        e0 = presets.skew_seed_bases()
        base = presets.constant_annihilator_frame(
            np.array([[0.0, 1.0, 0.0]]), ("x1", "x2", "x3"), ("x2",))
        lim = presets.skew_center_stable_bases()
        f = None
        d = 3
    else:
        raise ParseError(f"unknown dynamics example {name!r}")
    res = _at_least(1, p, "res", 5 if d == 2 else 4)
    axes = [np.linspace(0.0, 1.0, res, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if name == "skew-product":
        eu = np.concatenate([presets.cat_expanding_direction(), [0.0]])[:, None]
        f = PlaneFieldSamples(pts, transport(phi.inverted(), eu, 8, pts).bases)
    lim = np.broadcast_to(lim, (len(pts),) + lim.shape).copy()
    return phi, e0, f, base, lim, pts


def _run_dyn_transport(cfg):
    p = cfg.params
    phi, e0, _, _, lim, pts = _dyn_setup(p)
    k = _int(p, "k", 10)
    rows = []
    prev = None
    cocycle = Cocycle(phi, pts, k)
    for j in range(k + 1):
        ek = cocycle.transport(e0, j)
        to_prev = float(np.max(max_principal_angle(prev, ek.bases))) \
            if prev is not None else float("nan")
        to_lim = float(np.max(max_principal_angle(ek.bases, lim)))
        rows.append((j, to_prev, to_lim))
        prev = ek.bases
    _write(cfg, "dyn_transport.csv", csv_text(
        [], ["k", "max_angle_to_next", "max_angle_to_limit"], rows))
    print(f"transported {k} steps over {len(pts)} points")


def _run_dyn_dominate(cfg):
    p = cfg.params
    phi, e0, f, _, _, pts = _dyn_setup(p)
    eps_sweep = tuple(_floats(p, "eps_sweep", "0.1,0.5,1.0"))
    rep = domination_report(phi, e0, f, _int(p, "k_max", 12), pts,
                            eps_list=eps_sweep)
    _write(cfg, "dyn_dominate.csv", splitting_report_to_csv(rep))
    print(f"dominated={rep.dominated} growth C={rep.growth_C:.4f} "
          f"D={rep.growth_D:.4f}")
    return "Holds" if rep.dominated else "Fails"


def _run_dyn_traces(cfg):
    p = cfg.params
    phi, e0, f, base, lim, pts = _dyn_setup(p)
    eps = _float(p, "eps", 1.0)
    k_max = _int(p, "k_max", 8)
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, base, f, k_max, eps, pts, limit=lim)
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
    return "Holds" if decay else "Fails"


class _Param(NamedTuple):
    """One param of a kind: its config key, the type its flag is read as,
    its CLI default (config files have none) and whether every command
    and config must give it."""

    key: str
    type: type = str
    default: str = None
    required: bool = False


class _Kind(NamedTuple):
    words: tuple
    handler: Callable
    params: tuple


def _typed(kind, *keys):
    return tuple(_Param(key, kind) for key in keys)


_ODE = (_Param("example", default="paper-ex1"),
        *_typed(float, "alpha", "beta", "gamma", "delta"), _Param("point"))
_PDE = (_Param("example", default="paper-ex2"),
        *_typed(float, "alpha", "beta"))
_DYN = (_Param("example", default="cat-map"), _Param("res", int),
        _Param("tau_amp", float))

_KINDS = {
    "ode-check": _Kind(("ode", "check"), _run_ode_check, _ODE),
    "ode-funnel": _Kind(("ode", "funnel"), _run_ode_funnel, _ODE + (
        _Param("T", float), _Param("deltas"), _Param("ensemble", int),
        _Param("step", float))),
    "pde-check": _Kind(("pde", "check"), _run_pde_check, _PDE + _typed(
        float, "a11", "a12", "a21", "a22", "b1", "b2") + (
        _Param("point"), _Param("columns"))),
    "pde-solve-special": _Kind(("pde", "solve-special"),
                               _run_pde_solve_special, _PDE + (
        _Param("x0"), _Param("y0"), _Param("targets_res", int))),
    "pde-frames": _Kind(("pde", "frames"), _run_pde_frames, _PDE + (
        _Param("eps_list"), _Param("grid", int))),
    "frobenius": _Kind(("frobenius",), _run_frobenius, (
        _Param("form", required=True), _Param("grid", int),
        _Param("extent", float))),
    "moduli-check": _Kind(("moduli", "check"), _run_moduli_check, (
        _Param("criterion", default="osgood"), _Param("w", required=True),
        _Param("w2"), _Param("eps", float), _Param("depth", int))),
    "mollify-verify": _Kind(("mollify", "verify"), _run_mollify_verify, (
        _Param("expr"), _Param("eps_list"), _Param("n", int),
        *_typed(float, "lo", "hi"), _Param("w"), _Param("w_axis"))),
    "surface": _Kind(("surface", "build"), _run_surface, (
        _Param("example", default="contact"), _Param("eps1", float),
        _Param("grid", int), _Param("x0"), _Param("step", float),
        _Param("order"))),
    "dyn-transport": _Kind(("dyn", "transport"), _run_dyn_transport,
                           _DYN + (_Param("k", int),)),
    "dyn-dominate": _Kind(("dyn", "dominate"), _run_dyn_dominate, _DYN + (
        _Param("k_max", int), _Param("eps_sweep"))),
    "dyn-traces": _Kind(("dyn", "traces"), _run_dyn_traces, _DYN + (
        _Param("k_max", int), _Param("eps", float))),
}


def run_experiment(cfg: ExperimentConfig) -> int:
    verdict = _KINDS[cfg.kind].handler(cfg)
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
    for kind, (words, _, params) in _KINDS.items():
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
                            default=prm.default, required=prm.required)
    return parser


def _config(ns):
    """A parsed command's config; flag values are recorded as str() of
    their typed value, so `--T 1` becomes `T=1.0`."""
    given = {k: v for k, v in vars(ns).items() if v is not None}
    params = {prm.key: str(_scalar(prm.type, given, prm.key, None))
              for prm in _KINDS[ns.kind].params if prm.key in given}
    return ExperimentConfig(ns.kind, ns.out, _int(given, "seed", 0),
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
