"""Command-line front end: presets, config files, CSV reports.

Every report starts with a '#'-prefixed header block embedding the fully
resolved configuration (sorted keys, no timestamps), so identical configs
and seeds produce byte-identical files.  Exit codes: 0 on completion, 2
when a verdict came out different from a demanded one (--expect), 1 on
errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .boxes import Box
from .errors import ContfrobError, EscapeError, ParseError
from .fields import coord, expand, parse_field
from .forms import one_form
from .geometry import FrameSection, frobenius_defect
from .moduli import (fit_loglog_slope, limit_condition_check, osgood_check,
                     parse_modulus)
from .mollify import GridFunction, verify_bounds
from .odelab import funnel, funnel_to_csv, theorem1_check
from .pdelab import (hat_matrix, involutive_mollified_frames, special_solve,
                     theorem2_check)
from .surface import (FlowConfig, build_surface, converge_surfaces,
                      patch_to_csv, tangency_defect)
from .dynsys import (Cocycle, PlaneFieldSamples, domination_report,
                     splitting_involutivity_pipeline,
                     splitting_report_to_csv, transport)
from . import presets

__all__ = ["main", "ExperimentConfig", "run_experiment"]


# ---------------------------------------------------------------------------
# config files


_KIND_PARAMS = {
    "moduli-check": {"criterion", "w", "w2", "eps", "depth"},
    "mollify-verify": {"expr", "eps_list", "n", "lo", "hi", "w", "w_axis"},
    "frobenius": {"form", "grid", "extent"},
    "surface": {"example", "eps1", "grid", "x0", "step", "order"},
    "ode-check": {"example", "alpha", "beta", "gamma", "delta", "point"},
    "ode-funnel": {"example", "alpha", "beta", "gamma", "delta", "point",
                   "T", "deltas", "ensemble", "step"},
    "pde-check": {"example", "alpha", "beta", "a11", "a12", "a21", "a22",
                  "b1", "b2", "point", "columns"},
    "pde-solve-special": {"example", "alpha", "beta", "x0", "y0",
                          "targets_res"},
    "pde-frames": {"example", "alpha", "beta", "eps_list", "grid"},
    "dyn-transport": {"example", "k", "res", "tau_amp"},
    "dyn-dominate": {"example", "k_max", "res", "eps_sweep", "tau_amp"},
    "dyn-traces": {"example", "k_max", "eps", "res", "n_dirs", "tau_amp"},
}

_COMMON_KEYS = {"kind", "out", "seed", "expect"}


class ExperimentConfig:
    """Flat key-value config with an [experiment] and a [params] section."""

    def __init__(self, kind, out=".", seed=0, expect=None, params=None):
        if kind not in _KIND_PARAMS:
            raise ParseError(f"unknown experiment kind {kind!r}")
        self.kind = kind
        self.out = out
        self.seed = int(seed)
        self.expect = expect
        self.params = dict(params or {})
        unknown = set(self.params) - _KIND_PARAMS[kind]
        if unknown:
            raise ParseError(
                f"unknown keys for {kind!r}: {sorted(unknown)}")

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


def _write(cfg, name, body):
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    text = "\n".join(cfg.header_lines()) + "\n" + body
    path.write_text(text)
    return path


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
    n = _int(p, "n", 1601)
    f = parse_field(p.get("expr", "(x^2)^0.5"))
    xs = np.linspace(lo, hi, n)
    g = GridFunction((xs,), np.asarray(f.evaluate({"x": xs}), dtype=float))
    w = parse_modulus(p.get("w", "lipschitz(k=1)"))
    w_axis = parse_modulus(p["w_axis"]) if "w_axis" in p else w
    eps_list = _floats(p, "eps_list", "0.1,0.05,0.025")
    reports = verify_bounds(g, w, [w_axis], eps_list)
    lines = ["eps,sup_dist,deriv_sup,bound_dist,bound_deriv,fitted_K"]
    for r in reports:
        lines.append(",".join(repr(float(v)) for v in (
            r.eps, r.sup_dist, r.deriv_sup[0], r.bound_rhs["dist"],
            r.bound_rhs["deriv"][0], r.fitted_K)))
    _write(cfg, "mollify_verify.csv", "\n".join(lines) + "\n")
    ok = all(r.ok() for r in reports)
    print(f"mollify bounds hold={ok} fitted_K={reports[0].fitted_K:.6g}")
    return "Holds" if ok else "Fails"


def _parse_one_form_text(text):
    """Differential tokens d<name> become markers, then linear collection."""
    import re
    diff_names = sorted(set(re.findall(r"\bd([a-zA-Z]\w*)\b", text)))
    if not diff_names:
        raise ParseError("form has no differential terms")
    marked = re.sub(r"\bd([a-zA-Z]\w*)\b", r"_d_\1", text)
    f = expand(parse_field(marked))
    from .fields import Add, Mul, Coord, ZERO, mul
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
    box = Box.from_dict({c: (-extent, extent) for c in coords})
    pts = box.lattice(_int(p, "grid", 7))
    defect = frobenius_defect(frame, pts)
    lines = [",".join(coords) + ",defect"]
    for q, v in zip(pts, defect):
        lines.append(",".join(repr(float(x)) for x in q) + f",{float(v)!r}")
    _write(cfg, "frobenius.csv", "\n".join(lines) + "\n")
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
                 ensemble=_int(p, "ensemble", 8),
                 cfg=FlowConfig(step=_float(p, "step", 1e-3)),
                 seed=cfg.seed)
    _write(cfg, "ode_funnel.csv", funnel_to_csv(rep))
    print(f"funnel verdict={rep.verdict} dispersions={rep.dispersions}")
    return rep.verdict


def _pde_spec(p):
    name = p.get("example", "paper-ex2")
    if name == "paper-ex2":
        sf, spec = presets.pde_example_2(_float(p, "alpha", 0.8),
                                         _float(p, "beta", 0.4))
        return sf, spec
    if name == "paper-ex3":
        kw = {k: _float(p, k)
              for k in ("a11", "a12", "a21", "a22", "b1", "b2") if k in p}
        return None, presets.pde_example_3(**kw)
    raise ParseError(f"unknown PDE example {name!r}")


def _run_pde_check(cfg):
    p = cfg.params
    _, spec = _pde_spec(p)
    if "point" in p:
        point = _floats(p, "point")
    elif p.get("example", "paper-ex2") == "paper-ex2":
        point = [0.25, 0.25, 0.5, 0.5]
    else:
        point = [0.0] * (spec.m + spec.n)
    default_cols = ",".join(str(i) for i in range(1, spec.n + 1)) \
        if p.get("example", "paper-ex2") == "paper-ex2" else "2,3"
    columns = tuple(_ints(p, "columns", default_cols))
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
    res_grid = _int(p, "targets_res", 3)
    xb = Box(sf.x_names, spec.domain.lows[:sf.m], spec.domain.highs[:sf.m])
    targets = xb.shrink(0.05).lattice(res_grid)
    result = special_solve(sf, x0, y0, targets)
    lines = [",".join(sf.x_names + sf.y_names) + ",max_residual"]
    for t in range(len(targets)):
        row = [repr(float(v)) for v in targets[t]]
        row += [repr(float(v)) for v in result.values[t]]
        row.append(repr(float(np.max(np.abs(result.residuals[t])))))
        lines.append(",".join(row))
    _write(cfg, "pde_solve.csv", "\n".join(lines) + "\n")
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
                                       check_res=_int(p, "grid", 4))
    lines = ["eps,wedge_sup"]
    for fam in fams:
        lines.append(f"{float(fam.eps)!r},{float(fam.wedge_sup)!r}")
    _write(cfg, "pde_frames.csv", "\n".join(lines) + "\n")
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
    rep = tangency_defect(patch, dist, sup_res=5, n_dirs=64, seed=cfg.seed)
    _write(cfg, "surface.csv", patch_to_csv(patch, rep))
    print(f"surface nodes={patch.points.size // len(dist.coords)} "
          f"max_defect={rep.max_defect:.6g} rhs={rep.rhs:.6g} ok={rep.ok()}")
    return "Holds" if rep.ok() else "Fails"


def _dyn_setup(p, seed):
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
    res = _int(p, "res", 5 if d == 2 else 4)
    axes = [np.linspace(0.0, 1.0, res, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    if name == "skew-product":
        eu = np.concatenate([presets.cat_expanding_direction(), [0.0]])[:, None]
        f = transport(phi.inverted(), eu, 8, pts).bases
        f = PlaneFieldSamples(pts, f)
    return phi, e0, f, base, lim, pts


def _run_dyn_transport(cfg):
    p = cfg.params
    phi, e0, _, _, lim, pts = _dyn_setup(p, cfg.seed)
    from .geometry import max_principal_angle
    k = _int(p, "k", 10)
    lines = ["k,max_angle_to_next,max_angle_to_limit"]
    prev = None
    lim_b = np.broadcast_to(lim, (len(pts),) + np.shape(lim)) \
        if np.ndim(lim) == 2 else lim
    cocycle = Cocycle(phi, pts, k)
    for j in range(k + 1):
        ek = cocycle.transport(e0, j)
        to_prev = float(np.max(max_principal_angle(prev, ek.bases))) \
            if prev is not None else float("nan")
        to_lim = float(np.max(max_principal_angle(ek.bases, lim_b)))
        lines.append(f"{j},{to_prev!r},{to_lim!r}")
        prev = ek.bases
    _write(cfg, "dyn_transport.csv", "\n".join(lines) + "\n")
    print(f"transported {k} steps over {len(pts)} points")
    return None


def _run_dyn_dominate(cfg):
    p = cfg.params
    phi, e0, f, _, _, pts = _dyn_setup(p, cfg.seed)
    eps_sweep = tuple(_floats(p, "eps_sweep", "0.1,0.5,1.0"))
    rep = domination_report(phi, e0, f, _int(p, "k_max", 12), pts,
                            eps_list=eps_sweep)
    _write(cfg, "dyn_dominate.csv", splitting_report_to_csv(rep))
    print(f"dominated={rep.dominated} growth C={rep.growth_C:.4f} "
          f"D={rep.growth_D:.4f}")
    return "Holds" if rep.dominated else "Fails"


def _run_dyn_traces(cfg):
    p = cfg.params
    phi, e0, f, base, lim, pts = _dyn_setup(p, cfg.seed)
    eps = _float(p, "eps", 1.0)
    k_max = _int(p, "k_max", 8)
    lim_b = np.broadcast_to(lim, (len(pts),) + np.shape(lim)).copy() \
        if np.ndim(lim) == 2 else lim
    rep, asym, ext = splitting_involutivity_pipeline(
        phi, e0, base, f, k_max, eps, pts, limit=lim_b,
        n_dirs=_int(p, "n_dirs", 64), seed=cfg.seed)
    if asym is None:
        _write(cfg, "dyn_traces.csv", "# verdict=NotApplicable\n")
        print("domination fails: traces not applicable")
        return "NotApplicable"
    lines = ["k,q_asym,strong_asym,q_ext"]
    for a, e in zip(asym, ext):
        lines.append(f"{a.k + 1},{float(a.q)!r},{float(a.strong)!r},"
                     f"{float(e.q)!r}")
    _write(cfg, "dyn_traces.csv", "\n".join(lines) + "\n")
    decay = ext[-1].q <= ext[0].q / 10.0 and asym[-1].q <= asym[0].q / 10.0
    print(f"traces decay={decay} q_ext: {ext[0].q:.3g} -> {ext[-1].q:.3g}")
    return "Holds" if decay else "Fails"


_HANDLERS = {
    "moduli-check": _run_moduli_check,
    "mollify-verify": _run_mollify_verify,
    "frobenius": _run_frobenius,
    "surface": _run_surface,
    "ode-check": _run_ode_check,
    "ode-funnel": _run_ode_funnel,
    "pde-check": _run_pde_check,
    "pde-solve-special": _run_pde_solve_special,
    "pde-frames": _run_pde_frames,
    "dyn-transport": _run_dyn_transport,
    "dyn-dominate": _run_dyn_dominate,
    "dyn-traces": _run_dyn_traces,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    verdict = _HANDLERS[cfg.kind](cfg)
    if cfg.expect is not None and verdict is not None:
        if verdict.lower() != cfg.expect.lower():
            print(f"expected verdict {cfg.expect!r}, got {verdict!r}")
            return 2
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp):
    sp.add_argument("--out", default=".")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--expect", default=None)


def _collect(ns, kind, keys):
    params = {}
    for key in keys:
        val = getattr(ns, key.replace("-", "_"), None)
        if val is not None:
            params[key] = str(val)
    return ExperimentConfig(kind, ns.out, ns.seed, ns.expect, params)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="contfrob",
        description="integrability diagnostics for continuous distributions")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a config file")
    run_p.add_argument("--config", required=True)

    ode_p = sub.add_parser("ode")
    ode_sub = ode_p.add_subparsers(dest="action", required=True)
    for action in ("check", "funnel"):
        sp = ode_sub.add_parser(action)
        _add_common(sp)
        sp.add_argument("--example", default="paper-ex1")
        for flag in ("alpha", "beta", "gamma", "delta", "T", "step"):
            sp.add_argument(f"--{flag}", type=float, default=None)
        sp.add_argument("--point", default=None)
        sp.add_argument("--deltas", default=None)
        sp.add_argument("--ensemble", type=int, default=None)

    pde_p = sub.add_parser("pde")
    pde_sub = pde_p.add_subparsers(dest="action", required=True)
    for action in ("check", "solve-special", "frames"):
        sp = pde_sub.add_parser(action)
        _add_common(sp)
        sp.add_argument("--example", default="paper-ex2")
        for flag in ("alpha", "beta", "a11", "a12", "a21", "a22", "b1", "b2"):
            sp.add_argument(f"--{flag}", type=float, default=None)
        sp.add_argument("--point", default=None)
        sp.add_argument("--columns", default=None)
        sp.add_argument("--x0", default=None)
        sp.add_argument("--y0", default=None)
        sp.add_argument("--targets-res", type=int, default=None)
        sp.add_argument("--eps-list", default=None)
        sp.add_argument("--grid", type=int, default=None)

    frob_p = sub.add_parser("frobenius")
    _add_common(frob_p)
    frob_p.add_argument("--form", required=True)
    frob_p.add_argument("--grid", type=int, default=None)
    frob_p.add_argument("--extent", type=float, default=None)

    mod_p = sub.add_parser("moduli")
    mod_sub = mod_p.add_subparsers(dest="action", required=True)
    sp = mod_sub.add_parser("check")
    _add_common(sp)
    sp.add_argument("--criterion", default="osgood")
    sp.add_argument("--w", required=True)
    sp.add_argument("--w2", default=None)
    sp.add_argument("--eps", type=float, default=None)
    sp.add_argument("--depth", type=int, default=None)

    mol_p = sub.add_parser("mollify")
    mol_sub = mol_p.add_subparsers(dest="action", required=True)
    sp = mol_sub.add_parser("verify")
    _add_common(sp)
    sp.add_argument("--expr", default=None)
    sp.add_argument("--eps-list", default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--lo", type=float, default=None)
    sp.add_argument("--hi", type=float, default=None)
    sp.add_argument("--w", default=None)
    sp.add_argument("--w-axis", default=None)

    surf_p = sub.add_parser("surface")
    surf_sub = surf_p.add_subparsers(dest="action", required=True)
    sp = surf_sub.add_parser("build")
    _add_common(sp)
    sp.add_argument("--example", default="contact")
    sp.add_argument("--eps1", type=float, default=None)
    sp.add_argument("--grid", type=int, default=None)
    sp.add_argument("--x0", default=None)
    sp.add_argument("--step", type=float, default=None)
    sp.add_argument("--order", default=None)

    dyn_p = sub.add_parser("dyn")
    dyn_sub = dyn_p.add_subparsers(dest="action", required=True)
    for action in ("transport", "dominate", "traces"):
        sp = dyn_sub.add_parser(action)
        _add_common(sp)
        sp.add_argument("--example", default="cat-map")
        sp.add_argument("--k", type=int, default=None)
        sp.add_argument("--k-max", type=int, default=None)
        sp.add_argument("--res", type=int, default=None)
        sp.add_argument("--eps", type=float, default=None)
        sp.add_argument("--eps-sweep", default=None)
        sp.add_argument("--n-dirs", type=int, default=None)
        sp.add_argument("--tau-amp", type=float, default=None)

    ns = parser.parse_args(argv)
    try:
        if ns.command == "run":
            path = Path(ns.config)
            if not path.exists():
                print(f"config file not found: {path}", file=sys.stderr)
                return 1
            cfg = ExperimentConfig.from_text(path.read_text())
            return run_experiment(cfg)
        kind_map = {
            ("ode", "check"): ("ode-check",
                               ["example", "alpha", "beta", "gamma", "delta",
                                "point"]),
            ("ode", "funnel"): ("ode-funnel",
                                ["example", "alpha", "beta", "gamma",
                                 "delta", "point", "T", "deltas", "ensemble",
                                 "step"]),
            ("pde", "check"): ("pde-check",
                               ["example", "alpha", "beta", "a11", "a12",
                                "a21", "a22", "b1", "b2", "point",
                                "columns"]),
            ("pde", "solve-special"): ("pde-solve-special",
                                       ["example", "alpha", "beta", "x0",
                                        "y0", "targets_res"]),
            ("pde", "frames"): ("pde-frames",
                                ["example", "alpha", "beta", "eps_list",
                                 "grid"]),
            ("frobenius", None): ("frobenius", ["form", "grid", "extent"]),
            ("moduli", "check"): ("moduli-check",
                                  ["criterion", "w", "w2", "eps", "depth"]),
            ("mollify", "verify"): ("mollify-verify",
                                    ["expr", "eps_list", "n", "lo", "hi",
                                     "w", "w_axis"]),
            ("surface", "build"): ("surface",
                                   ["example", "eps1", "grid", "x0", "step",
                                    "order"]),
            ("dyn", "transport"): ("dyn-transport",
                                   ["example", "k", "res", "tau_amp"]),
            ("dyn", "dominate"): ("dyn-dominate",
                                  ["example", "k_max", "res", "eps_sweep",
                                   "tau_amp"]),
            ("dyn", "traces"): ("dyn-traces",
                                ["example", "k_max", "eps", "res", "n_dirs",
                                 "tau_amp"]),
        }
        key = (ns.command, getattr(ns, "action", None))
        kind, keys = kind_map[key]
        cfg = _collect(ns, kind, keys)
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
