"""The benchmark's three workloads: fixed task compositions over contfrob.

Every task of a workload does the same calls with the same work counts;
only seeded points, signs and lattice offsets vary, so task times are
unimodal and a change in one layer shows as a shift, not as a new mode.

* ode-flows: a Peano funnel probe plus contact pushforward checks.  Long
  trajectories one point at a time (field evaluation and RK4 dominate);
  no lattice sup, no mollification, no dynsys, no SciPy after import.
* surface-frames: a 17x17 contact build with its tangency bound, one
  mollified special-form frame and an exterior-regularity trace on a
  shifted 5^4 lattice.  Lattice SVDs, mollification and spline leaves
  dominate; RK4 runs as many 2-step flows from many start points.
* torus-splitting: the skew-product splitting pipeline at k_max 12 on a
  shifted 4^3 torus lattice.  Jacobian products grow quadratically in
  k_max; no RK4 and no SciPy, so it bypasses the trajectory engine.

Each `run` returns the report text hashed into the correctness digest,
the verdict problems (empty when every check holds), counts known at the
call boundary, and the inputs of the per-layer microbenchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from contfrob import presets
from contfrob.dynsys import (PlaneFieldSamples, splitting_involutivity_pipeline,
                             splitting_report_to_csv, transport)
from contfrob.geometry import (annihilator_frame, exterior_regularity_trace,
                               involutivity_constant)
from contfrob.odelab import extend, funnel, funnel_to_csv
from contfrob.pdelab import involutive_mollified_frames
from contfrob.surface import (FlowConfig, build_surface, patch_to_csv,
                              pushforward_bound_check, tangency_defect)


@dataclass
class LayerInputs:
    """What the traced run times directly, on the task's own inputs: one
    RK4 step of a vector field, and one scalar field evaluated at the first
    lattice point and on the whole lattice."""

    fields: list
    coords: tuple
    point: np.ndarray
    step: float
    field: object
    field_coords: tuple
    lattice: np.ndarray


@dataclass
class TaskResult:
    text: str
    problems: list
    counts: dict
    layer: LayerInputs


def _trace_text(entries):
    return "".join(f"{e.k},{e.q!r},{e.strong!r}\n" for e in entries)


class OdeFlows:
    name = "ode-flows"
    T = 1.0
    DELTAS = (1.0e-3, 1.0e-5)
    ENSEMBLE = 1
    STEP = 1.0 / 32.0
    PUSH_CHECKS = 4
    PUSH_T = 0.1
    PUSH_STEP = 2.5e-3

    def build(self):
        contact = presets.contact_distribution()
        frame = annihilator_frame(contact)
        pts = contact.domain.lattice(5)
        m_const = involutivity_constant(frame,
                                        contact.orthonormal_bases_at(pts),
                                        pts, n_dirs=256, seed=0).value
        return {"spec": presets.ode_peano(), "contact": contact,
                "frame": frame, "m_const": m_const,
                "inner": contact.domain.shrink(0.15)}

    def inputs(self, ctx, rng):
        n = self.PUSH_CHECKS
        return {"t0": float(rng.uniform(0.0, 0.08)),
                "funnel_seed": int(rng.integers(2 ** 31)),
                "x0": ctx["inner"].sample(rng, n),
                "signs": rng.choice((-1.0, 1.0), size=(n, 3))}

    def run(self, ctx, inp, tr):
        spec, dist = ctx["spec"], ctx["contact"]
        xi0 = np.array([inp["t0"], 0.0])
        with tr.span("odelab.funnel"):
            rep = funnel(spec, xi0, self.T, self.DELTAS,
                         ensemble=self.ENSEMBLE,
                         cfg=FlowConfig(step=self.STEP),
                         seed=inp["funnel_seed"])
        # per delta: the base point, the ensemble, and the +-delta offsets
        launched = len(self.DELTAS) * (1 + self.ENSEMBLE + 2)
        escaped = sum(rep.escapes.values())
        problems = []
        if rep.verdict != "FunnelDetected":
            problems.append(f"funnel verdict {rep.verdict}")

        cfg = FlowConfig(step=self.PUSH_STEP)
        checks = []
        with tr.span("surface.pushforward"):
            for x0, s in zip(inp["x0"], inp["signs"]):
                Y0 = np.array([0.0, 0.0, s[2]])
                checks.append(pushforward_bound_check(
                    dist, ctx["frame"], x0, self.PUSH_T * s[:2], Y0, cfg,
                    m_const=ctx["m_const"]))
        passed = sum(c.passed for c in checks)
        if passed != len(checks):
            problems.append(f"pushforward {passed}/{len(checks)} passed")

        with tr.span("report.csv"):
            text = funnel_to_csv(rep) + "".join(
                f"{c.lhs!r},{c.rhs!r},{c.passed}\n" for c in checks)
        n_steps = math.ceil(self.T / self.STEP - 1e-12)
        counts = {"odelab.funnel.rk4_steps": (launched - escaped) * n_steps,
                  "odelab.funnel.escaped_frac": escaped / launched,
                  "surface.pushforward.pass_frac": passed / len(checks)}
        layer = LayerInputs(extend(spec), spec.coords, xi0, self.STEP,
                            spec.F[0], spec.coords, spec.domain.lattice(17))
        return TaskResult(text, problems, counts, layer)


class SurfaceFrames:
    name = "surface-frames"
    EPS1 = 0.1
    GRID_RES = 17
    SUP_RES = 7
    N_DIRS = 256
    MOLL_EPS = 2.0 ** -4
    MOLL_PAD = 1.05 * MOLL_EPS
    CELLS_PER_RADIUS = 10
    TRACE_EPS = 0.5
    TRACE_DIRS = 64
    LATTICE_RES = 5
    LATTICE_SHIFT = 0.02

    def build(self):
        sf, pde = presets.pde_example_2()
        box = sf.domain.shrink(self.LATTICE_SHIFT)
        return {"contact": presets.contact_distribution(), "sf": sf,
                "limit": pde.distribution(),
                "lattice": box.lattice(self.LATTICE_RES)}

    def inputs(self, ctx, rng):
        s = self.LATTICE_SHIFT
        return {"x0": rng.uniform(-0.2, 0.2, size=3),
                "offset": rng.uniform(-s, s, size=ctx["lattice"].shape[1])}

    def mollify_cells(self, sf):
        """Grid samples mollified per frame, from the call's arguments:
        spacing eps / cells_per_radius over the box padded by pad."""
        h = self.MOLL_EPS / self.CELLS_PER_RADIUS
        pad = self.MOLL_PAD
        sizes = [math.ceil(((hi + pad) - (lo - pad)) / h) + 1
                 for lo, hi in zip(sf.domain.lows, sf.domain.highs)]
        x_cells = math.prod(sizes[:sf.m])
        return sf.n * x_cells + sum(sizes[sf.m:])

    def run(self, ctx, inp, tr):
        dist, sf = ctx["contact"], ctx["sf"]
        cfg = FlowConfig(step=self.EPS1 / 16.0)
        problems = []
        with tr.span("surface.build"):
            patch = build_surface(dist, inp["x0"], self.EPS1, self.GRID_RES,
                                  cfg)
        with tr.span("surface.tangency"):
            tan = tangency_defect(patch, dist, sup_res=self.SUP_RES,
                                  n_dirs=self.N_DIRS, seed=0)
        if not tan.ok():
            problems.append(f"tangency bound violated by "
                            f"{-tan.margin:.3g}")
        with tr.span("pdelab.mollified_frames"):
            fam = involutive_mollified_frames(
                sf, [self.MOLL_EPS], pad=self.MOLL_PAD,
                cells_per_radius=self.CELLS_PER_RADIUS)[0]
        if not fam.wedge_sup <= 1.0e-10:
            problems.append(f"mollified wedge {fam.wedge_sup:.3g}")
        pts = ctx["lattice"] + inp["offset"]
        with tr.span("geometry.regularity_trace"):
            trace = exterior_regularity_trace([fam.frame], ctx["limit"],
                                              self.TRACE_EPS, pts,
                                              n_dirs=self.TRACE_DIRS, seed=0)
        if not all(math.isfinite(e.q) and e.q > 0.0 for e in trace):
            problems.append("regularity trace not finite and positive")
        with tr.span("report.csv"):
            text = (patch_to_csv(patch, tan) + f"{fam.wedge_sup!r}\n"
                    + _trace_text(trace))
        counts = {"surface.build.flows":
                  (self.GRID_RES - 1) * (1 + self.GRID_RES),
                  "geometry.lattice_points": len(pts),
                  "mollify.cells": self.mollify_cells(sf)}
        layer = LayerInputs(dist.spanning_fields()[0], dist.coords,
                            inp["x0"], cfg.step,
                            fam.distribution.coeffs[0][0], sf.coords, pts)
        return TaskResult(text, problems, counts, layer)


def torus_lattice(d, res):
    axes = [np.linspace(0.0, 1.0, res, endpoint=False)] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


class TorusSplitting:
    name = "torus-splitting"
    K_MAX = 12
    F_STEPS = 8
    EPS = 0.5
    N_DIRS = 64
    RES = 4
    DECAY = 10.0

    def build(self):
        phi = presets.skew_product()
        lattice = torus_lattice(3, self.RES)
        eu = np.concatenate([presets.cat_expanding_direction(), [0.0]])
        return {"phi": phi, "phi_inv": phi.inverted(), "lattice": lattice,
                "eu": eu[:, None], "seed_bases": presets.skew_seed_bases(),
                "base": presets.constant_annihilator_frame(
                    np.array([[0.0, 1.0, 0.0]]), phi.coords, ("x2",)),
                "limit": np.broadcast_to(presets.skew_center_stable_bases(),
                                         (len(lattice), 3, 2)).copy()}

    def inputs(self, ctx, rng):
        return {"offset": rng.uniform(0.0, 1.0 / self.RES, size=3)}

    def run(self, ctx, inp, tr):
        phi = ctx["phi"]
        pts = np.mod(ctx["lattice"] + inp["offset"], 1.0)
        with tr.span("dynsys.transport"):
            f_bases = transport(ctx["phi_inv"], ctx["eu"], self.F_STEPS,
                                pts).bases
        with tr.span("dynsys.pipeline"):
            rep, asym, ext = splitting_involutivity_pipeline(
                phi, ctx["seed_bases"], ctx["base"],
                PlaneFieldSamples(pts, f_bases), self.K_MAX, self.EPS, pts,
                limit=ctx["limit"], n_dirs=self.N_DIRS, seed=0)
        problems = []
        if not rep.dominated or asym is None or ext is None:
            problems.append("splitting not dominated")
        else:
            for label, tr_ in (("asymptotic", asym), ("exterior", ext)):
                if not tr_[-1].q <= tr_[0].q / self.DECAY:
                    problems.append(f"{label} trace decays only "
                                    f"{tr_[0].q:.3g} -> {tr_[-1].q:.3g}")
        with tr.span("report.csv"):
            text = splitting_report_to_csv(rep)
            if not problems:
                text += _trace_text(asym) + _trace_text(ext)
        counts = {"dynsys.k_max": self.K_MAX}
        layer = LayerInputs(phi.forward, phi.coords, pts[0], 1.0 / 64.0,
                            phi.forward[2], phi.coords, pts)
        return TaskResult(text, problems, counts, layer)


WORKLOADS = {w.name: w for w in (OdeFlows, SurfaceFrames, TorusSplitting)}
