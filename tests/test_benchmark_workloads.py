"""The benchmark's workloads run on the library as it stands.

cfbench/workloads.py calls the library with fixed signatures; a task
that raises there is only a failed task in a benchmark run.  This builds
each workload and runs one task of it with tracing off, so a broken call
fails here instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

CFBENCH = Path(__file__).resolve().parent.parent / "cfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"cfbench_{name}",
                                                  CFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_task_runs_clean(name):
    wl = workloads.WORKLOADS[name]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    res = wl.run(ctx, inp, spans.NULL)
    assert res.problems == []
    assert res.text


def test_torus_splitting_task_linalg_calls(linalg_calls):
    # the splitting pipeline's per-k work runs as stacked sweeps: one
    # solve and one QR per transport step, every other call once per task
    wl = workloads.WORKLOADS["torus-splitting"]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    linalg_calls.clear()
    assert wl.run(ctx, inp, spans.NULL).problems == []
    assert linalg_calls["solve"] == wl.F_STEPS + wl.K_MAX
    assert linalg_calls["qr"] == wl.F_STEPS + wl.K_MAX + 2
    assert sum(linalg_calls.values()) <= 60


def test_surface_frames_task_work_counts(monkeypatch):
    # one mollify for the two equal H_i and one per G_i; of the 625 rows
    # of the regularity trace's n = r = 2 M_A, only those whose upper
    # bound reaches the lattice's largest lower bound are root-found
    import contfrob.pdelab as pdelab
    wl = workloads.WORKLOADS["surface-frames"]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    mollified, root_rows = [], []
    mollify, eigvals = pdelab.mollify, np.linalg.eigvals

    def counted_mollify(*args, **kwargs):
        mollified.append(args)
        return mollify(*args, **kwargs)

    def counted_eigvals(a):
        root_rows.append(1 if np.ndim(a) == 2 else len(a))
        return eigvals(a)

    monkeypatch.setattr(pdelab, "mollify", counted_mollify)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    assert wl.run(ctx, inp, spans.NULL).problems == []
    assert len(ctx["lattice"]) == 625
    assert len(mollified) == 3
    assert sum(root_rows) < 32


def test_ode_flows_task_work_counts(monkeypatch):
    # the steps the generated RK4 runs report: 4 checks x 2 flows x 40
    # steps of the pushforward, one run each, and 32 of the funnel's one
    # batch in one run; the compiled field functions stay out of the
    # step loop, and a second task compiles nothing
    import contfrob.fields as fl
    import contfrob.odelab as odelab
    import contfrob.surface as surface
    steps = {"odelab.funnel": 0, "surface.pushforward": 0}
    runs = dict.fromkeys(steps, 0)
    compiled, in_loop, span = [], [], [None]

    def counted_run(fields, coords, variational=False,
                    _orig=surface.compile_rk4_run):
        run = _orig(fields, coords, variational)

        def counted(*args):
            done, err, out = run(*args)
            steps[span[0]] += done
            runs[span[0]] += 1
            return done, err, out
        return counted

    def counted_define(self, lines, *names, _orig=fl._Source.define):
        compiled.append(names)
        fn = _orig(self, lines, *names)
        if names != ("compiled",):  # an RK4 run, counted above
            return fn

        def counted(*args):
            if looping:
                in_loop.append(args)
            return fn(*args)
        return counted

    def looped(engine):
        def run(*args, **kwargs):
            nonlocal looping
            looping = True
            try:
                return engine(*args, **kwargs)
            finally:
                looping = False
        return run

    class Spans:
        def span(self, name):
            span[0] = name
            return spans.NULL.span(name)

    looping = False
    monkeypatch.setattr(fl._Source, "define", counted_define)
    monkeypatch.setattr(surface, "compile_rk4_run", counted_run)
    monkeypatch.setattr(surface, "_integrate", looped(surface._integrate))
    monkeypatch.setattr(odelab, "_integrate", looped(odelab._integrate))
    wl = workloads.WORKLOADS["ode-flows"]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    assert wl.run(ctx, inp, Spans()).problems == []
    assert steps == {"odelab.funnel": 32, "surface.pushforward": 320}
    assert runs == {"odelab.funnel": 1, "surface.pushforward": 8}
    assert compiled and in_loop == []
    compiled.clear()
    assert wl.run(ctx, inp, Spans()).problems == []
    assert compiled == []
