"""The benchmark's workloads run on the library as it stands.

cfbench/workloads.py calls the library with fixed signatures; a task
that raises there is only a failed task in a benchmark run.  This builds
each workload and runs one task of it with tracing off, so a broken call
fails here instead.
"""

import contextlib
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


class _Spans:
    """A tracer that only keeps the name of the span it is in."""

    current = None

    @contextlib.contextmanager
    def span(self, name):
        self.current = name
        try:
            yield
        finally:
            self.current = None


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_task_runs_clean(name):
    wl = workloads.WORKLOADS[name]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    res = wl.run(ctx, inp, spans.NULL)
    assert res.problems == []
    assert res.text


def test_torus_splitting_task_linalg_calls(linalg_calls):
    # the splitting pipeline's per-k work runs as stacked sweeps, and
    # every LAPACK call is made once per task.  Every QR, SVD and inverse
    # is one of stacked.py's kernels; none falls back to LAPACK, and the
    # transport sweeps make no solve
    wl = workloads.WORKLOADS["torus-splitting"]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    linalg_calls.clear()
    assert wl.run(ctx, inp, spans.NULL).problems == []
    assert linalg_calls["qr"] == linalg_calls["svd"] == 0
    assert linalg_calls["solve"] == linalg_calls["inv"] == 0
    # the growth fit and the norms of the traces; the wedges' 1 x 1
    # minors are their entries, with no determinant call
    assert dict(linalg_calls) == {"lstsq": 1, "norm": 3}
    assert sum(linalg_calls.values()) == 4


def test_surface_frames_task_work_counts(monkeypatch, loop_calls):
    # one mollify for the two equal H_i and one per G_i; of the 625 rows
    # of the regularity trace's n = r = 2 M_A, only those whose upper
    # bound reaches the lattice's largest lower bound are root-found.
    # The build's 16 layer flows are the task's RK4 runs, each a batch
    # on the array loop: none takes the float loop, so none hands a row
    # off or replays a step.  The regularity trace evaluates its frame in
    # one compiled function: one cell search per spline (G_1, G_2 and
    # the one H shared by the equal H_1 and H_2) and one poly per
    # partial it reads (G_i, G_i' and the two first partials of H)
    import contfrob.pdelab as pdelab
    spline = importlib.import_module("contfrob.mollify")._SplineEvaluator
    wl = workloads.WORKLOADS["surface-frames"]()
    ctx = wl.build()
    inp = wl.inputs(ctx, np.random.default_rng([1, 2, 0]))
    mollified, root_rows = [], []
    mollify, eigvals = pdelab.mollify, np.linalg.eigvals
    tr = _Spans()
    spline_calls = {}
    for name in ("locate", "poly"):
        def counted(self, *args, _inner=getattr(spline, name), _name=name):
            key = (tr.current, _name)
            spline_calls[key] = spline_calls.get(key, 0) + 1
            return _inner(self, *args)
        monkeypatch.setattr(spline, name, counted)

    def counted_mollify(*args, **kwargs):
        mollified.append(args)
        return mollify(*args, **kwargs)

    def counted_eigvals(a):
        root_rows.append(1 if np.ndim(a) == 2 else len(a))
        return eigvals(a)

    monkeypatch.setattr(pdelab, "mollify", counted_mollify)
    monkeypatch.setattr(np.linalg, "eigvals", counted_eigvals)
    assert wl.run(ctx, inp, tr).problems == []
    assert len(ctx["lattice"]) == 625
    assert len(mollified) == 3
    assert sum(root_rows) < 32
    assert loop_calls == {"rows": 16}
    trace = "geometry.regularity_trace"
    assert {k: n for k, n in spline_calls.items() if k[0] == trace} == {
        (trace, "locate"): 3, (trace, "poly"): 6}


def test_second_surface_frames_task_compiles_nothing(code_compiles):
    # each task fits new spline leaves, whose generated sources are the
    # first task's: their code comes from the cache
    wl = workloads.WORKLOADS["surface-frames"]()
    ctx = wl.build()
    rng = np.random.default_rng([1, 2, 0])
    assert wl.run(ctx, wl.inputs(ctx, rng), spans.NULL).problems == []
    assert code_compiles
    code_compiles.clear()
    assert wl.run(ctx, wl.inputs(ctx, rng), spans.NULL).problems == []
    assert code_compiles == []


def test_ode_flows_task_work_counts(monkeypatch, loop_calls):
    # the steps the generated RK4 runs report: 4 checks x 2 flows x 40
    # steps of the pushforward, one run each, and 32 of the funnel's one
    # batch in one run; the compiled field functions stay out of the
    # step loop, and a second task compiles nothing.  Only a lone row
    # takes the float loop, so the funnel's batch is the one call of the
    # array loop and each pushforward run one call of the float loop,
    # which hands no row off
    import contfrob.fields as fl
    import contfrob.odelab as odelab
    import contfrob.surface as surface
    steps = {"odelab.funnel": 0, "surface.pushforward": 0}
    runs = dict.fromkeys(steps, 0)
    loops = {name: {"one": 0, "rows": 0} for name in steps}
    compiled, in_loop, span = [], [], [None]

    def counted_run(fields, coords, variational=False,
                    _orig=surface.compile_rk4_run):
        run = _orig(fields, coords, variational)

        def counted(*args):
            before = loop_calls.copy()
            done, err, out = run(*args)
            steps[span[0]] += done
            runs[span[0]] += 1
            for name in loops[span[0]]:
                loops[span[0]][name] += loop_calls[name] - before[name]
            return done, err, out
        return counted

    def counted_define(self, lines, *names, _orig=fl._Source.define):
        compiled.append(names)
        fn = _orig(self, lines, *names)
        if names != ("compiled",):  # an RK4 run's loops, in loop_calls
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
    assert loops == {"odelab.funnel": {"one": 0, "rows": 1},
                     "surface.pushforward": {"one": 8, "rows": 0}}
    assert compiled and in_loop == []
    compiled.clear()
    assert wl.run(ctx, inp, Spans()).problems == []
    assert compiled == []
