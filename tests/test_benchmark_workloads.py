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
