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
