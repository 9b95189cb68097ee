"""contfrob pipeline benchmark.

    python3 cfbench/run.py --workload ode-flows --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the task compositions and why each was
chosen): ode-flows, surface-frames, torus-splitting.  Each run is a
closed loop with one client: tasks run back to back in one fresh
interpreter, inputs drawn from --seed.

Task times are reported in `ref`, the mean of a fixed reference probe
timed right before and right after the task (probe.py), which cancels
the host's speed drift.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run.  The line before it is a detail record: raw seconds,
the probe's drift, the correctness digest and the environment.

This parent process uses the standard library only.  It starts SETUP_RUNS
set-up-only interpreters (plus, with --trace 1, one more under
`-X importtime` for the SciPy import time) and then the measuring
interpreter, with BLAS/OpenMP threads pinned to 1 and a fixed hash seed,
and waits for each.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("ode-flows", "surface-frames", "torus-splitting")
SETUP_RUNS = 6
SETUP_TIMEOUT_S = 120
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
SPAN_METRICS = ("odelab.funnel", "surface.pushforward", "surface.build",
                "surface.tangency", "geometry.regularity_trace",
                "pdelab.mollified_frames", "dynsys.transport",
                "dynsys.pipeline", "report.csv")
COUNT_METRICS = ("odelab.funnel.rk4_steps", "odelab.funnel.escaped_frac",
                 "surface.pushforward.pass_frac", "surface.build.flows",
                 "geometry.lattice_points", "mollify.cells", "dynsys.k_max")
COUNT_UNITS = {"odelab.funnel.escaped_frac": "ratio",
               "surface.pushforward.pass_frac": "ratio"}
LAYER_US_METRICS = ("surface.rk4_step_us.n1", "fields.evaluate_us.n1",
                    "fields.evaluate_us.lattice")


DIGEST_TASKS = 8


class BenchError(Exception):
    pass


def run_digest(task_digests):
    """Hash of the first DIGEST_TASKS tasks' report digests.  Task inputs
    depend only on the seed and the task index, so runs of one seed agree
    whatever their length and whether they were traced."""
    head = [d or "failed" for d in task_digests[:DIGEST_TASKS]]
    return hashlib.sha256("\n".join(head).encode()).hexdigest()


def child(args, mode, importtime=False, timeout=SETUP_TIMEOUT_S):
    """Run worker.py in a fresh interpreter; returns (result, stderr)."""
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--mode", mode,
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **PINNED_ENV)
    try:
        proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} interpreter timed out after {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{mode} interpreter exited {proc.returncode}: "
                         f"{tail}")
    return json.loads(lines[-1]), proc.stderr


def scipy_import_s(importtime_log):
    """Seconds spent in scipy modules' own import code (-X importtime)."""
    total_us = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) == 3 and parts[2].strip().startswith("scipy") \
                and parts[0].strip().isdigit():
            total_us += int(parts[0])
    return total_us / 1e6


def environment():
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "pinned": PINNED_ENV}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(task_ref, setups, peak_rss_mb):
    return {
        "task_ref.p50": metric(statistics.median(task_ref), "ref"),
        "task_ref.p90": metric(stats.percentile(task_ref, 90.0), "ref"),
        "tasks_per_kref": metric(stats.tasks_per_kref(task_ref), "1/kref"),
        "setup_s": metric(statistics.median(
            s["setup_nominal_s"] for s in setups), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tasks, task_ref, setups, scipy_s):
    traced = [(t, r) for t, r in zip(tasks, task_ref) if t["traced"]]
    untraced = [r for t, r in zip(tasks, task_ref) if not t["traced"]]
    if not traced:
        raise BenchError("the traced run finished no traced task")
    out = {
        "setup.import_s": metric(
            statistics.median(s["import_nominal_s"] for s in setups), "s"),
        "setup.scipy_import_s": metric(scipy_s, "s"),
    }
    for name in SPAN_METRICS:
        # self time per task in ref; 0 when the workload makes no such call
        out[f"{name}.ref"] = metric(statistics.median(
            t["span_s"].get(name, 0.0)
            / (0.5 * (t["probe_before_s"] + t["probe_after_s"]))
            for t, _ in traced), "ref")
    for name in COUNT_METRICS:
        out[name] = metric(statistics.mean(
            t["counts"].get(name, 0) for t, _ in traced),
            COUNT_UNITS.get(name, "count"))
    for name in LAYER_US_METRICS:
        out[name] = metric(statistics.median(
            t["layer_us"][name] for t, _ in traced if t["layer_us"]), "us")
    out["trace.overhead_ref"] = metric(
        statistics.median(r for _, r in traced) - statistics.median(untraced)
        if untraced else 0.0, "ref")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (REPO / "src" / "contfrob" / "__init__.py").is_file():
        print(f"error: no contfrob sources under {REPO / 'src'}",
              file=sys.stderr)
        return 2

    trace = bool(args.trace)
    try:
        setups = [child(args, "setup")[0]["setup"]
                  for _ in range(SETUP_RUNS)]
        if trace:
            scipy_s = scipy_import_s(child(args, "setup", importtime=True)[1])
        res, _ = child(args, "measure", timeout=args.seconds + 150)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setups.append(res["setup"])
    tasks = res["tasks"]

    task_s = [t["task_s"] for t in tasks]
    before = [t["probe_before_s"] for t in tasks]
    after = [t["probe_after_s"] for t in tasks]
    task_ref = stats.ref_units(task_s, before, after)
    probes = before + after
    failed = [t for t in tasks if t["problems"]]
    warmup_problems = [p for s in setups for p in s["warmup_problems"]]
    digest_ok = res.get("trace_digest_match", True)
    correct = not failed and not warmup_problems and digest_ok

    if trace:
        metrics = per_layer(tasks, task_ref, setups, scipy_s)
    else:
        metrics = end_to_end(task_ref, setups, res["peak_rss_mb"])

    n = len(tasks)
    tail_pct = stats.tail_percentile(n)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tasks": n,
        "p90_beyond": stats.beyond(n, 90.0),
        "tail_pct": tail_pct,
        "task_ref.tail": (stats.percentile(task_ref, tail_pct)
                          if tail_pct else None),
        "task_s.p50": statistics.median(task_s),
        "task_s.p90": stats.percentile(task_s, 90.0),
        "tasks_per_s": n / sum(task_s),
        "probe_ms": {"p50": 1e3 * statistics.median(probes),
                     "min": 1e3 * min(probes), "max": 1e3 * max(probes)},
        "setup_s": [s["setup_s"] for s in setups],
        "setup_nominal_s": [s["setup_nominal_s"] for s in setups],
        "digest": run_digest([t["digest"] for t in tasks]),
        "trace_digest_match": res.get("trace_digest_match"),
        "failures": [t["problems"] for t in failed][:5] + warmup_problems[:5],
        "env": environment(),
    }
    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": n,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
