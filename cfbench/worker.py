"""One benchmark interpreter: set up a workload, then (optionally) time it.

    python3 cfbench/worker.py --workload NAME --seed N --mode setup
    python3 cfbench/worker.py --workload NAME --seed N --mode measure \
        --seconds S --trace 0|1

run.py starts this in fresh interpreters with BLAS threads pinned to 1.
Set-up time counts from the first speed tick, taken before any other
import: imports, the preset build and the warm-up tasks, with ticks
sampled all through it (ticks.py).  In measure mode the tasks then run
back to back for the given seconds, each between two reference probes.
With --trace 1, every second task runs with spans around its library
calls, and every task is followed by direct per-layer timings on its own
inputs.  The last line of stdout is one JSON object with the raw samples.
"""

from ticks import Sampler

SAMPLER = Sampler()
T_START = sum(SAMPLER.ticks[0])

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import stats  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
WARMUP_TASKS = 2
LAYER_REPS = 20
# Seed streams: warm-up and timed tasks draw from disjoint sequences.
WARMUP_STREAM, TIMED_STREAM = 1, 2


def task_rng(np, seed, stream, index):
    return np.random.default_rng([seed, stream, index])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_task(wl, ctx, inp, spans):
    """(result, problems): a raised error is a failed task, not a crash."""
    try:
        res = wl.run(ctx, inp, spans)
    except Exception as err:  # the loop must go on; the error is reported
        return None, [f"{type(err).__name__}: {err}"]
    return res, res.problems


def set_up(name, seed):
    if not (SRC / "contfrob" / "__init__.py").is_file():
        raise SystemExit(f"contfrob sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads
    import contfrob
    from spans import NULL
    if Path(contfrob.__file__).resolve().parent != SRC / "contfrob":
        raise SystemExit(f"imported contfrob from {contfrob.__file__}, "
                         f"not from {SRC}")
    import numpy as np
    imported = time.perf_counter()
    wl = workloads.WORKLOADS[name]()
    ctx = wl.build()
    problems = []
    for j in range(WARMUP_TASKS):
        inp = wl.inputs(ctx, task_rng(np, seed, WARMUP_STREAM, j))
        _, bad = run_task(wl, ctx, inp, NULL)
        problems += bad
    done = time.perf_counter()
    ticks = SAMPLER.stop()
    setup_s, setup_nominal_s = stats.ticks_split(ticks, T_START, done)
    import_s, import_nominal_s = stats.ticks_split(ticks, T_START, imported)
    setup = {"setup_s": setup_s, "setup_nominal_s": setup_nominal_s,
             "import_s": import_s, "import_nominal_s": import_nominal_s,
             "ticks": len(ticks),
             "warmup_problems": problems}
    return np, wl, ctx, setup


def per_call_us(fn, reps=LAYER_REPS):
    t = time.perf_counter()
    for _ in range(reps):
        fn()
    return 1e6 * (time.perf_counter() - t) / reps


def layer_us(layer):
    from contfrob.boxes import env_of
    from contfrob.surface import FlowConfig, flow
    cfg = FlowConfig(step=layer.step)
    env1 = env_of(layer.field_coords, layer.lattice[0])
    env_lat = env_of(layer.field_coords, layer.lattice)
    return {
        "surface.rk4_step_us.n1": per_call_us(
            lambda: flow(layer.fields, layer.coords, layer.point, layer.step,
                         cfg)),
        "fields.evaluate_us.n1": per_call_us(
            lambda: layer.field.evaluate(env1)),
        "fields.evaluate_us.lattice": per_call_us(
            lambda: layer.field.evaluate(env_lat)),
    }


def measure(np, wl, ctx, seed, seconds, trace):
    from probe import probe
    from spans import NULL, Spans
    tasks = []
    probe()  # the first call pays one-off costs
    before = probe()
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        traced = bool(trace) and i % 2 == 1
        spans = Spans() if traced else NULL
        inp = wl.inputs(ctx, task_rng(np, seed, TIMED_STREAM, i))
        t = time.perf_counter()
        res, problems = run_task(wl, ctx, inp, spans)
        task_s = time.perf_counter() - t
        after = probe()
        rec = {"task_s": task_s, "probe_before_s": before,
               "probe_after_s": after, "traced": traced,
               "problems": problems,
               "digest": digest(res.text) if res else None}
        before = after
        if trace:
            # Layer timings follow every task of a traced run, so traced
            # and untraced tasks sit between the same kind of probes.
            us = layer_us(res.layer) if res else {}
            if traced:
                rec["span_s"] = spans.seconds
                rec["counts"] = res.counts if res else {}
                rec["layer_us"] = us
            before = probe()
        tasks.append(rec)
        i += 1

    out = {"tasks": tasks}
    if trace:
        # Task 0 ran untraced; its traced re-run must hash the same.
        inp = wl.inputs(ctx, task_rng(np, seed, TIMED_STREAM, 0))
        res, _ = run_task(wl, ctx, inp, Spans())
        out["trace_digest_match"] = (res is not None and
                                     digest(res.text) == tasks[0]["digest"])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    np, wl, ctx, setup = set_up(args.workload, args.seed)
    out = {"setup": setup}
    if args.mode == "measure":
        out.update(measure(np, wl, ctx, args.seed, args.seconds, args.trace))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


if __name__ == "__main__":
    main()
