"""Steadiness report: many seeded runs per workload, spread per metric.

    python3 cfbench/steadiness.py --out cfbench/STEADINESS.md

Runs run.py --trace 0 once per seed and workload, with the workloads
interleaved so host drift falls on all of them alike: two sets of RUNS
seeds each.  For every end-to-end metric it gives the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound
in BENCHMARK.json, with the raw-seconds counterparts (task_s.p50,
tasks_per_s, raw setup seconds) side by side, and the shift of each
median from the first set to the second in the metric's worse
direction.  Last, one traced run per workload must reproduce the
untraced digest of its seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUNS = 10
SETS = 2
RAW = {"task_ref.p50": "task_s.p50", "tasks_per_kref": "tasks_per_s",
       "setup_s": "setup_s.raw"}


def raw_value(detail, name):
    if name == "setup_s.raw":
        return statistics.median(detail["setup_s"])
    return detail[name]


def bench(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True,
                          timeout=180 + seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr[-500:]}")
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


def run_set(spec, seeds, seconds, log):
    runs = {w["name"]: [] for w in spec["workloads"]}
    for seed in seeds:
        for name in runs:
            detail, result = bench(name, seed, seconds, 0)
            runs[name].append({"detail": detail, "result": result})
            log(f"{name} seed={seed} correct={result['correct']} "
                f"tasks={result['attempted']} "
                f"p50={result['metrics']['task_ref.p50']['value']:.3f}")
    return runs


def summarise(spec, runs):
    """{workload: {metric: (q1, median, q3, spread)}} incl. raw metrics."""
    out = {}
    for name, rs in runs.items():
        rows = {}
        for m in spec["end_to_end"]:
            key = m["name"]
            rows[key] = stats.quartile_spread(
                [r["result"]["metrics"][key]["value"] for r in rs])
            if key in RAW:
                rows[RAW[key]] = stats.quartile_spread(
                    [raw_value(r["detail"], RAW[key]) for r in rs])
        rows["probe_ms.p50"] = stats.quartile_spread(
            [r["detail"]["probe_ms"]["p50"] for r in rs])
        out[name] = rows
    return out


def worse_shift(first, second, better):
    """Relative change of the median from first to second, signed so that
    a positive value means worse."""
    change = (second - first) / first
    return change if better == "lower" else -change


def report(spec, sets, traced, seconds):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = ["# Steadiness of the cfbench end-to-end metrics", "",
             f"{len(next(iter(sets[0][1].values())))} runs per workload "
             f"and set, "
             f"{seconds:g} s each, seeds {sets[0][0][0]}..{sets[-1][0][-1]}.",
             "Spread is (q3 - q1) / median as `statistics.quantiles(n=4)` "
             "gives it. Raw-seconds rows (`task_s.p50`, `tasks_per_s`, "
             "`setup_s.raw`, `probe_ms.p50`) are ungated and shown for "
             "comparison.", ""]
    summaries = [summarise(spec, runs) for _, runs in sets]
    for name in summaries[0]:
        lines += [f"## {name}", "",
                  "| metric | set | q1 | median | q3 | spread | bound | "
                  "spread < bound/3 |",
                  "|---|---|---|---|---|---|---|---|"]
        for key in summaries[0][name]:
            bound = bounds[key]["bound"] if key in bounds else None
            for k, summ in enumerate(summaries, 1):
                q1, q2, q3, spread = summ[name][key]
                if bound is None:
                    gate = ("", "")
                else:
                    gate = (f"{bound:.0%}", "yes" if spread < bound / 3
                            else "no")
                lines.append(
                    f"| {key} | {k} | {q1:.4g} | {q2:.4g} | {q3:.4g} | "
                    f"{spread:.1%} | {gate[0]} | {gate[1]} |")
        lines += ["", "Median shift from set 1 to set 2 (positive = "
                  "worse):", ""]
        for key, m in bounds.items():
            shift = worse_shift(summaries[0][name][key][1],
                                summaries[1][name][key][1], m["better"])
            lines.append(f"- {key}: {shift:+.1%} (bound {m['bound']:.0%})")
        runs = [r for _, rs in sets for r in rs[name]]
        beyond = sorted({r["detail"]["p90_beyond"] for r in runs})
        tasks = [r["detail"]["tasks"] for r in runs]
        ok = all(r["result"]["correct"] for r in runs)
        lines += ["", f"Tasks per run {min(tasks)}..{max(tasks)}; samples "
                  f"beyond p90 per run {beyond[0]}..{beyond[-1]}; every run "
                  f"correct: {ok}.", ""]
        if name in traced:
            t = traced[name]
            lines += [f"Traced run (seed {t['seed']}): digest "
                      f"{'matches' if t['match'] else 'DIFFERS FROM'} the "
                      f"untraced run; in-run traced re-run matches: "
                      f"{t['detail']['trace_digest_match']}; tracing "
                      f"overhead {t['overhead']:+.3f} ref per task.", ""]
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    def log(msg):
        print(msg, flush=True)

    sets = []
    for k in range(SETS):
        seeds = list(range(1 + k * RUNS, 1 + (k + 1) * RUNS))
        sets.append((seeds, run_set(spec, seeds, seconds, log)))
    traced = {}
    for w in spec["workloads"]:
        name = w["name"]
        seed = sets[0][0][0]
        detail, result = bench(name, seed, seconds, 1)
        untraced = sets[0][1][name][0]["detail"]["digest"]
        traced[name] = {"seed": seed, "detail": detail,
                        "match": detail["digest"] == untraced,
                        "overhead":
                        result["metrics"]["trace.overhead_ref"]["value"]}
        log(f"{name} traced digest match={traced[name]['match']}")

    text = report(spec, sets, traced, seconds)
    if args.out:
        args.out.write_text(text + "\n")
    print(text)


if __name__ == "__main__":
    main()
