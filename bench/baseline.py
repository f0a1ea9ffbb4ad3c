#!/usr/bin/env python3
"""Record a benchmark baseline into ``bench/results/``.

Runs, one at a time from the repository root:

1. two interleaved sets A and B of ``--runs`` untraced runs at seed 0
   (A1 over every workload, then B1, A2, B2, ...), so slow host phases
   fall on both sets alike;
2. one set of ``--runs`` untraced runs at the held-out seed 1;
3. one traced run per workload at seed 0.

Writes every run's result and report, plus per-set medians and
quartiles and the A-against-B median shift compared with each metric's
bound from ``BENCHMARK.json``.

Usage::

    python3 bench/baseline.py --runs 5 --out bench/results/baseline.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Report fields kept per run (the full layer table only when traced).
KEPT = ("program_seed", "samples", "unadjusted", "host_slowdown",
        "replay_ms", "stats_digest", "model", "ipc_gain", "ipc_gain_err_pp",
        "cells_total", "cells_failed", "failures", "host", "trace_check",
        "layers")


def run_once(workload: str, seed: int, trace: int, seconds: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    report, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "trace": trace,
            "wall_s": time.perf_counter() - started, "result": result,
            **{key: report[key] for key in KEPT if key in report}}


def summarize(runs: list[dict], bounds: dict[str, float]) -> dict:
    """Median and quartiles per (workload, set, metric); A-vs-B shifts."""
    values: dict = {}
    for run in runs:
        for name, entry in run["result"]["metrics"].items():
            values.setdefault(run["workload"], {}).setdefault(
                run["set"], {}).setdefault(name, []).append(entry["value"])
    out = {}
    for workload, sets in values.items():
        out[workload] = {}
        for label, metrics in sets.items():
            out[workload][label] = {}
            for name, series in metrics.items():
                q1, median, q3 = (statistics.quantiles(series, n=4)
                                  if len(series) > 1 else [series[0]] * 3)
                out[workload][label][name] = {
                    "median": median, "q1": q1, "q3": q3,
                    "iqr_frac": (q3 - q1) / median if median else 0.0,
                    "n": len(series)}
        if "A" in sets and "B" in sets:
            out[workload]["A_vs_B"] = {
                name: {"shift_frac": abs(
                    out[workload]["B"][name]["median"]
                    / out[workload]["A"][name]["median"] - 1.0),
                       "bound": bounds[name]}
                for name in bounds}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    plan = [("A", 0, 0), ("B", 0, 0)] * args.runs
    plan += [("held-out", 1, 0)] * args.runs + [("traced", 0, 1)]
    runs = []
    for label, seed, trace in plan:
        for workload in workloads:
            run = run_once(workload, seed, trace, seconds)
            run["set"] = label
            runs.append(run)
            print(f"{label} {workload} seed={seed} trace={trace} "
                  f"wall={run['wall_s']:.1f}s "
                  f"correct={run['result']['correct']}", flush=True)
    untraced = [run for run in runs if not run["trace"]]
    exact = {workload: sorted({json.dumps([run["stats_digest"],
                                           run["model"],
                                           run["ipc_gain_err_pp"],
                                           run["cells_failed"]])
                               for run in untraced
                               if run["workload"] == workload
                               and run["seed"] == 0})
             for workload in workloads}
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps({
        "benchmark": spec,
        "summary": summarize(untraced, bounds),
        "exact_identical_at_seed_0": {workload: len(variants) == 1
                                      for workload, variants in
                                      exact.items()},
        "runs": runs,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
