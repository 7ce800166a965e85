#!/usr/bin/env python3
"""Print every benchmark metric by name and unit, for each workload.

    python3 bench/report.py                         # every workload, seed 1
    python3 bench/report.py --seeds 1,2,3,4,5 --workloads multi_curve
    python3 bench/report.py --trace                 # per-layer metrics and their predictions

Each run is a separate ``bench/run.py`` process, as the benchmark is meant
to be run.  The sample count behind each percentile is printed next to it.
With several seeds, the table adds each metric's median over the seeds, its
quartile spread (Q3 - Q1, from ``statistics.quantiles(n=4)``) as a share of
the median, and the bound ``BENCHMARK.json`` fixes for it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr}")
    details = {}
    for line in lines:
        if line.startswith("# details "):
            details = json.loads(line[len("# details "):])
    return json.loads(lines[-1]), details


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, details = run_once(workload, seed, args.seconds, args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                note = ""
                if name == "job_p50_s":
                    note = f"  (median of n={details['jobs']} jobs)"
                elif name == "job_tail_s":
                    note = (f"  (p{details['job_tail_percentile']:.4g} of n={details['jobs']} jobs, "
                            f"{details['jobs_beyond_tail']} beyond)")
                elif name == "setup_s":
                    note = f"  (median of n={details['setup_samples']} imports)"
                elif name in tracing.PER_LAYER:
                    note = f"  (predicted to move: {tracing.PER_LAYER[name][2]})"
                print(f"  {name:32s} {metric['value']:<22.10g} {metric['unit']}{note}")
            if details.get("failures"):
                print(f"  failures: {json.dumps(details['failures'])}")
        if len(runs) < 2:
            continue
        print(f"{workload}: over {len(runs)} seeds")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:g}" + ("  OVER 1/3" if spread > bound / 3 else "")
            print(f"  {name:32s} median {median:<14.6g} spread {spread:7.4f}{flag}")


if __name__ == "__main__":
    main()
