#!/usr/bin/env python3
"""End-to-end benchmark of chargequench CLI jobs.

    python3 bench/run.py --workload multi_curve --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  One client runs the workload's seeded job list (``workloads.py``)
in-process through ``chargequench.cli.main(argv)``, one job at a time (a
closed loop), in as many rounds as fill ``--seconds``; a job's time is its
fastest round, corrected for the host's current speed (``hostspeed.py``).
Every job goes through the correctness gate in ``gate.py``; a job fails
when it exits non-zero or fails the gate.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
job list once untraced and once traced (see ``tracing.py``), prints the
per-layer metrics, writes the spans to ``.bench_run/`` and checks that a
second traced run of the same seed, in a fresh interpreter, repeats the work
counts exactly.  The last line of standard output is always one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import gate
import hostspeed
import tracing
from workloads import WORKLOADS, late_share

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")
# Fresh-interpreter imports behind setup_s, taken before, between and after
# the rounds so that one burst of host load cannot move their median.
SETUP_FIRST, SETUP_BETWEEN, SETUP_LAST = 3, 2, 2
IMPORTTIME_SAMPLES = 3
TAIL_BEYOND = 10  # job_tail_s is the highest percentile with this many jobs beyond it

END_TO_END = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "jobs_per_s": "1/s",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import ``chargequench.cli`` from this checkout's ``src/`` or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import chargequench.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import chargequench from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: chargequench was imported from {cli.__file__}, not from {SRC}")
    return cli


def _python(args, timeout=60):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)


def measure_setup(samples, compile_first=False):
    """Wall times of fresh interpreters that import chargequench.cli, each
    corrected by the host-speed kernel timed just before it."""
    if compile_first:
        _python(["-c", "import chargequench.cli"])  # writes bytecode; not timed
    times = []
    for _ in range(samples):
        speed = statistics.median(hostspeed.kernel() for _ in range(2 * hostspeed.WINDOW + 1))
        t0 = time.perf_counter()
        _python(["-c", "import chargequench.cli"])
        times.append((time.perf_counter() - t0) * hostspeed.NOMINAL_S / speed)
    return times


def measure_import_scipy(samples=IMPORTTIME_SAMPLES):
    runs = [_python(["-X", "importtime", "-c", "import chargequench.cli"]).stderr for _ in range(samples)]
    return statistics.median(tracing.import_scipy_seconds(err) for err in runs)


@dataclass
class Result:
    slot: str
    wall: float
    kernel: float  # host-speed kernel time taken just before the job
    status: str  # "ok", "exit-<code>:<error>", or the gate's reason


class Runner:
    """Runs one job through ``cli.main`` and the correctness gate."""

    def __init__(self, cli, refs, out_dir):
        self.cli, self.refs, self.out_dir = cli, refs, out_dir

    def run(self, job, tracer=None):
        argv = [*job.argv, "--out", self.out_dir]
        out, err = io.StringIO(), io.StringIO()
        mismatches = len(tracer.lambda_mismatches) if tracer else 0
        kernel = hostspeed.kernel()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            if tracer is None:
                rc = self.cli.main(argv)
            else:
                sid = tracer.open("cli.main")
                try:
                    rc = self.cli.main(argv)
                finally:
                    tracer.close(sid)
            wall = time.perf_counter() - t0
        paths = out.getvalue().split()
        if rc != 0:
            return Result(job.slot, wall, kernel, f"exit-{rc}:{_error_name(err.getvalue())}")
        if tracer is not None:
            tracer.bytes_written += sum(os.path.getsize(p) for p in paths)
            if len(tracer.lambda_mismatches) > mismatches:
                return Result(job.slot, wall, kernel, "neel-lambda")
        reason = gate.check(gate.read_artifact(paths), self.refs.get(job.key))
        return Result(job.slot, wall, kernel, reason or "ok")


def _error_name(stderr):
    for line in reversed(stderr.splitlines()):
        try:
            return json.loads(line)["error"]
        except (ValueError, KeyError, TypeError):
            continue
    return "unknown"


def tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND values
    beyond it.  A workload's job count is fixed, so the percentile is too."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def _is_failure(result):
    return result.status != "ok"


def _is_incorrect(result):
    return result.status in ("mismatch", "non-finite", "no-artifact", "neel-lambda")


def _failure_summary(results):
    summary: dict[str, int] = {}
    for r in results:
        if _is_failure(r):
            key = f"{r.slot} {r.status}"
            summary[key] = summary.get(key, 0) + 1
    return dict(sorted(summary.items()))


def warm_up(runner, workload, seed):
    """One job of each type from an unrelated seed: fills lazy imports and caches."""
    first = {}
    for job in workload.jobs(seed + 1_000_003):
        first.setdefault(job.slot, job)
    for job in first.values():
        runner.run(job)


def corrected_walls(results):
    return hostspeed.corrected([r.wall for r in results], [r.kernel for r in results])


def closed_loop(runner, jobs, seconds, between_rounds):
    """Runs the job list in rounds: as many as fit in ``seconds`` judging by
    the first, and at least two.  A job's time is its fastest round,
    after the host-speed correction.  Returns the job times, the uncorrected
    times, every result and the number of rounds."""
    t0 = time.perf_counter()
    results = [runner.run(job) for job in jobs]
    rounds = max(2, int(seconds / (time.perf_counter() - t0)))
    walls, raw = corrected_walls(results), [r.wall for r in results]
    for _ in range(rounds - 1):
        between_rounds()
        again = [runner.run(job) for job in jobs]
        walls = [min(w, c) for w, c in zip(walls, corrected_walls(again))]
        raw = [min(w, r.wall) for w, r in zip(raw, again)]
        results.extend(again)
    return walls, raw, results, rounds


def end_to_end(args, workload, runner):
    setup = measure_setup(SETUP_FIRST, compile_first=True)
    warm_up(runner, workload, args.seed)
    jobs = workload.jobs(args.seed)
    walls, raw, results, rounds = closed_loop(
        runner, jobs, args.seconds, lambda: setup.extend(measure_setup(SETUP_BETWEEN))
    )
    setup.extend(measure_setup(SETUP_LAST))
    tail_s, pct = tail(walls)
    failed = sum(map(_is_failure, results))
    values = {
        "setup_s": statistics.median(setup),
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_s,
        "jobs_per_s": len(walls) / sum(walls),
        "error_rate": failed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "workload": workload.name,
        "jobs": len(walls),
        "rounds": rounds,
        "job_tail_percentile": pct,
        "jobs_beyond_tail": min(TAIL_BEYOND, len(walls) - 1),
        "setup_samples": len(setup),
        "t_gt_half_ell_share": round(late_share(jobs), 4),
        "failures": _failure_summary(results),
        "uncorrected_job_p50_s": statistics.median(raw),
        "uncorrected_job_tail_s": tail(raw)[0],
    }
    print(f"# job_tail_s is p{pct:.4g} of {len(walls)} jobs (fastest of {rounds} rounds each); "
          f"setup_s is the median of {len(setup)} imports")
    print("# details " + json.dumps(details, sort_keys=True))
    correct = not any(map(_is_incorrect, results))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return correct, len(results), failed, metrics


def traced_pass(runner, jobs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = [runner.run(job, tracer) for job in jobs]
    finally:
        tracer.uninstall()
    return tracer, results


def counts_only(args, workload, runner):
    tracer, _ = traced_pass(runner, workload.jobs(args.seed))
    values = tracer.metrics(0.0, 0.0)
    print(json.dumps({name: values[name] for name in tracing.WORK_COUNTS}))


def per_layer(args, workload, runner):
    jobs = workload.jobs(args.seed)
    warm_up(runner, workload, args.seed)
    untraced = [runner.run(job) for job in jobs]
    tracer, results = traced_pass(runner, jobs)
    overhead = sum(corrected_walls(results)) - sum(corrected_walls(untraced))
    values = tracer.metrics(measure_import_scipy(), overhead)
    spans_path = os.path.join(RUN_DIR, f"spans-{workload.name}-seed{args.seed}.csv")
    tracer.write(spans_path)

    repeat = _python([os.path.abspath(__file__), "--workload", workload.name, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", "1", "--counts-only"], timeout=150)
    again = json.loads(repeat.stdout.strip().splitlines()[-1])
    repeated = all(again.get(name) == values[name] for name in tracing.WORK_COUNTS)

    selfs = sorted(tracer.self_by_layer().items(), key=lambda kv: -kv[1])
    for missing in tracer.missing:
        print(f"# tracing: not found, not traced: {missing}")
    for mismatch in tracer.lambda_mismatches:
        print(f"# neel saddle mismatch: {mismatch}")
    print(f"# spans: {len(tracer.names)} written to {os.path.relpath(spans_path, ROOT)}")
    print("# self time by layer: " + ", ".join(f"{k} {v:.3f}s" for k, v in selfs))
    print(f"# work counts repeat in a fresh interpreter: {repeated} "
          + json.dumps({name: values[name] for name in tracing.WORK_COUNTS}))
    print("# details " + json.dumps({"workload": workload.name, "jobs": len(jobs),
                                     "failures": _failure_summary(results)}, sort_keys=True))
    failed = sum(map(_is_failure, results))
    correct = repeated and not any(map(_is_incorrect, results))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _, _) in tracing.PER_LAYER.items()}
    return correct, len(results), failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cli = load_cli()
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(RUN_DIR, f"jobs-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(cli, gate.load_refs(workload.name), out_dir)
    try:
        if args.counts_only:
            counts_only(args, workload, runner)
            return
        mode = per_layer if args.trace else end_to_end
        correct, attempted, failed, metrics = mode(args, workload, runner)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
