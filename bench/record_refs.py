#!/usr/bin/env python3
"""Record the reference artifacts the correctness gate compares against.

    python3 bench/record_refs.py [--workloads multi_curve,...] [--seeds 1000]

Collects every distinct job in the job lists of seeds 0..N-1, runs each
once through ``chargequench.cli.main`` and stores the artifact of every job
that exits with 0 and is finite in ``bench/refs/<workload>.json``, keyed by
argv.  Jobs that fail are not recorded; the gate checks them for a
finite result if a later version makes them succeed.  Run this only at a
commit whose results are trusted: it overwrites the tables.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import time

import gate
import run
from workloads import WORKLOADS


def distinct_jobs(workload, seeds):
    jobs = {}
    for seed in range(seeds):
        for job in workload.jobs(seed):
            jobs.setdefault(job.key, job)
    return list(jobs.values())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=1000)
    args = parser.parse_args()
    cli = run.load_cli()
    out_dir = os.path.join(run.RUN_DIR, f"refs-{os.getpid()}")
    os.makedirs(gate.REFS_DIR, exist_ok=True)
    try:
        for name in args.workloads.split(","):
            jobs = distinct_jobs(WORKLOADS[name], args.seeds)
            refs, failed, t0 = {}, 0, time.perf_counter()
            for job in jobs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main([*job.argv, "--out", out_dir])
                artifact = gate.read_artifact(out.getvalue().split()) if rc == 0 else None
                if artifact is not None and gate.check(artifact, None) is None:
                    refs[job.key] = artifact
                else:
                    failed += 1
            with open(os.path.join(gate.REFS_DIR, f"{name}.json"), "w") as fh:
                fh.write("{\n" + ",\n".join(f"{json.dumps(key)}: {json.dumps(refs[key])}"
                                             for key in sorted(refs)) + "\n}\n")
            print(f"{name}: {len(refs)} references, {failed} failing jobs not recorded "
                  f"({time.perf_counter() - t0:.0f} s)", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
