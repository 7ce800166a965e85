"""Replays a fixed subset of the benchmark's recorded jobs through the CLI.

For every workload of ``bench/workloads.py`` the subset holds the first job of
seed 0 in each job slot for each of the first three states drawn, about 40
jobs in all.  Each must exit with 0 and pass ``bench/gate.check``: jobs with a
recorded artifact in ``bench/refs`` match it to the gate's tolerance, NaN
where it is NaN; the others (the full-window FCS scans) are finite.  The
benchmark directory is only read.
"""

import math
import os
import sys

import pytest

from chargequench.cli import main

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"))
import gate  # noqa: E402
import workloads  # noqa: E402


def _state(job):
    argv = list(job.argv)
    return argv[argv.index("--state") + 1] if "--state" in argv else "neel"


def _replayed_jobs():
    jobs = []
    for name, workload in sorted(workloads.WORKLOADS.items()):
        states = {}
        for job in workload.jobs(0):
            seen = states.setdefault(job.slot, {})
            if len(seen) < 3 and _state(job) not in seen:
                seen[_state(job)] = job
                jobs.append((name, job))
    return jobs


JOBS = _replayed_jobs()
REFS = {name: gate.load_refs(name) for name in workloads.WORKLOADS}


def test_the_subset_covers_every_slot_and_the_classical_nan_pattern():
    assert 30 <= len(JOBS) <= 50
    for name, workload in workloads.WORKLOADS.items():
        assert {job.slot for job in workload.jobs(0)} == {job.slot for wl, job in JOBS if wl == name}
    # whether the crossover classical term is NaN is decided by rounding: at
    # t = 24 two-measurement curves record NaN for the dimer and a value for Neel
    classical = {}
    for name, job in JOBS:
        ref = REFS[name].get(job.key)
        if job.slot == "curve-m2" and ref is not None:
            for row in ref["rows"]:
                row = dict(zip(ref["columns"], row))
                if row["t"] == 24.0:
                    classical[_state(job)] = row["classical"]
    assert math.isnan(classical["dimer"]) and math.isfinite(classical["neel"])


@pytest.mark.filterwarnings("ignore:Stirling expansion is inaccurate:UserWarning")  # neel jobs at tau 6
@pytest.mark.parametrize("name, job", JOBS, ids=[f"{name}:{job.slot}:{_state(job)}" for name, job in JOBS])
def test_recorded_job_replays(name, job, tmp_path, capsys):
    assert main([*job.argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    artifact = gate.read_artifact(capsys.readouterr().out.split())
    assert gate.check(artifact, REFS[name].get(job.key)) is None
