import collections
import json
import math
import os
import subprocess
import sys

import pytest

import chargequench
from chargequench import cli, counting, entropy, fluctuations, saddle
from chargequench.cli import _COMMANDS, JobSpec, main

# Every subcommand with only the arguments it needs; the defaults do the rest.
RUNS = {
    "curve": ["curve", "--ell", "40", "--tau", "6", "--t", "18", "--q", "20"],
    "sweep": ["sweep", "--ell", "40", "--tau", "6", "--t", "16", "--q-grid", "19:21"],
    "saddle": ["saddle", "--ell", "40", "--tau", "6", "--dq=-1:1"],
    "saddle-tilted": ["saddle", "--state", f"tilted:{math.pi / 3!r}", "--ell", "40", "--tau", "3",
                      "--dq=-2:2"],
    "average": ["average", "--ell", "40", "--tau", "6", "--t", "14"],
    "sample": ["sample", "--ell", "40", "--tau", "6", "--samples", "100"],
    "neel": ["neel", "--tau", "20", "--dq=-1:1"],
    "fcs": ["fcs", "--ell", "40", "--tau", "6"],
    "fcs-dimer": ["fcs", "--state", "dimer", "--ell", "40", "--tau", "6"],
    "fcs-tilted": ["fcs", "--state", "tilted:1.1", "--ell", "40", "--tau", "3"],
    "geometry": ["geometry", "--state", "tilted:1.1", "--ell", "40", "--t", "25", "--q", "24",
                 "--geometry", "complement", "--L", "80"],
    "oracle": ["oracle", "--L", "8", "--ell", "4", "--tau", "1", "--t", "2"],
}


def _artifacts(out_dir):
    """file name -> lines, without the `generated` timestamp."""
    return {
        path.name: [line for line in path.read_text().splitlines() if not line.startswith("# generated=")]
        for path in sorted(out_dir.iterdir())
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_subcommand_runs_and_is_reproducible(name, tmp_path, capsys):
    first, second = tmp_path / "a", tmp_path / "b"
    assert main([*RUNS[name], "--out", str(first)]) == 0, capsys.readouterr().err
    assert main([*RUNS[name], "--out", str(second)]) == 0, capsys.readouterr().err
    got, again = _artifacts(first), _artifacts(second)
    assert got and got == again
    # config_hash is part of the compared lines: the --out directory does not enter it
    hashes = [line for lines in got.values() for line in lines if line.startswith("# config_hash=")]
    assert hashes or name == "average"  # average.json carries no metadata


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in RUNS.values()} == set(_COMMANDS)


def test_config_hash_depends_only_on_result_inputs():
    job = JobSpec("curve", {"ell": 40.0, "q": "20"}, rtol=1e-10, seed=3)
    same = JobSpec("curve", {"ell": 40.0, "q": "20"}, rtol=1e-10, seed=3, out_dir="elsewhere", fmt="csv")
    assert job.config_hash() == same.config_hash()
    for other in (JobSpec("curve", {"ell": 41.0, "q": "20"}, rtol=1e-10, seed=3),
                  JobSpec("curve", {"ell": 40.0, "q": "20"}, rtol=1e-8, seed=3),
                  JobSpec("curve", {"ell": 40.0, "q": "20"}, rtol=1e-10, seed=4),
                  JobSpec("sweep", {"ell": 40.0, "q": "20"}, rtol=1e-10, seed=3)):
        assert other.config_hash() != job.config_hash()


def test_saddle_flags_outcomes_beyond_the_window(tmp_path, capsys):
    # for tau > ell/2 the window is below 2 tau / pi: dq = 16 lies between the
    # two, and is reported infeasible instead of failing the job
    argv = ["saddle", "--state", "dimer", "--ell", "40", "--tau", "30", "--dq", "14:16"]
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    rows = json.loads((tmp_path / "saddle.json").read_text())["rows"]
    assert [(row[0], row[3]) for row in rows] == [(14.0, 1), (15.0, 1), (16.0, 0)]


@pytest.mark.parametrize("argv", [
    # lambda about 19.6, 1.7e-7 inside the window 3.81971863
    ["saddle", "--state", "dimer", "--ell", "40", "--tau", "6", "--dq", "3.8197182"],
    *(["fcs", "--state", state, "--ell", "40", "--tau", "6",
       f"--beta-grid={-math.pi!r}:{math.pi!r}:21"] for state in ("dimer", "neel")),
], ids=["saddle-edge", "fcs-full-dimer", "fcs-full-neel"])
def test_jobs_at_the_edge_of_their_domain(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    (path,) = tmp_path.iterdir()
    values = [v for row in json.loads(path.read_text())["rows"] for v in row
              if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(chargequench.__file__))
    code = "import sys, chargequench.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_config_file_is_parsed_like_flags(tmp_path, capsys):
    # integer and seed options keep their types when they come from the file
    config = tmp_path / "average.cfg"
    config.write_text("state = dimer\nell=80\ntau = 6  # period\nt=24\nm=3\nsamples=100\nseed=5\n")
    flags = ["average", "--state", "dimer", "--ell", "80", "--tau", "6", "--t", "24", "--m", "3",
             "--samples", "100"]
    runs = {
        "file": ["average", "--config", str(config)],
        "flags": [*flags, "--seed", "5"],
        "file-flag-wins": ["average", "--config", str(config), "--seed", "6"],
        "flags-6": [*flags, "--seed", "6"],
    }
    got = {}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, capsys.readouterr().err
        got[name] = (tmp_path / name / "average.json").read_text()
    assert got["file"] == got["flags"]
    assert got["file-flag-wins"] == got["flags-6"] != got["file"]


def test_parser_is_built_once_and_reads_the_outdir_per_call(tmp_path, monkeypatch, capsys):
    cli._build_parser.cache_clear()
    argv = ["saddle", "--ell", "40", "--tau", "6", "--dq", "1"]
    for name in ("first", "second"):
        monkeypatch.setenv("CHARGEQUENCH_OUTDIR", str(tmp_path / name))
        assert main(argv) == 0, capsys.readouterr().err
        assert (tmp_path / name / "saddle.json").exists()
    assert cli._build_parser.cache_info().misses == 1


def _count_calls(monkeypatch, *functions):
    """Counts calls of each function under every name a chargequench module
    binds it to."""
    counts = collections.Counter()
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("chargequench.") and m]
    for func in functions:
        def counted(*args, _func=func, **kwargs):
            counts[_func.__name__] += 1
            return _func(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("m, quantum", [(1, 1), (3, 1)])
def test_average_integrates_each_outcome_independent_term_once(m, quantum, tmp_path, monkeypatch, capsys):
    # the analytic average and the Monte-Carlo run share one baseline, one
    # window, one classical term and each variance once; inside the light
    # cone every step shares one counting function, so all distinct outcomes
    # are one batched quantum integral
    counts = _count_calls(monkeypatch, fluctuations.variance_symmetric, saddle.charge_window,
                          entropy.unmeasured_entropy, entropy._log_n_symmetric, entropy._quantum_integral)
    argv = ["average", "--state", "dimer", "--ell", "40", "--tau", "6", "--t", "14" if m == 1 else "18",
            "--m", str(m), "--samples", "200", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert counts == {"variance_symmetric": 3, "charge_window": 1, "unmeasured_entropy": 1,
                      "_log_n_symmetric": 1, "_quantum_integral": quantum}


def test_saddle_integrates_the_window_once_per_job(tmp_path, monkeypatch, capsys):
    counts = _count_calls(monkeypatch, saddle.charge_window, fluctuations.variance_symmetric)
    argv = ["saddle", "--state", "dimer", "--ell", "40", "--tau", "6", "--dq=-3:3"]
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    assert counts == {"charge_window": 1, "variance_symmetric": 1}
    rows = json.loads((tmp_path / "saddle.json").read_text())["rows"]
    assert [row[3] for row in rows] == [1] * 7 and rows[3][1] == 0.0


@pytest.mark.parametrize("m, quantum", [(1, 2), (2, 4)])
def test_squeezed_average_runs_its_monte_carlo(m, quantum, tmp_path, monkeypatch, capsys):
    # no analytic average exists for a squeezed state: the job writes a null
    # analytic value and the Monte-Carlo keys; the baseline and the classical
    # term are integrated once, and each counting function's corrections are
    # one batched quantum integral
    counts = _count_calls(monkeypatch, entropy.unmeasured_entropy, entropy._log_n_squeezed,
                          entropy._quantum_integral)
    argv = ["average", "--state", "tilted:1.1", "--ell", "40", "--tau", "3", "--t", "14", "--m", str(m)]
    assert main([*argv, "--samples", "200", "--seed", "1", "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    result = json.loads((tmp_path / "average.json").read_text())
    assert result["analytic_correction"] is None and result["n_samples"] == 200
    assert all(math.isfinite(result[key]) for key in ("mc_mean", "mc_stderr", "mc_correction"))
    assert counts == {"unmeasured_entropy": 1, "_log_n_squeezed": 1, "_quantum_integral": quantum}
    # without --samples there is nothing to report
    assert main([*argv, "--out", str(tmp_path / "none")]) == cli.EXIT_REGIME


def test_light_cone_report_shares_one_counting_function(dimer, monkeypatch):
    # for 2t <= ell every step of an m = 3 report weighs 2|v_k| tau: one
    # counting function and one quantum integral for the three terms
    counts = _count_calls(monkeypatch, counting.counting_function, entropy._quantum_integral)
    report = entropy.entropy_symmetric_multi(18.0, 6.0, 40.0, [22.0, 21.0, 23.0], dimer.occupation)
    assert counts == {"counting_function": 1, "_quantum_integral": 1}
    assert [label for label, _ in report.quantum_corrections] == [f"chi[1,{l}]_AAbar" for l in (1, 2, 3)]
