import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys

import pytest

import chargequench
from chargequench import cli, counting, entropy, fluctuations, saddle
from chargequench.cli import _COMMANDS, JobSpec, main
from chargequench.neel_exact import neel_entropy_exact

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
    job = JobSpec("curve", {"ell": 40.0, "q": "20"}, seed=3)
    same = JobSpec("curve", {"ell": 40.0, "q": "20"}, seed=3, out_dir="elsewhere", fmt="csv")
    assert job.config_hash() == same.config_hash()
    for other in (JobSpec("curve", {"ell": 41.0, "q": "20"}, seed=3),
                  JobSpec("curve", {"ell": 40.0, "q": "20"}, seed=4),
                  JobSpec("sweep", {"ell": 40.0, "q": "20"}, seed=3)):
        assert other.config_hash() != job.config_hash()


def test_the_quadrature_tolerance_is_a_constant(capsys):
    # only the two quadrature entry points take a tolerance; nothing above
    # them takes, stores or relays one, and the CLI has no flag for it
    takers = set()
    for info in pkgutil.iter_modules(chargequench.__path__):
        module = importlib.import_module(f"chargequench.{info.name}")
        for _, obj in inspect.getmembers(module):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            funcs = [obj] if inspect.isfunction(obj) else (
                [f for _, f in inspect.getmembers(obj, inspect.isfunction)] if inspect.isclass(obj) else [])
            takers.update(f"{module.__name__}.{f.__qualname__}" for f in funcs
                          if {"config", "rtol"} & set(inspect.signature(f).parameters))
    assert takers == {"chargequench.quadrature.integrate", "chargequench.quadrature.momentum_integral"}
    assert main([*RUNS["curve"], "--rtol", "1e-8"]) == cli.EXIT_USAGE
    assert "--rtol" in capsys.readouterr().err


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
    # lambda about 24, within about 1e-9 of the window: the dimer occupation
    # must keep its relative precision near k = 0
    ["saddle", "--state", "dimer", "--ell", "40", "--tau", "6", "--dq", "3.81971863"],
    # lambda about -22, 1e-8 inside the window: the slope must keep 1 - n's
    # relative precision near k = +-pi, where the dimer's n is 1
    ["saddle", "--state", "dimer", "--ell", "40", "--tau", "6", "--dq=-3.8197186"],
    ["curve", "--state", "dimer", "--ell", "40", "--tau", "6", "--t", "14", "--q", "23.8197186"],
    *(["fcs", "--state", state, "--ell", "40", "--tau", "6",
       f"--beta-grid={-math.pi!r}:{math.pi!r}:21"] for state in ("dimer", "neel")),
], ids=["saddle-edge", "saddle-window", "saddle-negative-edge", "curve-window", "fcs-full-dimer",
        "fcs-full-neel"])
def test_jobs_at_the_edge_of_their_domain(argv, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    (path,) = tmp_path.iterdir()
    values = [v for row in json.loads(path.read_text())["rows"] for v in row
              if isinstance(v, float)]
    assert values and all(math.isfinite(v) for v in values)


@pytest.mark.parametrize("argv, flag", [
    (["neel", "--state", "dimer", "--tau", "6", "--dq", "1"], "--state"),
    (["average", "--state", "dimer", "--ell", "40", "--tau", "6", "--t", "14", "--samples", "200",
      "--exact-distribution"], "--exact-distribution"),
    (["sample", "--state", "dimer", "--ell", "40", "--tau", "6", "--samples", "100", "--exact-distribution"],
     "--exact-distribution"),
    (["curve", "--q", "21"], "--ell"),
    (["curve", "--ell", "40", "--tau", "6", "--q", "21"], "--t"),
    (["sweep", "--ell", "40", "--tau", "6", "--q-grid", "19:21"], "--t"),
], ids=["neel-state", "average-exact", "sample-exact", "curve-ell", "curve-t", "sweep-t"])
def test_inputs_it_cannot_honour_are_usage_errors(argv, flag, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path)]) == cli.EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_usage_is_checked_after_the_config_file_is_merged(tmp_path, capsys):
    config = tmp_path / "average.cfg"
    config.write_text("state = dimer\nexact-distribution\nt = 14\n")
    argv = ["average", "--config", str(config), "--ell", "40", "--tau", "6", "--samples", "200"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    assert "--exact-distribution" in capsys.readouterr().err
    config.write_text("t = 14\n")  # the file supplies a value a subcommand requires
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0, capsys.readouterr().err


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


@pytest.mark.parametrize("m, quantum", [(1, 1), (3, 1)])
def test_average_integrates_each_outcome_independent_term_once(m, quantum, tmp_path, count_calls, capsys):
    # the analytic average and the Monte-Carlo run share one baseline, one
    # window, one classical term and each variance once; inside the light
    # cone every step shares one counting function, so all distinct outcomes
    # are one batched quantum integral
    counts = count_calls(fluctuations.variance_symmetric, saddle.charge_window,
                         entropy.unmeasured_entropy, entropy._log_n_symmetric, entropy._quantum_integral)
    argv = ["average", "--state", "dimer", "--ell", "40", "--tau", "6", "--t", "14" if m == 1 else "18",
            "--m", str(m), "--samples", "200", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert counts == {"variance_symmetric": 3, "charge_window": 1, "unmeasured_entropy": 1,
                      "_log_n_symmetric": 1, "_quantum_integral": quantum}


def test_saddle_integrates_the_window_once_per_job(tmp_path, count_calls, capsys):
    counts = count_calls(saddle.charge_window, fluctuations.variance_symmetric)
    argv = ["saddle", "--state", "dimer", "--ell", "40", "--tau", "6", "--dq=-3:3"]
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    assert counts == {"charge_window": 1, "variance_symmetric": 1}
    rows = json.loads((tmp_path / "saddle.json").read_text())["rows"]
    assert [row[3] for row in rows] == [1] * 7 and rows[3][1] == 0.0


@pytest.mark.filterwarnings("ignore:Stirling expansion is inaccurate:UserWarning")  # tau 6
def test_neel_integrates_its_baseline_once_per_job(tmp_path, count_calls, capsys):
    # the exact column is the Beta factors alone; the one baseline integral
    # is the saddle reports'
    counts = count_calls(entropy.unmeasured_entropy)
    argv = ["neel", "--tau", "6", "--dq=-2:2"]
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    assert counts == {"unmeasured_entropy": 1}
    rows = json.loads((tmp_path / "neel.json").read_text())["rows"]
    assert [row[1] for row in rows] == [sum(neel_entropy_exact(6.0, 6.0, [dq], 600.0).corrections)
                                        for dq in (-2.0, -1.0, 0.0, 1.0, 2.0)]


@pytest.mark.parametrize("m, quantum", [(1, 2), (2, 4)])
def test_squeezed_average_runs_its_monte_carlo(m, quantum, tmp_path, count_calls, capsys):
    # no analytic average exists for a squeezed state: the job writes a null
    # analytic value and the Monte-Carlo keys; the baseline and the classical
    # term are integrated once, and each counting function's corrections are
    # one batched quantum integral
    counts = count_calls(entropy.unmeasured_entropy, entropy._log_n_squeezed, entropy._quantum_integral)
    argv = ["average", "--state", "tilted:1.1", "--ell", "40", "--tau", "3", "--t", "14", "--m", str(m)]
    assert main([*argv, "--samples", "200", "--seed", "1", "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    result = json.loads((tmp_path / "average.json").read_text())
    assert result["analytic_correction"] is None and result["n_samples"] == 200
    assert all(math.isfinite(result[key]) for key in ("mc_mean", "mc_stderr", "mc_correction"))
    assert counts == {"unmeasured_entropy": 1, "_log_n_squeezed": 1, "_quantum_integral": quantum}
    # without --samples there is nothing to report
    assert main([*argv, "--out", str(tmp_path / "none")]) == cli.EXIT_REGIME


def test_light_cone_report_shares_one_counting_function(dimer, count_calls):
    # for 2t <= ell every step of an m = 3 report weighs 2|v_k| tau: one
    # counting function and one quantum integral for the three terms
    counts = count_calls(counting.counting_function, entropy._quantum_integral)
    report = entropy.entropy_symmetric_multi(18.0, 6.0, 40.0, [22.0, 21.0, 23.0], dimer.occupation)
    assert counts == {"counting_function": 1, "_quantum_integral": 1}
    assert [label for label, _ in report.quantum_corrections] == [f"chi[1,{l}]_AAbar" for l in (1, 2, 3)]


def test_curve_integrates_the_t_independent_terms_once_for_its_grid(tmp_path, count_calls, capsys):
    # the window and the variance steps do not depend on t: sigma^2 at the 3
    # steps once, then of the crossover tails at t = 24 only sigma_24^2 is new
    counts = count_calls(saddle.charge_window, fluctuations.variance_symmetric)
    argv = ["curve", "--state", "dimer", "--ell", "40", "--tau", "6", "--t-grid", "18,24", "--q", "21,20,22"]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert counts == {"charge_window": 1, "variance_symmetric": 4}


def test_curve_integrates_each_variance_once_for_its_grid(tmp_path, count_calls, capsys):
    # the crossover tails sigma^2(t - l tau), l = 0..3, of t = 21..42 and the
    # steps at 6, 12, 18 are the 40 distinct times 3, 4, ..., 42
    counts = count_calls(fluctuations.variance_symmetric)
    argv = ["curve", "--state", "dimer", "--ell", "40", "--tau", "6", "--t-grid", "18:42:25", "--q", "21,20,22"]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert counts == {"variance_symmetric": 40}


@pytest.mark.parametrize("tau, t, sweeps", [("6", "26", 1), ("25", "30", 2)])
def test_average_reads_its_variances_and_chi_from_the_protocol_terms(tau, t, sweeps, tmp_path, count_calls,
                                                                     capsys):
    # sigma_tau^2, sigma_t^2 and sigma_{t-tau}^2 once each, shared by the
    # crossover tails and the analytic average; chi^(1) is the reports'
    # (one counting sweep), and the Hessian regime (tau > ell/2) adds chi_out
    counts = count_calls(fluctuations.variance_symmetric, counting._measures)
    argv = ["average", "--state", "dimer", "--ell", "40", "--tau", tau, "--t", t, "--samples", "200", "--seed", "3"]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert counts == {"variance_symmetric": 3, "_measures": sweeps}


def test_curve_solves_each_saddle_once_for_its_grid(tmp_path, count_calls, capsys):
    counts = count_calls(saddle.solve_saddle_symmetric_single)
    argv = ["curve", "--state", "dimer", "--ell", "40", "--tau", "6", "--t-grid", "6:30:25", "--q", "21"]
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    assert counts == {"solve_saddle_symmetric_single": 1}
    assert len(json.loads((tmp_path / "curve.json").read_text())["rows"]) == 25


def test_squeezed_average_integrates_each_variance_once(tmp_path, count_calls, capsys):
    # sigma_tau^2 (m = 2: also sigma_2tau^2, the saturated variance, the
    # window and the second step's Drude weight) serve the outcome law and
    # the saddle of every distinct outcome row; m = 1 has no window
    counts = count_calls(fluctuations.variance_squeezed, fluctuations.variance_saturated, saddle.charge_window,
                         fluctuations.drude_weight)
    expected = {1: {"variance_squeezed": 1},
                2: {"variance_squeezed": 2, "variance_saturated": 1, "charge_window": 1, "drude_weight": 1}}
    for m in (1, 2):
        counts.clear()
        argv = ["average", "--state", "tilted:1.1", "--ell", "40", "--tau", "3", "--t", "14", "--m", str(m),
                "--samples", "200", "--seed", "1"]
        assert main([*argv, "--out", str(tmp_path / str(m))]) == 0, capsys.readouterr().err
        assert counts == expected[m]


def test_geometry_integrates_the_saddle_variance_once_per_job(tmp_path, count_calls, capsys):
    counts = count_calls(fluctuations.variance_saturated)
    argv = ["geometry", "--state", "tilted:1.1", "--ell", "40", "--t-grid", "5,25", "--q", "24",
            "--geometry", "complement", "--L", "80"]
    assert main([*argv, "--out", str(tmp_path), "--format", "json"]) == 0, capsys.readouterr().err
    assert counts == {"variance_saturated": 1}
    assert len(json.loads((tmp_path / "geometry.json").read_text())["rows"]) == 2


def test_curve_makes_one_counting_sweep_per_final_time(tmp_path, count_calls, capsys):
    # every counting function of one (protocol, t) comes from one kernel call
    counts = count_calls(counting._measures)
    argv = ["curve", "--state", "dimer", "--ell", "40", "--tau", "6", "--t-grid", "21,24", "--q", "21,20,22"]
    assert main([*argv, "--out", str(tmp_path)]) == 0, capsys.readouterr().err
    assert counts == {"_measures": 2}
