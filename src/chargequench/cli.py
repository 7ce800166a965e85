"""Command-line front end: curves, sweeps, sampling, comparisons, file I/O.

Artifacts are CSV files with a metadata comment header plus a JSON mirror of
the same rows.  Identical job specifications and seeds produce byte-identical
artifacts apart from the ``generated`` timestamp line.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .counting import MeasurementProtocol
from .entropy import ProtocolTerms, averaged_correction, entropy_symmetric_single
from .errors import (
    FeasibilityError,
    ForbiddenOutcomeError,
    QuadratureError,
    RegimeError,
)
from .extensions import GeometrySpec, fcs_generating_function, geometry_entropy
from .neel_exact import neel_corrections, stirling_expansion
from .probability import (
    chain_distribution,
    monte_carlo_average,
    neel_exact_distribution,
    sample_many,
)
from .saddle import PeriodTerms, _window_flags, solve_saddle_symmetric_single
from .states import Pairing, get_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_REGIME = 4
EXIT_QUADRATURE = 5
EXIT_OTHER = 1

_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Job specification
# ---------------------------------------------------------------------------


class _Params(dict):
    """Job parameters: reading one that is absent is a usage error naming its flag."""

    def __missing__(self, key):
        _build_parser().error(f"the following arguments are required: --{key.replace('_', '-')}")


@dataclasses.dataclass
class JobSpec:
    subcommand: str
    params: dict
    seed: int | None = None
    out_dir: str = "."
    fmt: str = "both"

    def config_hash(self) -> str:
        """Hash of the inputs that change the result: not where or how it is written."""
        inputs = {"subcommand": self.subcommand, "params": self.params, "seed": self.seed}
        canon = json.dumps(inputs, sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def parse_grid(text: str):
    """`start:stop:count` -> inclusive linspace; `start:stop` -> integer steps;
    plain numbers and comma lists pass through."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) == 3:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
            return list(np.linspace(start, stop, count))
        if len(parts) == 2:
            start, stop = int(float(parts[0])), int(float(parts[1]))
            return [float(v) for v in range(start, stop + 1)]
        raise ValueError(f"bad grid {text!r}")
    return [float(v) for v in text.split(",")]


# ---------------------------------------------------------------------------
# Artifact output
# ---------------------------------------------------------------------------


def _write_artifact(job: JobSpec, name: str, header, rows, extra_meta=None):
    os.makedirs(job.out_dir, exist_ok=True)
    meta = {
        "tool": f"chargequench {__version__}",
        "config_hash": job.config_hash(),
        "seed": job.seed,
    }
    meta.update(extra_meta or {})
    paths = []
    if job.fmt in ("csv", "both"):
        path = os.path.join(job.out_dir, f"{name}.csv")
        with open(path, "w") as fh:
            for key, value in meta.items():
                fh.write(f"# {key}={value}\n")
            fh.write(f"# generated={datetime.now(timezone.utc).isoformat()}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row) + "\n")
        paths.append(path)
    if job.fmt in ("json", "both"):
        path = os.path.join(job.out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump({"meta": meta, "columns": header, "rows": [list(r) for r in rows]}, fh)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _reports(state, t_grid, tau, ell, q_rows):
    """``(t, reports)`` for each final time t of the grid: the reports of the
    rows of outcomes, in one batch per t.  The terms that do not depend on t
    are integrated once for the grid."""
    m = len(q_rows[0])
    period = PeriodTerms(tau, m, ell, state.occupation)
    for t in t_grid:
        protocol = MeasurementProtocol(ell=ell, tau=tau, m=m, t=t)
        yield t, ProtocolTerms(protocol, state.occupation, period).reports(q_rows)


def _t_grid(p):
    """The final times: those of --t-grid, else the one --t."""
    return parse_grid(p["t_grid"]) if "t_grid" in p else [p["t"]]


def _exact_distribution(p, tau, ell, m):
    """The exact Neel outcome law under --exact-distribution (Neel only), else None."""
    if p.get("exact_distribution") and p["state"] != "neel":
        _build_parser().error(f"--exact-distribution needs --state neel, not --state {p['state']}")
    return neel_exact_distribution(tau, ell, m) if p.get("exact_distribution") else None


def _report_columns(report):
    """(baseline, quantum, classical or NaN, total, classical tag)."""
    tag, classical = report.classical_correction
    quantum = sum(v for _, v in report.quantum_corrections)
    return (report.baseline, quantum, classical if classical is not None else math.nan, report.total, tag)


def _cmd_curve(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, tau = p["ell"], p["tau"]
    q_seq = [float(v) for v in str(p["q"]).split(",")]
    t_grid = _t_grid(p)

    rows = [(t, tau, *q_seq, *_report_columns(report))
            for t, reports in _reports(state, t_grid, tau, ell, [q_seq]) for report in reports]
    header = ["t", "tau"] + [f"q{i + 1}" for i in range(len(q_seq))] + [
        "baseline", "quantum", "classical", "total", "flags",
    ]
    return _write_artifact(job, "curve", header, rows, {"state": p["state"]})


def _cmd_sweep(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, tau = p["ell"], p["tau"]
    t_grid = _t_grid(p)
    q_grid = parse_grid(str(p["q_grid"]))
    rows = [(t, tau, q, *_report_columns(report))
            for t, reports in _reports(state, t_grid, tau, ell, [(q,) for q in q_grid])
            for q, report in zip(q_grid, reports)]
    header = ["t", "tau", "q", "baseline", "quantum", "classical", "total", "flags"]
    return _write_artifact(job, "sweep", header, rows, {"state": p["state"]})


def _cmd_saddle(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, tau = p["ell"], p["tau"]
    dq_grid = parse_grid(str(p["dq"]))
    occ = state.occupation
    rows = []
    period = PeriodTerms(tau, 1, ell, occ)  # one window and one variance for every dq
    if occ.pairing is Pairing.SQUEEZED_PAIR:
        for dq in dq_grid:
            # dq from the mean charge; the saddle is linear, exact = linearized
            sol = period.saddle((ell * occ.mean_density + dq,))
            rows.append((dq, sol.lambdas[0], sol.lambdas[0], 1, sol.regime))
    else:
        if tau <= 0:
            raise ValueError("saddle needs tau > 0")
        for dq, feasible in zip(dq_grid, _window_flags(dq_grid, period.charge_window, occ.pairing)):
            if feasible:
                exact = solve_saddle_symmetric_single(dq, tau, ell, occ, window=period.charge_window)
                rows.append((dq, exact.lambdas[0], dq / period.variance(tau), 1, exact.regime))
            else:
                rows.append((dq, math.nan, math.nan, 0, "infeasible"))
    header = ["dq", "lambda_exact", "lambda_linearized", "feasible", "regime"]
    return _write_artifact(job, "saddle", header, rows, {"state": p["state"]})


def _cmd_average(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, tau, t, m = p["ell"], p["tau"], p["t"], p.get("m", 1)
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=m, t=t)
    # the baseline, variance steps and classical term, integrated once for the job
    terms = ProtocolTerms(protocol, state.occupation)
    try:
        analytic, breakdown = averaged_correction(protocol, state.occupation, terms=terms)
        result = {"analytic_correction": analytic, "breakdown": breakdown}
    except RegimeError:
        if not p.get("samples"):
            raise
        result = {"analytic_correction": None}  # no analytic average (squeezed states): Monte Carlo only
    if p.get("samples"):
        mean, stderr = monte_carlo_average(
            protocol, state.occupation, int(p["samples"]), job.seed or 0,
            distribution=_exact_distribution(p, tau, ell, m), terms=terms,
        )
        result.update(
            {"mc_mean": mean, "mc_stderr": stderr, "mc_correction": mean - terms.baseline,
             "n_samples": int(p["samples"])}
        )
    os.makedirs(job.out_dir, exist_ok=True)
    path = os.path.join(job.out_dir, "average.json")
    with open(path, "w") as fh:
        json.dump(result, fh)
    return [path]


def _cmd_sample(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, tau, m = p["ell"], p["tau"], p.get("m", 1)
    dist = _exact_distribution(p, tau, ell, m) or chain_distribution(tau, m, ell, state.occupation)
    seqs, rejections = sample_many(job.seed or 0, dist, int(p["samples"]))
    header = [f"q{i + 1}" for i in range(m)]
    rows = [tuple(int(v) for v in row) for row in seqs]
    return _write_artifact(job, "sample", header, rows, {"rejections": rejections})


def _cmd_neel(job: JobSpec):
    p = job.params
    tau = p["tau"]
    ell = p.get("ell", 100.0 * tau)
    t = p.get("t", p["tau"] * p.get("m", 1))
    state = get_state("neel")
    dqs = parse_grid(str(p["dq"]))
    exacts = [sum(neel_corrections(t, tau, [dq], ell)[0]) for dq in dqs]
    saddle_reports = entropy_symmetric_single(t, tau, ell, ell / 2 + np.array(dqs), state.occupation)
    rows = [(dq, exact, report.total - report.baseline, sum(stirling_expansion(dq, tau)))
            for dq, exact, report in zip(dqs, exacts, saddle_reports)]
    header = ["dq", "exact", "saddle", "stirling"]
    return _write_artifact(job, "neel", header, rows, {"tau": tau, "t": t, "ell": ell})


def _cmd_fcs(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, tau = p["ell"], p["tau"]
    # default: 41 points strictly inside the principal window [-pi, pi]
    betas = parse_grid(str(p.get("beta_grid", "-3.14:3.14:41")))
    values = fcs_generating_function(np.array(betas), tau, ell, state.occupation)
    rows = [(beta, float(value.real), float(value.imag)) for beta, value in zip(betas, values)]
    return _write_artifact(job, "fcs", ["beta", "re", "im"], rows, {"state": p["state"]})


def _cmd_geometry(job: JobSpec):
    p = job.params
    state = get_state(p["state"])
    ell, q = p["ell"], p["q"]
    geom = GeometrySpec(
        measured_region=p["geometry"],
        distance=p.get("d", 0.0),
        ell_b=p.get("ell_b", 0.0),
        total_length=p.get("L", 0.0),
    )
    t_grid = _t_grid(p)
    reports = geometry_entropy(geom, np.array(t_grid), ell, q, state.occupation)
    rows = [(t, q, report.baseline, sum(v for _, v in report.quantum_corrections), report.total)
            for t, report in zip(t_grid, reports)]
    header = ["t", "q", "baseline", "quantum", "total"]
    return _write_artifact(job, "geometry", header, rows, {"geometry": p["geometry"]})


def _cmd_oracle(job: JobSpec):
    from .ed_oracle import run_protocol

    p = job.params
    forced = [int(v) for v in str(p["outcomes"]).split(",")] if p.get("outcomes") else None
    record, series = run_protocol(
        p["state"], int(p["L"]), int(p["ell"]), p["tau"], int(p.get("m", 1)), p["t"],
        seed=job.seed, forced_outcomes=forced,
    )
    return _write_artifact(job, "oracle_series", ["t", "S_A", "S_num", "S_conf", "DeltaS_A"], series,
                           {"events": json.dumps(record.events)})


_COMMANDS = {
    "curve": _cmd_curve,
    "sweep": _cmd_sweep,
    "saddle": _cmd_saddle,
    "average": _cmd_average,
    "sample": _cmd_sample,
    "neel": _cmd_neel,
    "fcs": _cmd_fcs,
    "geometry": _cmd_geometry,
    "oracle": _cmd_oracle,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _config_file_flags(path):
    """`key = value` lines of a config file as `--key=value` flags (a bare
    `key` line as `--key`); `#` starts a comment, `_` in a key reads as `-`."""
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            flags.append(f"{flag}={value.strip()}" if eq else flag)
    return flags


@functools.cache
def _build_parser():
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(prog="chargequench")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--ell", type=float)
        sp.add_argument("--tau", type=float)
        sp.add_argument("--t", type=float)
        sp.add_argument("--t-grid", dest="t_grid")
        sp.add_argument("--m", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out")
        sp.add_argument("--format", choices=("csv", "json", "both"), default="both")
        sp.add_argument("--config")

    for name in _COMMANDS:
        sp = sub.add_parser(name)
        common(sp)
        if name != "neel":  # the neel subcommand computes the Neel state only
            sp.add_argument("--state", default="neel")
        if name in ("curve",):
            sp.add_argument("--q", required=True)
        if name in ("sweep",):
            sp.add_argument("--q-grid", dest="q_grid", required=True)
        if name in ("saddle", "neel"):
            sp.add_argument("--dq", required=True)
        if name in ("average", "sample"):
            sp.add_argument("--samples", type=int)
            sp.add_argument("--exact-distribution", action="store_true",
                            dest="exact_distribution")
        if name == "fcs":
            sp.add_argument("--beta-grid", dest="beta_grid")
        if name == "geometry":
            sp.add_argument("--q", type=float, required=True)
            sp.add_argument("--geometry", required=True)
            sp.add_argument("--d", type=float, default=0.0)
            sp.add_argument("--ell-b", dest="ell_b", type=float, default=0.0)
            sp.add_argument("--L", type=float, default=0.0)
        if name == "oracle":
            sp.add_argument("--L", type=int, required=True)
            sp.add_argument("--outcomes")
    return parser


def build_job(argv) -> JobSpec:
    """Parse a command line.  A `--config` file's flags are parsed by the same
    parser, placed before the command-line flags so that those win.  Without
    `--out`, artifacts go to ``$CHARGEQUENCH_OUTDIR`` (read here, per call),
    else to the working directory."""
    parser = _build_parser()
    args = vars(parser.parse_args(argv))
    if args["config"]:
        at = argv.index(args["subcommand"]) + 1
        args = vars(parser.parse_args([*argv[:at], *_config_file_flags(args["config"]), *argv[at:]]))
    subcommand = args.pop("subcommand")
    seed = args.pop("seed")
    out = args.pop("out")
    out_dir = os.environ.get("CHARGEQUENCH_OUTDIR", ".") if out is None else out
    fmt = args.pop("format")
    args.pop("config")
    params = _Params((k, v) for k, v in args.items() if v is not None and v is not False)
    return JobSpec(
        subcommand=subcommand, params=params, seed=seed,
        out_dir=out_dir, fmt=fmt,
    )


def run(job: JobSpec):
    """Execute a job; returns the artifact paths."""
    return _COMMANDS[job.subcommand](job)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        job = build_job(argv)
        paths = run(job)
        for path in paths:
            print(path)
        return EXIT_OK
    except (FeasibilityError, ForbiddenOutcomeError) as exc:
        _emit_error(exc)
        return EXIT_INFEASIBLE
    except RegimeError as exc:
        _emit_error(exc)
        return EXIT_REGIME
    except QuadratureError as exc:
        _emit_error(exc)
        return EXIT_QUADRATURE
    except SystemExit as exc:  # argparse
        return int(exc.code or 0)
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        _emit_error(exc)
        return EXIT_OTHER


def _emit_error(exc):
    sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
