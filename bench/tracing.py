"""Span tracing of the chargequench layers from outside the package.

`Tracer.install` wraps the public entry points of each layer listed in
`TRACED` and rebinds every ``chargequench.*`` module name that refers to the
original function (the defining module too, so intra-module calls such as
``chi_shared_suffix -> counting_measure`` are seen).  The integrand handed to
``momentum_integral`` / ``integrate`` is wrapped as well, to count panels and
nodes.  Nothing inside the package changes; `Tracer.uninstall` restores every
name.  Hot per-node helpers (``modified_occupation``, ``pair_entropy``) are
deliberately not wrapped: their time is node-evaluation time and stays in the
quadrature span that evaluates the node.

Spans live in memory as parallel lists (name, start, end, parent) and are
written out once, by `Tracer.write`, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

REPORT_FUNCS = (
    "entropy_symmetric_single",
    "entropy_symmetric_multi",
    "entropy_squeezed_single",
    "entropy_squeezed_double",
)
SOLVE_FUNCS = ("solve_saddle_symmetric_single", "solve_saddle_symmetric_multi", "solve_saddle_squeezed")

# layer -> functions given a span.  quadrature.integrate is not rebound inside
# quadrature itself, where momentum_integral calls it: only callers outside.
TRACED = {
    "counting": ("counting_measure", "paper_chi", "chi_shared_suffix", "chi_closed_forms"),
    "quadrature": ("momentum_integral", "integrate"),
    "saddle": SOLVE_FUNCS + ("feasibility", "charge_window", "light_cone_charge_bound"),
    "entropy": REPORT_FUNCS
    + ("unmeasured_entropy", "_quantum_integral", "log_n_correction", "averaged_correction"),
    "fluctuations": ("variance_symmetric", "variance_squeezed", "variance_saturated", "drude_weight", "asymmetry"),
    "probability": (
        "monte_carlo_average",
        "sample_many",
        "chain_distribution",
        "symmetric_single_distribution",
        "squeezed_single_distribution",
        "neel_exact_distribution",
        "outcome_pdf",
    ),
    "extensions": ("fcs_generating_function", "geometry_entropy"),
    "neel_exact": ("neel_entropy_exact", "neel_charged_moment", "stirling_expansion"),
}
NOT_REBOUND_AT_HOME = {("quadrature", "integrate")}

# Work counts that must repeat exactly for a seed.
WORK_COUNTS = ("counting.calls", "quadrature.nodes", "saddle.calls", "probability.distinct_outcomes")

# name -> (unit, better, predicted move): the end-to-end metric each layer
# metric should move, and on which workload, written down before measuring.
PER_LAYER = {
    "counting.calls": ("count", "lower", "job_p50_s, jobs_per_s on multi_curve and squeezed_geometry; 0 on single_scan"),
    "counting.self_s": ("s", "lower", "job_p50_s, jobs_per_s on multi_curve and squeezed_geometry; 0 on single_scan"),
    "counting.calls_per_node": ("calls/node", "lower", "job_p50_s on multi_curve and squeezed_geometry"),
    "quadrature.calls": ("count", "lower", "job_p50_s on all workloads, mostly single_scan"),
    "quadrature.panels": ("count", "lower", "job_p50_s on all workloads, mostly single_scan"),
    "quadrature.nodes": ("count", "lower", "job_p50_s on all workloads, mostly single_scan"),
    "quadrature.self_s": ("s", "lower", "job_p50_s on all workloads, mostly single_scan"),
    "quadrature.repeat_frac": ("ratio", "lower", "job_p50_s on all workloads, mostly single_scan"),
    "saddle.calls": ("count", "lower", "job_p50_s on single_scan"),
    "saddle.self_s": ("s", "lower", "job_p50_s on single_scan; ~0 elsewhere (linear saddles)"),
    "saddle.total_s": ("s", "lower", "job_p50_s on single_scan; ~0 elsewhere (linear saddles)"),
    "saddle.quad_calls_per_solve": ("calls/solve", "lower", "job_p50_s on single_scan"),
    "entropy.reports": ("count", "lower", "job_p50_s on all workloads"),
    "entropy.total_s": ("s", "lower", "job_p50_s on all workloads"),
    "entropy.quantum_s": ("s", "lower", "job_p50_s on all workloads"),
    "entropy.baseline_s": ("s", "lower", "job_p50_s on all workloads"),
    "entropy.logn_s": ("s", "lower", "job_p50_s on all workloads"),
    "fluctuations.calls": ("count", "lower", "job_p50_s on multi_curve"),
    "fluctuations.total_s": ("s", "lower", "job_p50_s on multi_curve"),
    "fluctuations.calls_per_report": ("calls/report", "lower", "job_p50_s on multi_curve"),
    "probability.samples": ("count", "lower", "job_tail_s on single_scan"),
    "probability.distinct_outcomes": ("count", "lower", "job_tail_s on single_scan"),
    "probability.reuse_ratio": ("ratio", "higher", "job_tail_s on single_scan"),
    "probability.rejection_frac": ("ratio", "lower", "job_tail_s on single_scan"),
    "probability.sample_s": ("s", "lower", "job_tail_s on single_scan"),
    "probability.mc_total_s": ("s", "lower", "job_tail_s on single_scan"),
    "extensions.calls": ("count", "lower", "job_p50_s on squeezed_geometry"),
    "extensions.total_s": ("s", "lower", "job_p50_s on squeezed_geometry"),
    "neel_exact.calls": ("count", "lower", "job_p50_s on single_scan"),
    "neel_exact.total_s": ("s", "lower", "job_p50_s on single_scan"),
    "cli.self_s": ("s", "lower", "job_p50_s on all workloads"),
    "cli.bytes_written": ("bytes", "lower", "job_p50_s on all workloads"),
    "setup.import_scipy_s": ("s", "lower", "setup_s on all workloads"),
    "tracing.overhead_s": ("s", "lower", "none: traced minus untraced wall time of the same jobs"),
}


def _first_callable(args, kwargs, wrap):
    """Replace the integrand: the first positional argument, else the first
    callable keyword argument."""
    if args:
        return (wrap(args[0]),) + tuple(args[1:]), kwargs
    for key, value in kwargs.items():
        if callable(value):
            return args, {**kwargs, key: wrap(value)}
    return args, kwargs


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack = [-1]
        self.quad: dict[int, list[int]] = {}  # span -> [panels, nodes, repeats]
        self.samples: dict[int, tuple[int, int, int, int]] = {}  # span -> (n, m, distinct, rejections)
        self.lambda_mismatches: list[str] = []
        self.missing: list[str] = []
        self.bytes_written = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self.stack.pop()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, orig, name, hook=None, integrand=False):
        tracer = self

        def count_nodes(g, stats):
            seen = set()

            def counted(k):
                arr = np.asarray(k)
                stats[0] += 1
                stats[1] += arr.size
                key = arr.tobytes()
                if key in seen:
                    stats[2] += 1
                else:
                    seen.add(key)
                return g(k)

            return counted

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            sid = tracer.open(name)
            if integrand:
                stats = tracer.quad[sid] = [0, 0, 0]
                args, kwargs = _first_callable(args, kwargs, lambda g: count_nodes(g, stats))
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(sid)
            if hook is not None:
                hook(sid, args, kwargs, result)
            return result

        return wrapper

    def _hook(self, func, orig):
        if func == "sample_many":
            def on_samples(sid, args, kwargs, result):
                out, rejections = result
                out = np.asarray(out)
                distinct = len(np.unique(out, axis=0)) if out.size else 0
                self.samples[sid] = (out.shape[0], out.shape[1] if out.ndim > 1 else 1, distinct, int(rejections))

            return on_samples
        if func == "solve_saddle_symmetric_single":
            return self._neel_lambda_hook(orig)
        return None

    def _neel_lambda_hook(self, orig):
        exact = getattr(sys.modules.get("chargequench.neel_exact"), "neel_saddle_lambda", None)
        signature = inspect.signature(orig)
        if exact is None:
            self.missing.append("neel_exact.neel_saddle_lambda (Neel saddle check skipped)")
            return None

        def check(sid, args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            p = bound.arguments
            occ = p.get("occ")
            if getattr(occ, "label", None) != "neel" or p.get("mode", "exact") != "exact":
                return
            dq, tau, ell = float(p["dq"]), float(p["tau"]), float(p["ell"])
            if not 0 < 2 * tau <= ell:
                return  # the closed form holds inside the light cone only
            lam, want = result.lambdas[0], exact(dq, tau)
            if not abs(lam - want) <= 1e-10 * max(1.0, abs(want)):
                self.lambda_mismatches.append(f"dq={dq:g} tau={tau:g}: lambda {lam!r} != {want!r}")

        return check

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("chargequench") and m]
        for layer, funcs in TRACED.items():
            home = sys.modules.get(f"chargequench.{layer}")
            for func in funcs:
                orig = getattr(home, func, None)
                if orig is None:
                    self.missing.append(f"{layer}.{func}")
                    continue
                wrapper = self._wrap(orig, f"{layer}.{func}", self._hook(func, orig),
                                     integrand=layer == "quadrature")
                for module in modules:
                    if module is home and (layer, func) in NOT_REBOUND_AT_HOME:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()

    # -- output --------------------------------------------------------------

    def write(self, path):
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (name, parent, start, end) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(f"{sid},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")

    def metrics(self, import_scipy_s, overhead_s):
        names, parents = self.names, self.parents
        n = len(names)
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        layer = [name.split(".", 1)[0] for name in names]
        # Parents precede children, so one forward pass resolves ancestry.
        outer = [True] * n  # no ancestor in the same layer
        in_solve = [False] * n
        quad_of = [-1] * n  # nearest quadrature ancestor (or self)
        layer_ancestors = [frozenset()] * n
        for sid in range(n):
            p = parents[sid]
            anc = layer_ancestors[p] if p >= 0 else frozenset()
            outer[sid] = layer[sid] not in anc
            layer_ancestors[sid] = anc | {layer[sid]}
            in_solve[sid] = p >= 0 and (in_solve[p] or names[p].split(".", 1)[1] in SOLVE_FUNCS)
            quad_of[sid] = sid if layer[sid] == "quadrature" else (quad_of[p] if p >= 0 else -1)

        def count(*full):
            return sum(1 for name in names if name in full)

        selfs = self.self_by_layer()

        def self_s(lay):
            return selfs.get(lay, 0.0)

        def total_s(lay):
            return sum(dur[i] for i in range(n) if layer[i] == lay and outer[i])

        def func_s(full):
            return sum(dur[i] for i in range(n) if names[i] == full)

        def ratio(a, b):
            return a / b if b else 0.0

        counting_calls = count("counting.counting_measure")
        counting_quads = {quad_of[i] for i in range(n) if layer[i] == "counting" and quad_of[i] >= 0}
        panels = sum(s[0] for s in self.quad.values())
        nodes = sum(s[1] for s in self.quad.values())
        repeats = sum(s[2] for s in self.quad.values())
        solves = count(*(f"saddle.{f}" for f in SOLVE_FUNCS))
        reports = count(*(f"entropy.{f}" for f in REPORT_FUNCS))
        fluct_calls = sum(1 for lay in layer if lay == "fluctuations")
        samples = sum(s[0] for s in self.samples.values())
        draws = sum(s[0] * s[1] for s in self.samples.values())
        distinct = sum(s[2] for s in self.samples.values())
        rejections = sum(s[3] for s in self.samples.values())
        values = {
            "counting.calls": counting_calls,
            "counting.self_s": self_s("counting"),
            "counting.calls_per_node": ratio(counting_calls, sum(self.quad[q][1] for q in counting_quads)),
            "quadrature.calls": sum(1 for lay in layer if lay == "quadrature"),
            "quadrature.panels": panels,
            "quadrature.nodes": nodes,
            "quadrature.self_s": self_s("quadrature"),
            "quadrature.repeat_frac": ratio(repeats, panels),
            "saddle.calls": solves,
            "saddle.self_s": self_s("saddle"),
            "saddle.total_s": total_s("saddle"),
            "saddle.quad_calls_per_solve": ratio(
                sum(1 for i in range(n) if layer[i] == "quadrature" and in_solve[i]), solves
            ),
            "entropy.reports": reports,
            "entropy.total_s": total_s("entropy"),
            "entropy.quantum_s": func_s("entropy._quantum_integral"),
            "entropy.baseline_s": func_s("entropy.unmeasured_entropy"),
            "entropy.logn_s": func_s("entropy.log_n_correction"),
            "fluctuations.calls": fluct_calls,
            "fluctuations.total_s": total_s("fluctuations"),
            "fluctuations.calls_per_report": ratio(fluct_calls, reports),
            "probability.samples": samples,
            "probability.distinct_outcomes": distinct,
            "probability.reuse_ratio": ratio(samples - distinct, samples),
            "probability.rejection_frac": ratio(rejections, draws + rejections),
            "probability.sample_s": func_s("probability.sample_many"),
            "probability.mc_total_s": func_s("probability.monte_carlo_average"),
            "extensions.calls": sum(1 for lay in layer if lay == "extensions"),
            "extensions.total_s": total_s("extensions"),
            "neel_exact.calls": sum(1 for lay in layer if lay == "neel_exact"),
            "neel_exact.total_s": total_s("neel_exact"),
            "cli.self_s": self_s("cli"),
            "cli.bytes_written": self.bytes_written,
            "setup.import_scipy_s": import_scipy_s,
            "tracing.overhead_s": overhead_s,
        }
        assert set(values) == set(PER_LAYER)
        return values

    def self_by_layer(self):
        """Self time per layer: span durations minus the durations of their children."""
        out: dict[str, float] = {}
        for name, parent, start, end in zip(self.names, self.parents, self.starts, self.ends):
            lay = name.split(".", 1)[0]
            out[lay] = out.get(lay, 0.0) + (end - start)
            if parent >= 0:
                play = self.names[parent].split(".", 1)[0]
                out[play] -= end - start
        return out


def import_scipy_seconds(importtime_stderr: str) -> float:
    """Cumulative import time of scipy from ``python -X importtime`` output:
    the sum over the outermost ``scipy*`` entries."""
    total = 0.0
    depth_min = None
    entries = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line.split("|")
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # header line
        raw = parts[2]
        name = raw.strip()
        depth = len(raw) - len(raw.lstrip())
        if name == "scipy" or name.startswith("scipy."):
            entries.append((depth, cumulative))
            depth_min = depth if depth_min is None else min(depth_min, depth)
    for depth, cumulative in entries:
        if depth == depth_min:
            total += cumulative
    return total / 1e6
