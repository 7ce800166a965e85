"""Correctness gate applied to every benchmark job.

A job passes when the CLI exits with 0 and its artifact is right:

* jobs whose argv is in ``refs/<workload>.json`` must reproduce the recorded
  values: every number within ``RTOL * max(1, |ref|)`` of the reference,
  NaN where the reference is NaN (the tables were recorded at the commit that
  introduced the benchmark, with ``record_refs.py``);
* other jobs must give finite numbers everywhere except the ``classical``
  column, where NaN means "no log-prefactor convention in this regime".

The traced run adds a third check (see ``tracing.Tracer``): every exact Neel
saddle multiplier must equal ``neel_saddle_lambda``.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 1e-8
NAN_ALLOWED = {"classical"}
REFS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")


def load_refs(workload):
    path = os.path.join(REFS_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)


def read_artifact(paths):
    """The JSON artifact of a job: ``{"columns", "rows"}`` or the average dict."""
    for path in paths:
        if path.endswith(".json"):
            with open(path) as fh:
                data = json.load(fh)
            if "rows" in data:
                return {"columns": data["columns"], "rows": data["rows"]}
            return data
    return None


def _numbers(value, column=None):
    """(column, number) leaves of an artifact; strings are provenance tags."""
    if isinstance(value, (bool, str)) or value is None:
        return
    if isinstance(value, (int, float)):
        yield column, float(value)
    elif isinstance(value, dict):
        for key, item in sorted(value.items()):
            yield from _numbers(item, key)
    elif isinstance(value, list):
        for item in value:
            yield from _numbers(item, column)


def _rows_with_columns(artifact):
    if "rows" not in artifact:
        return artifact
    columns = artifact["columns"]
    return [dict(zip(columns, row)) for row in artifact["rows"]]


def _close(got, want):
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * max(1.0, abs(want))


def check(artifact, ref):
    """None when the artifact passes, else a short reason."""
    if artifact is None:
        return "no-artifact"
    got = list(_numbers(_rows_with_columns(artifact)))
    if ref is not None:
        want = list(_numbers(_rows_with_columns(ref)))
        if len(got) != len(want):
            return "mismatch"
        if not all(_close(g, w) for (_, g), (_, w) in zip(got, want)):
            return "mismatch"
        return None
    if not got or not all(math.isfinite(v) or col in NAN_ALLOWED for col, v in got):
        return "non-finite"
    return None
