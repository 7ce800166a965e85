"""Scalar counting-function references, kept as independent oracles for the
counting engine (`chargequench.counting`): the per-momentum pair weight
`paper_chi`, the single-measurement closed forms and the light-cone forms of
several measurements.

Conventions.  `paper_chi` counts member-pinned measures for shared classes
and half the raw measure for full-pair classes, so that each physical pair
is weighted once under ``(1/2pi) int_{-pi}^{pi} dk``; `chi_closed_forms`
uses the same convention.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from chargequench.counting import (
    RIGHT_MOVER,
    ConfigurationClass,
    MeasurementProtocol,
    counting_measure,
    shared_suffix_classes,
)
from chargequench.errors import RegimeError

_LIGHT_CONE = "light-cone"
_AT_MEASUREMENT = "at-measurement"
_WASHED = "washed"
_EXTENDED = "classifier-extended"


def single_measurement_chis(v: float, tau: float, t: float, ell: float) -> dict:
    """Exact per-momentum counting functions for one measurement at tau <= t.

    Derived from the ballistic geometry; they reduce to the usual
    ``min(2|v|t, ell)``-type expressions inside the light cone and stay exact
    through the crossover windows.
    """
    v = abs(v)
    shared_tau = min(2 * v * tau, ell)
    chi1_shared = max(0.0, min(2 * v * tau, ell - v * (t - tau)))
    chi1_out = shared_tau - chi1_shared
    chi0_shared = min(v * (t - tau), ell)
    chi2_shared = max(0.0, min(v * (t - tau), ell - v * (t + tau)))
    chi2_in = 0.5 * max(0.0, ell - 2 * v * t)
    chi2_out = 0.5 * (ell - shared_tau) - chi2_in - chi2_shared
    return {
        "chi[1]_AAbar": chi1_shared,
        "chi[1]_AbarAbar": chi1_out,
        "chi[0]_AAbar": chi0_shared,
        "chi[2]_AAbar": chi2_shared,
        "chi[2]_AA": chi2_in,
        "chi[2]_AbarAbar": max(0.0, chi2_out),
    }


def paper_chi(cls: ConfigurationClass, k, protocol, **kwargs) -> float:
    """Per-momentum counting-function value (pair counted once per k)."""
    if cls.requires_member:
        pinned = cls if cls.member is not None else ConfigurationClass(
            cls.counts, cls.final, RIGHT_MOVER
        )
        return counting_measure(pinned, k, protocol, **kwargs)
    return 0.5 * counting_measure(cls, k, protocol, **kwargs)


def chi_shared_suffix(l: int, k, protocol: MeasurementProtocol) -> float:
    """Counting function of the `shared_suffix_classes` at momentum k."""
    return sum(counting_measure(cls, k, protocol) for cls in shared_suffix_classes(l, protocol.m))


@dataclass(frozen=True)
class CountingResult:
    """Per-momentum counting-function values for one schedule."""

    protocol: MeasurementProtocol
    k: float
    lengths: dict = field(compare=False)
    regime: str = _EXTENDED

    def to_json(self) -> str:
        payload = {
            "schedule": {
                "ell": self.protocol.ell,
                "tau": self.protocol.tau,
                "m": self.protocol.m,
                "t": self.protocol.t,
            },
            "k": self.k,
            "regime": self.regime,
            "lengths": dict(self.lengths),
        }
        return json.dumps(payload, sort_keys=True)


def chi_closed_forms(protocol: MeasurementProtocol, k) -> CountingResult:
    """Closed-form counting functions where they are known.

    Single measurement: exact for every (k, tau, t, ell); the ``regime`` tag
    records whether the values coincide with the simple light-cone /
    washed-out expressions or use the classifier-consistent extension.
    Multiple measurements: only the small-time regime ``2|v_k| t <= ell`` has
    closed forms (every chi^(1,l) equals ``2|v_k| tau``); outside it a
    RegimeError points callers at `counting_measure`.
    """
    v = abs(math.sin(float(k)))
    tau, t, ell, m = protocol.tau, protocol.t, protocol.ell, protocol.m
    if m == 0:
        return CountingResult(protocol, float(k), {"chi_AAbar": min(2 * v * t, ell)}, _LIGHT_CONE)
    if m == 1:
        if 2 * v * t <= ell:
            regime = _LIGHT_CONE
        elif t == tau:
            regime = _AT_MEASUREMENT
        elif v * (t - tau) >= ell:
            regime = _WASHED
        else:
            regime = _EXTENDED
        return CountingResult(protocol, float(k), single_measurement_chis(v, tau, t, ell), regime)
    if 2 * v * t > ell:
        raise RegimeError(
            "multi-measurement closed forms require 2|v_k| t <= ell; "
            "use counting_measure for general schedules"
        )
    lengths = {f"chi[1,{l}]_AAbar": 2 * v * tau for l in range(1, m + 1)}
    lengths.update(
        {f"chi[2@{l}]_pairs": 0.5 * (ell - min(2 * v * l * tau, ell)) for l in range(1, m + 1)}
    )
    return CountingResult(protocol, float(k), lengths, _LIGHT_CONE)
