"""Charge-fluctuation functionals: variances, Drude self weight, number
entropy and the short-time entanglement asymmetry.  A protocol's variances
are read through `saddle.PeriodTerms.variance`, once per distinct time.
Every integral here is ``(1/2pi) int dk w(k) n(1 - n)``: `CountingFunction.integral`
of `_nn`, the weight w built on the breakpoints of `light_cone_weight`."""

from __future__ import annotations

import math

import numpy as np

from .counting import CountingFunction, light_cone_weight
from .states import OccupationFunction, Pairing

#: Returned by `asymmetry` when the state carries no charge fluctuations.
ASYMMETRY_REGIME_EXCEEDED = -math.inf


def _nn(n):
    """n(1 - n): the number fluctuation of one mode of occupation n."""
    return n * (1.0 - n)


def variance_symmetric(tau, ell, occ: OccupationFunction):
    """Subsystem charge variance of a charge-eigenstate quench at time tau.

    sigma_tau^2 = (1/2pi) int dk min(2|v_k| tau, ell) n(k)[1 - n(k)].
    Grows as ``2 D tau`` inside the light cone and saturates for
    tau >= ell/2.
    """
    return light_cone_weight(tau, ell).integral(_nn, occ)


def variance_squeezed(tau, ell, occ: OccupationFunction):
    """Subsystem charge variance of a squeezed-pair quench at time tau.

    sigma_tau^2 = (1/2pi) int dk [2 ell - min(2|v_k| tau, ell)] n(1-n):
    extensive at tau = 0 and non-increasing, saturating to half its initial
    value once every pair is broken across the boundary.
    """
    weight = light_cone_weight(tau, ell)
    return CountingFunction(weight.v, 2 * ell - weight.values).integral(_nn, occ)


def variance_saturated(ell, occ: OccupationFunction):
    """Long-time variance ``ell * (1/2pi) int dk n(1-n)`` (either pairing)."""
    return CountingFunction(np.array([0.0, 1.0]), np.array([ell, ell], dtype=float)).integral(_nn, occ)


def drude_weight(occ: OccupationFunction):
    """Drude self weight D = (1/2pi) int dk |v_k| n(1-n)."""
    return CountingFunction(np.array([0.0, 1.0]), np.array([0.0, 1.0])).integral(_nn, occ)


def number_entropy(variance: float) -> float:
    """Shannon entropy of a Gaussian charge distribution, (1/2) log(2 pi e s^2)."""
    if variance <= 0:
        raise ValueError("number entropy needs a positive variance")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def asymmetry(tau, ell, occ: OccupationFunction):
    """Short-time entanglement asymmetry of a squeezed-pair state.

    Delta S_A(tau) = (1/2) log(2 pi e X_tau) with
    X_tau = 2 (1/2pi) int dk [ell - min(2|v_k| tau, ell)] n(1-n).
    Returns `ASYMMETRY_REGIME_EXCEEDED` when X_tau vanishes (no
    fluctuations left to symmetrise over).
    """
    if occ.pairing is not Pairing.SQUEEZED_PAIR:
        raise ValueError("entanglement asymmetry is defined for squeezed-pair states")
    weight = light_cone_weight(tau, ell)
    chi_tau = CountingFunction(weight.v, 2.0 * (ell - weight.values)).integral(_nn, occ)
    if chi_tau <= 1e-300:
        return ASYMMETRY_REGIME_EXCEEDED
    return 0.5 * math.log(2.0 * math.pi * math.e * chi_tau)
