"""Saddle-point solvers for the measurement-outcome Lagrange multipliers.

Each projective charge measurement contributes one multiplier lambda; the
entropy corrections are pair entropies of occupation functions tilted by the
(suffix-summed) multipliers.  For charge-eigenstate ("symmetric") initial
states a solution exists only when each outcome lies inside the ballistic
light cone of the previous one; for squeezed states the first measurement is
unrestricted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .counting import light_cone_weight
from .errors import FeasibilityError, RegimeError
from .fluctuations import variance_saturated, variance_squeezed, variance_steps
from .quadrature import DEFAULT_CONFIG, momentum_integral
from .states import OccupationFunction, Pairing

_LAMBDA_BRACKET = 50.0


@dataclass(frozen=True)
class SaddleSolution:
    """Multipliers (one per measurement) and provenance tags.  Every solver
    returns a feasible solution or raises."""

    lambdas: tuple[float, ...]
    mode: str
    regime: str
    # Lambda_l = sum_{s=l}^{m} lambda_s, the tilt applied from step l on,
    # where the solver solves for these sums directly (the symmetric chain):
    # a zero charge step then keeps a tilt of exactly 0.0, which re-adding
    # the differences would not (rounding residue)
    suffix: tuple[float, ...] | None = None

    def to_json(self) -> str:
        return json.dumps({"lambdas": list(self.lambdas), "mode": self.mode, "regime": self.regime})


# ---------------------------------------------------------------------------
# Feasibility (time delay)
# ---------------------------------------------------------------------------


def charge_window(tau: float, ell: float, config=DEFAULT_CONFIG) -> float:
    """Half-width of the feasible outcomes one period can reach: a charge
    step dq is feasible iff |dq| < (1/2) (1/2pi) int dk min(2|v_k| tau, ell).

    Equals 2 tau / pi for 2 tau <= ell, and falls below it beyond, where the
    weight saturates at ell.  This is the only window: `feasibility`, the
    solvers and the Gaussian samplers all test the open bound against it.
    """
    weight = light_cone_weight(tau, ell)
    value, _ = momentum_integral(lambda k: 0.5 * weight(k), kinks=weight.kinks, config=config)
    return value


def feasibility(dq_seq, tau: float, ell: float, pairing: Pairing, config=DEFAULT_CONFIG):
    """Per-step flags for a sequence of charge differences.

    Symmetric states: every |dq_i| must lie inside the `charge_window` of one
    period.  Squeezed states: the first step always succeeds; the rest obey
    the same bound (the first projection pins the subsystem charge).
    """
    if tau <= 0:
        raise ValueError("feasibility needs tau > 0")
    window = charge_window(tau, ell, config=config)
    return tuple(
        (pairing is Pairing.SQUEEZED_PAIR and i == 0) or abs(dq) < window
        for i, dq in enumerate(dq_seq)
    )


# ---------------------------------------------------------------------------
# Tilted occupations
# ---------------------------------------------------------------------------


def modified_occupation(n, lam: float, weight: int = 1):
    """Occupation tilted by a multiplier: ``n e^{w lam} / (n e^{w lam} + 1 - n)``.

    weight = 2 applies to pairs both of whose members were measured
    (squeezed states only).  Positive lam enriches the occupation.
    """
    n = np.asarray(n, dtype=float)
    x = weight * lam
    if x >= 0:
        return n / (n + (1.0 - n) * np.exp(-x))
    return n * np.exp(x) / (n * np.exp(x) + (1.0 - n))


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_saddle_symmetric_single(
    dq, tau, ell, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> SaddleSolution:
    """Single-measurement multiplier for a symmetric state.

    Solves the monotone scalar equation
    ``dq = (1/2pi) int dk min(2|v_k| tau, ell) (n_lam(k) - 1/2)`` by bracketed
    bisection plus two Newton polish steps.  Its linearisation is
    ``dq / sigma_tau^2``.
    """
    if occ.pairing is not Pairing.SYMMETRIC_PARTICLE_HOLE:
        raise ValueError("use solve_saddle_squeezed for squeezed-pair states")
    window = charge_window(tau, ell, config=config)
    if abs(dq) >= window:
        raise FeasibilityError(
            f"outcome deviation |dq| = {abs(dq):g} exceeds the time-delay window {window:g}",
            step=1,
        )
    regime = "symmetric-single"
    if window > 0 and abs(dq) > 0.99 * window:
        regime += ";saddle-unreliable"  # approximation degrades near the light cone
    if dq == 0.0:
        return SaddleSolution((0.0,), "exact", regime)

    weight = light_cone_weight(tau, ell)

    def residual(lam):
        def integrand(k):
            return weight(k) * (modified_occupation(occ.evaluate(k), lam) - 0.5)

        value, _ = momentum_integral(integrand, kinks=weight.kinks, config=config)
        return value - dq

    def slope(lam):
        # n_lam (1 - n_lam) = n (1-n) e^{-|lam|} / (a + b e^{-|lam|})^2 with
        # (a, b) = (n, 1-n) for lam >= 0 (swapped below): no 1 - n_lam cancels
        decay = math.exp(-abs(lam))

        def integrand(k):
            n = np.asarray(occ.evaluate(k), dtype=float)
            a, b = (n, 1.0 - n) if lam >= 0 else (1.0 - n, n)
            return weight(k) * n * (1.0 - n) * decay / (a + b * decay) ** 2

        value, _ = momentum_integral(integrand, kinks=weight.kinks, config=config)
        return value

    lo, hi = -_LAMBDA_BRACKET, _LAMBDA_BRACKET
    flo, fhi = residual(lo), residual(hi)
    if flo > 0 or fhi < 0:
        raise RegimeError(
            "saddle point not bracketed within |lambda| <= 50; the outcome sits "
            "too close to the light-cone boundary for a reliable saddle"
        )
    for _ in range(64):  # bisection to interval width 1e-12
        mid = 0.5 * (lo + hi)
        if residual(mid) <= 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12:
            break
    lam = 0.5 * (lo + hi)
    for _ in range(2):  # Newton polish to machine accuracy
        d = slope(lam)
        if d <= 0:
            break
        lam -= residual(lam) / d
    return SaddleSolution((lam,), "exact", regime)


def solve_saddle_symmetric_multi(
    dq_seq, tau, ell, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> SaddleSolution:
    """Multiplier chain for m periodic measurements on a symmetric state.

    The suffix sums satisfy ``sum_{s=l}^m lambda_s = dq_l / (sigma_{l tau}^2 -
    sigma_{(l-1) tau}^2)``; inside the light cone every denominator is
    ``2 D tau``.
    """
    if occ.pairing is not Pairing.SYMMETRIC_PARTICLE_HOLE:
        raise ValueError("use solve_saddle_squeezed for squeezed-pair states")
    m = len(dq_seq)
    window = charge_window(tau, ell, config=config)
    for i, dq in enumerate(dq_seq):
        if abs(dq) >= window:
            raise FeasibilityError(
                f"measurement {i + 1}: |dq| = {abs(dq):g} exceeds the window {window:g}",
                step=i + 1,
            )
    steps = variance_steps(tau, m, ell, occ, config=config)
    suffix = [dq / step for dq, step in zip(dq_seq, steps)]
    lambdas = [suffix[l] - (suffix[l + 1] if l + 1 < m else 0.0) for l in range(m)]
    return SaddleSolution(tuple(lambdas), "linearized", "symmetric-multi", tuple(suffix))


def solve_saddle_squeezed(
    q_seq, tau, ell, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> SaddleSolution:
    """Multipliers for one or two measurements on a squeezed-pair state.

    m = 1 is always feasible: lambda = (q - qbar)/sigma_tau^2 with the
    squeezed variance.  m = 2 solves

        q1 - qbar = lambda_1 sigma_tau^2 + lambda_2 sigma_{2tau}^2,
        q2 - q1   = lambda_1 (2 sigma_tau^2 - sigma_inf^2),

    where sigma_inf^2 = ell (1/2pi) int dk n(1-n) is the saturated variance.
    Larger m is not supported (no closed multiplier system is known).
    """
    if occ.pairing is not Pairing.SQUEEZED_PAIR:
        raise ValueError("use the symmetric solvers for particle-hole states")
    m = len(q_seq)
    if m not in (1, 2):
        raise RegimeError("squeezed saddles are implemented for m in {1, 2} only")
    qbar = ell * occ.mean_density
    sigma_tau2 = variance_squeezed(tau, ell, occ, config=config)
    if m == 1:
        if sigma_tau2 <= 1e-14:
            raise RegimeError("squeezed variance vanished; no fluctuations to measure")
        return SaddleSolution(((q_seq[0] - qbar) / sigma_tau2,), "linearized", "squeezed-single")
    dq2 = q_seq[1] - q_seq[0]
    window = charge_window(tau, ell, config=config)
    if abs(dq2) >= window:
        raise FeasibilityError(
            f"second outcome jump |dq| = {abs(dq2):g} exceeds the window {window:g}", step=2
        )
    sigma_2tau2 = variance_squeezed(2 * tau, ell, occ, config=config)
    sigma_inf2 = variance_saturated(ell, occ, config=config)
    denom = 2 * sigma_tau2 - sigma_inf2
    if abs(denom) <= 1e-12 or sigma_2tau2 <= 1e-14:
        raise RegimeError("singular squeezed two-measurement system")
    lam1 = dq2 / denom
    lam2 = (q_seq[0] - qbar - lam1 * sigma_tau2) / sigma_2tau2
    return SaddleSolution((lam1, lam2), "linearized", "squeezed-double")
