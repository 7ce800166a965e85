"""Exact closed-form solution for the half-filled (Neel) initial state.

Because the occupation is momentum independent, the multiplier integrals for
this state collapse to one-dimensional cosine-power integrals that evaluate
to Euler Beta functions.  This gives, inside the light cone,

    S^(alpha)(t | {q_i}) = S(t)
        - sum_i log[ 2^{4 tau/pi} G(2tau/pi + dq_i + 1) G(2tau/pi - dq_i + 1)
                     / G(4 tau/pi + 1) ],

independent of the Renyi index.  All Gamma evaluation is done in log space
(the exponent 4 tau / pi reaches hundreds).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .entropy import unmeasured_entropy
from .errors import RegimeError
from .states import neel_state

_LONG_TIME_RATIO = 10.0


@dataclass(frozen=True)
class NeelExactResult:
    entropy: float
    baseline: float
    corrections: tuple[float, ...]
    method: str
    regime: str


def neel_charged_moment(dq: float, tau: float) -> float:
    """Cosine-power Fourier moment
    ``(1/2pi) int_{-pi}^{pi} dl e^{-i dq l} cos^{4 tau/pi}(l/2)``.

    Evaluates to ``2 / (2^x x B((x+y+1)/2, (x-y+1)/2))`` with
    x = 4 tau/pi + 1, y = 2 dq, which is 1 / (the measurement factor of
    `neel_entropy_exact`); also the exact probability of outcome deviation dq
    at measurement time tau.
    """
    return math.exp(-_log_measurement_factor(dq, tau))


def _log_measurement_factor(dq: float, tau: float) -> float:
    """log of 2^{4 tau/pi} G(2tau/pi+dq+1) G(2tau/pi-dq+1) / G(4tau/pi+1)."""
    p = 2.0 * tau / math.pi
    if p + dq + 1.0 <= 0 or p - dq + 1.0 <= 0:
        raise RegimeError(
            f"outcome dq = {dq:g} outside the Gamma domain |dq| < 2 tau/pi + 1"
        )
    # the two outcome-dependent terms are summed first: even in dq bit for bit
    return (
        2.0 * p * math.log(2.0)
        + (math.lgamma(p + dq + 1.0) + math.lgamma(p - dq + 1.0))
        - math.lgamma(2.0 * p + 1.0)
    )


def neel_entropy_exact(t, tau, dq_seq, ell) -> NeelExactResult:
    """Exact measured entropy of the half-filled state.

    Valid inside the light cone (t <= ell/2, with every measurement before
    t) where the correction is a product of per-measurement Beta factors; in
    the deep long-time limit (t >= 10 ell) the measurement is washed out and
    the unperturbed value is returned.  Intermediate times have no closed
    form and raise a RegimeError naming the valid windows.  The result holds
    for every Renyi index, since s_alpha(1/2) = log 2; non-integer 4 tau/pi
    is accepted (the Beta form is analytic in tau) and tagged "continuum-tau".
    """
    dq_seq = tuple(float(dq) for dq in dq_seq)
    m = len(dq_seq)
    if t < m * tau:
        raise RegimeError("final time precedes the last measurement")
    baseline = unmeasured_entropy(1.0, t, ell, neel_state())
    regime = "continuum-tau" if (4 * tau / math.pi) % 1.0 > 1e-12 else "integer-tau"
    if t >= _LONG_TIME_RATIO * ell:
        return NeelExactResult(baseline, baseline, (0.0,) * m, "BetaClosedForm", regime + ";long-time-limit")
    if t > ell / 2.0 + 1e-12:
        raise RegimeError(
            "closed form valid for t <= ell/2 (light cone) or t >= "
            f"{_LONG_TIME_RATIO:g} * ell (washed out); got t/ell = {t / ell:g}"
        )
    corrections = tuple(-_log_measurement_factor(dq, tau) for dq in dq_seq)
    return NeelExactResult(baseline + sum(corrections), baseline, corrections, "BetaClosedForm", regime)


def stirling_expansion(dq: float, tau: float):
    """Large-tau expansion of the exact measurement factor.

    Returns ``(entropic_plus, entropic_minus, log_term)``:

        entropic_plus  = -(2 tau/pi + dq) log(1 + pi dq / 2 tau)
        entropic_minus = -(2 tau/pi - dq) log(1 - pi dq / 2 tau)
        log_term       = -1/2 log[2 tau (1 - (pi dq / 2 tau)^2)]

    whose sum approximates ``-log`` of the Beta factor to O(1/tau).  The two
    entropic terms equal the shared-pair count times the tilted pair-entropy
    deficit; the log term is the Gaussian prefactor.
    """
    p = 2.0 * tau / math.pi
    if min(p + dq, p - dq) < 10.0:
        warnings.warn(
            "Stirling expansion is inaccurate: min(2 tau/pi +- dq) < 10", stacklevel=2
        )
    u = dq / p
    if abs(u) >= 1.0:
        raise RegimeError("Stirling expansion needs |dq| < 2 tau / pi")
    entropic_plus = -(p + dq) * math.log1p(u)
    entropic_minus = -(p - dq) * math.log1p(-u)
    log_term = -0.5 * math.log(2.0 * tau * (1.0 - u * u))
    return entropic_plus, entropic_minus, log_term


def neel_saddle_lambda(dq: float, tau: float) -> float:
    """Exact single-measurement multiplier for the half-filled state,
    ``2 artanh(pi dq / 2 tau)`` inside the light cone."""
    u = math.pi * dq / (2.0 * tau)
    if abs(u) >= 1.0:
        raise RegimeError("outcome outside the light cone")
    return 2.0 * math.atanh(u)


def neel_exact_pdf_logweight(dq, tau: float):
    """Unnormalised log density of outcome deviations,
    ``(dq - 2t/pi) log(1 - pi dq/2t) - (dq + 2t/pi) log(1 + pi dq/2t)``;
    -inf outside the open window |dq| < 2 tau / pi."""
    a = 2.0 * tau / math.pi
    dq = np.asarray(dq, dtype=float)
    inside = np.abs(dq) < a
    u = np.where(inside, dq / a, 0.0)
    logw = (dq - a) * np.log1p(-u) - (dq + a) * np.log1p(u)
    return np.where(inside, logw, -np.inf)
