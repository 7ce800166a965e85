"""Saddle-point solvers for the measurement-outcome Lagrange multipliers.

Each projective charge measurement contributes one multiplier lambda; the
entropy corrections are pair entropies of occupation functions tilted by the
(suffix-summed) multipliers.  For charge-eigenstate ("symmetric") initial
states a solution exists only when each outcome lies inside the ballistic
light cone of the previous one; for squeezed states the first measurement is
unrestricted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .counting import light_cone_weight
from .errors import FeasibilityError, RegimeError
from .fluctuations import variance_saturated, variance_squeezed, variance_symmetric
from .quadrature import momentum_integral
from .states import OccupationFunction, Pairing

_NEWTON_STEPS = 100  # safeguarded Newton iterations of one single-measurement solve
# |lambda| beyond which no root is sought: below it e^{-2|lambda|} is a normal
# float, so both saddle integrands stay finite where n(k) is exactly 0 or 1
_LAMBDA_MAX = 300.0


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

    def summary(self) -> dict:
        return {"lambdas": self.lambdas, "mode": self.mode, "regime": self.regime}


# ---------------------------------------------------------------------------
# Feasibility (time delay)
# ---------------------------------------------------------------------------


def charge_window(tau: float, ell: float) -> float:
    """Half-width of the feasible outcomes one period can reach: a charge
    step dq is feasible iff |dq| < (1/2) (1/2pi) int dk min(2|v_k| tau, ell).

    Equals 2 tau / pi for 2 tau <= ell, and falls below it beyond, where the
    weight saturates at ell.  This is the only window: `feasibility`, the
    solvers and the Gaussian samplers all test the open bound against it.
    """
    weight = light_cone_weight(tau, ell)
    value, _ = momentum_integral(lambda k: 0.5 * weight(k), kinks=weight.kinks)
    return value


def feasibility(dq_seq, tau: float, ell: float, pairing: Pairing):
    """Per-step flags for a sequence of charge differences.

    Symmetric states: every |dq_i| must lie inside the `charge_window` of one
    period.  Squeezed states: the first step always succeeds; the rest obey
    the same bound (the first projection pins the subsystem charge).
    """
    if tau <= 0:
        raise ValueError("feasibility needs tau > 0")
    return _window_flags(dq_seq, charge_window(tau, ell), pairing)


def _window_flags(dq_seq, window, pairing):
    """|dq| < window for each step, the first step of a squeezed state exempt."""
    return tuple(
        (pairing is Pairing.SQUEEZED_PAIR and i == 0) or abs(dq) < window
        for i, dq in enumerate(dq_seq)
    )


def _check_window(dq_seq, window, tau, ell, pairing) -> None:
    """Raises `FeasibilityError` at the first step `_window_flags` flags."""
    flags = _window_flags(dq_seq, window, pairing)
    if not all(flags):
        i = flags.index(False)
        raise FeasibilityError(
            f"measurement {i + 1}: |dq| = {abs(dq_seq[i]):g} exceeds the window {window:g} "
            f"(tau = {tau:g}, ell = {ell:g})",
            step=i + 1,
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
    dq, tau, ell, occ: OccupationFunction, window=None
) -> SaddleSolution:
    """Single-measurement multiplier for a symmetric state.

    Solves the monotone ``r(lam) = (1/2pi) int dk w(k) (n_lam(k) - 1/2) - dq
    = 0``, w = min(2|v_k| tau, ell), by Newton from ``2 atanh(dq / window)``,
    the root for a flat n(k) (Neel); dq = 0 gives lam = 0.0 exactly.
    r(0) = -dq puts the root on dq's side of 0; every residual narrows that
    bracket, and a step that leaves it or |lam| <= 300, or a slope <= 0, is
    replaced by the midpoint, or by doubling lam while the far side is open.
    A root beyond |lam| = 300 raises `RegimeError`.  Each Newton step is one
    integral: the residual and the slope are one batch of two components.
    Its linearisation is ``dq / sigma_tau^2``.  ``window`` is the
    `charge_window` of (tau, ell), integrated here unless given.
    """
    if occ.pairing is not Pairing.SYMMETRIC_PARTICLE_HOLE:
        raise ValueError("use solve_saddle_squeezed for squeezed-pair states")
    if window is None:
        window = charge_window(tau, ell)
    _check_window([dq], window, tau, ell, occ.pairing)
    regime = "symmetric-single"
    if abs(dq) > 0.99 * window:
        regime += ";saddle-unreliable"  # approximation degrades near the light cone
    if dq == 0.0:
        return SaddleSolution((0.0,), "exact", regime)
    weight = light_cone_weight(tau, ell)

    def residual_and_slope(lam):
        # one batch: the residual, and the slope d r / d lam =
        # (1/2pi) int dk w n_lam (1 - n_lam), where n_lam (1 - n_lam) =
        # n (1-n) e^{-|lam|} / (a + b e^{-|lam|})^2 with (a, b) = (n, 1-n) for
        # lam >= 0 (swapped below): no 1 - n_lam cancels, nor 1 - n near n = 1,
        # taken as n(k -+ pi) (the particle-hole partner), not as 1.0 - n
        decay = math.exp(-abs(lam))

        def integrand(k):
            n = np.asarray(occ.evaluate(k), dtype=float)
            hole = np.asarray(occ.evaluate(k - np.copysign(math.pi, k)), dtype=float)
            w = weight(k)
            a, b = (n, hole) if lam >= 0 else (hole, n)
            return np.stack([w * (modified_occupation(n, lam) - 0.5),
                             w * n * hole * decay / (a + b * decay) ** 2])

        (r, d), _ = momentum_integral(integrand, kinks=weight.kinks)
        return float(r) - dq, float(d)

    lo, hi = (0.0, math.inf) if dq > 0 else (-math.inf, 0.0)
    lam = 2.0 * math.atanh(dq / window)  # finite: |dq| < window rounds to |dq / window| < 1
    for _ in range(_NEWTON_STEPS):
        r, d = residual_and_slope(lam)
        if r < 0:
            lo = lam
        elif r > 0:
            hi = lam
        if max(lo, -hi) >= _LAMBDA_MAX:
            break  # the root lies beyond the largest |lam| sought
        step = -r / d if d > 0 else math.nan
        if abs(step) <= 1e-13 * max(1.0, abs(lam)):
            return SaddleSolution((lam + step,), "exact", regime)
        if not (lo < lam + step < hi and abs(lam + step) <= _LAMBDA_MAX):  # also a NaN step
            if math.isinf(lo + hi):
                step = math.copysign(min(2.0 * abs(lam), _LAMBDA_MAX), lam) - lam
            else:
                step = 0.5 * (lo + hi) - lam
        lam += step
        if hi - lo <= 1e-13 * max(1.0, abs(lam)):
            return SaddleSolution((lam,), "exact", regime)
    raise RegimeError(
        f"saddle for dq = {dq:g} (tau = {tau:g}, ell = {ell:g}, state {occ.label}) not found within "
        f"{_NEWTON_STEPS} Newton steps and |lambda| <= {_LAMBDA_MAX:g}: too close to the light cone"
    )


def solve_saddle_symmetric_multi(
    dq_seq, tau, ell, occ: OccupationFunction
) -> SaddleSolution:
    """Multiplier chain for m periodic measurements on a symmetric state.

    The suffix sums satisfy ``sum_{s=l}^m lambda_s = dq_l / (sigma_{l tau}^2 -
    sigma_{(l-1) tau}^2)``; inside the light cone every denominator is
    ``2 D tau``.
    """
    if occ.pairing is not Pairing.SYMMETRIC_PARTICLE_HOLE:
        raise ValueError("use solve_saddle_squeezed for squeezed-pair states")
    period = PeriodTerms(tau, len(dq_seq), ell, occ)
    return _linear_chain([dq_seq], period.charge_window, period.steps, tau, ell)[0]


def _linear_chain(dq_rows, window, steps, tau, ell) -> list[SaddleSolution]:
    """`solve_saddle_symmetric_multi` for each row of charge steps, given the
    `charge_window` and the `PeriodTerms.steps` of (tau, ell): the suffix sums
    are dq_l / step_l.  The window is checked on each step's largest |dq|."""
    dq = np.asarray(dq_rows, dtype=float)
    _check_window(np.max(np.abs(dq), axis=0).tolist(), window, tau, ell, Pairing.SYMMETRIC_PARTICLE_HOLE)
    suffix = dq / np.asarray(steps)
    lambdas = suffix - np.hstack([suffix[:, 1:], np.zeros((len(dq), 1))])
    return [SaddleSolution(tuple(lam), "linearized", "symmetric-multi", tuple(suf))
            for lam, suf in zip(lambdas.tolist(), suffix.tolist())]


def solve_saddle_squeezed(
    q_seq, tau, ell, occ: OccupationFunction
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
    return PeriodTerms(tau, len(q_seq), ell, occ)._squeezed(q_seq)


class PeriodTerms:
    """The terms of m measurements every tau on [0, ell] that depend neither
    on the outcomes nor on the final time, each integrated once, when first
    read, for all final times that share the object: the `charge_window`,
    the variance sigma_T^2 of any time T (`variance`) and its `steps` per
    period, the saturated variance sigma_inf^2 and each outcome row's saddle."""

    def __init__(self, tau, m, ell, occ: OccupationFunction):
        self.tau, self.m, self.ell, self.occ = tau, m, ell, occ
        self._saddles, self._variances = {}, {}

    def variance(self, time) -> float:
        """sigma_T^2 at T = ``time``: `variance_symmetric` or
        `variance_squeezed` by the state's pairing, integrated once per
        distinct time."""
        if time not in self._variances:
            variance = variance_squeezed if self.occ.pairing is Pairing.SQUEEZED_PAIR else variance_symmetric
            self._variances[time] = variance(time, self.ell, self.occ)
        return self._variances[time]

    @functools.cached_property
    def charge_window(self) -> float:
        return charge_window(self.tau, self.ell)

    @functools.cached_property
    def steps(self) -> tuple[float, ...]:
        """The variance each period adds, sigma_{l tau}^2 - sigma_{(l-1) tau}^2
        for l = 1..m with sigma_0^2 = 0 exactly: the Gaussian outcome steps,
        the multiplier chain and the classical correction of a symmetric
        state.  Raises RegimeError once the variance saturates (a step of at
        most 1e-14), where the chain is singular."""
        sigmas = [0.0] + [self.variance(l * self.tau) for l in range(1, self.m + 1)]
        steps = tuple(sigmas[l] - sigmas[l - 1] for l in range(1, self.m + 1))
        for l, step in enumerate(steps, 1):
            if step <= 1e-14:
                raise RegimeError(
                    f"charge variance saturated between measurements {l - 1} and {l} "
                    f"(tau = {self.tau:g}, ell = {self.ell:g}); the multiplier chain is singular"
                )
        return steps

    @functools.cached_property
    def saturated_variance(self) -> float:
        return variance_saturated(self.ell, self.occ)

    def saddle(self, q_seq) -> SaddleSolution:
        """The saddle of a row of outcomes, solved once per distinct row: the
        exact single saddle of a symmetric state (m = 1) or the squeezed one."""
        key = tuple(q_seq)
        if key not in self._saddles:
            if self.occ.pairing is Pairing.SQUEEZED_PAIR:
                self._saddles[key] = self._squeezed(key)
            else:
                self._saddles[key] = solve_saddle_symmetric_single(
                    key[0] - self.ell / 2.0, self.tau, self.ell, self.occ, window=self.charge_window)
        return self._saddles[key]

    def _squeezed(self, q_seq) -> SaddleSolution:
        m = len(q_seq)
        if m not in (1, 2):
            raise RegimeError("squeezed saddles are implemented for m in {1, 2} only")
        qbar = self.ell * self.occ.mean_density
        sigma_tau2 = self.variance(self.tau)
        if m == 1:
            if sigma_tau2 <= 1e-14:
                raise RegimeError("squeezed variance vanished; no fluctuations to measure")
            return SaddleSolution(((q_seq[0] - qbar) / sigma_tau2,), "linearized", "squeezed-single")
        dq2 = q_seq[1] - q_seq[0]
        _check_window((q_seq[0] - qbar, dq2), self.charge_window, self.tau, self.ell, self.occ.pairing)
        sigma_2tau2 = self.variance(2 * self.tau)
        denom = 2 * sigma_tau2 - self.saturated_variance
        if abs(denom) <= 1e-12 or sigma_2tau2 <= 1e-14:
            raise RegimeError("singular squeezed two-measurement system")
        lam1 = dq2 / denom
        lam2 = (q_seq[0] - qbar - lam1 * sigma_tau2) / sigma_2tau2
        return SaddleSolution((lam1, lam2), "linearized", "squeezed-double")
