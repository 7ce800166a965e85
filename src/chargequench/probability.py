"""Measurement-outcome statistics: saddle-point Gaussians, the exact
half-filled distribution, deterministic sampling and Monte-Carlo averages.

Charges are physically integers; sampling therefore rounds Gaussian draws
and rejects outcomes outside the ballistic feasibility window, preserving
the relative weights inside it.  All sampling is deterministic given the
seed.  Parallel users should derive per-chunk streams with
``numpy.random.SeedSequence(seed).spawn(...)`` keyed by a fixed chunk index,
never by worker count, so results are reproducible regardless of the pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import MeasurementProtocol
from .entropy import ProtocolTerms
from .errors import FeasibilityError, RegimeError
from .fluctuations import drude_weight, variance_squeezed, variance_steps
from .neel_exact import neel_charged_moment, neel_exact_pdf_logweight
from .quadrature import DEFAULT_CONFIG, integrate
from .saddle import charge_window
from .states import OccupationFunction, Pairing

KIND_GAUSSIAN = "gaussian"
KIND_NEEL_EXACT = "neel-exact"


@dataclass(frozen=True)
class OutcomeDistribution:
    """Distribution over one or more measurement outcomes.

    For the Gaussian kind each step is centred on the previous outcome with
    variance equal to the charge variance freshly accumulated during that
    period.  ``window`` is the per-step feasibility half-width, an open bound
    (None = unrestricted).
    """

    kind: str
    center: float
    step_variances: tuple[float, ...]
    tau: float
    ell: float
    window: float | None
    first_step_unrestricted: bool = False

    @property
    def m(self) -> int:
        return len(self.step_variances)

    def step_window(self, step: int) -> float | None:
        if self.window is None or (step == 0 and self.first_step_unrestricted):
            return None
        return self.window


def squeezed_single_distribution(tau, ell, occ, qbar, config=DEFAULT_CONFIG):
    var = variance_squeezed(tau, ell, occ, config=config)
    return OutcomeDistribution(
        KIND_GAUSSIAN, qbar, (var,), tau, ell, None, first_step_unrestricted=True
    )


def chain_distribution(tau, m, ell, occ, config=DEFAULT_CONFIG, *, steps=None, window=None):
    """Gaussian law of m outcomes on a symmetric state: steps of the
    `variance_steps`, each inside the `charge_window`.  ``steps`` and
    ``window``, where the caller has them, are not integrated again."""
    if steps is None:
        steps = variance_steps(tau, m, ell, occ, config=config)
    if window is None:
        window = charge_window(tau, ell, config=config)
    return OutcomeDistribution(KIND_GAUSSIAN, ell / 2.0, steps, tau, ell, window)


def neel_exact_distribution(tau, ell, m: int = 1):
    """Exact outcome distribution of the half-filled state (per step)."""
    window = 2.0 * tau / math.pi
    return OutcomeDistribution(KIND_NEEL_EXACT, ell / 2.0, (tau / math.pi,) * m, tau, ell, window)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _gaussian_pdf(x, var):
    return np.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)


def _neel_norm(dist) -> float:
    a = dist.window
    value, _ = integrate(
        lambda dq: np.exp(neel_exact_pdf_logweight(dq, dist.tau)), -a, a, kinks=(0.0,)
    )
    return value


def outcome_pdf(dist: OutcomeDistribution, q) -> float:
    """Probability density of an outcome (scalar) or outcome sequence.

    Chain densities factorise over the steps, each centred on the previous
    outcome.  The exact half-filled density vanishes outside the open
    feasibility window (the closed form's logarithms are undefined there).
    """
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    if len(qs) != dist.m:
        raise ValueError("outcome sequence length mismatch")
    norm = _neel_norm(dist) if dist.kind == KIND_NEEL_EXACT else None
    density = 1.0
    prev = dist.center
    for step, qi in enumerate(qs):
        dq = qi - prev
        window = dist.step_window(step)
        if window is not None and abs(dq) >= window:
            return 0.0
        if norm is None:
            density *= float(_gaussian_pdf(dq, dist.step_variances[step]))
        else:
            density *= math.exp(float(neel_exact_pdf_logweight(dq, dist.tau))) / norm
        prev = qi
    return float(density)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _integer_support(dist: OutcomeDistribution):
    """Integer increments and their exact weights for the half-filled law."""
    a = dist.window
    dqs = np.arange(-math.floor(a - 1e-12), math.floor(a - 1e-12) + 1)
    weights = np.array([neel_charged_moment(dq, dist.tau) for dq in dqs])
    return dqs, weights / weights.sum()


def sample_outcomes(seed, dist: OutcomeDistribution, m: int | None = None):
    """One outcome sequence; returns ``(q_seq, rejections)``."""
    seqs, rejections = sample_many(seed, dist, 1, m=m)
    return tuple(seqs[0]), rejections


def sample_many(seed, dist: OutcomeDistribution, n: int, m: int | None = None, max_rejections=10**6):
    """Deterministic batch sampling: ``(array (n, m) of integer outcomes, rejections)``."""
    m = dist.m if m is None else m
    if m != dist.m:
        raise ValueError("requested m does not match the distribution")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = np.empty((n, m), dtype=np.int64)
    rejections = 0
    if dist.kind == KIND_NEEL_EXACT:
        dqs, pmf = _integer_support(dist)
        steps = rng.choice(dqs, size=(n, m), p=pmf)
        out = np.cumsum(steps, axis=1) + int(round(dist.center))
        return out, 0

    prev = np.full(n, dist.center)
    for step in range(m):
        sigma = math.sqrt(dist.step_variances[step])
        window = dist.step_window(step)
        pending = np.arange(n)
        draws = np.empty(n)
        while pending.size:
            cand = np.round(prev[pending] + sigma * rng.standard_normal(pending.size))
            ok = (cand >= 0) & (cand <= dist.ell)
            if window is not None:
                ok &= np.abs(cand - prev[pending]) < window
            draws[pending[ok]] = cand[ok]
            rejections += int(np.sum(~ok))
            if rejections > max_rejections:
                raise FeasibilityError(
                    "sampling rejected more than 10^6 draws; parameters are pathological"
                )
            pending = pending[~ok]
        out[:, step] = draws.astype(np.int64)
        prev = draws
    return out, rejections


# ---------------------------------------------------------------------------
# Monte-Carlo averaging
# ---------------------------------------------------------------------------


def monte_carlo_average(
    protocol: MeasurementProtocol,
    occ: OccupationFunction,
    samples: int,
    seed: int,
    distribution: OutcomeDistribution | None = None,
    config=DEFAULT_CONFIG,
    terms: ProtocolTerms | None = None,
):
    """Outcome-averaged total entropy: ``(mean, stderr)``.

    Outcomes are integers, so the reports of the distinct outcome sequences
    are built once each, in one `ProtocolTerms.reports` batch, and the mean
    is the count-weighted average ``sum_i (count_i / samples) total_i`` over
    them; a distribution with a single outcome therefore gives exactly that
    outcome's total and a standard error of exactly 0.  A symmetric state
    raises `RegimeError` where no log-prefactor convention is known; a
    squeezed state (m in {1, 2}) averages its report totals, which then omit
    the classical term.  ``terms``, the protocol's `ProtocolTerms`, is built
    here unless given.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples")
    if terms is None:
        terms = ProtocolTerms(protocol, occ, config)
    if occ.pairing is Pairing.SYMMETRIC_PARTICLE_HOLE:
        terms.known_classical()
    rows, counts = _distinct_draws(seed, distribution or _outcome_law(terms), samples)
    return _count_weighted_mean([report.total for report in terms.reports(rows)], counts)


def _outcome_law(terms: ProtocolTerms) -> OutcomeDistribution:
    """The Gaussian law of the protocol's outcomes: the symmetric
    `chain_distribution`, or a squeezed state's m in {1, 2} outcomes."""
    p, occ, config = terms.protocol, terms.occ, terms.config
    if occ.pairing is Pairing.SYMMETRIC_PARTICLE_HOLE:
        return chain_distribution(p.tau, p.m, p.ell, occ, config, steps=terms.steps,
                                  window=terms.charge_window)
    qbar = p.ell * occ.mean_density
    if p.m == 1:
        return squeezed_single_distribution(p.tau, p.ell, occ, qbar, config=config)
    if p.m != 2:
        raise RegimeError("squeezed Monte-Carlo supports m in {1, 2}")
    var1 = variance_squeezed(p.tau, p.ell, occ, config=config)
    # after the first projection the subsystem charge is pinned, so the
    # second increment carries the ballistic (symmetric-like) variance
    step2 = 2.0 * p.tau * drude_weight(occ, config=config)
    return OutcomeDistribution(KIND_GAUSSIAN, qbar, (var1, step2), p.tau, p.ell, terms.charge_window,
                               first_step_unrestricted=True)


def _distinct_draws(seed, dist, samples):
    """The distinct sampled outcome sequences and their counts; more than 1 %
    of draws rejected as infeasible raises `FeasibilityError`."""
    seqs, rejections = sample_many(seed, dist, samples)
    if rejections > 0.01 * samples * dist.m:
        raise FeasibilityError(f"more than 1% of draws were infeasible ({rejections} rejections)")
    return np.unique(seqs, axis=0, return_counts=True)


def _count_weighted_mean(totals, counts):
    """``(mean, stderr)`` of draws given as distinct values and their counts.

    The weights ``count / samples`` are exact for a single distinct value
    (1.0), so the mean is then that value and the spread exactly 0; a plain
    ``np.mean`` over repeated copies rounds in the last bits.
    """
    totals = np.asarray(totals, dtype=float)
    samples = int(np.sum(counts))
    weights = np.asarray(counts) / samples
    mean = float(weights @ totals)
    variance = float(weights @ (totals - mean) ** 2) * samples / (samples - 1)
    return mean, math.sqrt(variance / samples)
