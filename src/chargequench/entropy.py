"""Entanglement-entropy assembly: unmeasured baseline, outcome-dependent
quantum corrections, outcome-independent classical (log-prefactor)
corrections, and outcome-averaged forms.

Every measured-entropy function returns an `EntropyReport` that itemises the
corrections; the total is always the literal sum of the itemised pieces.
The classical piece carries a regime tag because the saddle-point prefactor
is only known up to O(1) in some regimes; where no convention is defensible
the value is omitted from the total and flagged.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .counting import (
    FINAL_BOTH_OUT,
    FINAL_SHARED,
    RIGHT_MOVER,
    ConfigurationClass,
    CountingFunction,
    MeasurementProtocol,
    counting_function,
    light_cone_weight,
    shared_suffix_chis,
    shared_suffix_classes,
)
from .errors import RegimeError
from .fluctuations import (
    asymmetry,
    number_entropy,
    variance_squeezed,
    variance_steps,
    variance_symmetric,
)
from .quadrature import DEFAULT_CONFIG, momentum_integral
from .saddle import (
    _linear_chain,
    charge_window,
    solve_saddle_squeezed,
    solve_saddle_symmetric_single,
)
from .states import OccupationFunction, Pairing, pair_entropy

LOGN_UNKNOWN = "logN-regime-unknown"

# t/ell ratio beyond which the measurement is treated as fully washed out
# when no intermediate-regime prefactor is available.
_WASHOUT_RATIO = 10.0


@dataclass(frozen=True)
class EntropyReport:
    baseline: float
    quantum_corrections: tuple[tuple[str, float], ...]
    classical_correction: tuple[str, float | None]
    total: float
    diagnostics: dict

    @staticmethod
    def assemble(baseline, quantum, classical_tag, classical_value, diagnostics):
        quantum = tuple(quantum)
        total = baseline + sum([v for _, v in quantum])
        if classical_value is not None:
            total += classical_value
        return EntropyReport(baseline, quantum, (classical_tag, classical_value), total, diagnostics)

    def to_json(self) -> str:
        return json.dumps(
            {
                "baseline": self.baseline,
                "quantum_corrections": [[lbl, val] for lbl, val in self.quantum_corrections],
                "classical_correction": list(self.classical_correction),
                "total": self.total,
                "diagnostics": self.diagnostics,
            },
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def unmeasured_entropy(alpha, t, ell, occ: OccupationFunction, config=DEFAULT_CONFIG):
    """Renyi entropy of the unmeasured quench,
    ``(1/2pi) int dk min(2|v_k| t, ell) s_alpha[n(k)]``."""
    if t < 0 or ell <= 0:
        raise ValueError("need t >= 0 and ell > 0")
    weight = light_cone_weight(t, ell)

    def integrand(k):
        return weight(k) * pair_entropy(occ.evaluate(k), alpha)

    value, _ = momentum_integral(integrand, kinks=weight.kinks, config=config)
    return value


# ---------------------------------------------------------------------------
# Classical (log prefactor) corrections
# ---------------------------------------------------------------------------


def _replica_width(n):
    """n(1-n)(1-2n) log(n/(1-n)), 0 at n in {0, 1}: the alpha-derivative at
    alpha = 1 of (n(1-n))^alpha / (n^alpha + (1-n)^alpha)^2."""
    n = np.asarray(n, dtype=float)
    safe = np.clip(n, 1e-300, 1 - 1e-16)
    log_ratio = np.where((n > 0) & (n < 1), np.log(safe) - np.log1p(-safe), 0.0)
    return n * (1 - n) * (1 - 2 * n) * log_ratio


def _hessian_general_symmetric(t, tau, ell, occ, config):
    # Diagonal-plus-rank-one Hessian of the multiplier integral, evaluated at
    # zeroth order in the saddle, with b(alpha) = int chi (n(1-n))^alpha /
    # (n^alpha + (1-n)^alpha)^2 and its alpha-derivative in closed form.
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=t)
    chi1_shared = counting_function([ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER)], protocol)
    chi1_out = counting_function([ConfigurationClass((1,), FINAL_BOTH_OUT, RIGHT_MOVER)], protocol)

    def integral(chi, density):
        def integrand(k):
            return chi(k) * density(occ.evaluate(k))

        # one protocol: both chis share the breakpoints
        value, _ = momentum_integral(integrand, kinks=chi1_shared.kinks, config=config)
        return value

    a1 = integral(chi1_out, lambda n: n * (1 - n))
    b1 = integral(chi1_shared, lambda n: n * (1 - n))
    if a1 <= 1e-14:
        return None
    db = integral(chi1_shared, _replica_width)
    value = -0.5 * math.log(2 * math.pi) + 0.5 * (
        math.log(a1 / (a1 + b1)) + b1 / (a1 + b1) + db / (a1 + b1)
    )
    return value


def log_n_correction(
    t, tau, ell, occ: OccupationFunction, m: int = 1, config=DEFAULT_CONFIG
):
    """Outcome-independent saddle prefactor, per regime.

    Returns ``(value_or_None, regime_tag)``.  The small-time convention is
    calibrated so the exact solvable half-filled case is reproduced with no
    O(1) offset: ``-1/2 log(2 pi sigma^2)`` per measurement, with sigma^2 the
    variance freshly accumulated before that measurement.  For
    tau < ell/2 < t the prefactor crosses over to
    ``-1/2 log[s_tau^2 / (s_tau^2 + s_{t-tau}^2 - s_t^2)]`` and washes out at
    long times.  Regimes with no known convention return (None, flag).
    This is `ProtocolTerms.classical` of the protocol.
    """
    return ProtocolTerms(MeasurementProtocol(ell=ell, tau=tau, m=m, t=t), occ, config).classical


def _log_n_symmetric(t, tau, ell, occ, deltas, config):
    """`log_n_correction` of a symmetric state, given its `variance_steps`."""
    m = len(deltas)
    if t <= ell / 2 + 1e-12:
        value = sum(-0.5 * math.log(2 * math.pi * d) for d in deltas)
        return value, "symmetric-small-time"
    if m == 1 and abs(t - tau) < 1e-12:
        return -0.5 * math.log(2 * math.pi * deltas[0]), "symmetric-at-measurement"
    if tau * m < ell / 2:
        tails = [variance_symmetric(t - l * tau, ell, occ, config=config) for l in range(m + 1)]
        total = 0.0
        for l in range(1, m + 1):
            denom = deltas[l - 1] + tails[l] - tails[l - 1]
            if denom <= 0:
                return None, LOGN_UNKNOWN
            total += -0.5 * math.log(deltas[l - 1] / denom)
        tag = "symmetric-crossover" if m == 1 else "symmetric-crossover-multi"
        return total, tag
    if m == 1 and t > tau:
        value = _hessian_general_symmetric(t, tau, ell, occ, config)
        if value is not None:
            return value, "symmetric-hessian-numeric"
    return None, LOGN_UNKNOWN


def _log_n_squeezed(t, tau, ell, occ, m, config):
    # m = 1 has closed forms at the measurement and inside the light cone
    # of a tau = 0 measurement; every m is washed out from 10 ell on
    if m == 1 and abs(t - tau) < 1e-12:
        sigma2 = variance_squeezed(tau, ell, occ, config=config)
        delta_s = asymmetry(tau, ell, occ, config=config)
        if not math.isfinite(delta_s) or sigma2 <= 0:
            return None, LOGN_UNKNOWN
        return delta_s - number_entropy(sigma2), "squeezed-at-measurement"
    if m == 1 and tau == 0 and t <= ell / 2 + 1e-12:
        return 0.0, "squeezed-tau0-light-cone"
    if t >= _WASHOUT_RATIO * ell:
        return 0.0, "squeezed-long-time-washout"
    return None, LOGN_UNKNOWN


# ---------------------------------------------------------------------------
# Quantum corrections
# ---------------------------------------------------------------------------


def _quantum_integral(chi, tilt, occ, config):
    """(1/2pi) int dk chi(k) (s[n tilted by tilt] - s[n]), chi a
    `CountingFunction` whose kinks split the quadrature panels.

    ``tilt`` is a number, giving ``(value, error)`` floats, or an array of
    tilts, giving arrays: every nonzero tilt is one component of a single
    batched integral, and a zero tilt gives exactly (0.0, 0.0).

    The entropy difference is formed without subtracting two O(1)
    entropies: with x = tilt and n_x the tilted occupation,

        s[n_x] - s[n] = log1p(n expm1(x)) - n_x x - (n_x - n) log(n/(1-n)),
        n_x - n = n (1-n) expm1(x) / (1 + n expm1(x)),

    so it keeps full relative accuracy as x -> 0 and is exactly 0 at
    x = 0.  The three terms are O(x) while their sum is O(x^2) (at
    n = 1/2), so the integrand reports chi times their summed magnitude as
    the term size that sets the quadrature noise floor (see `integrate`).
    """
    tilts = np.asarray(tilt, dtype=float)
    values, errors = np.zeros(tilts.shape), np.zeros(tilts.shape)
    live = tilts != 0.0
    if live.any():
        x = tilts[live][:, None]
        growth = np.array([math.expm1(t) for t in tilts[live]])[:, None]

        def integrand(k):
            n = np.clip(occ.evaluate(k), 0.0, 1.0)
            shift = n * (1.0 - n) * growth / (1.0 + n * growth)
            with np.errstate(divide="ignore", invalid="ignore"):
                # n in {0, 1} cannot move (shift == 0): the term is 0, not 0 * inf
                bias = np.where(shift == 0.0, 0.0, shift * (np.log(n) - np.log1p(-n)))
            log_term = np.log1p(n * growth)
            tilt_term = (n + shift) * x
            chi_k = chi(k)
            return (
                chi_k * (log_term - tilt_term - bias),
                chi_k * (np.abs(log_term) + np.abs(tilt_term) + np.abs(bias)),
            )

        values[live], errors[live] = momentum_integral(integrand, kinks=chi.kinks, config=config)
    if tilts.ndim == 0:
        return float(values), float(errors)
    return values, errors


def _measured_reports(baseline, classical, chis, rows, occ, config, **diagnostics):
    """The reports of the outcome rows of one protocol: each is the
    ``baseline``, one quantum correction per ``(label, chi)`` of ``chis`` and
    the classical ``(value, tag)``.  A row is a ``(saddle solution, tilts)``
    pair with one tilt per term of ``chis``.

    Each distinct counting function is integrated once, over the distinct
    tilts it takes in all rows: one batched `_quantum_integral`, so a single
    row gives the scalar integrals bit for bit.  The integrals are done on the
    call; the result is an iterator that assembles each report when it is
    read, so a caller that keeps only the totals holds one report at a time.
    Every report assembles here, so its diagnostics always name the saddle,
    the summed quadrature error of its quantum terms and the log-prefactor
    regime.
    """
    # per term: its (label, value) and its quadrature error at each tilt
    terms, term_errors = [None] * len(chis), [None] * len(chis)
    for chi in {id(chi): chi for _, chi in chis}.values():
        cols = [j for j, (_, other) in enumerate(chis) if other is chi]
        distinct = sorted({tilts[j] for _, tilts in rows for j in cols})
        values, errors = _quantum_integral(chi, np.array(distinct, dtype=float), occ, config)
        for j in cols:
            terms[j] = {tilt: (chis[j][0], value) for tilt, value in zip(distinct, values.tolist())}
            term_errors[j] = dict(zip(distinct, errors.tolist()))
    value, tag = classical
    return (
        EntropyReport.assemble(
            baseline, [term[tilt] for term, tilt in zip(terms, tilts)], tag, value,
            {**diagnostics, "saddle": sol.summary(),
             "quantum_quadrature_error": sum([error[tilt] for error, tilt in zip(term_errors, tilts)]),
             "logN_regime": tag},
        )
        for sol, tilts in rows
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# Members inside A at each measurement of the shared classes of a squeezed
# state, per m: a class's tilt is sum_i counts_i lambda_i
_SQUEEZED_MEMBERS = {1: ((1,), (2,)), 2: ((2, 2), (2, 1), (1, 1), (0, 1))}


class ProtocolTerms:
    """The outcome-independent terms of every measured-entropy report of one
    protocol: the unmeasured baseline, the `charge_window`, the
    `variance_steps`, the counting function of each quantum term and the
    classical `log_n_correction`.  Each is integrated once, when first read,
    so that all reports of a job, its analytic average and its Monte-Carlo
    run share them; `reports` builds the reports of any number of outcome
    rows in one batch."""

    def __init__(self, protocol: MeasurementProtocol, occ: OccupationFunction, config=DEFAULT_CONFIG):
        self.protocol, self.occ, self.config = protocol, occ, config

    @functools.cached_property
    def baseline(self) -> float:
        p = self.protocol
        return unmeasured_entropy(1.0, p.t, p.ell, self.occ, config=self.config)

    @functools.cached_property
    def charge_window(self) -> float:
        p = self.protocol
        return charge_window(p.tau, p.ell, config=self.config)

    @functools.cached_property
    def steps(self) -> tuple[float, ...]:
        p = self.protocol
        return variance_steps(p.tau, p.m, p.ell, self.occ, config=self.config)

    @functools.cached_property
    def chis(self) -> list[tuple[str, CountingFunction]]:
        """``(label, chi)`` of each quantum term.  A squeezed state has one
        term per shared class of `_SQUEEZED_MEMBERS`.  A symmetric state has
        one per measurement l, weighted by the pairs first shared at l
        (`shared_suffix_classes`); inside the light cone (2t <= ell) every
        step's pairs weigh 2|v_k| tau, so all steps share step 1's chi."""
        p = self.protocol
        if self.occ.pairing is Pairing.SQUEEZED_PAIR:
            return [
                (f"chi[{''.join(map(str, counts))}]_AAbar",
                 counting_function([ConfigurationClass(counts, FINAL_SHARED, RIGHT_MOVER)], p))
                for counts in _SQUEEZED_MEMBERS[p.m]
            ]
        if 2 * p.t <= p.ell:
            chis = [counting_function(shared_suffix_classes(1, p.m), p)] * p.m
        else:
            chis = shared_suffix_chis(p)
        labels = ["chi[1]_AAbar"] if p.m == 1 else [f"chi[1,{l}]_AAbar" for l in range(1, p.m + 1)]
        return list(zip(labels, chis))

    @functools.cached_property
    def classical(self) -> tuple[float | None, str]:
        """``(value, tag)`` of the log prefactor, ``(None, tag)`` where no
        convention is known (see `log_n_correction`)."""
        p = self.protocol
        if self.occ.pairing is Pairing.SQUEEZED_PAIR:
            return _log_n_squeezed(p.t, p.tau, p.ell, self.occ, p.m, self.config)
        try:
            steps = self.steps
        except RegimeError:  # the variance saturated between two steps
            return None, LOGN_UNKNOWN
        return _log_n_symmetric(p.t, p.tau, p.ell, self.occ, steps, self.config)

    def known_classical(self) -> tuple[float, str]:
        """`classical`, raising `RegimeError` where no convention is known."""
        value, tag = self.classical
        if value is None:
            raise RegimeError(f"no log-prefactor convention for this regime ({tag})")
        return value, tag

    def reports(self, q_rows) -> Iterator[EntropyReport]:
        """The reports of rows of m outcomes, in row order (see
        `_measured_reports`).  A symmetric state solves the exact single
        saddle for m = 1 and the linear multiplier chain otherwise; a
        squeezed state solves `solve_saddle_squeezed` (m in {1, 2})."""
        p, occ, config = self.protocol, self.occ, self.config
        if occ.pairing is Pairing.SQUEEZED_PAIR:
            rows = []
            for q_seq in q_rows:
                sol = solve_saddle_squeezed(q_seq, p.tau, p.ell, occ, config=config)
                rows.append((sol, [sum(c * lam for c, lam in zip(counts, sol.lambdas))
                                   for counts in _SQUEEZED_MEMBERS[p.m]]))
        elif p.m == 1:
            rows = []
            for (q,) in q_rows:
                sol = solve_saddle_symmetric_single(q - p.ell / 2.0, p.tau, p.ell, occ, config=config,
                                                    window=self.charge_window)
                rows.append((sol, sol.lambdas))
        else:
            rows = self._chain_rows(q_rows)
        return _measured_reports(self.baseline, self.classical, self.chis, rows, occ, config)

    def _chain_rows(self, q_rows):
        p = self.protocol
        # inside the light cone every step adds the same variance, 2 D tau:
        # all steps take step 1's, as they take its chi
        steps = self.steps[:1] * p.m if 2 * p.t <= p.ell else self.steps
        dq_rows = np.diff(np.asarray(q_rows, dtype=float), axis=1, prepend=p.ell / 2.0)
        return [(sol, sol.suffix) for sol in _linear_chain(dq_rows, self.charge_window, steps, p.tau, p.ell)]


def _terms(protocol, occ, config, pairing):
    """The `ProtocolTerms` of a report function defined for one pairing."""
    if occ.pairing is not pairing:
        raise ValueError(f"these reports are defined for {pairing.value} states")
    return ProtocolTerms(protocol, occ, config)


def entropy_symmetric_single(
    t, tau, ell, q, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> EntropyReport:
    """Entropy after one charge measurement on a symmetric state.

    baseline + (1/2pi) int dk chi_shared^(1)(t,k) (s[n_dq(k)] - s[n(k)]) +
    log-prefactor.  ``q`` is an outcome, giving its report, or an array of
    outcomes, giving the list of their reports (one batch).
    """
    if t < tau:
        raise ValueError("final time precedes the measurement")
    terms = _terms(MeasurementProtocol(ell=ell, tau=tau, m=1, t=t), occ, config,
                   Pairing.SYMMETRIC_PARTICLE_HOLE)
    qs = np.asarray(q, dtype=float)
    reports = list(terms.reports([(v,) for v in qs.ravel().tolist()]))
    return reports[0] if qs.ndim == 0 else reports


def entropy_symmetric_multi(
    t, tau, ell, q_seq, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> EntropyReport:
    """Entropy after m periodic measurements on a symmetric state.

    Each measurement contributes its own log-prefactor and an entropy-
    difference term weighted by the pairs first shared at that measurement
    and still shared at t, tilted by the suffix sum of the multipliers of the
    linear chain (also for m = 1).
    """
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=len(q_seq), t=t, outcomes=tuple(q_seq))
    terms = _terms(protocol, occ, config, Pairing.SYMMETRIC_PARTICLE_HOLE)
    rows = terms._chain_rows([q_seq])
    return next(_measured_reports(terms.baseline, terms.classical, terms.chis, rows, occ, config))


def entropy_squeezed_single(
    t, tau, ell, q, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> EntropyReport:
    """Entropy after one charge measurement on a squeezed-pair state.

    Pairs measured once contribute with tilt lambda; pairs fully inside A at
    the measurement carry charge 0 or 2 and contribute with tilt 2*lambda.
    """
    if t < tau:
        raise ValueError("final time precedes the measurement")
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=t)
    return next(_terms(protocol, occ, config, Pairing.SQUEEZED_PAIR).reports([(q,)]))


def entropy_squeezed_double(
    t, tau, ell, q1, q2, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> EntropyReport:
    """Entropy after two measurements on a squeezed-pair state.

    The four shared classes (by members inside A at each measurement) carry
    tilts 2l1+2l2, 2l1+l2, l1+l2 and l2 respectively.
    """
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=2, t=t, outcomes=(q1, q2))
    return next(_terms(protocol, occ, config, Pairing.SQUEEZED_PAIR).reports([(q1, q2)]))


# ---------------------------------------------------------------------------
# Outcome averages
# ---------------------------------------------------------------------------


def averaged_correction(
    protocol: MeasurementProtocol, occ: OccupationFunction, config=DEFAULT_CONFIG, terms=None
):
    """Analytic outcome average of (entropy - baseline) for symmetric states.

    Gaussian outcome statistics and the quadratic expansion of the pair
    entropy give, per measurement, the log-prefactor plus an O(1)
    configuration term; inside the light cone the measurement period drops
    out of the latter entirely.  ``terms``, the protocol's `ProtocolTerms`,
    is built here unless given.
    Returns ``(value, breakdown)``.
    """
    if occ.pairing is not Pairing.SYMMETRIC_PARTICLE_HOLE:
        raise RegimeError("analytic outcome averages are available for symmetric states")
    t, tau, ell, m = protocol.t, protocol.tau, protocol.ell, protocol.m
    if terms is None:
        terms = ProtocolTerms(protocol, occ, config)
    classical, tag = terms.known_classical()
    sigma_tau = terms.steps[0]
    if m == 1:
        sigma_t = variance_symmetric(t, ell, occ, config=config)
        sigma_tmtau = variance_symmetric(t - tau, ell, occ, config=config)
        (chi,) = shared_suffix_chis(protocol)
        variance_term = -(sigma_t - sigma_tmtau) / (2 * sigma_tau)
    else:
        if t > ell / 2:
            raise RegimeError("multi-measurement averages are implemented for t <= ell/2")
        # inside the light cone every step's pairs weigh like the first period's
        chi = light_cone_weight(tau, ell)
        variance_term = -0.5 * m

    def integrand(k):
        return chi(k) * _replica_width(occ.evaluate(k))

    integral, _ = momentum_integral(integrand, kinks=chi.kinks, config=config)
    config_term = -m * integral / (2 * sigma_tau)
    value = classical + variance_term + config_term
    breakdown = {
        "classical": classical,
        "classical_regime": tag,
        "variance_term": variance_term,
        "configuration_term": config_term,
    }
    return value, breakdown
