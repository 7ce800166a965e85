"""Gauss-Legendre quadrature with one global error budget.

All momentum integrals in this library are of the form
``(1/2pi) * int_{-pi}^{pi} dk g(|sin k|, n(k))`` where ``g`` is smooth except
for kinks at a known, finite set of critical velocities (where a ballistic
light cone crosses the subsystem size).  The kinks become panel edges; each
panel carries its coarse rule and the sum of its two half rules, whose
difference is the panel's error.  While the summed error exceeds the budget,
the panels with the largest errors are halved (as in QUADPACK ``qags``), so
that a log singularity, an unmarked jump or a narrow feature is refined where
it sits instead of being asked to converge on its own share of the tolerance.
The total number of panels is bounded.

An integrand may also return an (M, N) array for N nodes: a batch of M
integrals (say, an FCS grid of counting fields, or the quantum corrections
of many outcomes) on shared panels, in one adaptive loop with one call of the
integrand per pass.  Each component keeps its own error budget; a pass
halves the union of the panels its failing components would halve alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import QuadratureError

NODES = 24  # Gauss-Legendre nodes per rule
MAX_PANELS = 2000  # panels of one integral before QuadratureError
_NOISE = 30.0 * np.finfo(float).eps  # rounding noise per unit term size and width


@dataclass(frozen=True)
class QuadratureConfig:
    """Target relative tolerance of every momentum integral."""

    rtol: float = 1e-10

    def __post_init__(self):
        if self.rtol <= 0:
            raise ValueError("relative tolerance must be positive")


DEFAULT_CONFIG = QuadratureConfig()


@cache
def _gauss_legendre():
    """Nodes, and weights as a column.  Built on first use, so that importing
    the package does not load numpy.polynomial."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    return x, w[:, None]


def _rules(f, lo, hi):
    """One call of ``f`` on the nodes of every panel [lo_i, hi_i]: the rules as
    an (M, P) array, each component's largest term size, and whether ``f``
    returned a batch of M components."""
    x, w = _gauss_legendre()
    half = 0.5 * (hi - lo)
    nodes = half[:, None] * x
    nodes += (0.5 * (lo + hi))[:, None]
    out = f(nodes.ravel())
    values, sizes = out if isinstance(out, tuple) else (out, out)
    values = np.asarray(values, dtype=float)
    # a (1 x NODES) @ (NODES x 1) product per panel is one dot, bit for bit
    # the per-panel float(np.dot(w, row)) (values @ w would round differently)
    rules = half * (values.reshape(-1, len(half), 1, NODES) @ w).reshape(-1, len(half))
    peaks = np.maximum.reduce(np.abs(sizes).reshape(len(rules), -1), 1).tolist()
    return rules, peaks, values.ndim == 2


def integrate(f, a, b, kinks=(), config=DEFAULT_CONFIG):
    """Integrate vectorised ``f``, or a batch of M integrands, over [a, b].

    ``f`` maps N nodes to values of shape (N,), or (M, N) for a batch that
    shares the panels; it may instead return a ``(values, sizes)`` pair of
    the same shape.  Returns ``(value, error_estimate)``: floats for (N,)
    values, arrays of shape (M,) for a batch.  ``kinks`` are interior points
    where the integrands are continuous but not smooth; they become panel
    edges.

    Each component is accepted once its summed panel error falls below its
    own ``max(rtol * sum |panel|, 30 eps peak (b - a))``, where ``peak`` is
    the component's largest term size seen at any node.  An integrand whose
    value is a cancelling sum of larger terms returns ``(values, sizes)``
    with ``sizes`` the magnitude of those terms, so that the floor matches
    the rounding noise of the sum rather than the (much smaller) size of the
    sum itself.  Otherwise each failing component's fewest worst panels
    whose errors cover its excess over half its budget are halved, all of
    them in one call of ``f``; a panel's half rules become its children's
    coarse rules.  A batch of one is the scalar integral bit for bit, and
    exact zeros stay exact.
    """
    if b <= a:
        return 0.0, 0.0
    points = np.array(sorted({a, b, *(p for p in kinks if a < p < b)}), dtype=float)
    lo, mid, hi = points[:-1], 0.5 * (points[:-1] + points[1:]), points[1:]
    rules, peak, batched = _rules(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    m, n = len(rules), len(lo)
    # one column per panel; rows: lo, hi, the coarse rule of every component,
    # then each component's left-half and right-half rules
    panels = np.concatenate([lo[None], hi[None], rules[:, :n], rules[:, n:].reshape(2 * m, n)])
    while True:
        lo, hi = panels[0], panels[1]
        coarse, left, right = panels[2:2 + m], panels[2 + m::2], panels[3 + m::2]
        fine = left + right
        errs = np.abs(fine - coarse)
        # per component, as floats: few components are cheaper in Python
        err = np.add.reduce(errs, 1).tolist()
        if not all(map(math.isfinite, err)):
            c = next(c for c, e in enumerate(err) if not math.isfinite(e))
            i = np.argmax(~np.isfinite(errs[c]))
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] gives a non-finite value{_component(c, batched)}",
                achieved=err[c])
        sizes = np.add.reduce(np.abs(fine), 1).tolist()
        budget = [max(config.rtol * size, _NOISE * p * (b - a)) for size, p in zip(sizes, peak)]
        fail = [c for c in range(m) if not err[c] <= budget[c]]
        if not fail:
            break
        # each failing component's fewest worst panels whose errors cover its
        # excess over half its budget, worst first, component by component;
        # each panel once
        halve = np.zeros(panels.shape[1], dtype=bool)
        split = None
        for c in fail:
            order = errs[c].argsort()[::-1]
            worst = order[:int(errs[c, order].cumsum().searchsorted(err[c] - 0.5 * budget[c])) + 1]
            split = worst if split is None else np.concatenate([split, worst[~halve[worst]]])
            halve[worst] = True
        if panels.shape[1] + len(split) > MAX_PANELS:
            c = fail[0]
            i = np.argmax(errs[c])
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] did not converge{_component(c, batched)} (residual "
                f"{errs[c, i]:.3e}; error {err[c]:.3e} over budget {budget[c]:.3e} at "
                f"{panels.shape[1]} panels)", achieved=err[c])
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        # the children's ends and midpoints, left children first
        c_lo, c_hi = np.concatenate([s_lo, s_mid]), np.concatenate([s_mid, s_hi])
        c_mid = 0.5 * (c_lo + c_hi)
        quarters, quarter_peak, _ = _rules(f, np.concatenate([c_lo, c_mid]), np.concatenate([c_mid, c_hi]))
        peak = list(map(max, peak, quarter_peak))
        # the kept panels in their order, then the left children, then the
        # right; a child's coarse rule is its parent's half rule
        children = np.concatenate([
            c_lo[None], c_hi[None], panels[2 + m:, split].reshape(m, -1), quarters.reshape(2 * m, -1)])
        panels = np.concatenate([panels[:, ~halve], children], axis=1)
    # each component's sequential sum over the panels in order of k
    totals = []
    for row in fine.take(lo.argsort(), axis=1).tolist():
        total = 0.0
        for value in row:
            total += value
        totals.append(total)
    return (np.array(totals), np.array(err)) if batched else (totals[0], err[0])


def _component(c, batched):
    return f" in component {c}" if batched else ""


def velocity_kinks(critical_velocities):
    """Momenta in (-pi, pi) where |sin k| crosses one of the given values.

    Values outside (0, 1) produce no kink for the cosine band.  k = 0 is
    always included (|sin k| itself is non-smooth there).
    """
    ks = {0.0}
    for c in critical_velocities:
        if 0.0 < c < 1.0:
            k0 = math.asin(c)
            ks.update((k0, math.pi - k0, -k0, -(math.pi - k0)))
    return sorted(ks)


def momentum_integral(g, kinks=(), config=DEFAULT_CONFIG):
    """(value, err) of ``(1/2pi) int_{-pi}^{pi} g(k) dk`` with kink splitting."""
    value, err = integrate(g, -math.pi, math.pi, kinks=kinks, config=config)
    return value / (2.0 * math.pi), err / (2.0 * math.pi)
