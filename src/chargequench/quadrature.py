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
    # built on first use, so that importing the package does not load numpy.polynomial
    return np.polynomial.legendre.leggauss(NODES)


def _rules(f, lo, hi):
    """(rule on each panel [lo_i, hi_i], largest term size), one call of ``f``."""
    x, w = _gauss_legendre()
    half = 0.5 * (hi - lo)
    nodes = half[:, None] * x + (0.5 * (lo + hi))[:, None]
    out = f(nodes.ravel())
    values, sizes = out if isinstance(out, tuple) else (out, out)
    values = np.asarray(values, dtype=float).reshape(nodes.shape)
    rules = np.array([h * float(np.dot(w, row)) for h, row in zip(half, values)])
    return rules, float(np.max(np.abs(sizes)))


def integrate(f, a, b, kinks=(), config=DEFAULT_CONFIG):
    """Integrate vectorised ``f`` over [a, b].

    Returns ``(value, error_estimate)``.  ``kinks`` are interior points where
    the integrand is continuous but not smooth; they become panel edges.

    The integral is accepted once the summed panel error falls below
    ``max(rtol * sum |panel|, 30 eps peak (b - a))``, where ``peak`` is the
    largest term size seen at any node.  An integrand whose value is a
    cancelling sum of larger terms returns ``(values, sizes)`` with ``sizes``
    the magnitude of those terms, so that the floor matches the rounding
    noise of the sum rather than the (much smaller) size of the sum itself.
    Otherwise the fewest worst panels whose errors cover the excess over half
    the budget are halved, in one call of ``f``; a panel's half rules become
    its children's coarse rules.  Exact zeros stay exact.
    """
    if b <= a:
        return 0.0, 0.0
    points = np.array(sorted({a, b, *(p for p in kinks if a < p < b)}), dtype=float)
    lo, mid, hi = points[:-1], 0.5 * (points[:-1] + points[1:]), points[1:]
    rules, peak = _rules(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    panels = np.vstack([lo, hi, *np.split(rules, 3)])
    while True:
        lo, hi, coarse, left, right = panels
        fine = left + right
        errs = np.abs(fine - coarse)
        err = float(np.sum(errs))
        if not math.isfinite(err):
            i = np.argmax(~np.isfinite(errs))
            raise QuadratureError(f"panel [{lo[i]}, {hi[i]}] gives a non-finite value", achieved=err)
        budget = max(config.rtol * float(np.sum(np.abs(fine))), _NOISE * peak * (b - a))
        if err <= budget:
            break
        order = np.argsort(errs)[::-1]
        count = int(np.searchsorted(np.cumsum(errs[order]), err - 0.5 * budget)) + 1
        if panels.shape[1] + count > MAX_PANELS:
            i = order[0]
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] did not converge (residual {errs[i]:.3e}; error "
                f"{err:.3e} over budget {budget:.3e} at {panels.shape[1]} panels)", achieved=err)
        split = order[:count]
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        q_lo, q_hi = 0.5 * (s_lo + s_mid), 0.5 * (s_mid + s_hi)
        quarters, batch_peak = _rules(f, np.concatenate([s_lo, q_lo, s_mid, q_hi]),
                                      np.concatenate([q_lo, s_mid, q_hi, s_hi]))
        peak = max(peak, batch_peak)
        ll, lr, rl, rr = np.split(quarters, 4)
        children = [[s_lo, s_mid, left[split], ll, lr], [s_mid, s_hi, right[split], rl, rr]]
        panels = np.hstack([np.delete(panels, split, axis=1), *children])
    total = 0.0
    for value in fine[np.argsort(lo)].tolist():
        total += value
    return total, err


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
