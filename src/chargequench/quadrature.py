"""Adaptive Gauss-Legendre quadrature for piecewise-smooth integrands.

All momentum integrals in this library are of the form
``(1/2pi) * int_{-pi}^{pi} dk g(|sin k|, n(k))`` where ``g`` is smooth except
for kinks at a known, finite set of critical velocities (where a ballistic
light cone crosses the subsystem size).  Splitting the domain at those kinks
restores spectral convergence of fixed-order Gauss-Legendre panels; panels
that still disagree after bisection are subdivided until the requested
tolerance is met.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import QuadratureError

_TINY = 1e-300
NODES = 24  # Gauss-Legendre nodes per panel
MAX_DEPTH = 40  # bisections of one panel before QuadratureError


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


def _panel_value(f, a, b):
    """(panel integral, largest term size at the nodes).

    ``f`` returns either its values or a pair ``(values, sizes)`` where
    ``sizes`` bounds the terms whose sum (or difference) each value is.
    """
    x, w = _gauss_legendre()
    y = 0.5 * (b - a) * x + 0.5 * (a + b)
    out = f(y)
    values, sizes = out if isinstance(out, tuple) else (out, out)
    values = np.asarray(values, dtype=float)
    return 0.5 * (b - a) * float(np.dot(w, values)), float(np.max(np.abs(sizes)))


def _adaptive_panel(f, a, b, abs_tol, floor_density, config, depth=0):
    coarse, _ = _panel_value(f, a, b)
    mid = 0.5 * (a + b)
    left0, _ = _panel_value(f, a, mid)
    right0, _ = _panel_value(f, mid, b)
    fine = left0 + right0
    err = abs(fine - coarse)
    # floor_density * width is the floating-point noise budget of this panel;
    # residuals below it cannot be reduced by further subdivision.
    if err <= max(abs_tol, floor_density * (b - a), config.rtol * abs(fine)):
        return fine, err
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"panel [{a}, {b}] did not converge (residual {err:.3e})", achieved=err
        )
    left, el = _adaptive_panel(f, a, mid, 0.5 * abs_tol, floor_density, config, depth + 1)
    right, er = _adaptive_panel(f, mid, b, 0.5 * abs_tol, floor_density, config, depth + 1)
    return left + right, el + er


def integrate(f, a, b, kinks=(), config=DEFAULT_CONFIG):
    """Integrate vectorised ``f`` over [a, b].

    Returns ``(value, error_estimate)``.  ``kinks`` are interior points where
    the integrand is continuous but not smooth; they become panel boundaries.

    A panel is accepted once its residual falls below the relative tolerance
    or below the floating-point noise floor ``30 eps peak`` per unit width,
    where ``peak`` is the largest term size seen on the coarse pass.  An
    integrand whose value is a cancelling sum of larger terms returns
    ``(values, sizes)`` with ``sizes`` the magnitude of those terms, so that
    the floor matches the rounding noise of the sum rather than the (much
    smaller) size of the sum itself.
    """
    if b <= a:
        return 0.0, 0.0
    points = sorted({a, b, *(p for p in kinks if a < p < b)})
    panels = list(zip(points[:-1], points[1:]))

    # Coarse pass fixes the tolerance scales; exact zeros stay exact.  The
    # noise floor keys on the pointwise term sizes so that panels whose
    # residual is floating-point cancellation noise are accepted.
    scale = 0.0
    peak = 0.0
    for pa, pb in panels:
        value, panel_peak = _panel_value(f, pa, pb)
        scale += abs(value)
        peak = max(peak, panel_peak)
    abs_tol = config.rtol * max(scale, _TINY)
    floor_density = 30.0 * np.finfo(float).eps * peak

    total = 0.0
    err = 0.0
    width = b - a
    for pa, pb in panels:
        value, perr = _adaptive_panel(
            f, pa, pb, abs_tol * (pb - pa) / width, floor_density, config
        )
        total += value
        err += perr
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
