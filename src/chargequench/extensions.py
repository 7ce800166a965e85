"""Full counting statistics and alternate measurement geometries.

The FCS generating functions are the single-measurement multiplier
integrals at coincident measurement and observation times; the geometry
variants (measure the complement of A, or a disjoint interval B) reuse the
counting classifier with a different measured region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import FINAL_SHARED, ConfigurationClass, MeasurementProtocol, counting_function
from .entropy import EntropyReport, _measured_report
from .errors import RegimeError
from .fluctuations import variance_saturated
from .quadrature import DEFAULT_CONFIG, momentum_integral
from .saddle import SaddleSolution
from .states import OccupationFunction, Pairing

MEASURE_SUBSYSTEM = "subsystem"
MEASURE_COMPLEMENT = "complement"
MEASURE_DISJOINT = "disjoint"

_HYDRO_MINIMUM = 10.0


@dataclass(frozen=True)
class GeometrySpec:
    """Where the charge is measured relative to the entangled interval A.

    ``complement`` needs the total length L; ``disjoint`` needs the gap d
    and the measured length ell_b (B sits to the right of A).
    """

    measured_region: str
    distance: float = 0.0
    ell_b: float = 0.0
    total_length: float = 0.0

    def __post_init__(self):
        if self.measured_region not in (MEASURE_SUBSYSTEM, MEASURE_COMPLEMENT, MEASURE_DISJOINT):
            raise ValueError(f"unknown geometry {self.measured_region!r}")
        if self.measured_region == MEASURE_DISJOINT and (self.distance < 0 or self.ell_b <= 0):
            raise ValueError("disjoint geometry needs d >= 0 and ell_b > 0")


# ---------------------------------------------------------------------------
# Full counting statistics
# ---------------------------------------------------------------------------


def _log_branch_symmetric(beta, n):
    # log(n e^{i b/2} + (1-n) e^{-i b/2}) = log(cos(b/2) + i (2n-1) sin(b/2));
    # the real part of the argument is >= 0 on |beta| <= pi so the principal
    # branch is continuous along sweeps.  |z|^2 = 1 - 4n(1-n) sin^2(b/2) is
    # evaluated with log1p to keep relative accuracy at small beta, and as
    # cos^2(b/2) + ((2n-1) sin(b/2))^2 beyond pi/2, where the log1p argument
    # rounds to -1 at n = 1/2 and beta = +-pi although |z| > 0 there.
    half = beta / 2.0
    if abs(beta) <= math.pi / 2:
        re = 0.5 * np.log1p(-4.0 * n * (1.0 - n) * np.sin(half) ** 2)
    else:
        re = 0.5 * np.log(math.cos(half) ** 2 + ((2 * n - 1) * math.sin(half)) ** 2)
    im = np.arctan2((2 * n - 1) * np.sin(half), np.cos(half))
    return re + 1j * im


def _log_branch_double(beta, n):
    # log(n e^{2 i b} + 1 - n) = i b + log(cos b + i (2n-1) sin b): the
    # explicit i*b factor removes the winding for n > 1/2, leaving a
    # principal-branch-safe remainder for every n != 1/2 on |beta| < pi.
    # For |beta| > pi/2 it jumps by 2 pi i where n = 1/2 (see
    # `OccupationFunction.half_filling_momenta`), and near |beta| = pi/2 it
    # peaks there.
    re = 0.5 * np.log1p(-4.0 * n * (1.0 - n) * np.sin(beta) ** 2)
    im = beta + np.arctan2((2 * n - 1) * np.sin(beta), np.cos(beta))
    return re + 1j * im


def fcs_generating_function(
    beta, tau, ell, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> complex:
    """Cumulant generating function of the subsystem charge at time tau.

    Valid for tau < ell/2 (light cone).  Symmetric pairing:

        F(b) = i b ell/2 + 2 tau (1/2pi) int dk |v_k|
               log(n e^{i b/2} + (1-n) e^{-i b/2});

    squeezed pairing:

        F(b) = (ell/2) (1/2pi) int dk log(n e^{2 i b} + 1 - n)
             + tau (1/2pi) int dk |v_k|
               log[(n e^{i b} + 1 - n)^2 / (n e^{2 i b} + 1 - n)].

    Branches are continuous along beta in [-pi, pi] by construction.
    """
    if not -math.pi <= beta <= math.pi:
        raise ValueError("counting field restricted to the principal window [-pi, pi]")
    if tau >= ell / 2:
        raise RegimeError("closed-form FCS requires tau < ell/2")
    if beta == 0.0:
        return 0.0 + 0.0j

    # at |beta| = pi the pair terms have log singularities where n = 1/2
    kinks = occ.half_filling_momenta
    if occ.pairing is Pairing.SYMMETRIC_PARTICLE_HOLE:

        def real_part(k):
            return np.real(np.abs(np.sin(k)) * _log_branch_symmetric(beta, occ.evaluate(k)))

        def imag_part(k):
            return np.imag(np.abs(np.sin(k)) * _log_branch_symmetric(beta, occ.evaluate(k)))

        re, _ = momentum_integral(real_part, kinks=kinks, config=config)
        im, _ = momentum_integral(imag_part, kinks=kinks, config=config)
        return 1j * beta * ell / 2.0 + 2.0 * tau * (re + 1j * im)

    def integrand(k, part):
        n = np.asarray(occ.evaluate(k), dtype=float)
        pair_term = _log_branch_double(beta, n)
        single_term = _log_single(beta, n)
        value = (ell / 2.0) * pair_term + tau * np.abs(np.sin(k)) * (
            2.0 * single_term - pair_term
        )
        return np.real(value) if part == "re" else np.imag(value)

    re, _ = momentum_integral(lambda k: integrand(k, "re"), kinks=kinks, config=config)
    im, _ = momentum_integral(lambda k: integrand(k, "im"), kinks=kinks, config=config)
    return re + 1j * im


def _log_single(beta, n):
    # log(n e^{i beta} + 1 - n): |z|^2 = 1 - 4n(1-n) sin^2(beta/2); the curve
    # only reaches the negative real axis at beta = +-pi (n > 1/2), so the
    # principal branch is continuous for |beta| < pi.
    re = 0.5 * np.log1p(-4.0 * n * (1.0 - n) * np.sin(beta / 2.0) ** 2)
    im = np.arctan2(n * np.sin(beta), (1.0 - n) + n * np.cos(beta))
    return re + 1j * im


# ---------------------------------------------------------------------------
# Alternate geometries
# ---------------------------------------------------------------------------


def geometry_entropy(
    geom: GeometrySpec, t, ell, q, occ: OccupationFunction, config=DEFAULT_CONFIG
) -> EntropyReport:
    """Entropy of A = [0, ell] after one t=0 charge measurement elsewhere.

    Both geometries are squeezed-state results: a measurement at time zero
    only touches whole pairs, so every affected pair carries tilt weight 2.
    The complement case uses the saddle centred at ``L/2 - qbar``; the
    disjoint case at the mean charge of B.  No log-prefactor convention is
    known for these geometries; the classical term is flagged and omitted.
    """
    if occ.pairing is not Pairing.SQUEEZED_PAIR:
        raise ValueError("geometry variants are defined for squeezed-pair states")
    if geom.measured_region == MEASURE_SUBSYSTEM:
        raise ValueError("use entropy_squeezed_single for measurements on A itself")

    diagnostics = {}
    small = []
    if ell < _HYDRO_MINIMUM:
        small.append("ell")
    qbar_density = occ.mean_density
    nn_bar = variance_saturated(1.0, occ, config=config)  # (1/2pi) int n(1-n)

    if geom.measured_region == MEASURE_COMPLEMENT:
        big_l = geom.total_length
        if big_l <= ell:
            raise ValueError("complement geometry needs total length L > ell")
        center = big_l / 2.0 - qbar_density * ell
        sigma2 = 2.0 * (big_l - ell) * nn_bar
        # Counting treats the complement as infinite (no wraparound); pairs
        # farther than t + ell can never reach A by time t, so truncating
        # there is exact.  L enters only through the saddle center/variance.
        reach = t + ell + 1.0
        region = [(-reach, 0.0), (ell, ell + reach)]
    else:
        if geom.distance < _HYDRO_MINIMUM or geom.ell_b < _HYDRO_MINIMUM:
            small.append("d/ell_b")
        center = qbar_density * geom.ell_b
        sigma2 = 2.0 * geom.ell_b * nn_bar
        region = [(ell + geom.distance, ell + geom.distance + geom.ell_b)]
    if small:
        diagnostics["hydrodynamic-warning"] = (
            f"geometry scales below {_HYDRO_MINIMUM:g} sites: {', '.join(small)}"
        )
    if sigma2 <= 0:
        raise RegimeError("measured region carries no charge fluctuations")

    protocol = MeasurementProtocol(ell=ell, tau=0.0, m=1, t=t, outcomes=(q,))
    # Unpinned class at half weight: asymmetric measured regions feed A from
    # one side only, so the two member pins are not equivalent here.
    chi = counting_function([ConfigurationClass((2,), FINAL_SHARED, None)], protocol, region,
                            weight=0.5)
    sol = SaddleSolution(((q - center) / sigma2,), "linearized", f"geometry-{geom.measured_region}")
    return _measured_report(
        protocol, occ, [("chi~[2]_AAbar", chi, 2 * sol.lambdas[0])], sol,
        (None, "geometry-logN-unknown"), config,
        saddle_center=center, saddle_variance=sigma2, **diagnostics,
    )
