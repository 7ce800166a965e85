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
from .entropy import EntropyReport, _measured_reports, unmeasured_entropy
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


def _log_modulus(beta, n):
    # log|n e^{i b/2} + (1-n) e^{-i b/2}| = log|n e^{i b} + 1 - n|, one row per
    # beta: |z|^2 = 1 - 4n(1-n) sin^2(b/2) is evaluated with log1p to keep
    # relative accuracy at small beta, and as cos^2(b/2) + ((2n-1) sin(b/2))^2
    # beyond pi/2, where the log1p argument rounds to -1 as n -> 1/2 and
    # beta -> +-pi although |z| > 0 there; each form only on its own betas.
    half = beta[:, None] / 2.0
    sin = np.sin(half)
    wide = np.abs(beta) > math.pi / 2
    out = np.empty((len(beta), len(n)))
    out[~wide] = 0.5 * np.log1p(-4.0 * n * (1.0 - n) * sin[~wide] ** 2)
    out[wide] = 0.5 * np.log(np.cos(half[wide]) ** 2 + ((2 * n - 1) * sin[wide]) ** 2)
    return out


def _log_symmetric(beta, n):
    # (re, im) of log(n e^{i b/2} + (1-n) e^{-i b/2}) = log(cos(b/2) + i (2n-1)
    # sin(b/2)): the real part of the argument is >= 0 on |beta| <= pi, so the
    # principal branch is continuous along sweeps.
    half = beta[:, None] / 2.0
    return _log_modulus(beta, n), np.arctan2((2 * n - 1) * np.sin(half), np.cos(half))


def _log_double(beta, n):
    # (re, im) of log(n e^{2 i b} + 1 - n) = i b + log(cos b + i (2n-1) sin b):
    # the explicit i*b factor removes the winding for n > 1/2, leaving a
    # principal-branch-safe remainder for every n != 1/2 on |beta| < pi.  For
    # |beta| > pi/2 it jumps by 2 pi i where n = 1/2 (see
    # `OccupationFunction.half_filling_momenta`), and near |beta| = pi/2 it
    # peaks there.
    b = beta[:, None]
    return _log_modulus(2.0 * beta, n), b + np.arctan2((2 * n - 1) * np.sin(b), np.cos(b))


def _log_single(beta, n):
    # (re, im) of log(n e^{i beta} + 1 - n): the curve only reaches the
    # negative real axis at beta = +-pi (n > 1/2), so the principal branch is
    # continuous for |beta| < pi.
    b = beta[:, None]
    return _log_modulus(beta, n), np.arctan2(n * np.sin(b), (1.0 - n) + n * np.cos(b))


def fcs_generating_function(beta, tau, ell, occ: OccupationFunction, config=DEFAULT_CONFIG):
    """Cumulant generating function of the subsystem charge at time tau.

    Valid for tau < ell/2 (light cone).  Symmetric pairing:

        F(b) = i b ell/2 + 2 tau (1/2pi) int dk |v_k|
               log(n e^{i b/2} + (1-n) e^{-i b/2});

    squeezed pairing:

        F(b) = (ell/2) (1/2pi) int dk log(n e^{2 i b} + 1 - n)
             + tau (1/2pi) int dk |v_k|
               log[(n e^{i b} + 1 - n)^2 / (n e^{2 i b} + 1 - n)].

    ``beta`` is a number, giving a complex, or an array of them, giving a
    complex array; the real and imaginary parts of every nonzero beta are
    one batch of integrals on shared panels, and beta = 0 gives exactly 0.
    Branches are continuous along beta in [-pi, pi] by construction.
    """
    betas = np.asarray(beta, dtype=float)
    if not np.all(np.abs(betas) <= math.pi):
        raise ValueError("counting field restricted to the principal window [-pi, pi]")
    if tau >= ell / 2:
        raise RegimeError("closed-form FCS requires tau < ell/2")
    values = np.zeros(betas.shape, dtype=complex)
    live = betas != 0.0
    b = betas[live]
    if len(b):
        symmetric = occ.pairing is Pairing.SYMMETRIC_PARTICLE_HOLE

        def integrand(k):
            # rows: the real part at every beta, then the imaginary part,
            # built in place (the batch's temporaries set the peak memory)
            n = np.asarray(occ.evaluate(k), dtype=float)
            velocity = np.abs(np.sin(k))
            out = np.empty((2, len(b), len(n)))
            if symmetric:
                for row, part in zip(out, _log_symmetric(b, n)):
                    np.multiply(velocity, part, out=row)
            else:
                # (ell/2 - tau |v|) pair + 2 tau |v| single, one term at a time
                for row, pair in zip(out, _log_double(b, n)):
                    np.multiply(ell / 2.0 - tau * velocity, pair, out=row)
                for row, single in zip(out, _log_single(b, n)):
                    row += 2.0 * tau * velocity * single
            return out.reshape(2 * len(b), len(n))

        # |sin k| kinks at k = 0; at |beta| = pi the pair terms have log
        # singularities where n = 1/2
        kinks = (0.0, *occ.half_filling_momenta)
        parts, _ = momentum_integral(integrand, kinks=kinks, config=config)
        re, im = parts[:len(b)], parts[len(b):]
        if symmetric:
            values[live] = 1j * b * ell / 2.0 + 2.0 * tau * (re + 1j * im)
        else:
            values[live] = re + 1j * im
    return complex(values) if values.ndim == 0 else values


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
    (report,) = _measured_reports(
        unmeasured_entropy(1.0, t, ell, occ, config=config), (None, "geometry-logN-unknown"),
        [("chi~[2]_AAbar", chi)], [(sol, (2 * sol.lambdas[0],))], occ, config,
        saddle_center=center, saddle_variance=sigma2, **diagnostics,
    )
    return report
