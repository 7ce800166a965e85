import math

import numpy as np
import pytest

from chargequench import (
    fcs_generating_function,
    geometry_entropy,
    GeometrySpec,
    get_state,
    pair_entropy,
    unmeasured_entropy,
    variance_squeezed,
    variance_symmetric,
)
from chargequench.errors import RegimeError
from chargequench.extensions import (
    MEASURE_COMPLEMENT,
    MEASURE_DISJOINT,
    MEASURE_SUBSYSTEM,
)
from chargequench.quadrature import momentum_integral
from chargequench.saddle import modified_occupation
from chargequench.states import OccupationFunction


def test_fcs_zero_field(neel, tilted_max):
    assert fcs_generating_function(0.0, 50.0, 1000.0, neel.occupation) == 0.0
    assert fcs_generating_function(0.0, 50.0, 1000.0, tilted_max.occupation) == 0.0


def test_fcs_first_cumulant(dimer, tilted_max):
    tau, ell = 50.0, 1000.0
    h = 1e-5
    for occ, mean in ((dimer.occupation, ell / 2), (tilted_max.occupation, ell / 2)):
        f = lambda b: fcs_generating_function(b, tau, ell, occ)
        first = (f(h) - f(-h)) / (2 * h)
        assert (first / 1j).real == pytest.approx(mean, rel=1e-6)


def test_fcs_second_cumulant_matches_variance(neel, dimer, tilted_max):
    tau, ell = 50.0, 1000.0
    h = 1e-4
    for occ in (neel.occupation, dimer.occupation):
        f = lambda b: fcs_generating_function(b, tau, ell, occ)
        second = (f(h) - 2 * f(0.0) + f(-h)) / h**2
        assert (-second).real == pytest.approx(
            variance_symmetric(tau, ell, occ), abs=1e-6
        )
    f = lambda b: fcs_generating_function(b, tau, ell, tilted_max.occupation)
    second = (f(h) - 2 * f(0.0) + f(-h)) / h**2
    assert (-second).real == pytest.approx(
        variance_squeezed(tau, ell, tilted_max.occupation), abs=1e-5
    )


def test_fcs_full_window_symmetric(neel, dimer):
    # exact on the float grid, the ends +-math.pi included: log cos(pi/2) is
    # log 6.1e-17 (F = -285.19 at tau = 6), not -inf; the dimer's log|cos k|
    # singularities at n = 1/2 integrate to -4 tau / pi
    tau, ell = 6.0, 40.0
    for beta in np.linspace(-math.pi, math.pi, 21):
        expected = 1j * beta * ell / 2 + (4 * tau / math.pi) * math.log(math.cos(beta / 2))
        assert fcs_generating_function(beta, tau, ell, neel.occupation) == pytest.approx(
            expected, rel=1e-12, abs=1e-12
        )
    for beta in (-math.pi, math.pi):
        value = fcs_generating_function(beta, tau, ell, dimer.occupation)
        assert value.real == pytest.approx(-4 * tau / math.pi, rel=1e-9)


def test_fcs_reality_and_regime(dimer, tilted_max):
    for occ in (dimer.occupation, tilted_max.occupation):
        for beta in (0.3, 1.2, 2.9):
            assert fcs_generating_function(beta, 40.0, 1000.0, occ) == pytest.approx(
                np.conj(fcs_generating_function(-beta, 40.0, 1000.0, occ))
            )
    with pytest.raises(RegimeError):
        fcs_generating_function(0.5, 600.0, 1000.0, dimer.occupation)
    with pytest.raises(ValueError):
        fcs_generating_function(4.0, 40.0, 1000.0, dimer.occupation)


def test_fcs_sweep_continuity(tilted_max):
    # halving the step halves the increments: no 2-pi branch jumps.  For
    # theta != pi/2 and |beta| > pi/2 the integrand jumps where n(k) = 1/2,
    # away from any bisection point of [-pi, pi].
    tau, ell = 40.0, 1000.0
    for occ, lo, hi in ((tilted_max.occupation, 0.5, 3.0), (get_state("tilted:1.1").occupation, -3.0, 3.0)):
        vc = np.array([fcs_generating_function(b, tau, ell, occ) for b in np.linspace(lo, hi, 21)])
        vf = np.array([fcs_generating_function(b, tau, ell, occ) for b in np.linspace(lo, hi, 41)])
        assert np.all(np.isfinite(vc)) and np.all(np.isfinite(vf))
        inc_c = np.max(np.abs(np.diff(vc)))
        inc_f = np.max(np.abs(np.diff(vf)))
        assert inc_f < 0.75 * inc_c


def test_geometry_disjoint_light_cone(tilted_max):
    ell = 100.0
    geom = GeometrySpec(MEASURE_DISJOINT, distance=50.0, ell_b=40.0)
    for t in np.linspace(1.0, 0.99 * 50.0, 8):
        rep = geometry_entropy(geom, t, ell, 22.0, tilted_max.occupation)
        assert abs(rep.total - rep.baseline) < 1e-6
    transient = geometry_entropy(geom, 90.0, ell, 22.0, tilted_max.occupation)
    assert abs(transient.total - transient.baseline) > 1e-4
    late = geometry_entropy(geom, 5e4, ell, 22.0, tilted_max.occupation)
    assert abs(late.total - late.baseline) < 1e-5


def test_geometry_complement_saturation(tilted_max):
    ell, big_l = 100.0, 1000.0
    geom = GeometrySpec(MEASURE_COMPLEMENT, total_length=big_l)
    center = big_l / 2 - ell / 2
    # dq = 0: long-time limit is the unperturbed plateau ell * int s[n]
    rep = geometry_entropy(geom, 100 * ell, ell, center, tilted_max.occupation)
    plateau, _ = momentum_integral(lambda k: ell * pair_entropy(tilted_max.occupation.evaluate(k)))
    assert abs(rep.total - plateau) < 1e-3
    # dq != 0: saturates to ell * int s[n_2dq]
    q = center + 40.0
    rep = geometry_entropy(geom, 100 * ell, ell, q, tilted_max.occupation)
    lam = rep.diagnostics["saddle"]["lambdas"][0]
    target, _ = momentum_integral(
        lambda k: ell * pair_entropy(modified_occupation(tilted_max.occupation.evaluate(k), lam, 2))
    )
    assert abs(rep.total - target) < 1e-3


def test_geometry_complement_continuity(tilted_max):
    # No jumps beyond the smooth ballistic slope: every difference quotient of
    # the total is bounded by the largest growth rate of the baseline,
    # (1/2pi) int dk 2|v_k| s[n], plus that of the measured term, whose
    # counting function grows at most at 2|v_k|.
    ell = 100.0
    occ = tilted_max.occupation
    geom = GeometrySpec(MEASURE_COMPLEMENT, total_length=1000.0)
    q = 1000.0 / 2 - ell / 2 + 20.0

    def total(t):
        return geometry_entropy(geom, t, ell, q, occ).total

    lam = geometry_entropy(geom, 10.0, ell, q, occ).diagnostics["saddle"]["lambdas"][0]

    def entropy_shift(k):
        n = occ.evaluate(k)
        return pair_entropy(modified_occupation(n, lam, 2)) - pair_entropy(n)

    baseline_rate, _ = momentum_integral(lambda k: 2 * np.abs(np.sin(k)) * pair_entropy(occ.evaluate(k)))
    measured_rate, _ = momentum_integral(lambda k: 2 * np.abs(np.sin(k)) * np.abs(entropy_shift(k)))
    ts = np.linspace(10.0, 300.0, 30)
    quotients = list(np.diff([total(t) for t in ts]) / np.diff(ts))
    # the light-cone times ell/2 and ell, where the counting functions kink,
    # on a scale that turns any jump above ~1e-3 into a quotient above the bound
    delta = 1e-3
    quotients += [(total(tc + delta) - total(tc - delta)) / (2 * delta) for tc in (ell / 2, ell)]
    assert np.max(np.abs(quotients)) < baseline_rate + measured_rate


def test_geometry_validation(neel, tilted_max):
    with pytest.raises(ValueError):
        GeometrySpec(MEASURE_DISJOINT, distance=-1.0, ell_b=5.0)
    with pytest.raises(ValueError):
        GeometrySpec("nowhere")
    geom = GeometrySpec(MEASURE_COMPLEMENT, total_length=1000.0)
    with pytest.raises(ValueError):
        geometry_entropy(geom, 10.0, 100.0, 450.0, neel.occupation)  # symmetric state
    with pytest.raises(ValueError):
        geometry_entropy(GeometrySpec(MEASURE_SUBSYSTEM), 10.0, 100.0, 50.0, tilted_max.occupation)
    small = GeometrySpec(MEASURE_DISJOINT, distance=2.0, ell_b=3.0)
    rep = geometry_entropy(small, 1.0, 100.0, 1.0, tilted_max.occupation)
    assert "hydrodynamic-warning" in rep.diagnostics
    with pytest.raises(ValueError):
        geometry_entropy(GeometrySpec(MEASURE_COMPLEMENT, total_length=50.0), 1.0, 100.0, 10.0,
                         tilted_max.occupation)


def test_fcs_sweep_finds_the_half_filling_momenta_once():
    # the n(k) = 1/2 scan (a 2049-point grid) runs once per state, not per beta,
    # and a fresh state per beta (a new scan each time) gives the same bits
    scans = []
    base = get_state("tilted:1.1").occupation

    def evaluate(k):
        if np.shape(k) == (2049,):
            scans.append(k)
        return base.evaluate(k)

    occ = OccupationFunction(evaluate, base.pairing, base.label, base.mean_density)
    betas = np.linspace(-3.14, 3.14, 41)
    values = [fcs_generating_function(b, 3.0, 40.0, occ) for b in betas]
    assert len(scans) == 1
    fresh = [fcs_generating_function(b, 3.0, 40.0, get_state("tilted:1.1").occupation) for b in betas]
    assert values == fresh
