import math

import numpy as np
import pytest
from scipy.integrate import quad

from chargequench import (
    ASYMMETRY_REGIME_EXCEEDED,
    asymmetry,
    drude_weight,
    get_state,
    number_entropy,
    quadrature,
    variance_squeezed,
    variance_symmetric,
)
from chargequench.counting import light_cone_weight
from chargequench.entropy import unmeasured_entropy
from chargequench.fluctuations import variance_saturated
from chargequench.quadrature import momentum_integral
from chargequench.states import OccupationFunction, Pairing, pair_entropy


def _flat(value, pairing=Pairing.SQUEEZED_PAIR):
    return OccupationFunction(lambda k: np.full_like(np.asarray(k, float), value), pairing, "flat")


def test_variance_symmetric_fixtures(neel, dimer):
    for tau in (10.0, 50.0, 200.0):
        assert variance_symmetric(tau, 1000.0, neel.occupation) == pytest.approx(
            tau / math.pi, abs=1e-8
        )
        assert variance_symmetric(tau, 1000.0, dimer.occupation) == pytest.approx(
            2 * tau / (3 * math.pi), abs=1e-8
        )
    assert variance_symmetric(0.0, 100.0, neel.occupation) == 0.0


def test_variance_squeezed_fixtures(tilted_max):
    ell = 1000.0
    for tau in (10.0, 100.0, 200.0):
        assert variance_squeezed(tau, ell, tilted_max.occupation) == pytest.approx(
            ell / 4 - 2 * tau / (3 * math.pi), abs=1e-8
        )
    assert variance_squeezed(1e6 * ell, ell, tilted_max.occupation) == pytest.approx(
        ell / 8, abs=1e-8
    )
    assert variance_squeezed(5.0, ell, _flat(0.0)) == 0.0


def test_variance_monotonicity_and_saturation(dimer, tilted_max):
    ell = 60.0
    taus = np.linspace(0, 3 * ell, 25)
    sym = [variance_symmetric(tau, ell, dimer.occupation) for tau in taus]
    assert np.all(np.diff(sym) >= -1e-12)
    sat = variance_saturated(ell, dimer.occupation)
    assert sym[-1] <= sat + 1e-10
    # slow modes saturate only asymptotically; the deficit decays as 1/tau^3
    assert variance_symmetric(1e5, ell, dimer.occupation) == pytest.approx(sat, abs=1e-8)
    sq = [variance_squeezed(tau, ell, tilted_max.occupation) for tau in taus]
    assert np.all(np.diff(sq) <= 1e-12)
    # saturates to half the initial value (asymptotically in tau)
    assert variance_squeezed(1e5, ell, tilted_max.occupation) == pytest.approx(
        0.5 * variance_squeezed(0.0, ell, tilted_max.occupation), abs=1e-9
    )


def test_linear_growth_equals_drude(neel, dimer):
    ell = 500.0
    for state in (neel, dimer):
        d = drude_weight(state.occupation)
        for tau in (7.0, 33.0):
            assert variance_symmetric(tau, ell, state.occupation) == pytest.approx(
                2 * tau * d, abs=1e-9
            )


def test_drude_values(neel, dimer):
    # independent quadrature oracles
    oracle_neel = quad(lambda k: abs(math.sin(k)) * 0.25 / (2 * math.pi), -math.pi, math.pi)[0]
    oracle_dimer = quad(
        lambda k: abs(math.sin(k)) * math.sin(k) ** 2 / 4 / (2 * math.pi), -math.pi, math.pi
    )[0]
    assert drude_weight(neel.occupation) == pytest.approx(oracle_neel, abs=1e-12)
    assert drude_weight(neel.occupation) == pytest.approx(1 / (2 * math.pi), abs=1e-12)
    assert drude_weight(dimer.occupation) == pytest.approx(oracle_dimer, abs=1e-12)
    assert drude_weight(dimer.occupation) == pytest.approx(1 / (3 * math.pi), abs=1e-12)
    assert drude_weight(_flat(1.0)) == 0.0


def test_number_entropy():
    assert number_entropy(1 / (2 * math.pi * math.e)) == pytest.approx(0.0, abs=1e-14)
    s = number_entropy(100 / math.pi)
    assert s == pytest.approx(0.5 * math.log(200 * math.e), abs=1e-12)
    assert number_entropy(2.0) - number_entropy(1.0) == pytest.approx(0.5 * math.log(2), abs=1e-14)
    with pytest.raises(ValueError):
        number_entropy(0.0)


def test_asymmetry(tilted_max):
    ell = 1000.0
    # tau = 0 coincides with the number entropy of the initial fluctuations
    assert asymmetry(0.0, ell, tilted_max.occupation) == pytest.approx(
        number_entropy(variance_squeezed(0.0, ell, tilted_max.occupation)), abs=1e-10
    )
    # oracle: direct quadrature of the defining integrand
    tau = 60.0
    chi = quad(
        lambda k: 2 * (ell - min(2 * abs(math.sin(k)) * tau, ell)) * math.sin(k) ** 2 / 4
        / (2 * math.pi),
        -math.pi,
        math.pi,
        points=[math.asin(min(1, ell / (2 * tau)))],
    )[0]
    assert asymmetry(tau, ell, tilted_max.occupation) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e * chi), abs=1e-8
    )
    assert chi == pytest.approx(ell / 4 - 4 * tau / (3 * math.pi), abs=1e-8)
    # no fluctuations -> sentinel
    assert asymmetry(1.0, ell, _flat(1.0)) == ASYMMETRY_REGIME_EXCEEDED
    with pytest.raises(ValueError):
        asymmetry(1.0, ell, OccupationFunction(lambda k: np.full_like(np.asarray(k, float), 0.5), Pairing.SYMMETRIC_PARTICLE_HOLE, "x"))


@pytest.mark.parametrize("name", ["neel", "dimer"])
def test_weighted_occupation_integrals_are_the_hand_written_ones_bit_for_bit(name):
    # whether a crossover classical term is NaN in bench/refs is decided by
    # the last bits of sigma_T^2: `CountingFunction.integral` must keep the
    # product w(k) * (n (1.0 - n)) of the closures it replaced
    occ = get_state(name).occupation
    for time in (0.0, 3.0, 6.0, 20.0, 30.0):
        w = light_cone_weight(time, 40.0)
        n = occ.evaluate
        variance, _ = momentum_integral(lambda k: w(k) * (n(k) * (1.0 - n(k))), kinks=w.kinks)
        entropy, _ = momentum_integral(lambda k: w(k) * pair_entropy(n(k), 1.0), kinks=w.kinks)
        assert variance_symmetric(time, 40.0, occ) == variance
        assert unmeasured_entropy(1.0, time, 40.0, occ) == entropy


def test_flat_and_velocity_weights_settle_in_one_integrand_call(monkeypatch):
    # their weights kink at k = 0, where |sin k| does: it is a panel edge
    calls = []
    integrate = quadrature.integrate

    def counted(f, *args, **kwargs):
        return integrate(lambda k: calls.append(k) or f(k), *args, **kwargs)

    monkeypatch.setattr(quadrature, "integrate", counted)
    occ = get_state("tilted:1.1").occupation
    for integral in (drude_weight, lambda occ: variance_saturated(40.0, occ)):
        calls.clear()
        assert math.isfinite(integral(occ)) and len(calls) == 1
    assert variance_saturated(40.0, get_state("dimer").occupation) == 5.0
