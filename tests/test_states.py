import math

import numpy as np
import pytest

from chargequench import (
    Pairing,
    QuenchState,
    get_state,
    occupation_dimer,
    occupation_neel,
    occupation_tilted,
    pair_entropy,
)
from chargequench.quadrature import momentum_integral
from chargequench.states import dimer_state, tilted_state

GRID = np.linspace(-math.pi, math.pi, 1001)


def test_occupation_neel_values():
    assert occupation_neel(0.0) == 0.5
    assert occupation_neel(math.pi) == 0.5
    # particle-hole identity at an arbitrary momentum
    assert occupation_neel(1.3 - math.pi) + occupation_neel(1.3) == 1.0


def test_occupation_dimer_values():
    assert occupation_dimer(0.0) == pytest.approx(0.0, abs=1e-15)
    assert occupation_dimer(math.pi) == pytest.approx(1.0, abs=1e-15)
    assert occupation_dimer(math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    # full relative precision near the zero, where (1 - cos k)/2 cancels
    assert occupation_dimer(1e-6) == pytest.approx(2.5e-13, rel=1e-12, abs=0)
    # the sign flag swaps the convention; entropies are blind to it
    assert occupation_dimer(0.0, plus_cos=True) == pytest.approx(1.0)
    assert np.allclose(
        pair_entropy(occupation_dimer(GRID)), pair_entropy(occupation_dimer(GRID, plus_cos=True))
    )


def test_occupation_tilted_values():
    ks = np.linspace(-math.pi, math.pi, 101)
    assert np.max(np.abs(occupation_tilted(ks, math.pi / 2) - occupation_dimer(ks))) < 1e-12
    assert occupation_tilted(0.0, math.pi / 2) == pytest.approx(0.0, abs=1e-15)
    # oracle: direct scalar evaluation of the implemented expression at theta = pi/3
    c = 0.5
    cos_big = ((1 + c * c) * 1.0 - 2 * c) / (1 - 2 * c * 1.0 + c * c)
    assert occupation_tilted(0.0, math.pi / 3) == pytest.approx(0.5 * (1 - cos_big), abs=1e-15)
    with pytest.raises(ValueError):
        occupation_tilted(0.0, 0.0)
    with pytest.raises(ValueError):
        occupation_tilted(0.0, math.pi)


def test_tilted_mean_density_matches_product_state():
    # onsite product state has density cos^2(theta/2)
    for theta in (0.4, math.pi / 3, 1.9, 2.8):
        mean, _ = momentum_integral(lambda k: occupation_tilted(k, theta))
        assert mean == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-10)


def test_pairing_invariants_on_grid():
    for occ in (get_state("neel").occupation, get_state("dimer").occupation):
        n = occ.evaluate(GRID)
        shifted = np.where(GRID - math.pi < -math.pi, GRID + math.pi, GRID - math.pi)
        assert np.max(np.abs(occ.evaluate(shifted) - (1 - n))) < 1e-12
        assert np.all((n >= 0) & (n <= 1))
    occ = tilted_state(1.1)
    assert np.max(np.abs(occ.evaluate(-GRID) - occ.evaluate(GRID))) < 1e-12


def test_pair_entropy_values():
    assert pair_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)
    assert pair_entropy(0.0) == 0.0
    assert pair_entropy(1.0) == 0.0
    assert pair_entropy(0.5, alpha=2.0) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(ValueError):
        pair_entropy(0.5, alpha=0.5)
    with pytest.raises(ValueError):
        pair_entropy(1.5)


def test_pair_entropy_symmetry_and_maximum():
    ns = np.linspace(0.0, 1.0, 201)
    for alpha in (1.0, 2.0, 3.0):
        s = pair_entropy(ns, alpha)
        assert np.max(np.abs(s - s[::-1])) < 1e-14  # n <-> 1-n
        assert np.argmax(s) == 100  # maximum at n = 1/2


def test_quench_state_densities():
    assert get_state("neel").mean_subsystem_charge_density == 0.5
    assert get_state("dimer").mean_subsystem_charge_density == 0.5
    sq = get_state(f"tilted:{math.pi / 3}")
    assert sq.mean_subsystem_charge_density == pytest.approx(math.cos(math.pi / 6) ** 2, abs=1e-10)


def test_registry_and_custom_files(tmp_path):
    assert get_state("neel").occupation.pairing is Pairing.SYMMETRIC_PARTICLE_HOLE
    assert get_state(f"tilted:{1.0}").occupation.pairing is Pairing.SQUEEZED_PAIR
    with pytest.raises(KeyError):
        get_state("bogus")
    # custom even function -> squeezed, linear interpolation with clamping
    ks = np.linspace(-math.pi, math.pi, 400)
    path = tmp_path / "occ.csv"
    np.savetxt(path, np.column_stack([ks, 0.5 * (1 - np.cos(ks))]), delimiter=",")
    state = get_state(f"custom:{path}")
    assert state.occupation.pairing is Pairing.SQUEEZED_PAIR
    assert state.occupation.evaluate(0.3) == pytest.approx(0.5 * (1 - math.cos(0.3)), abs=1e-4)
    assert state.occupation.evaluate(10.0) == state.occupation.evaluate(math.pi)  # clamped
    # neither symmetric nor even -> rejected
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, np.column_stack([ks, 0.5 + 0.3 * np.sin(ks)]), delimiter=",")
    with pytest.raises(ValueError):
        get_state(f"custom:{bad}")


def test_quench_state_from_occupation_matches_registry():
    st = QuenchState(dimer_state())
    assert st.mean_subsystem_charge_density == 0.5
