import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargequench import counting
from chargequench.counting import (
    FINAL_BOTH_IN,
    FINAL_BOTH_OUT,
    FINAL_SHARED,
    LEFT_MOVER,
    RIGHT_MOVER,
    ConfigurationClass,
    MeasurementProtocol,
    counting_function,
    counting_measure,
    enumerate_classes,
    light_cone_weight,
    shared_suffix_chis,
    shared_suffix_classes,
    velocity_breakpoints,
)
from chargequench.errors import RegimeError
from chi_oracles import chi_closed_forms, chi_shared_suffix, paper_chi, single_measurement_chis
from interval_oracle import classifier_measure


def test_counting_measure_shared_once_formula():
    # one member inside A at tau and t, partner outside at both: equals
    # min(2|v|t, ell) - min(2|v|(t-tau), ell) inside the light cone
    rng = np.random.default_rng(3)
    for _ in range(50):
        ell = rng.uniform(5, 40)
        k = rng.uniform(-math.pi, math.pi)
        v = abs(math.sin(k))
        t = rng.uniform(0.1, ell / 2.001 / max(v, 1e-9))
        tau = rng.uniform(0, t)
        if 2 * v * t > ell:
            continue
        prot = MeasurementProtocol(ell=ell, tau=tau, m=1, t=t)
        cls = ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER)
        expected = min(2 * v * t, ell) - min(2 * v * (t - tau), ell)
        assert counting_measure(cls, k, prot) == pytest.approx(expected, abs=1e-12)


def test_counting_measure_full_pair_at_zero_time():
    prot = MeasurementProtocol(ell=7.0, tau=0.0, m=1, t=0.0)
    cls = ConfigurationClass((2,), FINAL_BOTH_IN)
    # all pairs born inside A: raw pair measure is ell
    assert counting_measure(cls, 1.0, prot) == pytest.approx(7.0, abs=1e-12)


def test_counting_measure_matches_closed_forms_everywhere():
    # single measurement closed forms are exact for every (k, tau, t, ell)
    rng = np.random.default_rng(7)
    keymap = {
        "chi[1]_AAbar": ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER),
        "chi[1]_AbarAbar": ConfigurationClass((1,), FINAL_BOTH_OUT, RIGHT_MOVER),
        "chi[0]_AAbar": ConfigurationClass((0,), FINAL_SHARED, RIGHT_MOVER),
        "chi[2]_AAbar": ConfigurationClass((2,), FINAL_SHARED, RIGHT_MOVER),
        "chi[2]_AA": ConfigurationClass((2,), FINAL_BOTH_IN),
        "chi[2]_AbarAbar": ConfigurationClass((2,), FINAL_BOTH_OUT),
    }
    for _ in range(300):
        ell = rng.uniform(0.5, 30)
        tau = rng.uniform(0, 10)
        t = tau + rng.uniform(0, 20)
        k = rng.uniform(-math.pi, math.pi)
        prot = MeasurementProtocol(ell=ell, tau=tau, m=1, t=t)
        forms = chi_closed_forms(prot, k).lengths
        for key, cls in keymap.items():
            assert paper_chi(cls, k, prot) == pytest.approx(forms[key], abs=1e-11), key


def test_member_pins_are_mirror_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(40):
        prot = MeasurementProtocol(
            ell=rng.uniform(1, 20), tau=rng.uniform(0, 5), m=1, t=rng.uniform(5, 20)
        )
        k = rng.uniform(-math.pi, math.pi)
        right = counting_measure(ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER), k, prot)
        left = counting_measure(ConfigurationClass((1,), FINAL_SHARED, LEFT_MOVER), k, prot)
        assert right == pytest.approx(left, abs=1e-12)


def test_sum_rules_random_schedules():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        tau = rng.uniform(0.1, 4)
        ell = rng.uniform(0.5, 15)
        t = m * tau + rng.uniform(0, 25)
        k = rng.uniform(-math.pi, math.pi)
        v = abs(math.sin(k))
        prot = MeasurementProtocol(ell=ell, tau=tau, m=m, t=t)
        classes = enumerate_classes(m)
        shared_t = sum(paper_chi(c, k, prot) for c in classes if c.final == FINAL_SHARED)
        assert shared_t == pytest.approx(min(2 * v * t, ell), abs=1e-10)
        for j in range(m):
            tj = (j + 1) * tau
            shared_j = sum(paper_chi(c, k, prot) for c in classes if c.counts[j] == 1)
            assert shared_j == pytest.approx(min(2 * v * tj, ell), abs=1e-10)
            full_j = sum(
                0.5 * counting_measure(ConfigurationClass(c.counts, c.final, None), k, prot)
                for c in classes
                if c.counts[j] == 2
            )
            assert full_j == pytest.approx(0.5 * (ell - min(2 * v * tj, ell)), abs=1e-10)


def test_closed_forms_regimes_and_multi():
    prot = MeasurementProtocol(ell=100.0, tau=5.0, m=1, t=20.0)
    assert chi_closed_forms(prot, 1.0).regime == "light-cone"
    prot2 = MeasurementProtocol(ell=10.0, tau=8.0, m=1, t=8.0)
    assert chi_closed_forms(prot2, math.pi / 2).regime == "at-measurement"
    prot3 = MeasurementProtocol(ell=10.0, tau=1.0, m=1, t=30.0)
    assert chi_closed_forms(prot3, math.pi / 2).regime == "washed"
    prot4 = MeasurementProtocol(ell=10.0, tau=2.0, m=1, t=9.0)
    assert chi_closed_forms(prot4, math.pi / 2).regime == "classifier-extended"
    # multi-measurement closed forms only inside the light cone
    prot5 = MeasurementProtocol(ell=100.0, tau=4.0, m=3, t=20.0)
    forms = chi_closed_forms(prot5, 0.7)
    v = abs(math.sin(0.7))
    for l in (1, 2, 3):
        assert forms.lengths[f"chi[1,{l}]_AAbar"] == pytest.approx(2 * v * 4.0)
        assert chi_shared_suffix(l, 0.7, prot5) == pytest.approx(2 * v * 4.0, abs=1e-12)
    with pytest.raises(RegimeError):
        chi_closed_forms(MeasurementProtocol(ell=10.0, tau=2.0, m=2, t=20.0), math.pi / 2)


def test_light_cone_identities_match_paper_quotes():
    # t = tau < ell/2: chi1_shared = 2 v tau, chi1_out = 0
    v = abs(math.sin(1.1))
    forms = single_measurement_chis(v, 3.0, 3.0, 100.0)
    assert forms["chi[1]_AAbar"] == pytest.approx(2 * v * 3.0)
    assert forms["chi[1]_AbarAbar"] == 0.0
    # chi0 + chi2 shared = min(2 v (t-tau), ell) in the light cone
    forms = single_measurement_chis(v, 3.0, 10.0, 100.0)
    assert forms["chi[0]_AAbar"] + forms["chi[2]_AAbar"] == pytest.approx(2 * v * 7.0)
    # full-pair budget
    assert forms["chi[2]_AA"] + forms["chi[2]_AAbar"] + forms["chi[2]_AbarAbar"] == pytest.approx(
        0.5 * (100.0 - min(2 * v * 3.0, 100.0))
    )


def test_measures_continuous_in_time():
    rng = np.random.default_rng(21)
    eps = 1e-9
    for _ in range(30):
        ell = rng.uniform(2, 20)
        tau = rng.uniform(0.2, 4)
        t = tau + rng.uniform(0.2, 10)
        k = rng.uniform(0.3, math.pi - 0.3)
        cls = ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER)
        base = counting_measure(cls, k, MeasurementProtocol(ell=ell, tau=tau, m=1, t=t))
        for dt in (-eps, eps):
            moved = counting_measure(cls, k, MeasurementProtocol(ell=ell, tau=tau, m=1, t=t + dt))
            assert abs(moved - base) < 1e-7


def test_infinite_class_and_result_json():
    prot = MeasurementProtocol(ell=5.0, tau=1.0, m=1, t=2.0)
    untouched = ConfigurationClass((0,), FINAL_BOTH_OUT)
    assert counting_measure(untouched, 1.0, prot) == math.inf
    result = chi_closed_forms(prot, 1.0)
    payload = json.loads(result.to_json())
    assert payload["schedule"]["ell"] == 5.0
    assert set(payload["lengths"]) == {
        "chi[1]_AAbar", "chi[1]_AbarAbar", "chi[0]_AAbar",
        "chi[2]_AAbar", "chi[2]_AA", "chi[2]_AbarAbar",
    }


def test_class_validation():
    with pytest.raises(ValueError):
        ConfigurationClass((3,), FINAL_SHARED)
    with pytest.raises(ValueError):
        ConfigurationClass((1,), "elsewhere")
    prot = MeasurementProtocol(ell=5.0, tau=1.0, m=2, t=3.0)
    with pytest.raises(ValueError):
        counting_measure(ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER), 1.0, prot)
    with pytest.raises(ValueError):
        MeasurementProtocol(ell=5.0, tau=2.0, m=2, t=3.0)  # t < m tau


def _classes_with_every_pin(m):
    """Every `enumerate_classes(m)` class with each pin and unpinned, and the
    all-zero classes with every final tag (infinite measure for AbarAbar)."""
    classes = [ConfigurationClass(cls.counts, cls.final, member)
               for cls in enumerate_classes(m) for member in (RIGHT_MOVER, LEFT_MOVER, None)]
    return classes + [ConfigurationClass((0,) * m, final, RIGHT_MOVER)
                      for final in (FINAL_BOTH_IN, FINAL_SHARED, FINAL_BOTH_OUT)]


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(0, 3),
    ell=st.floats(0.5, 50.0),
    tau=st.floats(0.0, 10.0),
    extra=st.floats(0.0, 60.0),
    gap=st.floats(0.0, 20.0),
    ell_b=st.floats(0.5, 20.0),
    ks=st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=8),
)
def test_counting_function_matches_classifier(m, ell, tau, extra, gap, ell_b, ks):
    # the kernel sweep must give the interval classifier's measure for every
    # class, pin and region at every breakpoint, inf exactly where it is inf,
    # and the engine's interpolation must reproduce it at any momentum
    t = m * tau + extra
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=m, t=t)
    if m == 0:
        # the closed-form light-cone weight is the pinned m = 0 shared class
        shared = ConfigurationClass((), FINAL_SHARED, RIGHT_MOVER)
        grid = [*ks, *np.linspace(-math.pi, math.pi, 17)]
        for k, value in zip(grid, light_cone_weight(t, ell)(np.array(grid))):
            want = classifier_measure(shared, abs(math.sin(k)), protocol)
            assert abs(value - want) <= 1e-12 * max(1.0, ell), k
    reach = t + ell + 1.0
    regions = {
        "subsystem": None,
        "complement": [(-reach, 0.0), (ell, ell + reach)],
        "disjoint": [(ell + gap, ell + gap + ell_b)],
    }
    classes = _classes_with_every_pin(m)
    for name, region in regions.items():
        v = velocity_breakpoints(protocol, region)
        measures = counting._measures(classes, protocol, v, region)
        for cls, row in zip(classes, measures):
            want = np.array([classifier_measure(cls, x, protocol, region) for x in v])
            assert np.array_equal(np.isinf(row), np.isinf(want)), (name, cls.label())
            finite = np.isfinite(want)
            assert np.all(np.abs(row[finite] - want[finite]) <= 1e-12 * max(1.0, ell)), (name, cls.label())
            if not finite.all():
                with pytest.raises(ValueError):
                    counting_function([cls], protocol, region)
                continue
            chi = counting_function([cls], protocol, region)
            for k, value in zip(ks, chi(np.array(ks))):
                want = classifier_measure(cls, abs(math.sin(k)), protocol, region)
                assert abs(value - want) <= 1e-12 * max(1.0, ell), (name, cls.label(), k)


def test_shared_suffix_chis_are_the_per_step_counting_functions():
    # one sweep for all steps gives each step's counting function bit for bit
    for m, t in ((1, 24.0), (2, 13.0), (3, 18.0), (3, 21.0), (3, 24.0), (4, 60.0)):
        protocol = MeasurementProtocol(ell=40.0, tau=6.0, m=m, t=t)
        for l, chi in enumerate(shared_suffix_chis(protocol), 1):
            alone = counting_function(shared_suffix_classes(l, m), protocol)
            assert np.array_equal(chi.v, alone.v) and np.array_equal(chi.values, alone.values), (m, t, l)


def test_counting_function_kinks_and_refusal():
    # the kinks include the light-cone crossings |sin k| = ell/(t + tau) and
    # ell/(2t) of chi[1]_AAbar; a class of infinite measure is refused
    ell, tau, t = 10.0, 2.0, 9.0
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=t)
    chi = counting_function([ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER)], protocol)
    for v_star in (ell / (t + tau), ell / (2 * t)):
        for k_star in (math.asin(v_star), math.pi - math.asin(v_star)):
            assert min(abs(k - k_star) for k in chi.kinks) < 1e-15
    with pytest.raises(ValueError):
        counting_function([ConfigurationClass((0,), FINAL_BOTH_OUT)], protocol)
