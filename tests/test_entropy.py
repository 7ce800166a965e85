import math

import numpy as np
import pytest

from chargequench import (
    GeometrySpec,
    averaged_correction,
    entropy_squeezed_double,
    entropy_squeezed_single,
    entropy_symmetric_multi,
    entropy_symmetric_single,
    geometry_entropy,
    get_state,
    log_n_correction,
    unmeasured_entropy,
)
from chargequench.counting import (
    FINAL_BOTH_OUT,
    FINAL_SHARED,
    RIGHT_MOVER,
    ConfigurationClass,
    MeasurementProtocol,
    counting_function,
    counting_measure,
)
from chargequench.entropy import LOGN_UNKNOWN, _quantum_integral
from chargequench.errors import FeasibilityError, RegimeError
from chargequench.extensions import MEASURE_COMPLEMENT, MEASURE_DISJOINT
from chargequench.fluctuations import variance_symmetric
from chargequench.quadrature import momentum_integral
from chargequench.saddle import modified_occupation, solve_saddle_squeezed
from chargequench.states import pair_entropy


def _neel_quantum(dq, tau):
    lam = 2 * math.atanh(math.pi * dq / (2 * tau))
    n = 1 / (1 + math.exp(-lam))
    return (4 * tau / math.pi) * (pair_entropy(n) - math.log(2))


def test_unmeasured_entropy(neel):
    tau = 0.0
    assert unmeasured_entropy(1.0, 0.0, 50.0, neel.occupation) == 0.0
    assert unmeasured_entropy(1.0, 30.0, 1000.0, neel.occupation) == pytest.approx(
        (4 * 30.0 / math.pi) * math.log(2), abs=1e-9
    )
    assert unmeasured_entropy(1.0, 1e6, 100.0, neel.occupation) == pytest.approx(
        100.0 * math.log(2), rel=1e-4
    )
    # the half-filled state is Renyi-index independent
    assert unmeasured_entropy(2.0, 30.0, 1000.0, neel.occupation) == pytest.approx(
        unmeasured_entropy(1.0, 30.0, 1000.0, neel.occupation), abs=1e-10
    )


def test_symmetric_single_neel_closed_form(neel):
    t, tau, ell = 90.0, 40.0, 1000.0
    for dq in (0.0, 2.0, -7.0):
        rep = entropy_symmetric_single(t, tau, ell, ell / 2 + dq, neel.occupation)
        assert rep.quantum_corrections[0][1] == pytest.approx(_neel_quantum(dq, tau), abs=1e-9)
        tag, classical = rep.classical_correction
        assert tag == "symmetric-small-time"
        assert classical == pytest.approx(-0.5 * math.log(2 * tau), abs=1e-9)
        # report invariant: the total is the literal sum of the pieces
        assert rep.total == rep.baseline + sum(v for _, v in rep.quantum_corrections) + classical
    rep0 = entropy_symmetric_single(t, tau, ell, ell / 2, neel.occupation)
    assert rep0.quantum_corrections[0][1] == 0.0


def test_symmetric_single_negative_correction_at_measurement(neel, dimer):
    # at t = tau the outcome-dependent correction is never positive
    rng = np.random.default_rng(17)
    tau, ell = 35.0, 2000.0
    for state in (neel, dimer):
        window = 2 * tau / math.pi
        for _ in range(12):
            dq = rng.uniform(-0.9, 0.9) * window
            rep = entropy_symmetric_single(tau, tau, ell, ell / 2 + dq, state.occupation)
            assert rep.quantum_corrections[0][1] <= 1e-12


def test_symmetric_single_equipartition(dimer):
    # quadratic small-dq scaling of the quantum correction
    tau, ell = 80.0, 4000.0
    dqs = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
    values = [
        abs(entropy_symmetric_single(tau, tau, ell, ell / 2 + dq, dimer.occupation)
            .quantum_corrections[0][1])
        for dq in dqs
    ]
    slope = np.polyfit(np.log(dqs), np.log(values), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.05)


def test_symmetric_single_washout(neel):
    # fixed (tau, ell, dq): total - baseline -> 0 as t -> infinity
    tau, ell, dq = 50.0, 200.0, 5.0
    rep = entropy_symmetric_single(50 * ell, tau, ell, ell / 2 + dq, neel.occupation)
    assert abs(rep.total - rep.baseline) < 1e-3


def test_symmetric_single_infeasible(neel):
    with pytest.raises(FeasibilityError):
        entropy_symmetric_single(10.0, 1.0, 1000.0, 505.0, neel.occupation)


def test_symmetric_multi(neel):
    t, tau, ell = 140.0, 50.0, 1000.0
    # all outcomes at the running mean: only the classical terms survive
    rep = entropy_symmetric_multi(t, tau, ell, [500.0, 500.0], neel.occupation)
    assert all(v == 0.0 for _, v in rep.quantum_corrections)
    assert rep.classical_correction[1] == pytest.approx(-math.log(2 * tau), abs=1e-9)
    # two measurements = sum of two single-measurement corrections (the
    # multiplier chain is linearised, also for one outcome)
    q1, q2 = 503.0, 507.0
    rep = entropy_symmetric_multi(t, tau, ell, [q1, q2], neel.occupation)
    singles = []
    for dq in (3.0, 4.0):
        single = entropy_symmetric_multi(t, tau, ell, [ell / 2 + dq], neel.occupation)
        singles.append(single.total - single.baseline)
    assert rep.total - rep.baseline == pytest.approx(sum(singles), abs=1e-9)


def test_symmetric_multi_term_by_term_oracle(dimer):
    # m = 3 against an independent assembly: dense solve + explicit quadrature
    t, tau, ell = 200.0, 60.0, 2000.0
    dq = [2.0, -2.0, 2.0]
    qs = [1000.0 + 2.0, 1000.0, 1000.0 + 2.0]
    rep = entropy_symmetric_multi(t, tau, ell, qs, dimer.occupation)
    sigmas = [variance_symmetric(l * tau, ell, dimer.occupation) for l in range(4)]
    suffix = [dq[l] / (sigmas[l + 1] - sigmas[l]) for l in range(3)]
    for l, (label, value) in enumerate(rep.quantum_corrections):
        def integrand(k):
            n = dimer.occupation.evaluate(k)
            chi = 2 * np.abs(np.sin(k)) * tau  # light cone: 2 t <= ell
            return chi * (pair_entropy(modified_occupation(n, suffix[l])) - pair_entropy(n))

        oracle, _ = momentum_integral(integrand)
        assert value == pytest.approx(oracle, abs=1e-9), label
    with pytest.raises(FeasibilityError) as err:
        entropy_symmetric_multi(t, tau, ell, [1000.0, 1090.0, 1000.0], dimer.occupation)
    assert err.value.step == 2
    # beyond the light cone a zero first step keeps a correction of exactly 0.0
    for q_seq in ([20.0, 23.0, 20.0], [20.0, 17.0, 20.0]):
        for t_late in (18.0, 24.0):
            rep = entropy_symmetric_multi(t_late, 6.0, 40.0, q_seq, dimer.occupation)
            assert dict(rep.quantum_corrections)["chi[1,1]_AAbar"] == 0.0


def test_squeezed_single_tilted_compact_form(tilted_max):
    tau, ell = 50.0, 1000.0
    for t in (80.0, 160.0):
        # dq = 1e-9: corrections of order 1e-22, formed without cancellation noise
        for dq in (1e-9, 2.0, 4.0):
            rep = entropy_squeezed_single(t, tau, ell, ell / 2 + dq, tilted_max.occupation)
            quantum = sum(v for _, v in rep.quantum_corrections)
            compact = -dq**2 * (2 * t - tau) / (6 * math.pi * (ell / 4 - 2 * tau / (3 * math.pi)) ** 2)
            assert quantum == pytest.approx(compact, rel=2e-3)
    rep0 = entropy_squeezed_single(80.0, tau, ell, ell / 2, tilted_max.occupation)
    assert all(v == 0.0 for _, v in rep0.quantum_corrections)


def test_squeezed_single_full_pairs_vanish_late(tilted_max):
    # tau >> ell: no full pairs remain, weight-2 class contributes ~ nothing
    tau, ell = 5e4, 500.0
    rep = entropy_squeezed_single(tau + 100.0, tau, ell, ell / 2 + 4.0, tilted_max.occupation)
    labels = dict(rep.quantum_corrections)
    assert abs(labels["chi[2]_AAbar"]) < 1e-4
    assert abs(labels["chi[1]_AAbar"]) > 10 * abs(labels["chi[2]_AAbar"])


def test_squeezed_double(tilted_max):
    tau, ell = 40.0, 1000.0
    qbar = ell / 2
    rep = entropy_squeezed_double(120.0, tau, ell, qbar, qbar, tilted_max.occupation)
    assert all(v == 0.0 for _, v in rep.quantum_corrections)
    assert rep.classical_correction == (LOGN_UNKNOWN, None)
    # generic outcomes: equals an independent assembly from counting_measure
    q1, q2 = qbar + 4.0, qbar + 7.0
    rep = entropy_squeezed_double(120.0, tau, ell, q1, q2, tilted_max.occupation)
    sol = solve_saddle_squeezed([q1, q2], tau, ell, tilted_max.occupation)
    l1, l2 = sol.lambdas
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=2, t=120.0)
    tilts = {"chi[22]_AAbar": ((2, 2), 2 * l1 + 2 * l2), "chi[21]_AAbar": ((2, 1), 2 * l1 + l2),
             "chi[11]_AAbar": ((1, 1), l1 + l2), "chi[01]_AAbar": ((0, 1), l2)}
    for label, value in rep.quantum_corrections:
        counts, tilt = tilts[label]

        def integrand(k):
            flat = np.atleast_1d(np.asarray(k, dtype=float))
            chi = np.array([
                0.5 * counting_measure(ConfigurationClass(counts, FINAL_SHARED, None), kk, protocol)
                for kk in flat
            ])
            n = tilted_max.occupation.evaluate(flat)
            return chi * (pair_entropy(modified_occupation(n, tilt)) - pair_entropy(n))

        oracle, _ = momentum_integral(integrand, kinks=np.linspace(-3, 3, 25))
        assert value == pytest.approx(oracle, abs=1e-6), label


def test_log_n_regimes(neel, tilted_max):
    # half-filled small time: -1/2 log(2 tau)
    value, tag = log_n_correction(90.0, 40.0, 1000.0, neel.occupation)
    assert tag == "symmetric-small-time"
    assert value == pytest.approx(-0.5 * math.log(2 * 40.0), abs=1e-9)
    # long-time washout
    value, tag = log_n_correction(1e5, 40.0, 200.0, neel.occupation)
    assert tag == "symmetric-crossover"
    assert abs(value) < 1e-4
    # at-measurement beyond the light cone
    value, tag = log_n_correction(600.0, 600.0, 200.0, neel.occupation)
    assert tag == "symmetric-at-measurement"
    # squeezed tau = 0
    value, tag = log_n_correction(40.0, 0.0, 1000.0, tilted_max.occupation)
    assert (value, tag) == (0.0, "squeezed-tau0-light-cone")
    # squeezed at measurement: Delta S - S_num
    value, tag = log_n_correction(30.0, 30.0, 1000.0, tilted_max.occupation)
    assert tag == "squeezed-at-measurement"
    from chargequench import asymmetry, number_entropy, variance_squeezed

    expected = asymmetry(30.0, 1000.0, tilted_max.occupation) - number_entropy(
        variance_squeezed(30.0, 1000.0, tilted_max.occupation)
    )
    assert value == pytest.approx(expected, abs=1e-9)
    # unknown squeezed regime is flagged and omitted
    value, tag = log_n_correction(100.0, 30.0, 1000.0, tilted_max.occupation)
    assert value is None and tag == LOGN_UNKNOWN
    # general symmetric fallback (tau > ell/2 < t) is evaluated numerically
    value, tag = log_n_correction(700.0, 600.0, 200.0, neel.occupation)
    assert tag == "symmetric-hessian-numeric"
    assert value is not None and math.isfinite(value)


def test_hessian_replica_derivative_matches_central_difference(dimer):
    # b(alpha) = int chi (n(1-n))^alpha / (n^alpha + (1-n)^alpha)^2; the
    # library takes b'(1) in closed form, the oracle by central difference
    t, tau, ell = 700.0, 600.0, 200.0
    occ = dimer.occupation
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=t)
    shared = counting_function([ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER)], protocol)
    out = counting_function([ConfigurationClass((1,), FINAL_BOTH_OUT, RIGHT_MOVER)], protocol)

    def integral(chi, density):
        return momentum_integral(lambda k: chi(k) * density(occ.evaluate(k)), kinks=chi.kinks)[0]

    def b_of_alpha(alpha):
        return integral(shared, lambda n: (n * (1 - n)) ** alpha / ((1 - n) ** alpha + n**alpha) ** 2)

    h = 1e-4
    db = (b_of_alpha(1.0 + h) - b_of_alpha(1.0 - h)) / (2 * h)
    a1, b1 = integral(out, lambda n: n * (1 - n)), b_of_alpha(1.0)
    expected = -0.5 * math.log(2 * math.pi) + 0.5 * (
        math.log(a1 / (a1 + b1)) + b1 / (a1 + b1) + db / (a1 + b1)
    )
    value, tag = log_n_correction(t, tau, ell, occ)
    assert tag == "symmetric-hessian-numeric"
    assert value == pytest.approx(expected, abs=1e-8)


def test_averaged_correction(neel, dimer):
    protocol = MeasurementProtocol(ell=4000.0, tau=100.0, m=1, t=100.0)
    value, breakdown = averaged_correction(protocol, neel.occupation)
    # (1 - 2n) = 0 kills the configuration integral for the half-filled state
    assert breakdown["configuration_term"] == pytest.approx(0.0, abs=1e-12)
    assert value == pytest.approx(-0.5 - 0.5 * math.log(2 * 100.0), abs=1e-8)
    value, breakdown = averaged_correction(protocol, dimer.occupation)
    assert breakdown["variance_term"] + breakdown["configuration_term"] == pytest.approx(
        -0.25, abs=1e-9
    )
    multi = MeasurementProtocol(ell=4000.0, tau=100.0, m=3, t=320.0)
    value_m, breakdown_m = averaged_correction(multi, dimer.occupation)
    assert breakdown_m["variance_term"] + breakdown_m["configuration_term"] == pytest.approx(
        3 * -0.25, abs=1e-9
    )
    with pytest.raises(RegimeError):
        averaged_correction(MeasurementProtocol(ell=100.0, tau=10.0, m=3, t=90.0), dimer.occupation)


def test_report_serialisation(neel):
    rep = entropy_symmetric_single(90.0, 40.0, 1000.0, 503.0, neel.occupation)
    payload = rep.to_json()
    assert "chi[1]_AAbar" in payload and "symmetric-small-time" in payload


def test_squeezed_double_reads_its_classical_term_from_log_n():
    occ = get_state("tilted:1.1").occupation
    ell, tau = 40.0, 3.0
    for t in (8.0, 26.0, 400.0, 800.0):
        rep = entropy_squeezed_double(t, tau, ell, 22.0, 23.0, occ)
        value, tag = log_n_correction(t, tau, ell, occ, m=2)
        assert rep.classical_correction == (tag, value)
    assert log_n_correction(400.0, tau, ell, occ, m=2) == (0.0, "squeezed-long-time-washout")
    # the m = 1 light-cone convention of a tau = 0 measurement does not carry over to m = 2
    assert log_n_correction(5.0, 0.0, ell, occ, m=2) == (None, LOGN_UNKNOWN)


def test_every_report_kind_carries_the_same_diagnostics(neel, tilted_max):
    occ = tilted_max.occupation
    reports = [
        entropy_symmetric_single(14.0, 6.0, 40.0, 22.0, neel.occupation),
        entropy_symmetric_multi(24.0, 6.0, 40.0, [22.0, 21.0], neel.occupation),
        entropy_squeezed_single(26.0, 3.0, 40.0, 22.0, occ),
        entropy_squeezed_double(26.0, 3.0, 40.0, 22.0, 23.0, occ),
        geometry_entropy(GeometrySpec(MEASURE_COMPLEMENT, total_length=80.0), 25.0, 40.0, 24.0, occ),
        geometry_entropy(GeometrySpec(MEASURE_DISJOINT, distance=12.0, ell_b=20.0), 25.0, 40.0, 11.0,
                         occ),
    ]
    for rep in reports:
        diag = rep.diagnostics
        assert {"saddle", "quantum_quadrature_error", "logN_regime"} <= set(diag)
        assert diag["logN_regime"] == rep.classical_correction[0]
        assert diag["quantum_quadrature_error"] >= 0.0
        assert len(diag["saddle"]["lambdas"]) >= 1


def test_quantum_integral_takes_an_array_of_tilts(dimer):
    # one batched integral: a tilt of 0 stays exactly (0.0, 0.0), a batch of
    # one is the scalar call bit for bit, every other tilt meets the tolerance
    # of its own call
    protocol = MeasurementProtocol(ell=40.0, tau=6.0, m=1, t=14.0)
    chi = counting_function([ConfigurationClass((1,), FINAL_SHARED, RIGHT_MOVER)], protocol)
    occ = dimer.occupation
    tilts = np.array([-1.3, 0.0, 0.2, 2.5])
    values, errors = _quantum_integral(chi, tilts, occ)
    assert (values[1], errors[1]) == (0.0, 0.0)
    assert _quantum_integral(chi, 0.0, occ) == (0.0, 0.0)
    (one,), (one_err,) = _quantum_integral(chi, tilts[2:3], occ)
    assert (one, one_err) == _quantum_integral(chi, 0.2, occ)
    for tilt, value in zip(tilts, values):
        alone, _ = _quantum_integral(chi, float(tilt), occ)
        assert isinstance(alone, float)
        assert value == pytest.approx(alone, rel=1e-10, abs=1e-14)


@pytest.mark.parametrize("t", [16.0, 26.0])
def test_symmetric_single_takes_an_array_of_outcomes(dimer, t):
    # one batch of reports (a sweep row set) equals one call per outcome
    tau, ell = 6.0, 40.0
    qs = np.arange(17.0, 24.0)
    batch = entropy_symmetric_single(t, tau, ell, qs, dimer.occupation)
    assert isinstance(batch, list) and len(batch) == len(qs)
    for q, rep in zip(qs, batch):
        alone = entropy_symmetric_single(t, tau, ell, float(q), dimer.occupation)
        assert rep.baseline == alone.baseline
        assert rep.classical_correction == alone.classical_correction
        assert rep.total == pytest.approx(alone.total, rel=1e-10)
        for (label, value), (label_alone, value_alone) in zip(rep.quantum_corrections,
                                                              alone.quantum_corrections):
            assert label == label_alone
            assert value == pytest.approx(value_alone, rel=1e-10, abs=1e-14)
    assert batch[qs.tolist().index(20.0)].quantum_corrections[0][1] == 0.0
