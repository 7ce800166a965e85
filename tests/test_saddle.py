import math

import numpy as np
import pytest

from chargequench import (
    MeasurementProtocol,
    Pairing,
    feasibility,
    get_state,
    modified_occupation,
    monte_carlo_average,
    solve_saddle_squeezed,
    solve_saddle_symmetric_multi,
    solve_saddle_symmetric_single,
    variance_squeezed,
    variance_symmetric,
)
from chargequench import saddle
from chargequench.counting import light_cone_weight
from chargequench.errors import FeasibilityError, RegimeError
from chargequench.fluctuations import drude_weight, variance_saturated
from chargequench.probability import KIND_GAUSSIAN, OutcomeDistribution
from chargequench.quadrature import momentum_integral
from chargequench.saddle import PeriodTerms, charge_window
from chargequench.states import OccupationFunction, Pairing as P


def _random_ph_state(rng):
    # n(k) = h(k) / (h(k) + h(k - pi)) is particle-hole symmetric for any h > 0
    a, b, c = rng.uniform(-1, 1, 3)

    def h(k):
        return np.exp(a * np.cos(k) + b * np.sin(k) + c * np.cos(2 * k))

    def evaluate(k):
        k = np.asarray(k, dtype=float)
        shifted = np.where(k - math.pi < -math.pi, k + math.pi, k - math.pi)
        return h(k) / (h(k) + h(shifted))

    return OccupationFunction(evaluate, P.SYMMETRIC_PARTICLE_HOLE, "random-ph")


def test_feasibility_examples():
    ell = 1000.0
    assert feasibility([4.0], 5.0, ell, Pairing.SYMMETRIC_PARTICLE_HOLE) == (False,)
    assert feasibility([0.0], 0.01, ell, Pairing.SYMMETRIC_PARTICLE_HOLE) == (True,)
    assert feasibility([3.0], 5.0, ell, Pairing.SYMMETRIC_PARTICLE_HOLE) == (True,)
    # squeezed: the first measurement is unrestricted, later ones are not
    assert feasibility([400.0, 0.5], 1.0, ell, Pairing.SQUEEZED_PAIR) == (True, True)
    assert feasibility([400.0, 4.0], 1.0, ell, Pairing.SQUEEZED_PAIR) == (True, False)
    # the window is 2 tau / pi inside the light cone and smaller beyond it
    assert charge_window(5.0, ell) == pytest.approx(10 / math.pi, abs=1e-10)
    assert charge_window(30.0, 40.0) < 60 / math.pi


@pytest.mark.parametrize("tau", [6.0, 19.0, 21.0, 30.0])
def test_feasibility_agrees_with_solver(neel, dimer, tau):
    # one window for both: the flags say exactly which outcomes the solver takes
    ell = 40.0
    window = charge_window(tau, ell)
    light_cone = 2 * tau / math.pi  # the window of the light cone alone, >= window
    for occ in (neel.occupation, dimer.occupation):
        for dq in (0.5 * window, window * (1 - 1e-7), window, window * (1 + 1e-9),
                   light_cone - 0.01, -0.999 * window, 16.0):
            (flag,) = feasibility([dq], tau, ell, occ.pairing)
            try:
                solve_saddle_symmetric_single(dq, tau, ell, occ)
            except FeasibilityError:
                assert not flag, (tau, dq)
            else:
                assert flag, (tau, dq)


def test_neel_exact_saddle(neel):
    tau, ell = 100.0, 5000.0
    for dq in (0.0, 3.0, -17.0, 40.0):
        sol = solve_saddle_symmetric_single(dq, tau, ell, neel.occupation)
        assert sol.lambdas[0] == pytest.approx(2 * math.atanh(math.pi * dq / (2 * tau)), abs=1e-10)
        assert sol.mode == "exact"
    # the linearised multiplier dq / sigma_tau^2
    assert 1.0 / variance_symmetric(tau, ell, neel.occupation) == pytest.approx(math.pi / tau, abs=1e-10)


def test_dimer_saddle_satisfies_implicit_equation(dimer):
    tau, ell = 70.0, 4000.0
    for dq in (2.0, 9.0, -13.0):
        lam = solve_saddle_symmetric_single(dq, tau, ell, dimer.occupation).lambdas[0]
        implicit = (2 * tau / math.pi) * (math.sinh(lam) - lam) / (math.cosh(lam) - 1.0)
        assert implicit == pytest.approx(dq, abs=1e-9)
    lin = 2.0 / variance_symmetric(tau, ell, dimer.occupation)
    assert lin == pytest.approx(3 * math.pi * 2.0 / (2 * tau), abs=1e-10)


def test_exact_vs_linearized_cubic_agreement():
    rng = np.random.default_rng(5)
    tau, ell = 50.0, 4000.0
    for _ in range(5):
        occ = _random_ph_state(rng)
        sigma2 = variance_symmetric(tau, ell, occ)
        xs, diffs = [], []
        for dq in (0.05, 0.1, 0.2, 0.4, 0.8):
            exact = solve_saddle_symmetric_single(dq, tau, ell, occ).lambdas[0]
            lin = dq / sigma2
            xs.append(dq / sigma2)
            diffs.append(abs(exact - lin) + 1e-300)
        slope = np.polyfit(np.log(xs), np.log(diffs), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.35)
        # bounded cubic constant
        consts = np.array(diffs) / np.array(xs) ** 3
        assert np.max(consts) / max(np.min(consts), 1e-12) < 3.0


def test_saddle_map_is_odd_and_increasing(neel, dimer):
    tau, ell = 60.0, 3000.0
    for occ in (neel.occupation, dimer.occupation):
        values = [
            solve_saddle_symmetric_single(dq, tau, ell, occ).lambdas[0]
            for dq in (-9.0, -4.0, -1.0, 0.0, 1.0, 4.0, 9.0)
        ]
        assert np.all(np.diff(values) > 0)
        assert values[3] == 0.0
        assert values[0] == pytest.approx(-values[-1], abs=1e-10)


def test_boundary_divergence_and_bracket_error(neel):
    tau, ell = 5.0, 1000.0
    window = charge_window(tau, ell)
    # |lambda| exceeds 20 within a 1e-3 neighbourhood of the boundary
    lam = solve_saddle_symmetric_single(window * (1 - 1e-10), tau, ell, neel.occupation).lambdas[0]
    assert lam > 20.0
    # closer still the residual is rounding noise, yet the bracket must close
    lam = solve_saddle_symmetric_single(window * (1 - 1e-12), tau, ell, neel.occupation).lambdas[0]
    assert lam == pytest.approx(2 * math.atanh(1 - 1e-12), abs=1e-2)
    sol = solve_saddle_symmetric_single(window * 0.995, tau, ell, neel.occupation)
    assert "saddle-unreliable" in sol.regime
    with pytest.raises(FeasibilityError):
        solve_saddle_symmetric_single(window * 1.01, tau, ell, neel.occupation)


def test_modified_occupation():
    assert modified_occupation(0.37, 0.0) == pytest.approx(0.37, abs=1e-15)
    assert modified_occupation(0.5, math.log(3.0)) == pytest.approx(0.75, abs=1e-14)
    assert modified_occupation(0.2, 800.0) == pytest.approx(1.0, abs=1e-12)
    assert modified_occupation(0.2, -800.0) == pytest.approx(0.0, abs=1e-12)
    # group property
    rng = np.random.default_rng(8)
    n = rng.uniform(0.01, 0.99, 50)
    lam = rng.uniform(-5, 5, 50)
    back = modified_occupation(modified_occupation(n, 2.3, 1), -2.3, 1)
    assert np.max(np.abs(back - n)) < 1e-14
    # weight-2 tilt equals applying the tilt twice
    assert modified_occupation(0.3, 0.7, 2) == pytest.approx(
        modified_occupation(modified_occupation(0.3, 0.7), 0.7), abs=1e-14
    )


def test_multi_saddle(neel, dimer):
    tau, ell = 50.0, 4000.0
    sol = solve_saddle_symmetric_multi([0.0, 0.0], tau, ell, neel.occupation)
    assert sol.lambdas == (0.0, 0.0)
    # light cone: all denominators are 2 D tau
    d = drude_weight(dimer.occupation)
    a, b = 2.0, -1.0
    sol = solve_saddle_symmetric_multi([a, b], tau, ell, dimer.occupation)
    assert sol.lambdas[1] == pytest.approx(b / (2 * d * tau), rel=1e-9)
    assert sol.lambdas[0] == pytest.approx((a - b) / (2 * d * tau), rel=1e-9)
    # m = 3 against a dense linear solve of the suffix system
    dq = [1.0, 1.0, 1.0]
    sol = solve_saddle_symmetric_multi(dq, tau, ell, neel.occupation)
    sigmas = [variance_symmetric(l * tau, ell, neel.occupation) for l in range(4)]
    a_mat = np.zeros((3, 3))
    for row in range(3):
        a_mat[row, row:] = 1.0
    rhs = [dq[l] / (sigmas[l + 1] - sigmas[l]) for l in range(3)]
    oracle = np.linalg.solve(a_mat, rhs)
    assert np.allclose(sol.lambdas, oracle, atol=1e-10)
    with pytest.raises(FeasibilityError) as err:
        solve_saddle_symmetric_multi([0.0, 99.0, 0.0], tau, ell, neel.occupation)
    assert err.value.step == 2


def test_squeezed_saddle(tilted_max):
    ell = 1000.0
    occ = tilted_max.occupation
    qbar = ell / 2
    sol = solve_saddle_squeezed([qbar], 30.0, ell, occ)
    assert sol.lambdas == (0.0,)
    # tau >> ell: lambda = dq / (ell/8)
    sol = solve_saddle_squeezed([qbar + 5.0], 1e6 * ell, ell, occ)
    assert sol.lambdas[0] == pytest.approx(5.0 / (ell / 8), rel=1e-6)
    # two measurements, tau -> infinity: symmetric structure
    tau = 1e7
    sol = solve_saddle_squeezed([qbar + 5.0, qbar + 8.0], tau, ell, occ)
    sinf = variance_saturated(ell, occ)
    assert sol.lambdas[0] == pytest.approx(3.0 / sinf, rel=1e-4)
    assert sum(sol.lambdas) == pytest.approx(5.0 / sinf, rel=1e-4)
    # printed two-measurement system at finite tau
    tau = 40.0
    q1, q2 = qbar + 4.0, qbar + 6.0
    sol = solve_saddle_squeezed([q1, q2], tau, ell, occ)
    s_tau = variance_squeezed(tau, ell, occ)
    s_2tau = variance_squeezed(2 * tau, ell, occ)
    assert sol.lambdas[0] * (2 * s_tau - sinf) == pytest.approx(q2 - q1, abs=1e-9)
    assert sol.lambdas[0] * s_tau + sol.lambdas[1] * s_2tau == pytest.approx(q1 - qbar, abs=1e-9)
    with pytest.raises(RegimeError):
        solve_saddle_squeezed([qbar, qbar, qbar], tau, ell, occ)
    with pytest.raises(FeasibilityError):
        solve_saddle_squeezed([qbar, qbar + 100.0], 1.0, ell, occ)
    with pytest.raises(ValueError):
        solve_saddle_squeezed([0.0], 1.0, ell, OccupationFunction(lambda k: np.full_like(np.asarray(k, float), .5), P.SYMMETRIC_PARTICLE_HOLE, "x"))


def test_suffix_sums(dimer):
    # the chain solves for the suffix sums Lambda_l = sum_{s >= l} lambda_s
    dq_seq = (3.0, -1.0, 2.0)
    sol = solve_saddle_symmetric_multi(dq_seq, 6.0, 40.0, dimer.occupation)
    steps = PeriodTerms(6.0, 3, 40.0, dimer.occupation).steps
    assert sol.suffix == tuple(dq / step for dq, step in zip(dq_seq, steps))
    assert sol.lambdas == (sol.suffix[0] - sol.suffix[1], sol.suffix[1] - sol.suffix[2],
                           sol.suffix[2] - 0.0)
    assert sol.mode == "linearized"


def test_dimer_saddle_residual_at_the_window_edge(dimer):
    # lambda ~ 20: the returned root must satisfy the saddle equation far
    # below the solver's own quadrature tolerance, re-integrated at 1e-14
    tau, ell = 30.0, 40.0
    window = charge_window(tau, ell)
    dq = (1 - 1e-7) * window
    lam = solve_saddle_symmetric_single(dq, tau, ell, dimer.occupation).lambdas[0]
    weight = light_cone_weight(tau, ell)
    value, _ = momentum_integral(
        lambda k: weight(k) * (modified_occupation(dimer.occupation.evaluate(k), lam) - 0.5),
        kinks=weight.kinks, rtol=1e-14,
    )
    assert abs(value - dq) <= 1e-11 * window


def test_saddle_solve_takes_few_integrals(neel, dimer, monkeypatch):
    # the Neel start 2 atanh(dq / window) is the root: one residual and one
    # slope after the window; the dimer needs a few Newton steps; dq = 0
    # gives exactly 0.0 after the window alone
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return momentum_integral(*args, **kwargs)

    monkeypatch.setattr(saddle, "momentum_integral", counted)
    ell = 40.0
    for tau in (6.0, 30.0):
        window = charge_window(tau, ell)
        for dq in (0.0, 1.0, 2.0, 3.0, 0.5 * window, -0.5 * window, 0.9 * window, 0.99 * window):
            if abs(dq) >= window:
                continue
            for occ, most in ((neel.occupation, 3), (dimer.occupation, 15)):
                calls.clear()
                sol = solve_saddle_symmetric_single(dq, tau, ell, occ)
                assert len(calls) <= (1 if dq == 0.0 else most), (occ.label, tau, dq, len(calls))
                assert dq != 0.0 or sol.lambdas == (0.0,)


def test_window_errors_name_the_step_tau_and_ell(neel, tilted_max):
    tau, ell = 10.0, 100.0
    occ = neel.occupation
    qbar = ell * tilted_max.occupation.mean_density
    # a wide Gaussian without window: most first increments exceed the charge window
    wide = OutcomeDistribution(KIND_GAUSSIAN, ell / 2, (100.0,), tau, ell, None)
    protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=tau)
    for call, step in (
        (lambda: solve_saddle_symmetric_single(7.0, tau, ell, occ), 1),
        (lambda: solve_saddle_symmetric_multi([1.0, -1.0, 7.0], tau, ell, occ), 3),
        (lambda: solve_saddle_squeezed([qbar + 50.0, qbar + 58.0], tau, ell, tilted_max.occupation), 2),
        (lambda: monte_carlo_average(protocol, occ, 200, 1, distribution=wide), 1),
    ):
        with pytest.raises(FeasibilityError) as err:
            call()
        assert err.value.step == step
        assert f"measurement {step}:" in str(err.value)
        assert "tau = 10," in str(err.value) and "ell = 100)" in str(err.value)



def test_unreachable_outcome_raises_regime_error():
    # n(k) = 0 near k = 0 (and 1 near pi) stays untilted for every lambda, so
    # outcomes near the window have no root: RegimeError, not a non-finite integral
    def evaluate(k):
        k = np.abs(np.asarray(k, dtype=float))
        return np.where(k < 0.5, 0.0, np.where(k > math.pi - 0.5, 1.0, 0.5))

    occ = OccupationFunction(evaluate, P.SYMMETRIC_PARTICLE_HOLE, "steps")
    tau, ell = 6.0, 40.0
    window = charge_window(tau, ell)
    assert solve_saddle_symmetric_single(0.5 * window, tau, ell, occ).lambdas[0] > 0
    for dq in (0.95 * window, -0.95 * window):
        with pytest.raises(RegimeError) as err:
            solve_saddle_symmetric_single(dq, tau, ell, occ)
        assert f"dq = {dq:g} (tau = 6, ell = 40, state steps)" in str(err.value)


def test_small_slope_custom_state_finds_its_root(tmp_path):
    # n = eps on |k| < pi/2 and 1 - eps beyond: r(lam) ~ 2 W eps sinh(lam) - dq,
    # so Newton's first step from the Neel start overshoots |lam| = 300 by far;
    # the root (~13.8 at dq = window / 2) must still be found
    eps = 1e-6
    k = np.linspace(-math.pi, math.pi, 401)
    n = np.where(np.abs(k) < math.pi / 2, eps, 1 - eps)
    n[np.isclose(np.abs(k), math.pi / 2)] = 0.5
    path = tmp_path / "small_slope.csv"
    np.savetxt(path, np.column_stack([k, n]), delimiter=",")
    occ = get_state(f"custom:{path}").occupation
    assert occ.pairing is P.SYMMETRIC_PARTICLE_HOLE
    tau, ell = 6.0, 40.0
    window = charge_window(tau, ell)
    weight = light_cone_weight(tau, ell)
    for dq in (0.5 * window, -0.5 * window, 0.9 * window):
        lam = solve_saddle_symmetric_single(dq, tau, ell, occ).lambdas[0]
        assert 10.0 < abs(lam) < 20.0 and math.copysign(1.0, lam) == math.copysign(1.0, dq)
        value, _ = momentum_integral(
            lambda k: weight(k) * (modified_occupation(occ.evaluate(k), lam) - 0.5),
            kinks=weight.kinks,
        )
        assert abs(value - dq) <= 1e-9 * window
