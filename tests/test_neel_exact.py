import math

import numpy as np
import pytest
from scipy.integrate import quad

from chargequench import (
    entropy_symmetric_single,
    neel_charged_moment,
    neel_entropy_exact,
    stirling_expansion,
    unmeasured_entropy,
)
from chargequench.errors import RegimeError
from chargequench.neel_exact import (
    neel_exact_pdf_logweight,
    neel_saddle_lambda,
)
from chargequench.states import pair_entropy


def _moment_oracle(dq, tau):
    p = 4 * tau / math.pi
    return quad(
        lambda lam: math.cos(dq * lam) * math.cos(lam / 2) ** p / (2 * math.pi),
        -math.pi,
        math.pi,
        limit=400,
        epsabs=1e-13,
        epsrel=1e-13,
    )[0]


def test_moment_basics():
    assert neel_charged_moment(0.0, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert neel_charged_moment(3.0, 40.0) == neel_charged_moment(-3.0, 40.0)
    with pytest.raises(RegimeError):
        neel_charged_moment(200.0, 1.0)


def test_moment_is_the_inverse_measurement_factor():
    # one lgamma source: the moment, computed from the measurement factor of
    # neel_entropy_exact, equals the Beta-function algebra it replaced,
    # 2 / (2^x x B((x + 2dq + 1)/2, (x - 2dq + 1)/2)) with x = 4 tau/pi + 1,
    # and stays even in dq bit for bit
    for tau in (0.5, 3.0, 20.0, 100.0, 1000.0):
        x = 4.0 * tau / math.pi + 1.0
        for frac in (-0.95, -0.5, -0.1, 0.0, 0.3, 0.7, 0.99):
            dq = frac * 2.0 * tau / math.pi
            a, b = 0.5 * (x + 2 * dq + 1.0), 0.5 * (x - 2 * dq + 1.0)
            betaln = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            beta_form = math.exp(math.log(2.0) - x * math.log(2.0) - math.log(x) - betaln)
            assert neel_charged_moment(dq, tau) == pytest.approx(beta_form, rel=1e-11, abs=0.0)
            assert neel_charged_moment(dq, tau) == neel_charged_moment(-dq, tau)


def test_moment_against_quadrature_oracle():
    rng = np.random.default_rng(30)
    for _ in range(25):
        tau = rng.uniform(0.5, 100 * math.pi / 4)
        dq = rng.uniform(-2 * tau / math.pi, 2 * tau / math.pi)
        assert neel_charged_moment(dq, tau) == pytest.approx(
            _moment_oracle(dq, tau), abs=1e-9
        )


def test_entropy_exact_regimes():
    tau, ell = 50.0, 1000.0
    res = neel_entropy_exact(120.0, tau, [3.0], ell)
    assert res.method == "BetaClosedForm"
    assert res.baseline == pytest.approx((4 * 120.0 / math.pi) * math.log(2), abs=1e-8)
    # correction equals -log of the Beta factor = +log of the moment
    assert res.corrections[0] == pytest.approx(math.log(neel_charged_moment(3.0, tau)), abs=1e-10)
    with pytest.raises(RegimeError):
        neel_entropy_exact(800.0, tau, [3.0], ell)  # between ell/2 and 10 ell
    with pytest.raises(RegimeError):
        neel_entropy_exact(40.0, tau, [3.0], ell)  # before the measurement
    washed = neel_entropy_exact(2e4, tau, [3.0], ell)
    assert washed.corrections == (0.0,)
    assert washed.entropy == washed.baseline
    # deep washout: baseline itself has converged to the unperturbed plateau
    assert neel_entropy_exact(1e7, tau, [3.0], ell).entropy == pytest.approx(
        ell * math.log(2), rel=1e-3
    )


def test_entropy_exact_multi_product():
    tau, ell = 60.0, 2000.0
    res = neel_entropy_exact(200.0, tau, [2.0, -5.0], ell)
    singles = [neel_entropy_exact(200.0, tau, [dq], ell).corrections[0] for dq in (2.0, -5.0)]
    assert sum(res.corrections) == pytest.approx(sum(singles), abs=1e-12)


def test_stirling_expansion():
    tau = 150.0
    # matches the exact closed form to O(1/tau)
    for dq in (0.0, 3.0, 8.0, math.sqrt(tau)):
        terms = stirling_expansion(dq, tau)
        exact = neel_entropy_exact(tau, tau, [dq], 10000.0).corrections[0]
        assert abs(sum(terms) - exact) <= 5.0 / tau
    # dq = 0: log term is exactly -1/2 log(2 tau)
    assert stirling_expansion(0.0, tau)[2] == pytest.approx(-0.5 * math.log(2 * tau), abs=1e-12)
    # entropic part equals the shared-pair count times the entropy deficit
    dq = 5.0
    ent_p, ent_m, _ = stirling_expansion(dq, tau)
    lam = neel_saddle_lambda(dq, tau)
    n = 1 / (1 + math.exp(-lam))
    assert ent_p + ent_m == pytest.approx(
        (4 * tau / math.pi) * (pair_entropy(n) - math.log(2)), abs=1e-10
    )
    with pytest.warns(UserWarning):
        stirling_expansion(2.0, 5.0)


def test_domain_boundary_matches_feasibility():
    tau = 20.0
    edge = 2 * tau / math.pi
    # the Gamma domain ends one unit beyond the light-cone boundary
    neel_charged_moment(edge + 0.9, tau)
    with pytest.raises(RegimeError):
        neel_charged_moment(edge + 1.0, tau)
    # the pdf weight vanishes outside the open light-cone window
    assert neel_exact_pdf_logweight(edge + 0.5, tau) == -math.inf
    assert math.isfinite(float(neel_exact_pdf_logweight(edge - 0.5, tau)))


def test_monotone_deepening():
    tau = 80.0
    values = [abs(neel_entropy_exact(tau, tau, [dq], 5000.0).corrections[0]) for dq in range(0, 20, 3)]
    assert np.all(np.diff(values) > 0)


def test_matches_saddle_module(neel):
    # spot check of the acceptance-gate comparison at a single outcome
    tau, ell = 200.0, 10000.0
    res = neel_entropy_exact(tau, tau, [5.0], ell)
    rep = entropy_symmetric_single(tau, tau, ell, ell / 2 + 5.0, neel.occupation)
    assert abs(rep.total - res.entropy) < 0.05
    assert res.baseline == pytest.approx(
        unmeasured_entropy(1.0, tau, ell, neel.occupation), abs=1e-9
    )


def test_baseline_is_the_neel_report_baseline(neel):
    # the closed form takes its baseline from `unmeasured_entropy`, bit for bit
    ell = 40.0
    for t in (6.0, 14.0, 20.0, 400.0):
        exact = neel_entropy_exact(t, 6.0, [2.0], ell)
        report = entropy_symmetric_single(t, 6.0, ell, ell / 2 + 2.0, neel.occupation)
        assert exact.baseline == report.baseline
