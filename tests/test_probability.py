import math

import numpy as np
import pytest
from scipy.stats import norm

from chargequench import (
    monte_carlo_average,
    neel_charged_moment,
    neel_exact_distribution,
    outcome_pdf,
    sample_outcomes,
    unmeasured_entropy,
)
from chargequench.counting import MeasurementProtocol
from chargequench.entropy import averaged_correction, entropy_symmetric_single, log_n_correction
from chargequench.errors import FeasibilityError
from chargequench.fluctuations import drude_weight, variance_squeezed
from chargequench.probability import (
    KIND_GAUSSIAN,
    OutcomeDistribution,
    chain_distribution,
    sample_many,
)
from chargequench.saddle import charge_window
from chargequench.quadrature import integrate


def test_gaussian_pdf_values(neel):
    dist = chain_distribution(100.0, 1, 2000.0, neel.occupation)
    sigma2 = 100.0 / math.pi
    assert outcome_pdf(dist, 1000.0) == pytest.approx(1 / math.sqrt(2 * math.pi * sigma2), rel=1e-9)
    assert outcome_pdf(dist, 1000.0 + 100.0) == 0.0  # beyond the light cone


def test_squeezed_law_is_centred_on_the_mean_charge(tilted_max):
    # a squeezed state's first outcome has mean ell <n> and the squeezed
    # sigma_tau^2, with no window; the second step is ballistic, windowed
    occ, tau, ell = tilted_max.occupation, 3.0, 40.0
    single = chain_distribution(tau, 1, ell, occ)
    assert (single.center, single.step_variances) == (ell * occ.mean_density, (variance_squeezed(tau, ell, occ),))
    assert single.step_window(0) is None
    double = chain_distribution(tau, 2, ell, occ)
    assert double.step_variances == (variance_squeezed(tau, ell, occ), 2 * tau * drude_weight(occ))
    assert double.step_window(0) is None and double.step_window(1) == charge_window(tau, ell)


def test_neel_exact_pdf(neel):
    tau, ell = 200.0, 4000.0
    dist = neel_exact_distribution(tau, ell)
    sigma2 = tau / math.pi
    # matches the Gaussian within 2% in the bulk of the distribution; the
    # sub-Gaussian quartic tail reaches ~2.6% right at the 3-sigma edge
    for dq in np.linspace(-2.5 * math.sqrt(sigma2), 2.5 * math.sqrt(sigma2), 7):
        gauss = math.exp(-dq**2 / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)
        assert outcome_pdf(dist, ell / 2 + dq) == pytest.approx(gauss, rel=0.02)
    for dq in (-3 * math.sqrt(sigma2), 3 * math.sqrt(sigma2)):
        gauss = math.exp(-dq**2 / (2 * sigma2)) / math.sqrt(2 * math.pi * sigma2)
        assert outcome_pdf(dist, ell / 2 + dq) == pytest.approx(gauss, rel=0.03)
    # zero outside the feasibility window
    assert outcome_pdf(dist, ell / 2 + 2 * tau / math.pi + 1.0) == 0.0
    # density normalised over the window
    total, _ = integrate(
        lambda q: np.array([outcome_pdf(dist, qq) for qq in np.atleast_1d(q)]),
        ell / 2 - dist.window, ell / 2 + dist.window, kinks=(ell / 2,),
    )
    assert total == pytest.approx(1.0, abs=1e-6)


def test_chain_pdf_factorises(neel):
    dist = chain_distribution(100.0, 2, 4000.0, neel.occupation)
    q1, q2 = 2003.0, 2001.0
    single = chain_distribution(100.0, 1, 4000.0, neel.occupation)
    p1 = outcome_pdf(single, q1)
    step = OutcomeDistribution(KIND_GAUSSIAN, q1, (dist.step_variances[1],), 100.0, 4000.0,
                               dist.window)
    p2 = outcome_pdf(step, q2)
    assert outcome_pdf(dist, [q1, q2]) == pytest.approx(p1 * p2, rel=1e-12)


def test_sampling_determinism_and_chain_consistency(neel):
    dist = chain_distribution(100.0, 3, 4000.0, neel.occupation)
    seq1, rej1 = sample_outcomes(99, dist)
    seq2, rej2 = sample_outcomes(99, dist)
    assert seq1 == seq2 and rej1 == rej2
    # the first step of a longer chain reproduces the m = 1 draws on the same stream
    chain1 = chain_distribution(100.0, 1, 4000.0, neel.occupation)
    s1, _ = sample_many(321, chain1, 200)
    s3, _ = sample_many(321, dist, 200)
    assert np.array_equal(s1[:, 0], s3[:, 0])


def test_sample_statistics(neel):
    tau, ell = 100.0, 4000.0
    dist = chain_distribution(tau, 3, ell, neel.occupation)
    seqs, _ = sample_many(7, dist, 100000)
    inc = np.diff(np.hstack([np.full((len(seqs), 1), ell / 2), seqs]), axis=1)
    # sample variance of the first step: tau/pi within 3 standard errors
    # (integer rounding adds the 1/12 Sheppard term, well inside the band)
    var = np.var(inc[:, 0])
    target = tau / math.pi
    stderr = target * math.sqrt(2 / len(seqs))
    assert abs(var - target) < 3 * stderr + 1 / 12
    # increments are uncorrelated
    corr = np.corrcoef(inc.T)
    off = np.abs(corr - np.eye(3)).max()
    assert off < 3 / math.sqrt(len(seqs))


def test_neel_exact_sampling_matches_pmf():
    tau, ell = 50.0, 1000.0
    dist = neel_exact_distribution(tau, ell)
    seqs, rej = sample_many(5, dist, 50000)
    assert rej == 0
    dq = seqs[:, 0] - ell / 2
    # exact integer weights
    a = 2 * tau / math.pi
    support = np.arange(-math.floor(a - 1e-9), math.floor(a - 1e-9) + 1)
    pmf = np.array([neel_charged_moment(v, tau) for v in support])
    pmf /= pmf.sum()
    counts = np.array([(dq == v).mean() for v in support])
    assert np.max(np.abs(counts - pmf)) < 4 * math.sqrt(pmf.max() / len(seqs))


def test_monte_carlo_degenerate_distribution(neel):
    protocol = MeasurementProtocol(ell=2000.0, tau=200.0, m=1, t=200.0)
    dist = OutcomeDistribution(KIND_GAUSSIAN, 1002.0, (0.0,), 200.0, 2000.0, None)
    mean, stderr = monte_carlo_average(protocol, neel.occupation, 200, 1, distribution=dist)
    rep = entropy_symmetric_single(200.0, 200.0, 2000.0, 1002.0, neel.occupation)
    assert mean == rep.total
    assert stderr == 0.0


def _expected_quantum_gaussian(state, tau, ell, t, config_sigma2):
    """Deterministic expectation of the Monte-Carlo estimator over the
    rounded-Gaussian outcome law (oracle for the statistical test).

    The support is clipped to the sampler's open feasibility window,
    mirroring its rejection step exactly.
    """
    sigma = math.sqrt(config_sigma2)
    window = math.ceil(charge_window(tau, ell)) - 1
    reach = min(math.ceil(8 * sigma), window)
    dqs = np.arange(-reach, reach + 1)
    pmf = norm.cdf((dqs + 0.5) / sigma) - norm.cdf((dqs - 0.5) / sigma)
    pmf /= pmf.sum()
    values = []
    for dq in dqs:
        rep = entropy_symmetric_single(t, tau, ell, ell / 2 + dq, state.occupation)
        values.append(sum(v for _, v in rep.quantum_corrections))
    values = np.array(values)
    mean = float(pmf @ values)
    var = float(pmf @ (values - mean) ** 2)
    return mean, var


@pytest.mark.parametrize("tau", [50.0, 100.0, 200.0])
def test_monte_carlo_matches_deterministic_expectation(neel, dimer, tau):
    # unbiased check: the MC mean is compared against the exact expectation
    # of the same estimator, so only statistical error remains
    samples = 20000
    for state in (neel, dimer):
        ell = max(20 * tau, 4000.0)
        protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=tau)
        from chargequench.fluctuations import variance_symmetric

        sigma2 = variance_symmetric(tau, ell, state.occupation)
        mean, stderr = monte_carlo_average(protocol, state.occupation, samples, seed=4)
        baseline = unmeasured_entropy(1.0, tau, ell, state.occupation)
        classical, _ = log_n_correction(tau, tau, ell, state.occupation)
        expected_quantum, _ = _expected_quantum_gaussian(state, tau, ell, tau, sigma2)
        assert abs((mean - baseline - classical) - expected_quantum) < 3.5 * stderr


@pytest.mark.parametrize("tau", [50.0, 100.0, 200.0])
def test_expectation_approaches_analytic_average(neel, dimer, tau):
    # the analytic Gaussian average is the leading order of the exact
    # expectation; the gap closes as 1/tau
    for state in (neel, dimer):
        ell = max(20 * tau, 4000.0)
        protocol = MeasurementProtocol(ell=ell, tau=tau, m=1, t=tau)
        from chargequench.fluctuations import variance_symmetric

        sigma2 = variance_symmetric(tau, ell, state.occupation)
        expected_quantum, _ = _expected_quantum_gaussian(state, tau, ell, tau, sigma2)
        analytic, breakdown = averaged_correction(protocol, state.occupation)
        analytic_quantum = breakdown["variance_term"] + breakdown["configuration_term"]
        assert abs(expected_quantum - analytic_quantum) < 0.5 / tau


def test_monte_carlo_abort_on_mass_rejection(neel):
    protocol = MeasurementProtocol(ell=100.0, tau=10.0, m=1, t=10.0)
    # absurd distribution: huge variance against a tiny window forces rejections
    dist = OutcomeDistribution(KIND_GAUSSIAN, 50.0, (4000.0,), 10.0, 100.0, 2.0)
    with pytest.raises(FeasibilityError):
        monte_carlo_average(protocol, neel.occupation, 500, 3, distribution=dist)
    with pytest.raises(ValueError):
        monte_carlo_average(protocol, neel.occupation, 10, 3)
