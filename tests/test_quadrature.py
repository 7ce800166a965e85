import math
import time

import numpy as np
import pytest

from chargequench.errors import QuadratureError
from chargequench.quadrature import MAX_PANELS, NODES, integrate


def test_log_singularity_converges():
    value, err = integrate(lambda x: np.log(np.abs(x - 0.3)), -1.0, 1.0)
    exact = 1.3 * math.log(1.3) + 0.7 * math.log(0.7) - 2.0
    assert value == pytest.approx(exact, rel=1e-10)
    assert err <= 1e-10 * abs(value)


def test_unmarked_jump_converges():
    value, _ = integrate(lambda x: np.where(x < 0.3, 1.0, 2.0) * np.exp(x), -1.0, 1.0)
    exact = (math.exp(0.3) - math.exp(-1.0)) + 2.0 * (math.exp(1.0) - math.exp(0.3))
    assert value == pytest.approx(exact, rel=1e-10)


def test_zero_integrand_is_exactly_zero():
    assert integrate(lambda x: np.zeros_like(x), -math.pi, math.pi, kinks=(0.0, 1.0)) == (0.0, 0.0)


def test_nan_names_a_panel():
    with pytest.raises(QuadratureError, match=r"panel \[0\.5, 1\.0\]"):
        integrate(lambda x: np.where(x > 0.5, np.nan, x), -1.0, 1.0, kinks=(0.5,))


@pytest.mark.parametrize("sizes", [False, True])
def test_noise_only_integrand_ends_within_the_work_bound(sizes):
    # rounding noise of a sum of O(1) terms: converges at once when the term
    # sizes are reported, and is refused within MAX_PANELS panels otherwise
    calls = []

    def noise(x):
        calls.append(len(x))
        values = 1e-16 * np.sin(1e9 * x + 1.0)
        return (values, np.ones_like(x)) if sizes else values

    start = time.perf_counter()
    try:
        integrate(noise, -math.pi, math.pi)
    except QuadratureError:
        assert not sizes
    else:
        assert sizes
    assert time.perf_counter() - start < 1.0
    assert sum(calls) <= 4 * MAX_PANELS * NODES


def test_smooth_panels_are_the_sum_of_their_half_rules():
    # accepted without splitting: the value is the sequential sum, over the
    # kink panels, of the two half rules, bit for bit
    def f(x):
        return np.exp(np.sin(x)) * np.abs(np.sin(x))

    kinks = np.linspace(-3.0, 3.0, 31).tolist()
    x, w = np.polynomial.legendre.leggauss(NODES)
    points = [-math.pi, *kinks, math.pi]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        mid = 0.5 * (a + b)
        halves = [0.5 * (hi - lo) * float(np.dot(w, f(0.5 * (hi - lo) * x + 0.5 * (lo + hi))))
                  for lo, hi in ((a, mid), (mid, b))]
        total += halves[0] + halves[1]
    assert integrate(f, -math.pi, math.pi, kinks=kinks)[0] == total


def _peaked(x):
    # splits several times near x = 0.3, with reported term sizes
    values = np.log(np.abs(x - 0.3)) + np.exp(x)
    return values, np.abs(values) + 1.0


@pytest.mark.parametrize("f", [
    lambda x: np.exp(np.sin(x)) * np.abs(np.sin(x)),
    lambda x: np.log(np.abs(x - 0.3)),
    _peaked,
], ids=["smooth", "log", "sizes"])
def test_a_batch_of_one_is_the_scalar_integral(f):
    def batch(x):
        out = f(x)
        return tuple(part[None, :] for part in out) if isinstance(out, tuple) else out[None, :]

    value, err = integrate(f, -1.0, 1.0, kinks=(0.0,))
    values, errs = integrate(batch, -1.0, 1.0, kinks=(0.0,))
    assert isinstance(value, float) and values.shape == errs.shape == (1,)
    assert (values[0], errs[0]) == (value, err)


def test_each_component_of_a_batch_meets_its_own_tolerance():
    # three scales and shapes on shared panels: each is as close to its exact
    # value, and to its own scalar integral, as the tolerance asks
    parts = [
        (lambda x: np.exp(x), math.e - 1 / math.e),
        (lambda x: np.log(np.abs(x - 0.3)), 1.3 * math.log(1.3) + 0.7 * math.log(0.7) - 2.0),
        (lambda x: 1e-6 * np.cos(40 * x), 1e-6 * math.sin(40.0) / 20),
    ]
    values, errs = integrate(lambda x: np.array([g(x) for g, _ in parts]), -1.0, 1.0)
    assert values.shape == errs.shape == (3,)
    for (g, exact), value, err in zip(parts, values, errs):
        alone, _ = integrate(g, -1.0, 1.0)
        assert value == pytest.approx(alone, rel=1e-10)
        assert value == pytest.approx(exact, rel=1e-10)
        assert err <= 1e-10 * abs(exact)


def test_components_that_split_the_same_panels_split_each_once():
    # both components pick the same worst panels in every pass: halved once,
    # each is the scalar integral bit for bit
    def g(x):
        return np.log(np.abs(x - 0.3))

    value, err = integrate(g, -1.0, 1.0)
    values, errs = integrate(lambda x: np.array([g(x), 2.0 * g(x)]), -1.0, 1.0)
    assert (values[0], errs[0]) == (value, err)
    assert values[1] == pytest.approx(2.0 * value, rel=1e-14)


def test_a_component_that_settles_first_is_its_scalar_integral():
    # the exponential settles on the first panels and retires; the log keeps
    # splitting without it (summed over the log's panels, e^{2x} would round
    # differently)
    def exp2(x):
        return np.exp(2.0 * x)

    values, _ = integrate(lambda x: np.array([exp2(x), np.log(np.abs(x - 0.3))]), -1.0, 1.0)
    assert values[0] == integrate(exp2, -1.0, 1.0)[0]
    assert values[1] == pytest.approx(1.3 * math.log(1.3) + 0.7 * math.log(0.7) - 2.0, rel=1e-10)


def test_a_zero_component_stays_exactly_zero():
    values, errs = integrate(lambda x: np.array([np.zeros_like(x), np.log(np.abs(x - 0.3))]), -1.0, 1.0)
    assert (values[0], errs[0]) == (0.0, 0.0)
    assert values[1] == pytest.approx(1.3 * math.log(1.3) + 0.7 * math.log(0.7) - 2.0, rel=1e-10)


def test_nan_names_the_panel_and_the_component():
    with pytest.raises(QuadratureError, match=r"panel \[0\.5, 1\.0\] gives a non-finite value in component 1"):
        integrate(lambda x: np.array([x, np.where(x > 0.5, np.nan, x)]), -1.0, 1.0, kinks=(0.5,))


def test_a_noisy_batch_is_refused_within_the_work_bound():
    calls = []

    def noisy(x):
        calls.append(len(x))
        return np.array([np.exp(x), 1e-16 * np.sin(1e9 * x + 1.0)])

    with pytest.raises(QuadratureError, match="in component 1"):
        integrate(noisy, -math.pi, math.pi)
    assert sum(calls) <= 4 * MAX_PANELS * NODES


def _after_two_retire(third):
    # components 0 and 1 settle on the first panels and retire; the third
    # fails later, once it is the only open component
    return lambda x: np.array([np.exp(x), x, third(x)])


def test_a_nan_after_retirement_names_the_original_component():
    def log_nan(x):
        # NaN within 1e-3 of 0.3: no first-pass node is that close
        return np.where(np.abs(x - 0.3) < 1e-3, np.nan, np.log(np.abs(x - 0.3)))

    with pytest.raises(QuadratureError, match="non-finite value in component 2"):
        integrate(_after_two_retire(log_nan), -1.0, 1.0)


def test_a_refusal_after_retirement_names_the_original_component():
    with pytest.raises(QuadratureError, match="did not converge in component 2"):
        integrate(_after_two_retire(lambda x: 1e-16 * np.sin(1e9 * x + 1.0)), -math.pi, math.pi)
