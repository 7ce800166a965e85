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
