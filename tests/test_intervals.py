import numpy as np

from interval_oracle import IntervalSet, window_hull


def _random_set(rng, n=4, span=10.0):
    pairs = []
    for _ in range(rng.integers(0, n + 1)):
        a = rng.uniform(-span, span)
        pairs.append((a, a + rng.uniform(0, span / 2)))
    return IntervalSet.from_pairs(pairs)


def _brute_measure(s, lo, hi, n=200001):
    xs = np.linspace(lo, hi, n)
    inside = np.zeros_like(xs, dtype=bool)
    for a, b in s.intervals:
        inside |= (xs >= a) & (xs <= b)
    return inside.mean() * (hi - lo)


def test_normalisation_sorted_disjoint():
    s = IntervalSet.from_pairs([(3, 5), (1, 2), (4.5, 7), (9, 9)])
    starts = [a for a, _ in s.intervals]
    ends = [b for _, b in s.intervals]
    assert starts == sorted(starts)
    assert all(a <= b for a, b in s.intervals)
    assert all(ends[i] < starts[i + 1] for i in range(len(starts) - 1))
    # (3,5) and (4.5,7) merge into (3,7); the degenerate (9,9) contributes 0
    assert s.measure == 1 + 4


def test_empty_and_degenerate():
    assert IntervalSet.empty().measure == 0.0
    assert not IntervalSet.empty()
    assert IntervalSet.from_pairs([(2, 1)]).measure == 0.0
    assert IntervalSet.from_pairs([(1, 1)]).measure == 0.0


def test_algebra_against_brute_force():
    rng = np.random.default_rng(11)
    window = (-12.0, 12.0)
    for _ in range(40):
        s, t = _random_set(rng), _random_set(rng)
        union = s.union(t)
        inter = s.intersect(t)
        comp = s.complement(window)
        # inclusion-exclusion on measures
        assert abs(union.measure + inter.measure - s.measure - t.measure) < 1e-12
        clipped = s.intersect(IntervalSet.from_pairs([window]))
        assert abs(comp.measure + clipped.measure - (window[1] - window[0])) < 1e-12
        # spot check against a sampled measure
        assert abs(_brute_measure(inter, *window) - inter.measure) < 5e-3
        # complement is an involution within the window
        back = comp.complement(window)
        assert abs(back.measure - clipped.measure) < 1e-12


def test_shift_and_difference():
    s = IntervalSet.from_pairs([(0, 2), (5, 6)])
    assert s.shift(3).intervals == ((3.0, 5.0), (8.0, 9.0))


def test_window_hull():
    s = IntervalSet.from_pairs([(-2, 1)])
    t = IntervalSet.from_pairs([(4, 9)])
    assert window_hull([s, t], pad=1.0) == (-3.0, 10.0)
    assert window_hull([IntervalSet.empty()]) == (-1.0, 1.0)
