"""Quasiparticle counting functions for measured quenches.

A quench emits at every point x0 one entangled pair per momentum k whose
members travel ballistically with velocities ``+-v``, ``v = |sin k|``.  The
weight of a "configuration class" (how many members sat inside the measured
region at each measurement time, and where the pair ends up at the final
time) is the Lebesgue measure of birth positions x0 realising it.  This
module computes those measures exactly by interval algebra for arbitrary
schedules (`counting_measure`).

Counting engine.  Integrands need chi(k) at thousands of momenta, so
`counting_function` evaluates the scalar classifier only at a handful of
velocities and interpolates.  For a fixed class every interval endpoint the
classifier produces has the form ``e - s v T``: e an endpoint of A = [0, ell]
or of the measured region, T a measurement time or the final time, s = +-1.
The measure is a sum of differences of such endpoints, and which endpoint is
active can only change where two of them meet,

    v* = (e1 - e2) / (s1 T1 - s2 T2).

Between consecutive breakpoints v* in (0, 1) the measure is therefore affine
in v, so linear interpolation in v = |sin k| through its values at 0, 1 and
every v* is exact, and the momenta where |sin k| = v* are the only kinks.
The classifier's window edges lie more than ``v t + 1`` beyond every region,
so they meet none of these endpoints; a class whose set reaches them has
infinite measure, and `counting_function` refuses it.

Conventions.  The geometric classifier (`counting_measure`) returns raw
x0-measures; classes involving "exactly one member inside" pin which member
(the right or left mover) is the inside one.  The counting functions of the
entropy formulas count member-pinned measures for shared classes and half the
raw measure (`counting_function`'s ``weight``) for full-pair classes, so that
each physical pair is weighted once under ``(1/2pi) int_{-pi}^{pi} dk``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSet, window_hull
from .quadrature import velocity_kinks

RIGHT_MOVER = "right"
LEFT_MOVER = "left"

FINAL_BOTH_IN = "AA"
FINAL_SHARED = "AAbar"
FINAL_BOTH_OUT = "AbarAbar"


# ---------------------------------------------------------------------------
# Schedule and class descriptions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementProtocol:
    """Subsystem length, measurement period and count, final time, outcomes."""

    ell: float
    tau: float
    m: int
    t: float
    outcomes: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("subsystem length must be positive")
        if self.m < 0 or self.tau < 0:
            raise ValueError("measurement count and period must be non-negative")
        if self.t < self.m * self.tau - 1e-12:
            raise ValueError("final time precedes the last measurement")
        if self.outcomes is not None and len(self.outcomes) != self.m:
            raise ValueError("outcome sequence length must equal m")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple((l + 1) * self.tau for l in range(self.m))


@dataclass(frozen=True)
class ConfigurationClass:
    """Per-measurement occupancy counts, final tag, and the pinned member.

    ``member`` identifies which pair member (right or left mover) is the one
    inside A for occupancy-1 events and for a shared final tag; classes with
    only 0/2 occupancies and an unshared final need no pin.
    """

    counts: tuple[int, ...]
    final: str
    member: str | None = None

    def __post_init__(self):
        if any(c not in (0, 1, 2) for c in self.counts):
            raise ValueError("occupancy counts must be 0, 1 or 2")
        if self.final not in (FINAL_BOTH_IN, FINAL_SHARED, FINAL_BOTH_OUT):
            raise ValueError(f"unknown final tag {self.final!r}")
        if self.member not in (None, RIGHT_MOVER, LEFT_MOVER):
            raise ValueError(f"unknown member tag {self.member!r}")

    @property
    def requires_member(self) -> bool:
        return self.final == FINAL_SHARED or any(c == 1 for c in self.counts)

    def label(self) -> str:
        pin = "" if self.member is None else f",{self.member}"
        return f"chi[{''.join(map(str, self.counts))}]_{self.final}{pin}"


# ---------------------------------------------------------------------------
# Geometric classifier
# ---------------------------------------------------------------------------


def _member_set(member: str, v: float, time: float, region: IntervalSet) -> IntervalSet:
    # right mover at x0 + v*time, left mover at x0 - v*time
    shift = -v * time if member == RIGHT_MOVER else +v * time
    return region.shift(shift)


def _event_set(v, time, region, count, member, window) -> IntervalSet:
    right = _member_set(RIGHT_MOVER, v, time, region)
    left = _member_set(LEFT_MOVER, v, time, region)
    if count == 2:
        return right.intersect(left)
    if count == 0:
        return right.union(left).complement(window)
    if member == RIGHT_MOVER:
        return right.intersect(left.complement(window))
    if member == LEFT_MOVER:
        return left.intersect(right.complement(window))
    # no pin: either member inside, the other out (raw pair-level measure)
    return right.intersect(left.complement(window)).union(
        left.intersect(right.complement(window))
    )


def counting_measure(
    cls: ConfigurationClass,
    k: float,
    protocol: MeasurementProtocol,
    measured_region=None,
) -> float:
    """Exact x0-measure of a configuration class at momentum k.

    ``measured_region`` overrides where the charge is measured (pairs of
    (a, b) tuples); the final tag always refers to the entangled interval
    A = [0, ell].  Classes that never touch a bounded region have infinite
    measure and are reported as ``math.inf``.
    """
    if len(cls.counts) != protocol.m:
        raise ValueError("class occupancy length must match the measurement count")
    v = abs(math.sin(float(k)))
    a_region = IntervalSet.from_pairs([(0.0, protocol.ell)])
    if measured_region is None:
        regions = [a_region] * protocol.m
    elif isinstance(measured_region, IntervalSet):
        regions = [measured_region] * protocol.m
    else:
        regions = [IntervalSet.from_pairs(measured_region)] * protocol.m

    # Window large enough to contain every bounded constraint of the class.
    base_sets = [a_region] + regions
    lo, hi = window_hull(base_sets, pad=1.0)
    span = v * protocol.t + (hi - lo)
    window = (lo - span - 1.0, hi + span + 1.0)

    allowed = IntervalSet.from_pairs([window])
    for time, region, count in zip(protocol.times, regions, cls.counts):
        allowed = allowed.intersect(_event_set(v, time, region, count, cls.member, window))
        if not allowed:
            return 0.0
    final_count = {FINAL_BOTH_IN: 2, FINAL_SHARED: 1, FINAL_BOTH_OUT: 0}[cls.final]
    allowed = allowed.intersect(
        _event_set(v, protocol.t, a_region, final_count, cls.member, window)
    )
    if not allowed:
        return 0.0
    if allowed.touches(window[0]) or allowed.touches(window[1]):
        return math.inf  # class never constrained to a bounded set
    return allowed.measure


def enumerate_classes(m: int):
    """All finite-measure occupancy strings with their possible final tags.

    Valid histories are runs ``2^a 1^b 0^c`` (pairs born inside A) or
    ``0^a 1^b 0^c`` (pairs entering from outside); anything else has zero
    measure and is omitted.
    """
    strings = set()
    for a in range(m + 1):
        for b in range(m + 1 - a):
            c = m - a - b
            strings.add((2,) * a + (1,) * b + (0,) * c)
            strings.add((0,) * a + (1,) * b + (0,) * c)
    out = []
    for s in sorted(strings, reverse=True):
        finals = [FINAL_SHARED]
        if s and all(x == 2 for x in s):
            finals.append(FINAL_BOTH_IN)
        if any(x != 0 for x in s):
            finals.append(FINAL_BOTH_OUT)
        for fin in finals:
            out.append(ConfigurationClass(s, fin))
    return out


# ---------------------------------------------------------------------------
# Counting engine
# ---------------------------------------------------------------------------


def velocity_breakpoints(protocol: MeasurementProtocol, measured_region=None) -> np.ndarray:
    """0, 1 and every v* in (0, 1) where two classifier endpoints meet (sorted)."""
    ends = {0.0, float(protocol.ell)}
    if measured_region is not None:
        pairs = measured_region.intervals if isinstance(measured_region, IntervalSet) else measured_region
        ends.update(float(e) for pair in pairs for e in pair)
    slopes = {s * time for time in (*protocol.times, protocol.t) for s in (1.0, -1.0)}
    found = {0.0, 1.0}
    for (e1, c1), (e2, c2) in itertools.combinations(itertools.product(ends, slopes), 2):
        if c1 != c2 and 0.0 < (v := (e1 - e2) / (c1 - c2)) < 1.0:
            found.add(v)
    return np.array(sorted(found))


@dataclass(frozen=True)
class CountingFunction:
    """Vectorised chi(k): linear interpolation in ``|sin k|`` between the
    exact values ``values`` at the breakpoints ``v``."""

    v: np.ndarray
    values: np.ndarray

    def __call__(self, k):
        return np.interp(np.abs(np.sin(k)), self.v, self.values)

    @property
    def kinks(self) -> list[float]:
        return velocity_kinks(self.v[1:-1])


def counting_function(classes, protocol: MeasurementProtocol, measured_region=None,
                      weight: float = 1.0) -> CountingFunction:
    """``weight * sum_cls counting_measure(cls, k, protocol, measured_region)``
    as a `CountingFunction`: one classifier call per class and breakpoint.

    Raises ValueError if a class has infinite measure at some velocity.
    """
    v = velocity_breakpoints(protocol, measured_region)
    values = np.array([
        weight * sum(counting_measure(cls, math.asin(x), protocol, measured_region) for cls in classes)
        for x in v
    ])
    if not np.all(np.isfinite(values)):
        raise ValueError("counting function of a class with infinite measure")
    return CountingFunction(v, values)


def light_cone_weight(t: float, ell: float) -> CountingFunction:
    """``min(2|v_k| t, ell)``, the weight of the pairs shared between A and
    its complement at time t: the m = 0 shared class in closed form.

    It is linear in v = |sin k| up to v = ell/2t and flat at ell beyond, so
    its only kink is at ell/2t (none when 2t <= ell).  Every variance, the
    charge window and the unmeasured entropy integrate it.
    """
    if 2 * t <= ell:
        return CountingFunction(np.array([0.0, 1.0]), np.array([0.0, 2.0 * t]))
    return CountingFunction(np.array([0.0, ell / (2 * t), 1.0]), np.array([0.0, ell, ell]))


def shared_suffix_classes(l: int, m: int) -> list[ConfigurationClass]:
    """Classes of the pairs first shared at measurement l, alive at t.

    These weight the outcome-dependent entropy corrections: the pair was not
    shared before measurement ``l`` (1-indexed), shared at measurements
    ``l..m`` and still shared at the final time.  Before becoming shared the
    pair was either fully inside A or fully outside, hence two classes.
    """
    if not 1 <= l <= m:
        raise ValueError("measurement index out of range")
    suffix = (1,) * (m - l + 1)
    prefixes = ((2,) * (l - 1), (0,) * (l - 1)) if l > 1 else ((),)
    return [ConfigurationClass(prefix + suffix, FINAL_SHARED, RIGHT_MOVER) for prefix in prefixes]


def shared_suffix_chis(protocol: MeasurementProtocol) -> list[CountingFunction]:
    """chi^(1,l) for l = 1..m, the `shared_suffix_classes`, as `CountingFunction`s."""
    return [counting_function(shared_suffix_classes(l, protocol.m), protocol)
            for l in range(1, protocol.m + 1)]
