"""Quasiparticle counting functions for measured quenches.

A quench emits at every point x0 one entangled pair per momentum k whose
members travel ballistically with velocities ``+-v``, ``v = |sin k|``.  The
weight of a "configuration class" (how many members sat inside the measured
region at each measurement time, and where the pair ends up at the final
time) is the Lebesgue measure of birth positions x0 realising it.

Counting engine.  The right mover sits at x0 + v T at time T and the left
mover at x0 - v T, so which members are inside a region can only change at
x0 = e - s v T: e an endpoint of A = [0, ell] or of the measured region, T a
measurement time or the final time, s = +-1.  `_measures` sorts these
endpoints for a batch of velocities and probes each segment between
neighbours at its midpoint.  Per event (each measurement, then the final
time) a class admits one row of an occupancy table: both members in, none,
the right mover only, the left mover only, or exactly one.  Its measure is
the summed width of the segments where every event admits the probe,
infinite where a segment beyond all endpoints does.

`counting_function` evaluates the measures at a handful of velocities and
interpolates.  A measure is a sum of differences of the endpoints above, and
which endpoint is active can only change where two of them meet,

    v* = (e1 - e2) / (s1 T1 - s2 T2),

so between consecutive breakpoints v* in (0, 1) it is affine in v: linear
interpolation in v = |sin k| through its values at 0, 1 and every v* is
exact, the momenta where |sin k| = v* are the only kinks, and a class of
infinite measure is refused.

Conventions.  The measures (`counting_measure`) are raw x0-measures; classes
involving "exactly one member inside" pin which member (the right or left
mover) is the inside one.  The counting functions of the entropy formulas
count member-pinned measures for shared classes and half the raw measure
(`counting_function`'s ``weight``) for full-pair classes, so that each
physical pair is weighted once under ``(1/2pi) int_{-pi}^{pi} dk``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .quadrature import momentum_integral, velocity_kinks

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
    """Subsystem length, measurement period and count, final time."""

    ell: float
    tau: float
    m: int
    t: float

    def __post_init__(self):
        if self.ell <= 0:
            raise ValueError("subsystem length must be positive")
        if self.m < 0 or self.tau < 0:
            raise ValueError("measurement count and period must be non-negative")
        if self.t < self.m * self.tau - 1e-12:
            raise ValueError("final time precedes the last measurement")

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
# Counting kernel
# ---------------------------------------------------------------------------


# The codes (right mover inside) + 2 (left mover inside) an event admits, as
# bit masks: both members in, none, or one in, pinned to a mover or either
_BOTH_OR_NONE = {2: 0b1000, 0: 0b0001}
_ONE_IN = {RIGHT_MOVER: 0b0010, LEFT_MOVER: 0b0100, None: 0b0110}
_FINAL_COUNT = {FINAL_BOTH_IN: 2, FINAL_SHARED: 1, FINAL_BOTH_OUT: 0}
_CODE = np.array([1, 2])


def _measures(classes, protocol: MeasurementProtocol, v, measured_region=None) -> np.ndarray:
    """(C, V) x0-measures of C classes at V velocities ``v``, ``inf`` where
    unbounded: the segment sweep of the module docstring.

    ``measured_region`` (pairs of (a, b)) is where the charge is measured,
    A itself when None; the final tag always refers to A = [0, ell].
    """
    if any(len(cls.counts) != protocol.m for cls in classes):
        raise ValueError("class occupancy length must match the measurement count")
    a_region = [(0.0, float(protocol.ell))]
    region = a_region if measured_region is None else [(float(a), float(b)) for a, b in measured_region]
    times = [*protocol.times, protocol.t]
    # events: each measurement, then the final time, once for the right mover
    # (x0 + v T) and once for the left mover (x0 - v T); per event the open
    # intervals of its region, A padded with empty ones
    shifts = [*times, *(-time for time in times)]
    final = [*a_region, *[(math.inf, -math.inf)] * (len(region) - 1)]
    bounds = np.array([*([region] * protocol.m), final] * 2).transpose(2, 0, 1)
    # segment endpoints e - s v T; two more ends 2t + 1 beyond the others put
    # the outermost segments beyond every real endpoint, where a class that
    # holds is unbounded: their widths count as infinite
    ends = {e for pair in (*a_region, *region) for e in pair}
    ends = np.array(sorted(ends | {min(ends) - 2 * protocol.t - 1.0, max(ends) + 2 * protocol.t + 1.0}))
    motion = np.multiply.outer(np.asarray(v, dtype=float), shifts)
    points = np.sort(np.add.outer(-motion, ends).reshape(len(motion), -1))
    widths = points[:, 1:] - points[:, :-1]
    positions = (points[:, :-1] + 0.5 * widths)[:, :, None] + motion[:, None]
    inside = ((bounds[0] < positions[..., None]) & (positions[..., None] < bounds[1])).any(axis=-1)
    codes = _CODE @ inside.reshape(*inside.shape[:2], 2, len(times))
    masks = np.array([[_ONE_IN[cls.member] if count == 1 else _BOTH_OR_NONE[count]
                       for count in (*cls.counts, _FINAL_COUNT[cls.final])] for cls in classes])
    holds = ((masks[:, None, None] >> codes) & 1).all(axis=-1)
    widths[:, 0] = widths[:, -1] = math.inf
    return np.where(holds, widths, 0.0).sum(axis=-1)


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
    return float(_measures([cls], protocol, [abs(math.sin(float(k)))], measured_region)[0, 0])


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
    """0, 1 and every v* in (0, 1) where two segment endpoints meet (sorted)."""
    ends = {0.0, float(protocol.ell)}
    if measured_region is not None:
        ends.update(float(e) for pair in measured_region for e in pair)
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

    def integral(self, density, occ) -> float:
        """(1/2pi) int dk chi(k) density(n(k)), n the occupation ``occ``, split
        at chi's kinks: the one integral of a pair-count weight times a function
        of the mode occupation (variances, Drude weight, entropies, b(alpha))."""
        value, _ = momentum_integral(lambda k: self(k) * density(occ.evaluate(k)), kinks=self.kinks)
        return value


def counting_function(classes, protocol: MeasurementProtocol, measured_region=None,
                      weight: float = 1.0) -> CountingFunction:
    """``weight * sum_cls counting_measure(cls, k, protocol, measured_region)``
    as a `CountingFunction`: one `_measures` sweep over every class and
    breakpoint.

    Raises ValueError if a class has infinite measure at some velocity.
    """
    return _counting_functions([classes], protocol, measured_region, weight)[0]


def _counting_functions(groups, protocol, measured_region=None, weight=1.0) -> list[CountingFunction]:
    """The `counting_function` of each group of classes, all from one
    `_measures` sweep: each is the one its group gives alone, bit for bit."""
    v = velocity_breakpoints(protocol, measured_region)
    measures = _measures([cls for group in groups for cls in group], protocol, v, measured_region)
    if np.isinf(measures).any():
        raise ValueError("counting function of a class with infinite measure")
    bounds = [0, *itertools.accumulate(map(len, groups))]
    return [CountingFunction(v, weight * measures[lo:hi].sum(axis=0)) for lo, hi in zip(bounds, bounds[1:])]


def light_cone_weight(t: float, ell: float) -> CountingFunction:
    """``min(2|v_k| t, ell)``, the weight of the pairs shared between A and
    its complement at time t: the m = 0 shared class in closed form.

    It is linear in v = |sin k| up to v = ell/2t and flat at ell beyond, so
    its only kink is at ell/2t (none when 2t <= ell).  Every variance, the
    charge window and the unmeasured entropy integrate it.
    """
    if t < 0 or ell <= 0:
        raise ValueError("need t >= 0 and ell > 0")
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
    """chi^(1,l) for l = 1..m, the `shared_suffix_classes`, as `CountingFunction`s
    from one sweep."""
    return _counting_functions([shared_suffix_classes(l, protocol.m) for l in range(1, protocol.m + 1)],
                               protocol)
