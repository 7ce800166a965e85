"""The interval-algebra classifier, kept as an independent oracle for the
counting kernel (`chargequench.counting._measures`).

Every membership condition "member of a pair born at x0 is inside region R
at time T" is a finite union of closed x0-intervals, so the measure of a
configuration class is that of unions, intersections and complements of
these sets, built one velocity and one class at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from chargequench.counting import (
    FINAL_BOTH_IN,
    FINAL_SHARED,
    LEFT_MOVER,
    RIGHT_MOVER,
    ConfigurationClass,
    MeasurementProtocol,
)


def _normalise(pairs):
    kept = sorted((float(a), float(b)) for a, b in pairs if b >= a)
    merged: list[list[float]] = []
    for a, b in kept:
        if merged and a <= merged[-1][1]:  # closed intervals: touching merges
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


@dataclass(frozen=True)
class IntervalSet:
    """Ordered disjoint closed intervals [a_i, b_i]."""

    intervals: tuple[tuple[float, float], ...]

    @staticmethod
    def from_pairs(pairs) -> "IntervalSet":
        return IntervalSet(_normalise(pairs))

    @staticmethod
    def empty() -> "IntervalSet":
        return IntervalSet(())

    @property
    def measure(self) -> float:
        return sum(b - a for a, b in self.intervals)

    def shift(self, dx: float) -> "IntervalSet":
        return IntervalSet(tuple((a + dx, b + dx) for a, b in self.intervals))

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.from_pairs(self.intervals + other.intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        for a, b in self.intervals:
            for c, d in other.intervals:
                if d < a:
                    continue
                if c > b:
                    break
                out.append((max(a, c), min(b, d)))
        return IntervalSet.from_pairs(out)

    def complement(self, window: tuple[float, float]) -> "IntervalSet":
        """Complement within a closed window."""
        lo, hi = window
        out = []
        cursor = lo
        for a, b in self.intervals:
            if b < lo:
                continue
            if a > hi:
                break
            if a > cursor:
                out.append((cursor, min(a, hi)))
            cursor = max(cursor, b)
        if cursor < hi:
            out.append((cursor, hi))
        return IntervalSet.from_pairs(out)

    def touches(self, point: float, tol: float = 0.0) -> bool:
        return any(a - tol <= point <= b + tol for a, b in self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)


def window_hull(sets, pad: float = 1.0) -> tuple[float, float]:
    """Smallest padded window containing every bounded interval of the sets."""
    lo, hi = math.inf, -math.inf
    for s in sets:
        for a, b in s.intervals:
            lo = min(lo, a)
            hi = max(hi, b)
    if lo > hi:
        return (-pad, pad)
    return (lo - pad, hi + pad)


def _event_set(v, time, region, count, member, window) -> IntervalSet:
    # right mover at x0 + v*time, left mover at x0 - v*time
    right = region.shift(-v * time)
    left = region.shift(v * time)
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


def classifier_measure(cls: ConfigurationClass, v: float, protocol: MeasurementProtocol,
                       measured_region=None) -> float:
    """x0-measure of a configuration class at velocity v, ``math.inf`` where
    the class never meets a bounded region; ``measured_region`` as in
    `chargequench.counting.counting_measure`."""
    a_region = IntervalSet.from_pairs([(0.0, protocol.ell)])
    region = a_region if measured_region is None else IntervalSet.from_pairs(measured_region)
    regions = [region] * protocol.m

    # Window large enough to contain every bounded constraint of the class.
    lo, hi = window_hull([a_region, *regions], pad=1.0)
    span = v * protocol.t + (hi - lo)
    window = (lo - span - 1.0, hi + span + 1.0)

    allowed = IntervalSet.from_pairs([window])
    for time, region, count in zip(protocol.times, regions, cls.counts):
        allowed = allowed.intersect(_event_set(v, time, region, count, cls.member, window))
        if not allowed:
            return 0.0
    final_count = {FINAL_BOTH_IN: 2, FINAL_SHARED: 1}.get(cls.final, 0)
    allowed = allowed.intersect(_event_set(v, protocol.t, a_region, final_count, cls.member, window))
    if not allowed:
        return 0.0
    if allowed.touches(window[0]) or allowed.touches(window[1]):
        return math.inf  # class never constrained to a bounded set
    return allowed.measure
