"""Closed-interval sets on the real line with exact measure arithmetic.

Used by the quasiparticle counting machinery: every membership condition
"member of a pair born at x0 is inside region R at time T" is a finite union
of closed x0-intervals, so configuration-class measures reduce to unions,
intersections and complements of these sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
