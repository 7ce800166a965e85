"""Gauss-Legendre quadrature with one global error budget.

All momentum integrals in this library are of the form
``(1/2pi) * int_{-pi}^{pi} dk g(|sin k|, n(k))`` where ``g`` is smooth except
for kinks at a known, finite set of critical velocities (where a ballistic
light cone crosses the subsystem size).  The kinks become panel edges; each
panel carries its coarse rule and the sum of its two half rules, whose
difference is the panel's error.  While the summed error exceeds the budget,
the panels with the largest errors are halved (as in QUADPACK ``qags``), so
that a log singularity, an unmarked jump or a narrow feature is refined where
it sits instead of being asked to converge on its own share of the tolerance.
The total number of panels is bounded.  Every integral of the library is
held to the one relative tolerance `RTOL`.

An integrand may also return an (M, N) array for N nodes: a batch of M
integrals (say, an FCS grid of counting fields, the quantum corrections of
many outcomes, or a saddle residual and its slope) on shared panels, in one
adaptive loop with one call of the integrand per pass.  Each component keeps
its own error budget and retires once it meets it: its value and error are
frozen, and later passes carry, and split panels for, only the components
still open.  The integrand still takes the nodes alone and returns all M
rows on every call; the rows of retired components are dropped.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import QuadratureError

NODES = 24  # Gauss-Legendre nodes per rule
MAX_PANELS = 2000  # panels of one integral before QuadratureError
_NOISE = 30.0 * np.finfo(float).eps  # rounding noise per unit term size and width
RTOL = 1e-10  # relative tolerance of every momentum integral


@cache
def _gauss_legendre():
    """Nodes, and weights as a column.  Built on first use, so that importing
    the package does not load numpy.polynomial."""
    x, w = np.polynomial.legendre.leggauss(NODES)
    return x, w[:, None]


def _rules(f, lo, hi, rows=None):
    """One call of ``f`` on the nodes of every panel [lo_i, hi_i]: the rules as
    an (M, P) array, each component's largest term size, and whether ``f``
    returned a batch of M components.  ``rows`` keeps only those components
    of a batch."""
    x, w = _gauss_legendre()
    half = 0.5 * (hi - lo)
    nodes = half[:, None] * x
    nodes += (0.5 * (lo + hi))[:, None]
    out = f(nodes.ravel())
    values, sizes = out if isinstance(out, tuple) else (out, out)
    values = np.asarray(values, dtype=float)
    batched = values.ndim == 2
    if rows is not None:
        values, sizes = values[rows], np.asarray(sizes)[rows]
    # a (1 x NODES) @ (NODES x 1) product per panel is one dot, bit for bit
    # the per-panel float(np.dot(w, row)) (values @ w would round differently)
    rules = half * (values.reshape(-1, len(half), 1, NODES) @ w).reshape(-1, len(half))
    peaks = np.maximum.reduce(np.abs(sizes).reshape(len(rules), -1), 1).tolist()
    return rules, peaks, batched


def integrate(f, a, b, kinks=(), rtol=RTOL):
    """Integrate vectorised ``f``, or a batch of M integrands, over [a, b].

    ``f`` maps N nodes to values of shape (N,), or (M, N) for a batch that
    shares the panels; it may instead return a ``(values, sizes)`` pair of
    the same shape.  ``f`` takes the nodes only: every call evaluates all M
    components.  Returns ``(value, error_estimate)``: floats for (N,)
    values, arrays of shape (M,) for a batch.  ``kinks`` are interior points
    where the integrands are continuous but not smooth; they become panel
    edges.

    Each component is accepted once its summed panel error falls below its
    own ``max(rtol * sum |panel|, 30 eps peak (b - a))``, where ``peak`` is
    the component's largest term size seen at any node.  An integrand whose
    value is a cancelling sum of larger terms returns ``(values, sizes)``
    with ``sizes`` the magnitude of those terms, so that the floor matches
    the rounding noise of the sum rather than the (much smaller) size of the
    sum itself.  An accepted component retires: its value, the sequential
    sum of its panels in order of k, and its error are frozen, and later
    passes drop its part of the integrand's output.  Otherwise each failing
    component's fewest worst panels whose errors cover its excess over half
    its budget are halved, all of them in one call of ``f``; a panel's half
    rules become its children's coarse rules.  A component that settles on
    the panels it started from is its scalar integral bit for bit (a batch
    of one always is), and exact zeros stay exact.
    """
    if b <= a:
        return 0.0, 0.0
    points = np.array(sorted({a, b, *(p for p in kinks if a < p < b)}), dtype=float)
    lo, mid, hi = points[:-1], 0.5 * (points[:-1] + points[1:]), points[1:]
    rules, peak, batched = _rules(f, np.concatenate([lo, lo, mid]), np.concatenate([hi, mid, hi]))
    m, n = len(rules), len(lo)
    # one column per panel; rows: lo, hi, the coarse rule of every open
    # component, then each open component's left-half and right-half rules
    panels = np.concatenate([lo[None], hi[None], rules[:, :n], rules[:, n:].reshape(2 * m, n)])
    # the original index of each open component; the frozen (value, error)
    # of each retired one, by index
    index, retired = list(range(m)), {}
    split = None  # the panels are in order of k until the first split
    while True:
        lo, hi = panels[0], panels[1]
        coarse, left, right = panels[2:2 + m], panels[2 + m::2], panels[3 + m::2]
        fine = left + right
        errs = np.abs(fine - coarse)
        # per component, as floats: few components are cheaper in Python
        err = np.add.reduce(errs, 1).tolist()
        if not all(map(math.isfinite, err)):
            c = next(c for c, e in enumerate(err) if not math.isfinite(e))
            i = np.argmax(~np.isfinite(errs[c]))
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] gives a non-finite value{_component(index[c], batched)}",
                achieved=err[c])
        sizes = np.add.reduce(np.abs(fine), 1).tolist()
        budget = [max(rtol * size, _NOISE * p * (b - a)) for size, p in zip(sizes, peak)]
        fail = [c for c in range(m) if not err[c] <= budget[c]]
        if not fail:
            break
        if len(fail) < m:
            # retire the accepted components
            done = [c for c in range(m) if err[c] <= budget[c]]
            for c, total in zip(done, _sums(fine[done], lo, split is not None)):
                retired[index[c]] = total, err[c]
            halves = [r for c in fail for r in (2 + m + 2 * c, 3 + m + 2 * c)]
            panels = panels[[0, 1, *(2 + c for c in fail), *halves]]
            errs, index = errs[fail], [index[c] for c in fail]
            err, budget, peak = ([v[c] for c in fail] for v in (err, budget, peak))
            m, fail = len(fail), range(len(fail))
        # each failing component's fewest worst panels whose errors cover its
        # excess over half its budget, worst first, component by component;
        # each panel once
        halve = np.zeros(panels.shape[1], dtype=bool)
        split = None
        for c in fail:
            order = errs[c].argsort()[::-1]
            worst = order[:int(errs[c, order].cumsum().searchsorted(err[c] - 0.5 * budget[c])) + 1]
            split = worst if split is None else np.concatenate([split, worst[~halve[worst]]])
            halve[worst] = True
        if panels.shape[1] + len(split) > MAX_PANELS:
            c = fail[0]
            i = np.argmax(errs[c])
            raise QuadratureError(
                f"panel [{lo[i]}, {hi[i]}] did not converge{_component(index[c], batched)} (residual "
                f"{errs[c, i]:.3e}; error {err[c]:.3e} over budget {budget[c]:.3e} at "
                f"{panels.shape[1]} panels)", achieved=err[c])
        s_lo, s_hi = lo[split], hi[split]
        s_mid = 0.5 * (s_lo + s_hi)
        # the children's ends and midpoints, left children first
        c_lo, c_hi = np.concatenate([s_lo, s_mid]), np.concatenate([s_mid, s_hi])
        c_mid = 0.5 * (c_lo + c_hi)
        quarters, quarter_peak, _ = _rules(f, np.concatenate([c_lo, c_mid]), np.concatenate([c_mid, c_hi]),
                                           index if retired else None)
        peak = list(map(max, peak, quarter_peak))
        # the kept panels in their order, then the left children, then the
        # right; a child's coarse rule is its parent's half rule
        children = np.concatenate([
            c_lo[None], c_hi[None], panels[2 + m:, split].reshape(m, -1), quarters.reshape(2 * m, -1)])
        panels = np.concatenate([panels[:, ~halve], children], axis=1)
    totals = _sums(fine, lo, split is not None)
    if not batched:
        return totals[0], err[0]
    retired.update(zip(index, zip(totals, err)))
    values, errors = zip(*(retired[c] for c in range(len(retired))))
    return np.array(values), np.array(errors)


def _sums(fine, lo, shuffled):
    """Each row's sequential sum over the panels in order of k; ``shuffled``
    if the panels, starting at ``lo``, are not in that order."""
    if shuffled:
        fine = fine.take(lo.argsort(), axis=1)
    totals = []
    for row in fine.tolist():
        total = 0.0
        for value in row:
            total += value
        totals.append(total)
    return totals


def _component(c, batched):
    return f" in component {c}" if batched else ""


def velocity_kinks(critical_velocities):
    """Momenta in (-pi, pi) where |sin k| crosses one of the given values.

    Values outside (0, 1) produce no kink for the cosine band.  k = 0 is
    always included (|sin k| itself is non-smooth there).
    """
    ks = {0.0}
    for c in critical_velocities:
        if 0.0 < c < 1.0:
            k0 = math.asin(c)
            ks.update((k0, math.pi - k0, -k0, -(math.pi - k0)))
    return sorted(ks)


def momentum_integral(g, kinks=(), rtol=RTOL):
    """(value, err) of ``(1/2pi) int_{-pi}^{pi} g(k) dk`` with kink splitting."""
    value, err = integrate(g, -math.pi, math.pi, kinks=kinks, rtol=rtol)
    return value / (2.0 * math.pi), err / (2.0 * math.pi)
