"""Seeded CLI job streams for the three benchmark workloads.

A workload's job list is a fixed number of *blocks*; a block is a list of
CLI jobs that exercises every job type and state of the workload once.  Every
run therefore sees the same mix and number of jobs, and only the drawn inputs
change with the seed.

Charges are integers drawn from the state's own outcome law, computed here
from closed forms (Neel, dimer) or from the occupation n(k) on a fine grid
(tilted states), never by calling the program: the program only ever sees
the argv this module builds.  Inputs that hit known defects are drawn the
way a user would and are not steered round; they count as failed jobs.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

ELL = 40  # entangled interval length, in sites
PI = repr(math.pi)


@dataclass(frozen=True)
class Job:
    slot: str  # job type within the block, used to group failures
    argv: tuple[str, ...]
    times: tuple[float, ...]  # final times t of the job's rows

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# Outcome laws
# ---------------------------------------------------------------------------


def _gaussian_pmf(mean, var, lo, hi):
    """Integers lo..hi weighted by the N(mean, var) mass of [j - 1/2, j + 1/2]."""
    scale = math.sqrt(2.0 * var)
    values = list(range(lo, hi + 1))
    weights = [math.erf((j + 0.5 - mean) / scale) - math.erf((j - 0.5 - mean) / scale) for j in values]
    return values, weights


def _light_cone_steps(tau):
    """Largest integer charge step transportable in one period: |dq| < 2 tau / pi."""
    return math.floor(2.0 * tau / math.pi - 1e-12)


def neel_step_law(tau):
    """Exact half-filled law of one increment: the cosine-power Fourier moment,
    proportional to 1 / B((x + 2 dq + 1)/2, (x - 2 dq + 1)/2), x = 4 tau/pi + 1."""
    x = 4.0 * tau / math.pi + 1.0
    jmax = _light_cone_steps(tau)
    values = list(range(-jmax, jmax + 1))
    logw = [
        math.lgamma(x + 1.0) - math.lgamma(0.5 * (x + 2 * j + 1)) - math.lgamma(0.5 * (x - 2 * j + 1))
        for j in values
    ]
    top = max(logw)
    return values, [math.exp(w - top) for w in logw]


def dimer_step_law(tau):
    """Gaussian increment with the ballistic variance 2 D tau, D = 1/(3 pi) for
    n(k) = (1 - cos k)/2, restricted to the light-cone window."""
    jmax = _light_cone_steps(tau)
    return _gaussian_pmf(0.0, 2.0 * tau / (3.0 * math.pi), -jmax, jmax)


def step_law(state, tau):
    return neel_step_law(tau) if state == "neel" else dimer_step_law(tau)


@dataclass(frozen=True)
class TiltedLaw:
    """Charge statistics of the tilted ferromagnet from n(k) on a midpoint grid."""

    density: float  # mean charge per site, cos^2(theta/2)
    nn: float  # (1/2pi) int dk n(1-n)
    drude: float  # (1/2pi) int dk |sin k| n(1-n)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def of(theta, points=1 << 14):
        k = -math.pi + (np.arange(points) + 0.5) * (2 * math.pi / points)
        c = math.cos(theta)
        cos_big = ((1 + c * c) * np.cos(k) - 2 * c) / (1 - 2 * c * np.cos(k) + c * c)
        n = 0.5 * (1 - cos_big)
        nn = n * (1 - n)
        return TiltedLaw(float(np.mean(n)), float(np.mean(nn)), float(np.mean(np.abs(np.sin(k)) * nn)))

    def region(self, length):
        """Law of the charge of a region of ``length`` sites at time zero."""
        return _gaussian_pmf(self.density * length, 2.0 * length * self.nn, 0, length)


class Draws:
    """Integer draws from outcome laws by stratified sampling.

    Each law (named by a key) is drawn in pools of POOL: the pool's uniforms
    fall one in each of POOL equal strata of [0, 1), in random order, and go
    through the law's inverse CDF.  Every draw still follows the law, but a
    job list holds each law's proportions closely, so the mix of cheap and
    costly outcomes (a zero charge step skips a whole integral) varies little
    between seeds.
    """

    POOL = 4

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._pools: dict = {}

    def of(self, key, law):
        pool = self._pools.get(key)
        if not pool:
            values, weights = law
            cdf = list(itertools.accumulate(weights))
            strata = [(i + self.rng.random()) / self.POOL * cdf[-1] for i in range(self.POOL)]
            self.rng.shuffle(strata)
            pool = self._pools[key] = [values[min(bisect.bisect_right(cdf, u), len(values) - 1)]
                                       for u in strata]
        return pool.pop()


def _chain(draws, state, tau, m):
    q, out = ELL // 2, []
    law = step_law(state, tau)
    for step in range(m):
        q += draws.of(("step", state, tau, step), law)
        out.append(q)
    return out


def _grid(times):
    return ",".join(f"{t:g}" for t in times)


def _job(slot, argv, times=()):
    return Job(slot, tuple(str(a) for a in argv), tuple(float(t) for t in times))


def _full_window_fcs(state, tau):
    # The whole principal window [-pi, pi] that fcs_generating_function accepts.
    return _job(f"fcs-full-{state}", ["fcs", "--state", state, "--ell", ELL, "--tau", tau,
                                      f"--beta-grid=-{PI}:{PI}:21"])


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

MULTI_TAU = 6.0  # m * tau < ell / 2, so the multiplier chain stays linear
# (m, time grid) of the curve jobs per state.  The mix puts the median job
# inside one cluster of job times rather than between two.
MULTI_CURVES = ((2, (21.0, 24.0)), (3, (18.0, 24.0)), (3, (18.0, 24.0)), (3, (18.0, 24.0)),
                (3, (21.0, 24.0)))


def multi_curve_block(draws):
    """Dimer then Neel: the state's full-window FCS (the outcome statistics a
    user looks at first), then the MULTI_CURVES curves at charges drawn from
    the chain law."""
    return [job for state in ("dimer", "neel") for job in _multi_curve_jobs(draws, state)]


def _multi_curve_jobs(draws, state):
    jobs = [_full_window_fcs(state, MULTI_TAU)]
    for m, times in MULTI_CURVES:
        q = _chain(draws, state, MULTI_TAU, m)
        jobs.append(_job(f"curve-m{m}", ["curve", "--state", state, "--ell", ELL, "--tau", MULTI_TAU,
                                          "--t-grid", _grid(times), "--q", ",".join(map(str, q))], times))
    return jobs


SINGLE_TAU = 6.0
SINGLE_CURVE_TIMES = (6.0, 14.0, 26.0, 34.0)


def single_scan_block(draws):
    """Dimer then Neel: full-window FCS, a q sweep and an m = 1 curve, MC
    averages with m = 1 and m = 3 (inside the light cone, so the multi-step
    chain never reaches the interval classifier), and an exact Neel job."""
    return [job for state in ("dimer", "neel") for job in _single_scan_jobs(draws, state)]


def _single_scan_jobs(draws, state):
    tau, law = SINGLE_TAU, step_law(state, SINGLE_TAU)
    rng = draws.rng
    lo, hi = sorted(ELL // 2 + draws.of(("sweep", state), law) for _ in range(2))
    exact = ["--exact-distribution"] if state == "neel" else []
    common = ["--state", state, "--ell", ELL, "--tau", tau]
    dq_lo, dq_hi = sorted(draws.of(("neel", state), neel_step_law(tau)) for _ in range(2))
    return [
        _full_window_fcs(state, tau),
        _job("sweep", ["sweep", *common, "--t", 16, "--q-grid", f"{lo}:{hi}"], [16.0]),
        _job("curve-m1", ["curve", *common, "--t-grid", _grid(SINGLE_CURVE_TIMES),
                          "--q", ELL // 2 + draws.of(("curve", state), law)], SINGLE_CURVE_TIMES),
        _job("average-m1", ["average", *common, "--t", 14, "--samples", 200,
                            "--seed", rng.randrange(16), *exact], [14.0]),
        _job("average-m3", ["average", *common, "--t", 18, "--m", 3, "--samples", 200,
                            "--seed", rng.randrange(16), *exact], [18.0]),
        _job("neel", ["neel", "--tau", tau, f"--dq={dq_lo}:{dq_hi}"], [tau]),
    ]


THETAS = (0.7, 1.1, math.pi / 2, 2.0, 2.4)
SQUEEZED_TAU = 3.0
SQUEEZED_TIMES = {1: (3.0, 14.0, 26.0), 2: (8.0, 26.0)}
GEOMETRY_TIMES = (5.0, 25.0)
TOTAL_LENGTH = 80  # complement geometry: the measured region is L - ell sites
DISJOINT_GAP, DISJOINT_LENGTH = 10, 20


def squeezed_geometry_block(draws):
    """Every theta of THETAS (pi/2 included): m = 1 curves at the most likely
    outcome round(qbar) and at a drawn outcome, an m = 2 curve, complement and
    disjoint geometries, and FCS scans over a narrow window and over [-3, 3]."""
    return [job for theta in THETAS for job in _squeezed_jobs(draws, theta)]


def _squeezed_jobs(draws, theta):
    law = TiltedLaw.of(theta)
    tau = SQUEEZED_TAU
    state = f"tilted:{theta!r}"
    common = ["--state", state, "--ell", ELL, "--tau", tau]
    qbar = law.density * ELL
    # First outcome: sigma_tau^2 = 2 ell <n(1-n)> - 2 tau D for tau < ell/2.
    q1_law = _gaussian_pmf(qbar, 2 * ELL * law.nn - 2 * tau * law.drude, 0, ELL)
    jmax = _light_cone_steps(tau)
    q1 = draws.of(("q1", theta), q1_law)
    q2 = q1 + draws.of(("q2", theta), _gaussian_pmf(0.0, 2 * tau * law.drude, -jmax, jmax))
    t1, t2 = SQUEEZED_TIMES[1], SQUEEZED_TIMES[2]
    complement = TOTAL_LENGTH - ELL
    return [
        _job("curve-m1-mode", ["curve", *common, "--t-grid", _grid(t1), "--q", round(qbar)], t1),
        _job("curve-m1", ["curve", *common, "--t-grid", _grid(t1), "--q", draws.of(("q", theta), q1_law)], t1),
        _job("curve-m2", ["curve", *common, "--t-grid", _grid(t2), "--q", f"{q1},{q2}"], t2),
        _job("geometry-complement", ["geometry", "--state", state, "--ell", ELL, "--t-grid",
                                     _grid(GEOMETRY_TIMES), "--q", draws.of(("complement", theta), law.region(complement)),
                                     "--geometry", "complement", "--L", TOTAL_LENGTH], GEOMETRY_TIMES),
        _job("geometry-disjoint", ["geometry", "--state", state, "--ell", ELL, "--t-grid",
                                   _grid(GEOMETRY_TIMES), "--q", draws.of(("disjoint", theta), law.region(DISJOINT_LENGTH)),
                                   "--geometry", "disjoint", "--d", DISJOINT_GAP,
                                   "--ell-b", DISJOINT_LENGTH], GEOMETRY_TIMES),
        _job("fcs-narrow", ["fcs", *common, "--beta-grid=-1:1:21"]),
        _job("fcs-wide", ["fcs", *common, "--beta-grid=-3:3:41"]),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    block: Callable[["Draws"], list[Job]]
    blocks: int  # blocks in a run's job list: about 13 s of jobs on an idle 2-core host

    def jobs(self, seed: int) -> list[Job]:
        """The run's job list for a seed; the same seed gives the same jobs."""
        draws = Draws(seed)
        return [job for _ in range(self.blocks) for job in self.block(draws)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("multi_curve", multi_curve_block, 6),
        Workload("single_scan", single_scan_block, 32),
        Workload("squeezed_geometry", squeezed_geometry_block, 4),
    )
}


def late_share(jobs):
    """Share of row times with t > ell/2: the input property the counting work
    of multi-measurement curves depends on."""
    times = [t for job in jobs for t in job.times]
    return sum(t > ELL / 2 for t in times) / len(times) if times else 0.0
