"""Initial-state occupation functions and pair entropies.

Two classes of Gaussian initial states are supported, distinguished by how
momenta are paired:

* particle-hole symmetric states pair ``k`` with ``k - pi`` and carry a
  sharp subsystem charge density of 1/2 (``n(k - pi) = 1 - n(k)``);
* squeezed pair states pair ``k`` with ``-k`` and break particle-number
  symmetry (``n(k)`` must be even).

In both cases the two members of a pair move with opposite group
velocities, which is all the counting machinery downstream relies on.  The
band is the tight-binding one, ``eps_k = -cos k``: every module uses its
group velocity as ``v = |sin k|``.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quadrature import momentum_integral


class Pairing(enum.Enum):
    SYMMETRIC_PARTICLE_HOLE = "symmetric-particle-hole"
    SQUEEZED_PAIR = "squeezed-pair"


# ---------------------------------------------------------------------------
# Occupation functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OccupationFunction:
    """Momentum-resolved mode occupation with its pairing class.

    ``evaluate`` must be vectorised and map ``[-pi, pi]`` into ``[0, 1]``.
    ``mean_density`` is ``(1/2pi) int dk n(k)``, the mean charge per site and
    the one source every solver reads it from.  Pass it where it is known in
    closed form; otherwise it is 1/2 for particle-hole symmetric states and
    is integrated once, here, for squeezed ones.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    pairing: Pairing
    label: str
    mean_density: float | None = None

    def __post_init__(self):
        if self.mean_density is None:
            if self.pairing is Pairing.SYMMETRIC_PARTICLE_HOLE:
                density = 0.5  # sharp: the state is a charge eigenstate at half filling
            else:
                density, _ = momentum_integral(self.evaluate)
            object.__setattr__(self, "mean_density", density)

    def __call__(self, k):
        return self.evaluate(k)

    @functools.cached_property
    def half_filling_momenta(self) -> tuple[float, ...]:
        """Momenta where n(k) crosses 1/2, to machine precision: the sign
        changes of n - 1/2 on a uniform grid of [-pi, pi], each bracket then
        cut into 32 per pass (ten passes take a 2 pi / 2048 bracket below
        rounding).  For tilted states they sit at
        cos k = 2 cos(theta) / (1 + cos^2 theta).  Found once per state."""
        k = np.linspace(-math.pi, math.pi, 2049)
        below = np.signbit(self.evaluate(k) - 0.5)
        idx = np.nonzero(below[:-1] != below[1:])[0]
        lo, hi, rows = k[idx], k[idx + 1], np.arange(len(idx))
        cuts = np.linspace(0.0, 1.0, 33)
        for _ in range(10):
            grid = lo[:, None] + (hi - lo)[:, None] * cuts
            below = np.signbit(self.evaluate(grid) - 0.5)
            first = np.argmax(below[:, :-1] != below[:, 1:], axis=1)
            lo, hi = grid[rows, first], grid[rows, first + 1]
        return tuple((0.5 * (lo + hi)).tolist())


def occupation_neel(k):
    """Mode occupation of the Neel state: constant 1/2."""
    return np.full_like(np.asarray(k, dtype=float), 0.5)


def occupation_dimer(k, plus_cos: bool = False):
    """Mode occupation of the dimer state, ``(1 -+ cos k)/2``.

    The two sign conventions appear in the literature; entropies and
    variances are blind to the choice (they depend on ``n(1-n)`` and
    ``s[n]``), while outcome-dependent corrections flip ``lambda -> -lambda``.
    ``plus_cos=True`` selects ``(1 + cos k)/2``.  Written as ``sin^2(k/2)``
    (``cos^2(k/2)``), which keeps full relative precision where n -> 0: the
    difference form cancels there, at about 1e-4 relative at k = 1e-6.
    """
    return np.cos(0.5 * k) ** 2 if plus_cos else np.sin(0.5 * k) ** 2


def occupation_tilted(k, theta: float):
    """Mode occupation of the tilted-ferromagnet cat state.

    ``n(k) = (1 - cos Theta_k)/2`` with

        cos Theta_k = [(1 + cos^2 theta) cos k - 2 cos theta]
                      / [1 - 2 cos theta cos k + cos^2 theta].

    The orientation is fixed so that theta = pi/2 gives ``(1 - cos k)/2``
    and the mean density equals ``cos^2(theta/2)``, matching the product
    form of the state.  Requires ``theta`` in the open interval (0, pi);
    at the endpoints the denominator degenerates to ``(1 -+ cos k)^2``
    which vanishes at the band edge.
    """
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in the open interval (0, pi)")
    c = math.cos(theta)
    k = np.asarray(k, dtype=float)
    denom = 1.0 - 2.0 * c * np.cos(k) + c * c
    if np.any(np.abs(denom) < 1e-14):
        raise ValueError("tilted occupation denominator vanished")
    cos_big = ((1.0 + c * c) * np.cos(k) - 2.0 * c) / denom
    return 0.5 * (1.0 - cos_big)


def neel_state() -> OccupationFunction:
    return OccupationFunction(occupation_neel, Pairing.SYMMETRIC_PARTICLE_HOLE, "neel")


def dimer_state(plus_cos: bool = False) -> OccupationFunction:
    label = "dimer+" if plus_cos else "dimer"
    return OccupationFunction(
        lambda k: occupation_dimer(k, plus_cos), Pairing.SYMMETRIC_PARTICLE_HOLE, label
    )


def tilted_state(theta: float) -> OccupationFunction:
    occupation_tilted(0.0, theta)  # validate theta eagerly
    return OccupationFunction(
        lambda k: occupation_tilted(k, theta),
        Pairing.SQUEEZED_PAIR,
        f"tilted:{theta:g}",
        # cos^2(theta/2) written as (1 + cos theta)/2: only this form is exactly
        # 1/2 at theta = pi/2, so an outcome at the mean gives lambda = 0.
        mean_density=0.5 * (1.0 + math.cos(theta)),
    )


# ---------------------------------------------------------------------------
# Pair entropies
# ---------------------------------------------------------------------------


def pair_entropy(n, alpha: float = 1.0):
    """Entropy contribution of a single shared pair with occupation ``n``.

    alpha = 1 is the Von Neumann form ``-n log n - (1-n) log(1-n)`` with
    ``0 log 0 := 0``; alpha > 1 gives ``log[(1-n)^a + n^a] / (1-a)``.
    """
    n = np.asarray(n, dtype=float)
    if np.any((n < -1e-12) | (n > 1 + 1e-12)):
        raise ValueError("occupation outside [0, 1]")
    n = np.clip(n, 0.0, 1.0)
    if alpha < 1.0:
        raise ValueError("Renyi index must be >= 1")
    if alpha == 1.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            term = -np.where(n > 0, n * np.log(n), 0.0)
            term -= np.where(n < 1, (1 - n) * np.log(1 - n), 0.0)
        return term
    return np.log((1 - n) ** alpha + n**alpha) / (1.0 - alpha)


# ---------------------------------------------------------------------------
# Quench states and the name registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuenchState:
    """An occupation function together with its mean subsystem charge density."""

    occupation: OccupationFunction

    @property
    def mean_subsystem_charge_density(self) -> float:
        return self.occupation.mean_density


def _load_custom(path: str) -> OccupationFunction:
    data = np.loadtxt(path, delimiter=",", comments="#")
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"custom occupation file {path!r} must have two columns (k, n)")
    order = np.argsort(data[:, 0])
    ks, ns = data[order, 0], data[order, 1]
    if np.any((ns < -1e-9) | (ns > 1 + 1e-9)):
        raise ValueError("custom occupation values must lie in [0, 1]")

    def evaluate(k):
        return np.interp(np.asarray(k, dtype=float), ks, np.clip(ns, 0, 1))

    return OccupationFunction(evaluate, _classify_pairing(evaluate), f"custom:{path}")


def _classify_pairing(evaluate, grid_points: int = 1001, tol: float = 1e-6):
    k = np.linspace(-math.pi, math.pi, grid_points)
    n = evaluate(k)
    shifted = evaluate(np.where(k - math.pi < -math.pi, k + math.pi, k - math.pi))
    if np.max(np.abs(shifted - (1 - n))) < tol:
        return Pairing.SYMMETRIC_PARTICLE_HOLE
    if np.max(np.abs(evaluate(-k) - n)) < tol:
        return Pairing.SQUEEZED_PAIR
    raise ValueError(
        "custom occupation is neither particle-hole symmetric (n(k-pi)=1-n(k)) "
        "nor even in k; cannot assign a pairing class"
    )


def get_state(name: str) -> QuenchState:
    """Resolve a state name: neel | dimer | dimer+ | tilted:<theta> | custom:<file>."""
    if name == "neel":
        occ = neel_state()
    elif name == "dimer":
        occ = dimer_state()
    elif name == "dimer+":
        occ = dimer_state(plus_cos=True)
    elif name.startswith("tilted:"):
        occ = tilted_state(float(name.split(":", 1)[1]))
    elif name.startswith("custom:"):
        occ = _load_custom(name.split(":", 1)[1])
    else:
        raise KeyError(f"unknown state {name!r}")
    return QuenchState(occ)
