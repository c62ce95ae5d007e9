"""Ising encoding of the balanced cut problem and a simulated annealer.

The encoding penalizes crossing edges through couplings -w^2/2 per edge and
penalizes weight imbalance through +2*alpha*v_i*v_j couplings on every pair
(the expansion of alpha*(sum_i v_i s_i)^2 up to a constant). Spin-free
terms of the objective are kept in the model offset so reported energies
match the full expression.

The annealer is a classical stand-in for annealing hardware: single-spin
Metropolis proposals under a geometric temperature schedule, restartable
and fully deterministic per seed. Each call seeds one ``random.Random``
(the generator the GA uses). Following the randomness tables of Isakov et
al. (Comput. Phys. Commun. 192, 2015), each chain draws the uniforms for a
fixed-size block of proposals at once, numpy turns them into sites and
Metropolis thresholds, and the flip loop runs over plain Python lists.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .graph import GateGraph

__all__ = [
    "IsingModel",
    "AnnealSchedule",
    "SaResult",
    "build_ising",
    "default_schedule",
    "energy",
    "simulated_anneal",
    "spins_to_partition",
]


@dataclass(frozen=True)
class IsingModel:
    """min sum_i h_i s_i + sum_{i<j} J_ij s_i s_j + offset over s in {-1,+1}^n."""

    n: int
    h: tuple[float, ...]
    j: dict[tuple[int, int], float]
    offset: float = 0.0

    def __post_init__(self):
        if len(self.h) != self.n:
            raise ValueError(f"field list length {len(self.h)} != n {self.n}")
        for (i, k), val in self.j.items():
            if not 0 <= i < k < self.n:
                raise ValueError(f"coupling key ({i}, {k}) must satisfy 0 <= i < j < n")
            if not math.isfinite(val):
                raise ValueError(f"coupling ({i}, {k}) is not finite")
        if any(not math.isfinite(x) for x in self.h) or not math.isfinite(self.offset):
            raise ValueError("fields and offset must be finite")


@dataclass(frozen=True)
class AnnealSchedule:
    t_start: float
    t_end: float
    sweeps: int

    def __post_init__(self):
        if self.sweeps < 1:
            raise ValueError(f"sweeps must be >= 1, got {self.sweeps}")
        if not self.t_start >= self.t_end > 0:
            raise ValueError(
                f"need t_start >= t_end > 0, got t_start={self.t_start}, t_end={self.t_end}"
            )


@dataclass
class SaResult:
    spins: list[int]
    energy: float
    restarts: int
    sweeps: int


def build_ising(g: GateGraph, alpha: float = 1.0) -> IsingModel:
    """Encode the balanced cut objective for graph ``g``.

    alpha weighs the vertex-weight balance penalty. Minimum-energy spin
    configurations at alpha=0 are exactly the minimum weighted cuts.
    """
    n = g.n
    if n < 2:
        raise ValueError("encoding needs at least 2 vertices")
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    weights = g.weights
    j: dict[tuple[int, int], float] = {}
    offset = 0.0
    for u, v, w in g.edges:
        j[(u, v)] = j.get((u, v), 0.0) - w * w / 2.0
        offset += w * w / 2.0
    if alpha > 0:
        for i in range(n):
            for k in range(i + 1, n):
                j[(i, k)] = j.get((i, k), 0.0) + 2.0 * alpha * weights[i] * weights[k]
        offset += alpha * sum(w * w for w in weights)
    total = sum(weights)
    offset += (total - n / 2.0) ** 2  # spin-free tail of the literal objective
    j = {key: val for key, val in j.items() if val != 0.0}
    return IsingModel(n=n, h=tuple(0.0 for _ in range(n)), j=j, offset=offset)


def energy(m: IsingModel, s) -> float:
    if len(s) != m.n:
        raise ValueError(f"spin config length {len(s)} != n {m.n}")
    e = m.offset
    for i, h in enumerate(m.h):
        e += h * s[i]
    for (i, k), val in m.j.items():
        e += val * s[i] * s[k]
    return e


def default_schedule(m: IsingModel, sweeps: int) -> AnnealSchedule:
    """Geometric schedule spanning the model's local energy scale."""
    reach = [abs(h) for h in m.h]
    for (i, k), val in m.j.items():
        reach[i] += abs(val)
        reach[k] += abs(val)
    scale = max(reach) if reach else 0.0
    if scale <= 1e-12:  # flat or near-flat landscape; any schedule explores it
        scale = 1.0
    return AnnealSchedule(t_start=2.0 * scale, t_end=1e-3 * scale, sweeps=sweeps)


_BLOCK = 4096  # proposals per randomness table; bounds the chain's table memory
_INV53 = 1.0 / float(1 << 53)


def _chain(h, nbrs, temps, rng: random.Random) -> list[int]:
    """One Metropolis chain from a random start; returns the best spins seen.

    ``nbrs[i]`` lists ``(j, 2*J_ij)`` for spin i and ``temps`` holds one
    temperature per sweep. The randomness for each block of proposals is
    drawn at once from ``rng.randbytes`` and numpy turns it into sites and
    Metropolis thresholds, so the flip loop only indexes Python lists.
    """
    n = len(h)
    spins = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
    # local fields f_i = h_i + sum_j J_ij s_j give O(1) flip deltas
    fields = list(h)
    for i, nb in enumerate(nbrs):
        for j, w2 in nb:
            fields[j] += 0.5 * w2 * spins[i]
    e = 0.0  # energy change since the start; compared only within this chain
    best_e = 0.0
    best = spins[:]

    total = len(temps) * n
    for start in range(0, total, _BLOCK):
        stop = min(start + _BLOCK, total)
        # one 53-bit uniform v per proposal: the site is floor(v*n) (v < 1
        # keeps it below n) and the fractional part of v*n is a second
        # uniform u in [0, 1)
        scaled = (np.frombuffer(rng.randbytes(8 * (stop - start)), "<u8") >> 11) * (n * _INV53)
        sites = scaled.astype(np.intp)
        # flipping s_i changes the energy by -2*s_i*f_i; Metropolis accepts
        # when that is at most -T*ln(1 - u), i.e. s_i*f_i >= T*ln(1 - u)/2
        cutoffs = 0.5 * temps[np.arange(start, stop) // n] * np.log1p(sites - scaled)
        for i, cutoff in zip(sites.tolist(), cutoffs.tolist()):
            si = spins[i]
            x = si * fields[i]
            if x < cutoff:
                continue
            spins[i] = -si
            if si > 0:
                for j, w2 in nbrs[i]:
                    fields[j] -= w2
            else:
                for j, w2 in nbrs[i]:
                    fields[j] += w2
            e -= 2.0 * x
            if e < best_e:
                best_e = e
                best = spins[:]
    return best


def simulated_anneal(
    m: IsingModel,
    schedule: AnnealSchedule,
    seed: int = 0,
    restarts: int = 1,
) -> SaResult:
    """Best spin configuration found by restarted single-flip annealing.

    Deterministic given ``seed``; the reported energy never exceeds the
    energy of any restart's initial random state.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if m.n == 0:
        return SaResult(spins=[], energy=m.offset, restarts=restarts, sweeps=schedule.sweeps)

    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(m.n)]
    for (i, k), coupling in sorted(m.j.items()):
        nbrs[i].append((k, 2.0 * coupling))
        nbrs[k].append((i, 2.0 * coupling))
    sweeps = schedule.sweeps
    ratio = schedule.t_end / schedule.t_start
    temps = schedule.t_start * ratio ** (np.arange(sweeps) / max(sweeps - 1, 1))
    rng = random.Random(seed)
    best_spins: list[int] | None = None
    best_energy = math.inf
    for _ in range(restarts):
        spins = _chain(m.h, nbrs, temps, rng)
        # re-derive the energy exactly; the incremental sum inside the chain drifts
        e = energy(m, spins)
        if e < best_energy:
            best_energy, best_spins = e, spins

    assert best_spins is not None
    return SaResult(spins=best_spins, energy=best_energy, restarts=restarts, sweeps=sweeps)


def spins_to_partition(s) -> list[int]:
    """Decode spins to partition bits: +1 -> 1, -1 -> 0."""
    return [1 if si > 0 else 0 for si in s]
