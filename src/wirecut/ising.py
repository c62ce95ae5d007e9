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
fixed-size block of proposals at once, and numpy turns them into sites and
Metropolis thresholds. The chain then decides every proposal exactly as a
scalar loop over Python lists would. The chain's spins are the floats
+1.0 and -1.0, and it returns them as ints: the product s_i*f_i of an int
spin and a float field first turns the int into the same float, so float
spins give the same bits and save about a third of a rejected proposal's
cost. Two shortcuts make it faster without changing a decision or a bit of
the result:

- On every model the local fields live in one ``array('d')``, and an
  accepted flip adds its row of the dense n-by-n 2*J (8n^2 bytes) in one
  numpy operation on a view of that buffer. Each field takes the same IEEE
  operation as in the loop; a missing coupling adds 0.0, which can flip
  only the sign of a zero field, and no test or energy sum sees that sign.
  The loop over neighbour lists lives only in the tests' reference.
- Once a window of proposals accepts under 2%, the chain stays cold: numpy
  tests the next proposals against a copy of s_i*f_i with the scalar
  comparison, and the chain jumps to the first one accepted. Proposals
  before it change nothing, so skipping them changes no decision.
"""
from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass

import numpy as np

from .graph import GateGraph, _is_count

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
        if not _is_count(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if len(self.h) != self.n:
            raise ValueError(f"field list length {len(self.h)} != n {self.n}")
        for (i, k), val in self.j.items():
            if not (_is_count(i) and _is_count(k) and 0 <= i < k < self.n):
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
        if not _is_count(self.sweeps) or self.sweeps < 1:
            raise ValueError(f"sweeps must be an integer >= 1, got {self.sweeps!r}")
        if not (math.isfinite(self.t_start) and self.t_start >= self.t_end > 0):
            raise ValueError(
                f"need finite t_start >= t_end > 0, got t_start={self.t_start}, t_end={self.t_end}"
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
_WINDOW = 512  # proposals per acceptance count while the chain is hot
_COLD = 50  # a window accepting under 1/_COLD of its proposals makes the chain cold
_LOOK = 64  # proposals tested at once in numpy while the chain is cold


def _metropolis(sites, cutoffs, spins, fields, rows, view, e, best_e, best):
    """Decide the proposals ``sites`` with thresholds ``cutoffs`` one at a time.

    Returns (accepted, e, best_e, best). Flipping s_i moves every field f_j
    by -2*J_ij*s_i: one numpy operation with row i of the dense 2*J,
    ``rows[i]``, on ``view``, the numpy view of ``fields``.
    """
    accepted = 0
    subtract, add = np.subtract, np.add
    for i, cutoff in zip(sites, cutoffs):
        si = spins[i]
        x = si * fields[i]
        if x < cutoff:
            continue
        accepted += 1
        spins[i] = -si
        if si > 0:
            subtract(view, rows[i], view)
        else:
            add(view, rows[i], view)
        e -= 2.0 * x
        if e < best_e:
            best_e = e
            best = spins[:]
    return accepted, e, best_e, best


def _next_accept(xs, sites, cutoffs, pos: int) -> int:
    """First proposal from ``pos`` on that the scalar test accepts, else len(sites).

    ``xs`` holds s_i*f_i for every spin. Each window of ``_LOOK`` proposals
    is tested in numpy with the scalar test's own comparison, so the first
    proposal that is not ``x < cutoff`` is the one the loop would flip.
    """
    size = len(sites)
    while pos < size:
        end = min(pos + _LOOK, size)
        rejected = xs.take(sites[pos:end]) < cutoffs[pos:end]
        k = int(rejected.argmin())
        if not rejected[k]:
            return pos + k
        pos = end
    return size


def _chain(h, rows, temps, rng: random.Random) -> list[int]:
    """One Metropolis chain from a random start; returns the best spins seen.

    ``rows`` holds the rows of the dense 2*J, and ``temps`` one temperature
    per sweep. The randomness for each block of proposals is drawn at once
    from ``rng.randbytes``, and numpy turns it into sites and Metropolis
    thresholds. The fields sit in an ``array('d')`` that numpy updates in
    place through a view. While hot, the chain runs the scalar loop with
    spins in a Python list. Once cold, the spins move into an array with a
    numpy view, and ``_next_accept`` skips the rejected proposals.
    """
    n = len(h)
    spins = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(n)]
    # local fields f_i = h_i + sum_j J_ij s_j give O(1) flip deltas; adding
    # the rows in ascending order repeats the neighbour-list sums' additions
    fields = array("d", h)
    view = np.frombuffer(fields)
    for i in range(n):
        view += (0.5 * spins[i]) * rows[i]
    xs = None
    e = 0.0  # energy change since the start; compared only within this chain
    best_e = 0.0
    best = spins[:]

    half = 0.5 * temps
    total = len(temps) * n
    for start in range(0, total, _BLOCK):
        size = min(_BLOCK, total - start)
        # one 53-bit uniform v per proposal: the site is floor(v*n) (v < 1
        # keeps it below n) and the fractional part of v*n is a second
        # uniform u in [0, 1)
        scaled = (np.frombuffer(rng.randbytes(8 * size), "<u8") >> 11) * (n * _INV53)
        sites = scaled.astype(np.intp)
        # flipping s_i changes the energy by -2*s_i*f_i; Metropolis accepts
        # when that is at most -T*ln(1 - u), i.e. s_i*f_i >= T*ln(1 - u)/2;
        # T/2 repeats once per proposal of its sweep
        first, offset = divmod(start, n)
        last = (start + size - 1) // n
        half_t = np.repeat(half[first:last + 1], n)[offset:offset + size]
        cutoffs = half_t * np.log1p(sites - scaled)
        pos = 0
        while xs is None and pos < size:
            end = min(pos + _WINDOW, size)
            accepted, e, best_e, best = _metropolis(
                sites[pos:end].tolist(), cutoffs[pos:end].tolist(), spins, fields, rows, view,
                e, best_e, best)
            if accepted * _COLD < end - pos:  # cold for the rest of the chain
                spins = array("d", spins)
                spin_view = np.frombuffer(spins)
                xs = spin_view * view
            pos = end
        if xs is None:
            continue
        while (pos := _next_accept(xs, sites, cutoffs, pos)) < size:
            _, e, best_e, best = _metropolis(
                (int(sites[pos]),), (float(cutoffs[pos]),), spins, fields, rows, view, e,
                best_e, best)
            np.multiply(spin_view, view, xs)
            pos += 1
    return [int(s) for s in best]


def simulated_anneal(
    m: IsingModel,
    schedule: AnnealSchedule,
    seed: int = 0,
    restarts: int = 1,
) -> SaResult:
    """Best spin configuration found by restarted single-flip annealing.

    Deterministic given ``seed``; the reported energy never exceeds the
    energy of any restart's initial random state. The couplings are held
    as a dense n-by-n matrix, so even a sparse model costs O(n^2) memory.
    """
    if not _is_count(restarts) or restarts < 1:
        raise ValueError(f"restarts must be an integer >= 1, got {restarts!r}")
    if m.n == 0:
        return SaResult(spins=[], energy=m.offset, restarts=restarts, sweeps=schedule.sweeps)

    dense = np.zeros((m.n, m.n))
    for (i, k), coupling in m.j.items():
        dense[i, k] = dense[k, i] = 2.0 * coupling
    rows = list(dense)  # row views: indexing a list is cheaper than a 2-d array
    sweeps = schedule.sweeps
    ratio = schedule.t_end / schedule.t_start
    temps = schedule.t_start * ratio ** (np.arange(sweeps) / max(sweeps - 1, 1))
    rng = random.Random(seed)
    best_spins: list[int] | None = None
    best_energy = math.inf
    for _ in range(restarts):
        spins = _chain(m.h, rows, temps, rng)
        # re-derive the energy exactly; the incremental sum inside the chain drifts
        e = energy(m, spins)
        if e < best_energy:
            best_energy, best_spins = e, spins

    assert best_spins is not None
    return SaResult(spins=best_spins, energy=best_energy, restarts=restarts, sweeps=sweeps)


def spins_to_partition(s) -> list[int]:
    """Decode spins to partition bits: +1 -> 1, -1 -> 0."""
    return [1 if si > 0 else 0 for si in s]
