"""Error-balanced bipartitioning of the gate graph.

The cost of a cut is the weighted number of crossing edges scaled by the
inverse total vertex weight of each side:

    cost = cut_size * (1/weight(side0) + 1/weight(side1))

so cheap cuts both cross few wires and split the estimated error evenly.

The search is a small memetic genetic algorithm: a population of partition
vectors evolves by tournament selection, one-point crossover, and light
bit-flip mutation, and every offspring is refined by greedy bit-flip
descent (each flip is kept only when it lowers the cost). A generation
without improvement counts toward the stagnation budget ``C2``; when the
budget is exhausted the population is re-seeded, up to ``RESTARTS`` times
or the cap of ``50 * n`` generations for ``n`` vertices. Given a seed the
whole search is deterministic, and the reported best-cost trace is
non-increasing by construction.

The descent is fast and still exact. It keeps each vertex's cut gain, the
change of the cut size if that vertex flips, and after a flip updates only
the flipped vertex and its neighbours (the gain bookkeeping of Fiduccia and
Mattheyses, DAC 1982). Edge weights are integers (``GateGraph`` refuses
others). The descent holds them, the gains and the cut as floats, and
integers below 2**53 are exact as floats, so ``cut + gain`` is the
re-summed cut exactly, and each candidate's cost is the same float
expression over the same side weight as a descent that re-sums. The descent
is a pure function of its input vector, so its results are memoised for
the current and the previous generation. Tournaments and seeding bits are
drawn with ``getrandbits`` exactly as ``min(rng.sample(pop, 3), key=cost)``
and ``rng.randint(0, 1)`` draw them. A search therefore returns the same
bits as the plain one, which ``tests/oracles.py`` keeps as
``greedy_descent`` and a golden hash pins.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from .graph import GateGraph

__all__ = [
    "GaResult",
    "cut_size",
    "partition_cost",
    "crossover",
    "find_min_cut_ga",
]

INFEASIBLE = math.inf
C1 = 0.5  # crossover split fraction
C2 = 3  # stagnant generations tolerated before the population is re-seeded
POPULATION = 24  # vectors per generation
RESTARTS = 3  # fresh populations tried within the pass cap


@dataclass
class GaResult:
    partition: list[int]
    cost: float
    passes: int
    trace: list[float] = field(default_factory=list)  # best cost after each generation


def cut_size(pv, g: GateGraph) -> float:
    """Weighted count of edges whose endpoints sit in different parts."""
    if len(pv) != g.n:
        raise ValueError(f"partition length {len(pv)} != vertex count {g.n}")
    total = 0.0
    for u, v, w in g.edges:
        d = pv[u] - pv[v]
        total += w * d * d
    return total


def partition_cost(pv, g: GateGraph) -> float:
    """Cut size scaled by inverse per-side weights; +inf for one-sided vectors."""
    if len(pv) != g.n:
        raise ValueError(f"partition length {len(pv)} != vertex count {g.n}")
    # both sides summed directly so complementing the labels swaps the sums
    # exactly (label-flip invariance holds to the last ulp)
    w0 = 0.0
    w1 = 0.0
    n1 = 0
    for bit, w in zip(pv, g.weights):
        if bit:
            w1 += w
            n1 += 1
        else:
            w0 += w
    if n1 == 0 or n1 == g.n:
        return INFEASIBLE
    return cut_size(pv, g) * (1.0 / w0 + 1.0 / w1)


def crossover(v1, v2, c1: float = 0.5) -> list[int]:
    """One-point recombination: first floor(c1*N) bits of v1, tail of v2."""
    if len(v1) != len(v2):
        raise ValueError(f"vector lengths differ: {len(v1)} != {len(v2)}")
    split = int(c1 * len(v1))
    return list(v1[:split]) + list(v2[split:])


class _Scorer:
    """Greedy descent with per-vertex cut gains, memoised for two generations."""

    def __init__(self, g: GateGraph):
        self.n = g.n
        self.weights = g.weights
        self.total = sum(self.weights)
        # float edge weights keep the descent in float arithmetic; its sums
        # are integers below 2**53, so they stay exact
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
        for u, v, w in g.edges:
            self.adj[u].append((v, float(w)))
            self.adj[v].append((u, float(w)))
        # input vector -> (refined vector, cost), this generation's and the last
        self.memo: dict[bytes, tuple[bytes, float]] = {}
        self.older: dict[bytes, tuple[bytes, float]] = {}

    def next_generation(self) -> None:
        self.older, self.memo = self.memo, {}

    def refine(self, pv: list[int]) -> float:
        """Greedy descent to a local optimum; mutates pv in place.

        The descent is a pure function of its input, so a vector refined in
        this generation or the last one is looked up, not descended again.
        """
        key = bytes(pv)
        hit = self.memo.get(key) or self.older.get(key)
        if hit is None:
            cost = self._descend(pv)
            self.memo[key] = (bytes(pv), cost)
            return cost
        self.memo[key] = hit
        pv[:] = hit[0]
        return hit[1]

    def _descend(self, pv: list[int]) -> float:
        n, adj, weights, total = self.n, self.adj, self.weights, self.total
        gain = [0.0] * n  # change of the cut size if vertex i flips
        cross = 0.0  # twice the cut size
        w1 = 0.0
        n1 = 0
        for i in range(n):
            side = pv[i]
            d = 0.0
            for j, w in adj[i]:
                if pv[j] == side:
                    d += w
                else:
                    d -= w
                    cross += w
            gain[i] = d
            if side:
                n1 += 1
                w1 += weights[i]
        cut = cross * 0.5
        # emptiness is judged on the integer count: the float accumulator can
        # leave a tiny residue that would make a one-sided vector look proper
        cost = INFEASIBLE if n1 == 0 or n1 == n else cut * (1.0 / (total - w1) + 1.0 / w1)
        improved = True
        while improved:
            improved = False
            for i in range(n):
                side = pv[i]
                # a flip that empties a side scores +inf and never wins
                if side:
                    if n1 == 1:
                        continue
                    nw1 = w1 - weights[i]
                elif n1 == n - 1:
                    continue
                else:
                    nw1 = w1 + weights[i]
                ncut = cut + gain[i]
                ncost = ncut * (1.0 / (total - nw1) + 1.0 / nw1)
                if ncost < cost:
                    pv[i] = side ^ 1
                    n1 += -1 if side else 1
                    cut, w1, cost = ncut, nw1, ncost
                    gain[i] = -gain[i]
                    for j, w in adj[i]:
                        if pv[j] == side:
                            gain[j] -= 2.0 * w
                        else:
                            gain[j] += 2.0 * w
                    improved = True
        return cost


def _random_bits(getrandbits, n: int) -> list[int]:
    """``[rng.randint(0, 1) for _ in range(n)]``, drawn as ``randint`` draws:
    two bits per call, redrawn while they read 2 or 3."""
    bits = []
    while len(bits) < n:
        b = getrandbits(2)
        if b < 2:
            bits.append(b)
    return bits


def _tournament(getrandbits, pop: list[tuple[float, list[int]]]) -> tuple[float, list[int]]:
    """``min(rng.sample(pop, 3), key=cost)``, drawn as ``sample`` draws it.

    For a population larger than 21, ``sample`` draws each index as a
    ``bit_length``-bit word, redrawn while it is out of range or already
    drawn; ``min`` keeps the first-drawn of equal costs.
    """
    size = len(pop)
    k = size.bit_length()
    a = getrandbits(k)
    while a >= size:
        a = getrandbits(k)
    b = getrandbits(k)
    while b >= size or b == a:
        b = getrandbits(k)
    c = getrandbits(k)
    while c >= size or c == a or c == b:
        c = getrandbits(k)
    best = pop[a]
    if pop[b][0] < best[0]:
        best = pop[b]
    if pop[c][0] < best[0]:
        best = pop[c]
    return best


def find_min_cut_ga(g: GateGraph, seed: int = 0) -> GaResult:
    """Search for a minimum-cost balanced cut of ``g``.

    Returns the best vector ever observed with its cost; the cost is
    finite whenever any proper cut exists (one-sided vectors score +inf and
    are passed through, never returned).
    """
    if g.n < 2:
        raise ValueError("partitioning needs at least 2 vertices")
    n = g.n
    max_passes = 50 * n
    mutation = 1.0 / n  # per-bit flip probability after crossover
    rng = random.Random(seed)
    getrandbits, uniform = rng.getrandbits, rng.random
    scorer = _Scorer(g)

    best_vec: list[int] | None = None
    best_cost = INFEASIBLE
    trace: list[float] = []
    passes = 0

    def note(cost: float, vec: list[int]):
        nonlocal best_cost, best_vec
        if cost < best_cost:
            best_cost, best_vec = cost, list(vec)

    for _ in range(RESTARTS):
        pop: list[tuple[float, list[int]]] = []
        scorer.next_generation()
        while len(pop) < POPULATION:
            vec = _random_bits(getrandbits, n)
            if len(set(vec)) == 1:
                vec[rng.randrange(n)] ^= 1  # one-sided starts stall on +inf
            cost = scorer.refine(vec)
            note(cost, vec)
            pop.append((cost, vec))
        pop.sort(key=lambda t: t[0])

        stagnant = 0
        while stagnant <= C2 and passes < max_passes:
            prev_best = pop[0][0]
            newpop = [(pop[0][0], list(pop[0][1]))]  # elitism
            scorer.next_generation()
            while len(newpop) < POPULATION:
                pa = _tournament(getrandbits, pop)
                pb = _tournament(getrandbits, pop)
                child = crossover(pa[1], pb[1], C1)
                for i in range(n):
                    if uniform() < mutation:
                        child[i] ^= 1
                cost = scorer.refine(child)
                note(cost, child)
                newpop.append((cost, child))
            pop = sorted(newpop, key=lambda t: t[0])
            passes += 1
            trace.append(best_cost)
            stagnant = 0 if pop[0][0] < prev_best - 1e-15 else stagnant + 1
        if passes >= max_passes:
            break

    assert best_vec is not None
    # report the exact cost of the winner, not the incrementally tracked one
    return GaResult(
        partition=best_vec,
        cost=partition_cost(best_vec, g),
        passes=passes,
        trace=trace,
    )
