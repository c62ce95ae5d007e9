"""Shared generators for randomized tests, a one-split plan, the fused
full-matrix view of the noisy evolution and its outcome probabilities,
fragment-document rows, and emptying the simulator's process caches."""
import base64
import functools
import importlib
import random

import numpy as np

from wirecut.circuit import GATES, Circuit, Gate
from wirecut.fragment import FragmentPlan, Limits, _as_root_fragment, _split
from wirecut.graph import GateGraph
from wirecut.ising import IsingModel
from wirecut.noise import NoiseProfile
from wirecut.simulate import (
    _PAULI,
    _ZERO,
    _apply,
    _clocks,
    _damping_superop,
    _evolve,
    _fuser,
    _structure,
)

SIMULATE_MODULE = importlib.import_module("wirecut.simulate")
ONE_QUBIT_GATES = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz")


def gate_counts(c: Circuit) -> tuple[int, int]:
    """(single-qubit count, two-qubit count), measurements excluded."""
    k1 = sum(1 for g in c.gates if not g.is_measurement and not g.is_two_qubit)
    k2 = sum(1 for g in c.gates if not g.is_measurement and g.is_two_qubit)
    return k1, k2


def random_circuit(rng: random.Random, width: int, n_gates: int, two_q_prob: float = 0.5) -> Circuit:
    gates = []
    for _ in range(n_gates):
        if width >= 2 and rng.random() < two_q_prob:
            a, b = rng.sample(range(width), 2)
            gates.append(Gate(rng.choice(("cx", "cz")), (a, b)))
        else:
            name = rng.choice(ONE_QUBIT_GATES)
            params = tuple(rng.uniform(0.0, 6.283) for _ in range(GATES[name].n_params))
            gates.append(Gate(name, (rng.randrange(width),), params))
    return Circuit(width=width, gates=tuple(gates), name="random")


def random_connected_graph(rng: random.Random, n: int) -> GateGraph:
    """Connected doubly-weighted graph: spanning tree plus extras."""
    raw = [rng.uniform(0.01, 1.0) for _ in range(n)]
    total = sum(raw)
    edges: dict[tuple[int, int], int] = {}
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        u, v = nodes[rng.randrange(i)], nodes[i]
        edges[(min(u, v), max(u, v))] = rng.choice((1, 1, 1, 2))
    for _ in range(rng.randrange(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), rng.choice((1, 1, 1, 2)))
    return GateGraph(weights=tuple(r / total for r in raw),
                     edges=tuple((u, v, w) for (u, v), w in sorted(edges.items())))


def random_ising_models(rng: random.Random, count: int, n: int = 16) -> list[IsingModel]:
    """``count`` models of ``n`` spins: each field uniform in [-1, 1], and
    each pair coupled with probability 1/2, uniformly in [-1, 1]."""
    models = []
    for _ in range(count):
        h = tuple(rng.uniform(-1, 1) for _ in range(n))
        j = {}
        for i in range(n):
            for k in range(i + 1, n):
                if rng.random() < 0.5:
                    j[(i, k)] = rng.uniform(-1, 1)
        models.append(IsingModel(n=n, h=h, j=j))
    return models


def density_matrix(c: Circuit, p: NoiseProfile) -> np.ndarray:
    """Full density matrix of ``c`` under the gate-error + damping model,
    from the simulator's own fused evolution: one schedule group, with the
    end-of-schedule damping applied to rho instead of read, and the Pauli
    coordinates then summed back into a matrix.

    The channels are fused as ``_structure`` fuses them, so the matrix equals
    the gate-by-gate evolution to rounding (within 1e-12 of the full-matrix
    reference in ``oracles.py``), not bit for bit."""
    n = c.width
    t1 = [p.t1_us(q) * 1000.0 for q in range(n)]
    t2 = [p.t2_us(q) * 1000.0 for q in range(n)]
    rho = functools.reduce(np.multiply.outer, [_ZERO] * n, np.ones(1))
    apps, free = _structure(c), [0.0] * n
    gaps = _clocks(apps, [p.gate_duration(g) for g in c.gates], free)
    rho = _evolve(rho, apps, [gaps], None, _fuser(c, p, apps, t1, t2))[0]
    makespan = max(free, default=0.0)
    for q in range(n):
        gap = makespan - free[q]
        if gap > 0:
            rho = _apply(rho, _damping_superop(gap, t1[q], t2[q]), (q,))
    for _ in range(n):  # each qubit's Pauli axis in turn becomes (ket, bra) at the end
        rho = np.tensordot(rho, _PAULI, axes=([0], [0]))
    kets_then_bras = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return rho.transpose(kets_then_bras).reshape(1 << n, 1 << n)


def density_probs(c: Circuit, p: NoiseProfile) -> np.ndarray:
    """The real diagonal of ``density_matrix(c, p)``: outcome probabilities
    that damp the end of the schedule on rho, not in ``run_noisy``'s readout."""
    return np.real(np.diagonal(density_matrix(c, p)))


def single_cut_plan(c: Circuit, pv) -> FragmentPlan:
    """One forced split along ``pv``, one bit per two-qubit gate in gate
    order, with the fragmenter's own split step. Its decisions are ones the
    planner makes, so its document reads back: under threshold 1 the root,
    of success 0, splits, and both children, of success 1, are ``ok``
    leaves, within limits of depth 1 and the split's cut count."""
    root = _as_root_fragment(c)
    _split(root, pv, {"fragment": 1, "cut": 0})
    for child in root.children:
        child.success = 1.0
    return FragmentPlan(width=c.width, threshold=1.0, root=root,
                        limits=Limits(max_depth=1, max_k=len(root.cut)), seed=0, solver="ga",
                        solver_log=[])


def fragment_rows(text: str, width: int) -> np.ndarray:
    """The rows of one leaf's entry in a fragments document, the leaf
    ``width`` qubits wide: one row of 2^width probabilities per variant,
    decoded from the entry's base64 little-endian float64 bytes."""
    raw = base64.b64decode(text, validate=True)
    return np.frombuffer(raw, dtype="<f8").reshape(-1, 1 << width)


def packed_rows(rows) -> str:
    """``rows`` as one leaf's entry in a fragments document's ``probs``: the
    base64 text of their little-endian float64 bytes, row-major."""
    return base64.b64encode(np.asarray(rows, dtype="<f8").tobytes()).decode("ascii")


def clear_simulation_caches():
    """Empty every process-wide cache that ``wirecut.simulate`` keeps: each
    function of the module that has a ``cache_clear``."""
    caches = [f for f in vars(SIMULATE_MODULE).values() if hasattr(f, "cache_clear")]
    assert caches, "wirecut.simulate keeps no cache"
    for f in caches:
        f.cache_clear()
