"""Shared generators for randomized tests, and fragment-document rows."""
import base64
import random

import numpy as np

from wirecut.circuit import GATES, Circuit, Gate
from wirecut.graph import GateGraph

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
