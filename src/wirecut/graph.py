"""Doubly-weighted gate graph of a circuit.

Vertices are the two-qubit gates, weighted by the estimated error
probability of the circuit segment they terminate: the gate itself, the
single-qubit gates on its input wires back to the previous two-qubit gate
(or the wire start), and the decoherence accumulated over that segment's
wall time, from ``circuit.wire_walk`` and ``circuit.asap_schedule`` as
the noisy executor reads them. The weight is the estimate's arithmetic
(``noise._log_ok`` and ``noise._decay_exponent``, as ``success_probability``
composes them) on the segment, with the smallest T1 and T2 of the gate's operands. Edges
join two-qubit gates that are consecutive on a shared wire; the edge
weight is the number of shared wires (1 or 2).

A ``GateGraph`` is four tuples. The solvers read two: ``weights``, one per
vertex in gate order, normalized to sum to 1 so downstream cost functions
are scale free, and ``edges``, sorted ``(u, v, w)`` triples with u < v.
Both solvers assume what the constructor checks, raising ``GraphError``
otherwise: every vertex weight is finite and positive, and the edges are
sorted, unique triples with 0 <= u < v < n and an integer w >= 1. Only
``serialize_graph`` reads the other two: ``gates``, each vertex's gate
index, and ``segments``, per edge its ``(qubit, upstream gate, downstream
gate)`` wire segments. Both default to empty, so a graph made by hand needs
only what the solvers read.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .circuit import Circuit, asap_schedule, wire_walk
from .noise import NoiseProfile, _decay_exponent, _log_ok

__all__ = ["GraphError", "GateGraph", "build_graph", "serialize_graph"]

WEIGHT_FLOOR = 1e-12  # keeps 1/weight finite for error-free segments


class GraphError(ValueError):
    """Raised when a circuit admits no gate graph, or a graph breaks the
    solvers' assumptions."""


def _is_count(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class GateGraph:
    weights: tuple[float, ...]
    edges: tuple[tuple[int, int, int], ...]
    gates: tuple[int, ...] = ()
    segments: tuple[tuple[tuple[int, int, int], ...], ...] = ()

    def __post_init__(self):
        # what both solvers assume: the descent's cut gains are exact only
        # for integer edge weights, a repeated edge would couple the Ising
        # model by -w^2/2 per copy rather than by its merged weight, and
        # Ising couplings are keyed by u < v
        for w in self.weights:
            number = isinstance(w, float) or _is_count(w)
            if not (number and math.isfinite(w) and w > 0):
                raise GraphError(f"vertex weight {w!r} is not finite and positive")
        prev = (-1, -1)
        for edge in self.edges:
            u, v, w = edge
            if not (_is_count(u) and _is_count(v) and 0 <= u < v < self.n):
                raise GraphError(f"edge {edge!r} must satisfy 0 <= u < v < n")
            if (u, v) <= prev:
                raise GraphError(f"edge {edge!r} repeats or is out of order")
            if not (_is_count(w) and w >= 1):
                raise GraphError(f"edge {edge!r} needs an integer weight of at least 1")
            prev = (u, v)

    @property
    def n(self) -> int:
        return len(self.weights)


def build_graph(c: Circuit, p: NoiseProfile) -> GateGraph:
    """Build the doubly-weighted graph of ``c`` under profile ``p``."""
    starts, ends, _ = asap_schedule(c, [p.gate_duration(g) for g in c.gates])
    gates: list[int] = []  # vertex id -> gate index
    vertex: dict[int, int] = {}  # gate index -> vertex id
    raw: list[float] = []
    by_pair: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    for qubits, gi, runs, before in wire_walk(c):
        if gi is None:  # the trailing runs, after every two-qubit gate
            break
        vid = len(gates)
        log_ok = _log_ok(p, c.gates[gi])
        begin = []  # per operand, where its segment starts
        for q, run, up in zip(qubits, runs, before):
            if up is not None:
                by_pair.setdefault((vertex[up], vid), []).append((q, up, gi))
                begin.append(ends[up])
            elif run:
                begin.append(starts[run[0]])
            else:
                # a wire idle in |0> does not decohere; its clock starts here
                begin.append(starts[gi])
            for si in run:
                log_ok += _log_ok(p, c.gates[si])
        decay = _decay_exponent(p, qubits, ends[gi] - min(begin))
        err = -math.expm1(log_ok - decay)
        if not math.isfinite(err):
            raise GraphError(f"gate {gi} has a non-finite weight: the circuit's schedule overflows")
        vertex[gi] = vid
        gates.append(gi)
        raw.append(max(err, WEIGHT_FLOOR))

    if not gates:
        raise GraphError("circuit has no two-qubit gate; nothing to partition")
    total = sum(raw)
    pairs = sorted(by_pair.items())
    return GateGraph(
        weights=tuple(r / total for r in raw),
        edges=tuple((u, v, len(segs)) for (u, v), segs in pairs),
        gates=tuple(gates),
        segments=tuple(tuple(segs) for _, segs in pairs),
    )


def serialize_graph(g: GateGraph) -> str:
    vertices = [{"id": vid, "gate_index": gi, "weight": w}
                for vid, (gi, w) in enumerate(zip(g.gates, g.weights))]
    edges = [
        {"u": u, "v": v, "weight": w,
         "segments": [{"qubit": q, "upstream_gate": up, "downstream_gate": down}
                      for q, up, down in segs]}
        for (u, v, w), segs in zip(g.edges, g.segments)
    ]
    return json.dumps({"vertices": vertices, "edges": edges}, indent=2, sort_keys=True) + "\n"
