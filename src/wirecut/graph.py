"""Doubly-weighted gate graph of a circuit.

Vertices are the two-qubit gates, weighted by the estimated error
probability of the circuit segment they terminate: the gate itself, the
single-qubit gates on its input wires back to the previous two-qubit gate
(or the wire start), and the decoherence accumulated over that segment's
wall time. The weight is the estimate's arithmetic (``noise._log_ok`` and
``noise._decay_exponent``, as ``success_probability`` composes them) on
the segment, with the smallest T1 and T2 of the gate's operands. Edges
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

from .circuit import Circuit, asap_schedule
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
    spans, _ = asap_schedule(c, p)
    gates: list[int] = []  # vertex id -> gate index
    raw: list[float] = []
    prev_vertex: dict[int, int] = {}  # per wire: the last two-qubit gate's vertex
    pending_single: dict[int, list[int]] = {q: [] for q in range(c.width)}
    by_pair: dict[tuple[int, int], list[tuple[int, int, int]]] = {}

    for gi, g in enumerate(c.gates):
        if g.is_measurement:
            continue
        if not g.is_two_qubit:
            pending_single[g.qubits[0]].append(gi)
            continue
        vid = len(gates)
        log_ok = _log_ok(p, g)
        starts = []
        for q in g.qubits:
            up = prev_vertex.get(q)
            if up is not None:
                by_pair.setdefault((up, vid), []).append((q, gates[up], gi))
                starts.append(spans[gates[up]][1])
            elif pending_single[q]:
                starts.append(spans[pending_single[q][0]][0])
            else:
                # a wire idle in |0> does not decohere; its clock starts here
                starts.append(spans[gi][0])
            for si in pending_single[q]:
                log_ok += _log_ok(p, c.gates[si])
            pending_single[q] = []
            prev_vertex[q] = vid
        decay = _decay_exponent(p, g.qubits, spans[gi][1] - min(starts))
        err = -math.expm1(log_ok - decay)
        if not math.isfinite(err):
            raise GraphError(f"gate {gi} has a non-finite weight: the circuit's schedule overflows")
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
