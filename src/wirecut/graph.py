"""Doubly-weighted gate graph of a circuit.

Vertices are the two-qubit gates, weighted by the estimated error
probability of the circuit segment they terminate: the gate itself, the
single-qubit gates on its input wires back to the previous two-qubit gate
(or the wire start), and the decoherence accumulated over that segment's
wall time. Edges join two-qubit gates that are consecutive on a shared
wire; the edge weight is the number of shared wires (1 or 2).

Vertex weights are normalized to sum to 1 so downstream cost functions are
scale free.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .circuit import Circuit, asap_schedule
from .noise import NoiseProfile

__all__ = [
    "GraphError",
    "Vertex",
    "WireSegment",
    "Edge",
    "GateGraph",
    "build_graph",
    "serialize_graph",
]

WEIGHT_FLOOR = 1e-12  # keeps 1/weight finite for error-free segments


class GraphError(ValueError):
    """Raised when a circuit admits no gate graph."""


@dataclass(frozen=True)
class Vertex:
    id: int
    gate_index: int
    weight: float


@dataclass(frozen=True)
class WireSegment:
    """A stretch of one qubit wire between two consecutive two-qubit gates."""

    qubit: int
    upstream_gate: int
    downstream_gate: int


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    weight: int
    segments: tuple[WireSegment, ...]


@dataclass(frozen=True)
class GateGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def weights(self) -> list[float]:
        return [v.weight for v in self.vertices]

    def edge_list(self) -> list[tuple[int, int, int]]:
        return [(e.u, e.v, e.weight) for e in self.edges]


def build_graph(c: Circuit, p: NoiseProfile) -> GateGraph:
    """Build the doubly-weighted graph of ``c`` under profile ``p``."""
    two_q = c.two_qubit_indices()
    if not two_q:
        raise GraphError("circuit has no two-qubit gate; nothing to partition")
    vertex_of_gate = {gi: vid for vid, gi in enumerate(two_q)}

    spans, _ = asap_schedule(c, p)

    # previous two-qubit gate per wire, walking in temporal order
    prev_two_q: dict[int, int] = {}
    seg_single: dict[int, list[int]] = {gi: [] for gi in two_q}  # 1q gates feeding each 2q gate
    pending_single: dict[int, list[int]] = {q: [] for q in range(c.width)}
    segments: list[WireSegment] = []
    seg_start: dict[int, float] = {}  # per 2q gate: when its earliest input wire became active

    for gi, g in enumerate(c.gates):
        if g.is_measurement:
            continue
        if not g.is_two_qubit:
            pending_single[g.qubits[0]].append(gi)
            continue
        starts = []
        for q in g.qubits:
            up = prev_two_q.get(q)
            if up is not None:
                segments.append(WireSegment(qubit=q, upstream_gate=up, downstream_gate=gi))
                starts.append(spans[up][1])
            elif pending_single[q]:
                starts.append(spans[pending_single[q][0]][0])
            else:
                # a wire idle in |0> does not decohere; its clock starts here
                starts.append(spans[gi][0])
            seg_single[gi].extend(pending_single[q])
            pending_single[q] = []
            prev_two_q[q] = gi
        seg_start[gi] = min(starts)

    vertices = []
    raw = []
    for vid, gi in enumerate(two_q):
        g = c.gates[gi]
        log_ok = math.log1p(-min(p.gate_error(g), 1.0 - 1e-300))
        for si in seg_single[gi]:
            log_ok += math.log1p(-min(p.gate_error(c.gates[si]), 1.0 - 1e-300))
        tau = spans[gi][1] - seg_start[gi]
        t1 = min(p.t1_us(q) for q in g.qubits) * 1000.0
        t2 = min(p.t2_us(q) for q in g.qubits) * 1000.0
        decay = 0.0
        if not math.isinf(t1):
            decay += tau / t1
        if not math.isinf(t2):
            decay += tau / t2
        err = -math.expm1(log_ok - decay)
        raw.append(max(err, WEIGHT_FLOOR))

    total = sum(raw)
    for vid, gi in enumerate(two_q):
        vertices.append(Vertex(id=vid, gate_index=gi, weight=raw[vid] / total))

    # aggregate wire segments into edges keyed by the vertex pair
    by_pair: dict[tuple[int, int], list[WireSegment]] = {}
    for seg in segments:
        u = vertex_of_gate[seg.upstream_gate]
        v = vertex_of_gate[seg.downstream_gate]
        key = (min(u, v), max(u, v))
        by_pair.setdefault(key, []).append(seg)
    edges = tuple(
        Edge(u=u, v=v, weight=len(segs), segments=tuple(segs))
        for (u, v), segs in sorted(by_pair.items())
    )
    return GateGraph(vertices=tuple(vertices), edges=edges)


def serialize_graph(g: GateGraph) -> str:
    doc = {
        "vertices": [
            {"id": v.id, "gate_index": v.gate_index, "weight": v.weight} for v in g.vertices
        ],
        "edges": [
            {
                "u": e.u,
                "v": e.v,
                "weight": e.weight,
                "segments": [
                    {
                        "qubit": s.qubit,
                        "upstream_gate": s.upstream_gate,
                        "downstream_gate": s.downstream_gate,
                    }
                    for s in e.segments
                ],
            }
            for e in g.edges
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
