import hashlib
import json
import math
import random

import pytest

from helpers import random_circuit
from wirecut.circuit import Circuit, Gate, parse_qasm
from wirecut.fixtures import CIRCUIT_FIXTURES, PROFILE_FIXTURES, circuit_fixture, profile_fixture
from wirecut.graph import GateGraph, GraphError, build_graph, serialize_graph
from wirecut.noise import GateCal, NoiseProfile, QubitCal, success_probability

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
FIG1 = HEADER + "qreg q[5]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3]; cx q[3],q[4];"


def test_fig1_graph_shape():
    g = build_graph(parse_qasm(FIG1), NoiseProfile())
    assert g.n == 4
    assert g.edges == ((0, 1, 1), (1, 2, 1), (2, 3, 1))
    # uniform gates, identical timing: weights are exactly balanced
    assert g.weights == pytest.approx([0.25] * 4)


def test_consecutive_same_pair_gives_weight_two_edge():
    c = parse_qasm(HEADER + "qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
    g = build_graph(c, NoiseProfile())
    assert g.edges == ((0, 1, 2),)
    assert len(g.segments[0]) == 2
    assert {q for q, _, _ in g.segments[0]} == {0, 1}


def test_two_independent_gates_normalize_evenly():
    c = parse_qasm(HEADER + "qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    g = build_graph(c, NoiseProfile())
    assert g.weights == pytest.approx([0.5, 0.5])
    assert g.edges == ()


def test_no_two_qubit_gate_is_an_error():
    with pytest.raises(GraphError, match="no two-qubit gate"):
        build_graph(parse_qasm(HEADER + "qreg q[2]; h q[0];"), NoiseProfile())


def test_normalization_sums_to_one():
    rng = random.Random(5)
    p = NoiseProfile()
    for _ in range(30):
        c = random_circuit(rng, rng.randint(2, 7), rng.randint(2, 25))
        if not c.two_qubit_indices():
            continue
        g = build_graph(c, p)
        assert abs(sum(g.weights) - 1.0) < 1e-12


def test_segment_count_per_wire():
    rng = random.Random(6)
    p = NoiseProfile()
    for _ in range(30):
        c = random_circuit(rng, rng.randint(2, 6), rng.randint(2, 20), two_q_prob=0.8)
        two_q = c.two_qubit_indices()
        if not two_q:
            continue
        g = build_graph(c, p)
        # each wire with m two-qubit gates contributes m-1 segments
        per_wire = {}
        for gi in two_q:
            for q in c.gates[gi].qubits:
                per_wire[q] = per_wire.get(q, 0) + 1
        expected = sum(m - 1 for m in per_wire.values())
        assert sum(w for _, _, w in g.edges) == expected
        assert g.n == len(two_q)


def test_raw_weights_monotone_in_gate_error():
    base = NoiseProfile(p1=0.001, p2=0.01)
    from wirecut.noise import GateCal
    worse = NoiseProfile(p1=0.001, p2=0.01,
                         gates={("cx", (0, 1)): GateCal(error=0.05, duration_ns=300.0)})
    c = parse_qasm(HEADER + "qreg q[3]; cx q[0],q[1]; cx q[1],q[2];")
    g0 = build_graph(c, base)
    g1 = build_graph(c, worse)
    # vertex 0's raw error grew, so its normalized share must grow
    assert g1.weights[0] > g0.weights[0]


def test_gate_that_always_errs_gives_finite_weights():
    # an error of 1 is in the schema; its segment's raw weight is 1
    g = build_graph(circuit_fixture("ghz_n10"), NoiseProfile(p2=1.0))
    assert all(math.isfinite(w) and w > 0 for w in g.weights)
    assert sum(g.weights) == pytest.approx(1.0)


def test_segment_includes_preceding_single_qubit_gates():
    p = NoiseProfile(p1=0.1, p2=0.01)
    bare = parse_qasm(HEADER + "qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
    dressed = parse_qasm(HEADER + "qreg q[2]; cx q[0],q[1]; h q[0]; h q[1]; cx q[0],q[1];")
    g_bare = build_graph(bare, p)
    g_dressed = build_graph(dressed, p)
    # single-qubit gates between the two cx gates belong to the second segment
    assert g_dressed.weights[1] > g_bare.weights[1]


def test_idle_decoherence_raises_weight():
    from wirecut.noise import QubitCal
    quiet = NoiseProfile(p1=0.001, p2=0.01)
    noisy_idle = NoiseProfile(p1=0.001, p2=0.01,
                              qubits={q: QubitCal(5.0, 4.0) for q in range(3)})
    # wire q0 holds state while the middle cx runs, so the third gate's
    # segment spans that idle stretch
    c = parse_qasm(HEADER + "qreg q[3]; cx q[0],q[1]; cx q[1],q[2]; cx q[0],q[1];")
    g_q = build_graph(c, quiet)
    g_n = build_graph(c, noisy_idle)
    assert g_n.weights[2] > g_q.weights[2]


def test_cold_wires_carry_no_idle_penalty():
    from wirecut.noise import QubitCal
    damped = NoiseProfile(p1=0.001, p2=0.01,
                          qubits={q: QubitCal(5.0, 4.0) for q in range(5)})
    # a serial chain activates each fresh wire only at its first gate, so
    # all four segments span exactly one gate and weights stay uniform
    g = build_graph(parse_qasm(FIG1), damped)
    assert g.weights == pytest.approx([0.25] * 4)


def assert_document_holds_graph(text, g):
    doc = json.loads(text)
    assert [(v["id"], v["gate_index"], v["weight"]) for v in doc["vertices"]] == [
        (vid, gi, w) for vid, (gi, w) in enumerate(zip(g.gates, g.weights))
    ]
    assert [(e["u"], e["v"], e["weight"]) for e in doc["edges"]] == list(g.edges)
    assert [
        tuple((s["qubit"], s["upstream_gate"], s["downstream_gate"]) for s in e["segments"])
        for e in doc["edges"]
    ] == list(g.segments)


def test_serialize_roundtrip():
    g = build_graph(parse_qasm(FIG1), NoiseProfile())
    assert_document_holds_graph(serialize_graph(g), g)


def test_single_vertex_graph_document():
    c = parse_qasm(HEADER + "qreg q[2]; cx q[0],q[1];")
    g = build_graph(c, NoiseProfile())
    assert g.n == 1 and g.edges == ()
    assert_document_holds_graph(serialize_graph(g), g)



@pytest.mark.parametrize("weights, edges", [
    pytest.param((0.3, 0.3, 0.4), ((1, 2, 1), (0, 1, 1)), id="unsorted-edges"),
    pytest.param((0.5, 0.5), ((0, 1, 1), (0, 1, 1)), id="duplicate-edge"),
    pytest.param((0.5, 0.5), ((0, 1, 1), (0, 1, 2)), id="duplicate-pair"),
    pytest.param((0.5, 0.5), ((1, 0, 1),), id="reversed-edge"),
    pytest.param((0.5, 0.5), ((0, 0, 1),), id="self-loop"),
    pytest.param((0.5, 0.5), ((0, 2, 1),), id="vertex-out-of-range"),
    pytest.param((0.5, 0.5), ((-1, 1, 1),), id="negative-vertex"),
    pytest.param((0.5, 0.5), ((0, 1, 1.5),), id="fractional-edge-weight"),
    pytest.param((0.5, 0.5), ((0, 1, 1.0),), id="float-edge-weight"),
    pytest.param((0.5, 0.5), ((0, 1, 0),), id="zero-edge-weight"),
    pytest.param((0.5, 0.5), ((0, 1, True),), id="bool-edge-weight"),
    pytest.param((0.5, 0.0), ((0, 1, 1),), id="zero-vertex-weight"),
    pytest.param((1.5, -0.5), ((0, 1, 1),), id="negative-vertex-weight"),
    pytest.param((0.5, math.inf), ((0, 1, 1),), id="infinite-vertex-weight"),
    pytest.param((0.5, math.nan), ((0, 1, 1),), id="nan-vertex-weight"),
    pytest.param((0.5, True), ((0, 1, 1),), id="bool-vertex-weight"),
])
def test_graph_refuses_what_the_solvers_do_not_assume(weights, edges):
    with pytest.raises(GraphError):
        GateGraph(weights=weights, edges=edges)


def test_graph_documents_match_their_golden_hash():
    # the graph.json bytes of every fixture under every bundled profile
    digest = hashlib.sha256()
    for name in CIRCUIT_FIXTURES:
        for profile in PROFILE_FIXTURES:
            g = build_graph(circuit_fixture(name), profile_fixture(profile))
            digest.update(serialize_graph(g).encode())
    assert digest.hexdigest() == (
        "12711946585bf151d28bc5356119ba856735373530053bfbd90305240c8637de")


def _random_profile(rng: random.Random, c) -> NoiseProfile:
    """Random defaults, per-qubit T1/T2 records on some qubits and per-gate
    records on some of ``c``'s gates; a default time is now and then
    infinite, which leaves its damping out."""
    def time_us():
        return math.inf if rng.random() < 0.1 else rng.uniform(5.0, 300.0)

    qubits = {q: QubitCal(rng.uniform(5.0, 300.0), rng.uniform(5.0, 300.0))
              for q in range(c.width) if rng.random() < 0.5}
    unitary = [g for g in c.gates if not g.is_measurement]
    gates = {(g.name, g.qubits): GateCal(rng.uniform(0.0, 0.05), rng.uniform(10.0, 900.0))
             for g in rng.sample(unitary, min(len(unitary), rng.randrange(4)))}
    return NoiseProfile(p1=rng.uniform(0.0, 0.01), p2=rng.uniform(0.0, 0.05),
                        d1_ns=rng.uniform(10.0, 200.0), d2_ns=rng.uniform(100.0, 700.0),
                        t1_default_us=time_us(), t2_default_us=time_us(),
                        qubits=qubits, gates=gates)


def test_random_corpus_graphs_and_estimates_match_their_golden_hash():
    # seeded random circuits, each with terminal measurements on some
    # qubits, under random profiles: the graph.json bytes (or the refusal
    # of a circuit without a two-qubit gate) and the estimate's success
    # probability, both pure-Python floats
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(120):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(0, 24), rng.uniform(0.2, 0.7))
        measured = rng.sample(range(c.width), rng.randint(0, c.width))
        c = Circuit(width=c.width, gates=c.gates + tuple(Gate("measure", (q,)) for q in measured))
        p = _random_profile(rng, c)
        try:
            digest.update(serialize_graph(build_graph(c, p)).encode())
        except GraphError as exc:
            digest.update(f"GraphError: {exc}\n".encode())
        digest.update(success_probability(c, p).success.hex().encode())
    assert digest.hexdigest() == (
        "b5669896ae8cdc1f783b05750e3d95222c09563b1fe28c481677368bd30f97c6")
