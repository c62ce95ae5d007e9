import copy
import hashlib
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gate_counts, random_circuit, single_cut_plan
from wirecut.circuit import Circuit, Gate, parse_qasm
from wirecut.fragment import (
    Fragment,
    Limits,
    PlanError,
    _split,
    enumerate_variants,
    plan_from_dict,
    plan_to_dict,
    recursive_fragment,
)
from wirecut.fixtures import CIRCUIT_FIXTURES, circuit_fixture, profile_fixture
from wirecut.graph import build_graph
from wirecut.noise import NoiseProfile
from wirecut.partition import cut_size
from wirecut.reconstruct import execute_plan, reconstruct

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
FIG1 = parse_qasm(HEADER + "qreg q[5]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3]; cx q[3],q[4];", name="fig1")
GHZ3 = parse_qasm(HEADER + "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];", name="ghz3")
QUIET = NoiseProfile()
STRESS = profile_fixture("stress")


def test_fig1_cut_points():
    cuts = single_cut_plan(FIG1, [0, 0, 1, 1]).root.cut
    assert len(cuts) == 1
    cp = cuts[0]
    assert (cp.qubit, cp.upstream_gate, cp.downstream_gate) == (2, 1, 2)


def test_cut_points_disconnected_partition_is_empty():
    c = parse_qasm(HEADER + "qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    cuts = single_cut_plan(c, [0, 1]).root.cut
    assert len(cuts) == 0 and cuts == ()


def test_cut_points_weight_two_edge_yields_two_cuts():
    c = parse_qasm(HEADER + "qreg q[2]; cx q[0],q[1]; cx q[0],q[1];")
    cuts = single_cut_plan(c, [0, 1]).root.cut
    assert len(cuts) == 2
    assert {cp.qubit for cp in cuts} == {0, 1}


def test_cut_points_match_cut_size():
    rng = random.Random(3)
    for _ in range(25):
        c = random_circuit(rng, rng.randint(2, 6), rng.randint(2, 16), two_q_prob=0.7)
        if len(c.two_qubit_indices()) < 2:
            continue
        g = build_graph(c, QUIET)
        pv = [rng.randint(0, 1) for _ in range(g.n)]
        if len(set(pv)) < 2:
            continue
        assert len(single_cut_plan(c, pv).root.cut) == int(cut_size(pv, g))


def test_cut_points_reject_one_sided():
    with pytest.raises(PlanError, match="one-sided"):
        single_cut_plan(FIG1, [0, 0, 0, 0])


@pytest.mark.parametrize("pv, message", [
    ([0, 0, 1], "partition length 3 != two-qubit gate count 4"),
    ([0, 0, 2, 1], "partition bits must be the integers 0 and 1"),
    ([1, 1, 1, 1], "partition is one-sided"),
])
def test_refused_partition_takes_no_ids(pv, message):
    # the planner and the plan reader number every split from one pair of
    # counters, which only a split that succeeds advances, as only such a
    # split marks its fragment split
    ids = {"fragment": 5, "cut": 3}
    frag = Fragment(0, FIG1, qubit_map=tuple(range(FIG1.width)))
    with pytest.raises(PlanError, match=message):
        _split(frag, pv, ids)
    assert ids == {"fragment": 5, "cut": 3}
    assert frag == Fragment(0, FIG1, qubit_map=tuple(range(FIG1.width)))


def test_fig1_fragments_are_two_three_qubit_circuits():
    frags = single_cut_plan(FIG1, [0, 0, 1, 1]).leaf_fragments()
    assert sorted(f.width for f in frags) == [3, 3]
    upstream = next(f for f in frags if f.out_cuts)
    downstream = next(f for f in frags if f.in_cuts)
    assert len(upstream.out_cuts) == 1 and not upstream.in_cuts
    assert len(downstream.in_cuts) == 1 and not downstream.out_cuts
    assert sorted(upstream.qubit_map) == [0, 1, 2]
    assert sorted(downstream.qubit_map) == [2, 3, 4]


def test_fragment_kzero_has_no_cut_roles():
    c = parse_qasm(HEADER + "qreg q[4]; cx q[0],q[1]; cx q[2],q[3];")
    frags = single_cut_plan(c, [0, 1]).leaf_fragments()
    assert all(not f.in_cuts and not f.out_cuts for f in frags)
    assert sorted(f.width for f in frags) == [2, 2]


def test_ghz3_fragment_shapes():
    frags = single_cut_plan(GHZ3, [0, 1]).leaf_fragments()
    a = next(f for f in frags if f.out_cuts)
    b = next(f for f in frags if f.in_cuts)
    assert [(x.name, x.qubits) for x in a.circuit.gates] == [("h", (0,)), ("cx", (0, 1))]
    assert [(x.name, x.qubits) for x in b.circuit.gates] == [("cx", (0, 1))]
    assert a.qubit_map == (0, 1) and b.qubit_map == (1, 2)
    assert a.terminal_qubits() == [0]
    assert b.terminal_qubits() == [0, 1]


def test_every_gate_lands_in_exactly_one_fragment():
    rng = random.Random(7)
    for _ in range(25):
        c = random_circuit(rng, rng.randint(2, 7), rng.randint(2, 20), two_q_prob=0.6)
        if len(c.two_qubit_indices()) < 2:
            continue
        g = build_graph(c, QUIET)
        pv = [rng.randint(0, 1) for _ in range(g.n)]
        if len(set(pv)) < 2:
            continue
        frags = single_cut_plan(c, pv).leaf_fragments()
        k1, k2 = gate_counts(c)
        assert sum(gate_counts(f.circuit)[0] for f in frags) == k1
        assert sum(gate_counts(f.circuit)[1] for f in frags) == k2
        assert sum(len(f.circuit.gates) for f in frags) == len(c.gates)


def test_gateless_wire_goes_to_first_fragment():
    c = parse_qasm(HEADER + "qreg q[4]; cx q[0],q[1]; cx q[1],q[2];")
    frags = single_cut_plan(c, [0, 1]).leaf_fragments()
    side0 = frags[0]
    assert 3 in side0.qubit_map  # untouched wire q3 rides along with side 0


def test_variant_counts():
    base = Circuit(width=3, gates=())
    f = Fragment(id=0, circuit=base, out_cuts={0: 0}, qubit_map=(0, 1, 2))
    assert len(enumerate_variants(f)) == 3
    f = Fragment(id=0, circuit=base, in_cuts={0: 0}, qubit_map=(0, 1, 2))
    assert len(enumerate_variants(f)) == 4
    f = Fragment(id=0, circuit=base, out_cuts={0: 0, 1: 1}, in_cuts={2: 2}, qubit_map=(0, 1, 2))
    assert len(enumerate_variants(f)) == 36
    f = Fragment(id=0, circuit=base, qubit_map=(0, 1, 2))
    variants = enumerate_variants(f)
    assert len(variants) == 1 and variants[0].bases == {} and variants[0].inits == {}


def test_variant_synthesis_gates():
    base = Circuit(width=2, gates=(Gate("cx", (0, 1)),))
    f = Fragment(id=0, circuit=base, in_cuts={0: 0}, out_cuts={1: 1}, qubit_map=(0, 1))
    variants = {(v.bases[1], v.inits[0]): v for v in enumerate_variants(f)}
    assert len(variants) == 12
    v = variants["Z", "zero"]
    assert [g.name for g in v.circuit.gates] == ["cx"]
    v = variants["X", "one"]
    assert [g.name for g in v.circuit.gates] == ["x", "cx", "h"]
    v = variants["Y", "plus_i"]
    assert [g.name for g in v.circuit.gates] == ["h", "s", "cx", "sdg", "h"]
    assert v.circuit.gates[0].qubits == (0,)
    assert v.circuit.gates[-1].qubits == (1,)


def _measured_random_circuit(seed: int, width: int, n_gates: int) -> Circuit:
    rng = random.Random(seed)
    c = random_circuit(rng, width, n_gates, two_q_prob=0.6)
    measured = tuple(Gate("measure", (q,)) for q in range(width) if rng.random() < 0.5)
    return Circuit(width=width, gates=c.gates + measured, name="random")


# wire 0 meets three cx; split seed 4 draws sides 0, 1, 0, so it is cut twice
_CUT_TWICE = parse_qasm(HEADER + "qreg q[3]; creg c[3]; h q[0]; cx q[0],q[1]; t q[0]; "
                        "cx q[0],q[2]; rz(0.5) q[0]; cx q[0],q[1]; measure q[0] -> c[0];")


@settings(max_examples=80, deadline=None)
@given(c=st.builds(_measured_random_circuit, st.integers(0, 2**32 - 1), st.integers(2, 6),
                   st.integers(0, 24)),
       split_seed=st.integers(0, 2**32 - 1))
@example(c=_CUT_TWICE, split_seed=4)
def test_property_split_gates_equal_checked_gates(c, split_seed):
    # _split relabels gates without Gate's checks; each must still be the
    # gate that Gate would build, down to is_measurement, at every level
    rng = random.Random(split_seed)
    frags, ids = [Fragment(0, c, qubit_map=tuple(range(c.width)))], {"fragment": 1, "cut": 0}
    for _ in range(3):
        children = []
        for frag in frags:
            n = len(frag.circuit.two_qubit_indices())
            if n < 2:
                continue
            pv = [rng.randrange(2) for _ in range(n)]
            if len(set(pv)) == 1:
                pv[-1] ^= 1
            _split(frag, pv, ids)
            children += frag.children
        for frag in children:
            for g in frag.circuit.gates:
                checked = Gate(g.name, g.qubits, g.params)
                assert type(g) is Gate and g == checked and hash(g) == hash(checked)
                assert g.is_measurement == checked.is_measurement
        frags = children


def test_recursive_threshold_zero_is_single_leaf():
    plan = recursive_fragment(FIG1, QUIET, threshold=0.0)
    assert len(plan.leaf_fragments()) == 1
    assert plan.k == 0
    assert plan.leaf_fragments()[0].status == "ok"


def test_recursive_single_split_synthetic_profile():
    # success(4 cx) ~ 0.60 and success(2 cx) ~ 0.775 at p2 = 1 - 0.6^(1/4)
    p2 = 1.0 - 0.6 ** 0.25
    prof = NoiseProfile(p1=0.0, p2=p2, t1_default_us=1e12, t2_default_us=1e12)
    plan = recursive_fragment(FIG1, prof, threshold=0.7, seed=5)
    assert plan.root.status == "split"
    assert len(plan.leaf_fragments()) == 2
    assert all(f.status == "ok" for f in plan.leaf_fragments())
    assert plan.root.success == pytest.approx(0.6, abs=1e-9)
    assert all(f.success == pytest.approx(0.6 ** 0.5, abs=1e-9) for f in plan.leaf_fragments())


def test_recursive_threshold_one_reaches_unsplittable_leaves():
    prof = NoiseProfile(p1=0.001, p2=0.01)
    plan = recursive_fragment(FIG1, prof, threshold=1.0, seed=5)
    assert all(f.status == "unsplittable-gates" for f in plan.leaf_fragments())
    assert all(len(f.circuit.two_qubit_indices()) < 2 for f in plan.leaf_fragments())


def test_recursive_respects_max_k_budget():
    prof = NoiseProfile(p1=0.001, p2=0.01)
    plan = recursive_fragment(FIG1, prof, threshold=1.0, seed=5, limits=Limits(max_k=1))
    assert plan.k <= 1


def test_recursive_respects_max_depth():
    prof = NoiseProfile(p1=0.001, p2=0.01)
    plan = recursive_fragment(FIG1, prof, threshold=1.0, seed=5, limits=Limits(max_depth=1))
    statuses = {f.status for f in plan.leaf_fragments()}
    assert "unsplittable-depth" in statuses or "unsplittable-gates" in statuses
    # depth 1 allows exactly one split
    assert len(plan.leaf_fragments()) <= 2


def test_leaf_count_non_decreasing_in_threshold():
    prof = NoiseProfile(p1=0.0, p2=0.03, t1_default_us=1e12, t2_default_us=1e12)
    counts = []
    for t in (0.0, 0.5, 0.85, 0.9, 0.95, 1.0):
        plan = recursive_fragment(FIG1, prof, threshold=t, seed=9)
        counts.append(len(plan.leaf_fragments()))
    assert counts == sorted(counts)


def test_cut_ids_pair_exactly_once_across_leaves():
    prof = NoiseProfile(p1=0.001, p2=0.01)
    plan = recursive_fragment(GHZ3, prof, threshold=1.0, seed=2)
    outs, ins = [], []
    for f in plan.leaf_fragments():
        outs.extend(f.out_cuts)
        ins.extend(f.in_cuts)
    assert sorted(outs) == plan.cut_ids()
    assert sorted(ins) == plan.cut_ids()


def test_plan_document_roundtrip():
    prof = NoiseProfile(p1=0.001, p2=0.01)
    plan = recursive_fragment(FIG1, prof, threshold=0.99, seed=4)
    doc = plan_to_dict(plan)
    again = plan_from_dict(doc)
    assert plan_to_dict(again) == doc
    assert again.k == plan.k
    assert [f.id for f in again.leaf_fragments()] == [f.id for f in plan.leaf_fragments()]


def test_plan_tree_nested_too_deeply_is_a_plan_error():
    # a real four-level plan, read a few frames above the caller's depth:
    # rebuilding its tree needs more, and must fail as a plan error
    plan = recursive_fragment(circuit_fixture("adder_n8"), STRESS, 0.99, seed=7)
    doc = json.loads(_document_bytes(plan_to_dict(plan)))
    assert plan_from_dict(doc).root.children[0].children[0].children
    limit = sys.getrecursionlimit()
    with pytest.raises(PlanError, match="nested too deeply"):
        try:
            # the lowest limit the interpreter accepts here is the caller's
            # depth plus one; a rejected limit leaves the old one in place
            lowest = 1
            while True:
                try:
                    sys.setrecursionlimit(lowest)
                    break
                except RecursionError:
                    lowest += 1
            sys.setrecursionlimit(lowest + 6)
            plan_from_dict(doc)
        finally:
            sys.setrecursionlimit(limit)


def _document_bytes(doc) -> str:
    # the encoding the CLI writes every document with
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@settings(max_examples=30, deadline=None)
@given(
    circuit_seed=st.integers(0, 2**32 - 1),
    width=st.integers(2, 7),
    n_gates=st.integers(2, 24),
    threshold=st.floats(0.0, 1.0),
    plan_seed=st.integers(0, 2**31 - 1),
    max_depth=st.integers(0, 8),
    max_k=st.integers(0, 6),
)
def test_property_plan_document_round_trip(
    circuit_seed, width, n_gates, threshold, plan_seed, max_depth, max_k
):
    c = random_circuit(random.Random(circuit_seed), width, n_gates, two_q_prob=0.6)
    plan = recursive_fragment(
        c, STRESS, threshold,
        limits=Limits(max_depth=max_depth, max_k=max_k), seed=plan_seed, solver="ga",
    )
    text = _document_bytes(plan_to_dict(plan))
    again = plan_from_dict(json.loads(text))
    assert _document_bytes(plan_to_dict(again)) == text
    # node for node, the reader rebuilds the planner's tree: ids, statuses,
    # successes, partitions, cuts, and the fragments the document omits
    assert again.root == plan.root
    want = reconstruct(execute_plan(plan), plan)
    got = reconstruct(execute_plan(again), again)
    assert _document_bytes(got.to_dict()) == _document_bytes(want.to_dict())


def test_plan_documents_match_their_golden_hash():
    # the bytes every planner change must keep: stress plans of every fixture
    digest = hashlib.sha256()
    for name in CIRCUIT_FIXTURES:
        for threshold in (0.8, 0.95):
            plan = recursive_fragment(circuit_fixture(name), STRESS, threshold, seed=7)
            digest.update(_document_bytes(plan_to_dict(plan)).encode())
    assert digest.hexdigest() == (
        "e0683f27c99820a40d9efc5a89f84d6c06dad3e8830b0afd0f53b8b00627b449")


def _rebuilt_nodes(f):
    """Every node under fragment ``f``, depth first, as a document of its
    own: fragment, cuts, status, success and partition, whatever the plan
    document stores of it."""
    yield {
        "fragment": {
            "id": f.id,
            "in_cuts": sorted(f.in_cuts.items()),
            "out_cuts": sorted(f.out_cuts.items()),
            "qubit_map": list(f.qubit_map),
            "circuit": [f.circuit.name, f.circuit.width,
                        [[g.name, list(g.qubits), list(g.params)] for g in f.circuit.gates]],
        },
        "cuts": None if f.cut is None else [
            [cp.qubit, cp.upstream_gate, cp.downstream_gate, cp.cut_id] for cp in f.cut],
        "status": f.status,
        "success": f.success,
        "partition": f.partition,
    }
    for child in f.children:
        yield from _rebuilt_nodes(child)


def test_rebuilt_plan_nodes_match_their_golden_hash():
    # what plan_from_dict rebuilds from a document, which must not move
    # when the document's layout does: every node of the stress plans
    digest = hashlib.sha256()
    for name in CIRCUIT_FIXTURES:
        for threshold in (0.8, 0.95):
            plan = recursive_fragment(circuit_fixture(name), STRESS, threshold, seed=7)
            rebuilt = plan_from_dict(json.loads(_document_bytes(plan_to_dict(plan))))
            for node in _rebuilt_nodes(rebuilt.root):
                digest.update(_document_bytes(node).encode())
    assert digest.hexdigest() == (
        "aaf4255800fb874c1371174e4c3c0264fe79bdfcca40a1ac3548a44f24b21803")


def _integer_slots(container, keys):
    """(container, key) of every integer under ``container[key]`` for ``keys``."""
    for key in keys:
        item = container[key]
        if type(item) is int:
            yield container, key
        elif isinstance(item, dict):
            yield from _integer_slots(item, list(item))
        elif isinstance(item, list):
            yield from _integer_slots(item, range(len(item)))


def test_plan_document_rejects_every_integer_raised_by_one():
    plan = recursive_fragment(circuit_fixture("ghz_n10"), STRESS, 0.99, seed=7)
    doc = json.loads(_document_bytes(plan_to_dict(plan)))
    slots = list(_integer_slots(doc, ("tree", "width", "k", "cut_ids", "leaves",
                                      "variant_counts")))
    assert len(slots) == 159
    for container, key in slots:
        container[key] += 1
        with pytest.raises(PlanError):
            plan_from_dict(doc)
        container[key] -= 1
    assert _document_bytes(plan_to_dict(plan_from_dict(doc))) == _document_bytes(doc)


def _damage_fragment(fragment: dict, damage: str):
    circuit = fragment["circuit"]
    gate = circuit["gates"][-1]
    if damage == "fragment-extra-field":
        fragment["note"] = 1
    elif damage == "fragment-no-circuit":
        del fragment["circuit"]
    elif damage == "circuit-not-object":
        fragment["circuit"] = [circuit]
    elif damage == "circuit-extra-field":
        circuit["depth"] = 3
    elif damage == "circuit-renamed":
        circuit["name"] += "x"
    elif damage == "gates-not-list":
        circuit["gates"] = dict(enumerate(circuit["gates"]))
    elif damage == "gate-dropped":
        circuit["gates"].pop()
    elif damage == "gate-repeated":
        circuit["gates"].append(dict(gate))
    elif damage == "gate-not-object":
        circuit["gates"][-1] = [gate["name"], gate["qubits"], gate["params"]]
    elif damage == "gate-extra-field":
        gate["label"] = "g"
    elif damage == "gate-no-params":
        del gate["params"]
    elif damage == "gate-renamed":
        gate["name"] = "rz" if gate["name"] != "rz" else "rx"
    elif damage == "gate-param-moved":
        gate["params"] = [p + 1e-9 for p in gate["params"]] or [0.0]
    else:
        assert damage == "gate-qubits-object"
        gate["qubits"] = {"0": gate["qubits"][0]}


@pytest.mark.parametrize("where", ["root", "leaf"])
@pytest.mark.parametrize("damage", [
    "fragment-extra-field", "fragment-no-circuit", "circuit-not-object", "circuit-extra-field",
    "circuit-renamed", "gates-not-list", "gate-dropped", "gate-repeated", "gate-not-object",
    "gate-extra-field", "gate-no-params", "gate-renamed", "gate-param-moved",
    "gate-qubits-object",
])
def test_plan_document_rejects_a_stored_fragment_that_differs(where, damage):
    # each stored fragment must equal the replayed one as a document: any
    # field added, dropped or changed, at any depth, is refused
    plan = recursive_fragment(circuit_fixture("su2_n8"), STRESS, 0.95, seed=7)
    doc = json.loads(_document_bytes(plan_to_dict(plan)))
    node = doc["tree"]
    if where == "leaf":
        while "children" in node:
            node = node["children"][-1]
    _damage_fragment(node["fragment"], damage)
    with pytest.raises(PlanError):
        plan_from_dict(doc)


# values a mutation writes: every JSON type, with look-alikes of 0 and 1
_FUZZ_VALUES = (None, True, False, 0, 1, -1, 2, 0.5, -0.0, 1e300, "", "x", "split", [], {})
_FUZZ_KEYS = ("extra", "cuts", "children", "partition", "fragment", "status")


def _containers(item):
    """Every object and array in ``item``, ``item`` first, depth first."""
    if isinstance(item, (dict, list)):
        yield item
        for v in item.values() if isinstance(item, dict) else item:
            yield from _containers(v)


def _mutate(doc, rng: random.Random):
    """Apply one random mutation to ``doc`` in place: replace, delete or
    nudge a value at any depth, or add a key to an object or an item to an
    array."""
    containers = list(_containers(doc))
    kind = rng.choice(("replace", "delete", "nudge", "add"))
    if kind == "add":
        c = rng.choice(containers)
        new = copy.deepcopy(rng.choice(_FUZZ_VALUES))
        if isinstance(c, dict):
            c[rng.choice(_FUZZ_KEYS)] = new
        else:
            c.insert(rng.randrange(len(c) + 1),
                     copy.deepcopy(rng.choice(c)) if c and rng.random() < 0.5 else new)
        return
    c, key = rng.choice([(c, key) for c in containers
                         for key in (list(c) if isinstance(c, dict) else range(len(c)))])
    v = c[key]
    if kind == "delete":
        del c[key]
    elif kind == "nudge" and type(v) is bool:
        c[key] = not v
    elif kind == "nudge" and type(v) is int:
        c[key] = v + rng.choice((-1, 1))
    elif kind == "nudge" and type(v) is float:
        c[key] = v + rng.choice((-1e-9, 1e-9))
    elif kind == "nudge" and type(v) is str:
        c[key] = v + "x"
    else:  # a replace, or a nudge of null, an object or an array
        c[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))


@pytest.mark.parametrize("seed", [1, 2])
def test_property_mutated_plan_documents_are_refused_or_written_back(seed):
    # the reader of version 2 either refuses a document with a PlanError or
    # rebuilds a plan that writes the document back; no other exception
    # escapes, whatever single mutation the document took
    texts = [_document_bytes(plan_to_dict(recursive_fragment(circuit_fixture(name), STRESS,
                                                             0.95, seed=7)))
             for name in ("adder_n8", "ghz_n10", "clusters_n8")]
    rng = random.Random(seed)
    refused = rebuilt = 0
    for i in range(800):
        doc = json.loads(texts[i % len(texts)])
        _mutate(doc, rng)
        try:
            plan = plan_from_dict(doc)
        except PlanError:
            refused += 1
            continue
        assert plan_to_dict(plan) == doc
        rebuilt += 1
    assert refused > rebuilt > 0


@pytest.mark.parametrize("edit, message", [
    ("max-k-1", "7 cuts, over its max_k of 1"),
    ("max-depth-0", "where the planner decides unsplittable-depth"),
    ("threshold-0", "where the planner decides ok"),
    ("threshold-1", "has status 'ok', where the planner decides"),
    ("ok-leaf-unsplittable-gates", "where the planner decides ok"),
])
def test_plan_document_with_a_decision_the_planner_cannot_make_is_refused(edit, message):
    # the reader replays the planner's rule: each status follows from the
    # node's success and depth under the plan's threshold and limits, and
    # the cuts stay within max_k, so a document whose settings or statuses
    # break that rule is refused, though it would otherwise write back; this
    # plan has split, ok and unsplittable-k nodes, three levels deep
    plan = recursive_fragment(circuit_fixture("clusters_n8"), STRESS, 0.9, seed=7)
    doc = json.loads(_document_bytes(plan_to_dict(plan)))
    assert (doc["k"], doc["limits"]) == (7, {"max_depth": 8, "max_k": 8})
    if edit == "max-k-1":
        doc["limits"]["max_k"] = 1
    elif edit == "max-depth-0":
        doc["limits"]["max_depth"] = 0
    elif edit.startswith("threshold-"):
        doc["threshold"] = float(edit[-1])
    else:
        leaf = next(node for node in _containers(doc["tree"])
                    if isinstance(node, dict) and node.get("status") == "ok")
        leaf["status"] = "unsplittable-gates"
    with pytest.raises(PlanError, match=message):
        plan_from_dict(doc)


def test_single_cut_plan_matches_manual_fragment():
    plan = single_cut_plan(GHZ3, [0, 1])
    assert plan.k == 1
    assert len(plan.leaf_fragments()) == 2


def test_invalid_threshold_rejected():
    with pytest.raises(PlanError):
        recursive_fragment(FIG1, QUIET, threshold=1.5)


@pytest.mark.parametrize("threshold", [0.0, 0.99])
def test_unknown_solver_rejected(threshold):
    # at threshold 0 no node splits, so no solver runs that could refuse it
    with pytest.raises(PlanError, match="unknown solver 'bogus'"):
        recursive_fragment(FIG1, STRESS, threshold, solver="bogus")
