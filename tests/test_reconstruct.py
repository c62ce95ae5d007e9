import hashlib
import importlib
import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    clear_simulation_caches,
    density_probs,
    fragment_rows,
    packed_rows,
    random_circuit,
    recombined_digests,
    single_cut_plan,
)
from oracles import dict_fidelity, dict_hellinger, dict_tvd
from wirecut.circuit import Circuit, Gate, parse_qasm
from wirecut.fixtures import CIRCUIT_FIXTURES, circuit_fixture, fixture_text
from wirecut.fragment import (
    BASES,
    INITS,
    Fragment,
    FragmentPlan,
    Limits,
    enumerate_variants,
    plan_to_dict,
    recursive_fragment,
)
from wirecut.graph import build_graph
from wirecut.noise import GateCal, NoiseProfile, QubitCal, load_profile
from wirecut.partition import cut_size
from wirecut.reconstruct import (
    FragmentOutput,
    ReconstructionError,
    _probs_to_dict,
    execute_plan,
    fidelity,
    hellinger,
    outputs_from_dict,
    outputs_to_dict,
    reconstruct,
    tvd,
)
from wirecut.simulate import (
    SimulationError,
    measure_distribution,
    run_ideal,
    run_noisy,
    sample_frequencies,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
GHZ3 = parse_qasm(HEADER + "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];", name="ghz3")
QUIET = NoiseProfile()


def exact_plan(c, pv):
    return single_cut_plan(c, pv)


def test_ghz3_reconstructs_exactly():
    plan = exact_plan(GHZ3, [0, 1])
    result = reconstruct(execute_plan(plan), plan)
    ref = measure_distribution(run_ideal(GHZ3))
    assert tvd(result.distribution, ref) < 1e-9
    assert _probs_to_dict(result.distribution)["probs"] == pytest.approx({"000": 0.5, "111": 0.5})
    assert result.terms == 4
    assert result.clipped_mass < 1e-9


def test_single_fragment_plan_is_identity():
    plan = recursive_fragment(GHZ3, QUIET, threshold=0.0)
    result = reconstruct(execute_plan(plan), plan)
    ref = measure_distribution(run_ideal(GHZ3))
    assert result.k == 0 and result.terms == 1
    assert tvd(result.distribution, ref) < 1e-12


def test_k2_random_circuit_term_count_and_exactness():
    rng = random.Random(101)
    c = None
    while c is None:
        cand = random_circuit(rng, 6, rng.randint(8, 16), two_q_prob=0.6)
        if len(cand.two_qubit_indices()) < 3:
            continue
        g = build_graph(cand, QUIET)
        for _ in range(50):
            pv = [rng.randint(0, 1) for _ in range(g.n)]
            if len(set(pv)) == 2 and int(cut_size(pv, g)) == 2:
                c = cand
                break
    plan = single_cut_plan(c, pv)
    result = reconstruct(execute_plan(plan), plan)
    assert result.terms == 16
    ref = measure_distribution(run_ideal(c))
    assert tvd(result.distribution, ref) < 1e-9


def test_double_crossing_wire_reconstructs():
    # wire q1 crosses side0 -> side1 -> side0
    c = Circuit(width=3, gates=(
        Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rx", (1,), (0.7,)),
        Gate("cx", (1, 2)), Gate("ry", (1,), (1.1,)), Gate("cx", (0, 1)),
    ))
    plan = single_cut_plan(c, [0, 1, 0])
    assert plan.k == 2
    result = reconstruct(execute_plan(plan), plan)
    ref = measure_distribution(run_ideal(c))
    assert tvd(result.distribution, ref) < 1e-9


def test_weight_two_edge_reconstructs():
    c = Circuit(width=2, gates=(
        Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rx", (0,), (0.5,)), Gate("cx", (0, 1)),
    ))
    plan = single_cut_plan(c, [0, 1])
    assert plan.k == 2
    result = reconstruct(execute_plan(plan), plan)
    assert result.terms == 16
    ref = measure_distribution(run_ideal(c))
    assert tvd(result.distribution, ref) < 1e-9


def test_multi_level_plan_reconstructs():
    chain = parse_qasm(
        HEADER + "qreg q[5]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3]; cx q[3],q[4];"
    )
    prof = NoiseProfile(p1=0.001, p2=0.01)
    plan = recursive_fragment(chain, prof, threshold=1.0, seed=3)
    assert len(plan.leaf_fragments()) > 2
    result = reconstruct(execute_plan(plan), plan)
    ref = measure_distribution(run_ideal(chain))
    assert tvd(result.distribution, ref) < 1e-9


def test_ghz_chains_cut_into_two_qubit_leaves_reconstruct_beyond_k8():
    # at 0.999 under stress the planner splits each chain down to 2-qubit
    # leaves: k = 10, 14 and 18, far past the fixtures' k <= 8
    for n in (12, 16, 20):
        chain = Circuit(width=n, gates=(Gate("h", (0,)),) + tuple(
            Gate("cx", (i, i + 1)) for i in range(n - 1)))
        plan = recursive_fragment(chain, STRESS, 0.999, limits=Limits(max_depth=20, max_k=n),
                                  seed=7)
        assert plan.k == n - 2 and {leaf.width for leaf in plan.leaf_fragments()} == {2}
        result = reconstruct(execute_plan(plan), plan)
        assert tvd(result.distribution, measure_distribution(run_ideal(chain))) < 1e-9


def test_missing_variant_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    doc = outputs_to_dict(execute_plan(plan), "ghz3")
    upstream = next(leaf for leaf in plan.leaf_fragments() if leaf.out_cuts)
    rows = fragment_rows(doc["probs"][str(upstream.id)], upstream.width)
    doc["probs"][str(upstream.id)] = packed_rows(rows[1:])
    with pytest.raises(ReconstructionError, match="needs 3 rows of 4 probabilities"):
        outputs_from_dict(doc, plan, "ghz3")


def test_missing_fragment_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan)
    outputs.pop(next(iter(outputs)))
    with pytest.raises(ReconstructionError, match="no output"):
        reconstruct(outputs, plan)


def test_layout_mismatch_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan)
    for leaf in plan.leaf_fragments():
        leaf.qubit_map = tuple(0 for _ in leaf.qubit_map)
    with pytest.raises(ReconstructionError, match="tile"):
        reconstruct(outputs, plan)


def test_shot_noise_yields_clipped_quasi_mass():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan, shots=400, seed=11)
    result = reconstruct(outputs, plan)
    assert result.clipped_mass >= 0.0
    assert result.distribution.sum() == pytest.approx(1.0)
    ref = measure_distribution(run_ideal(GHZ3))
    assert fidelity(result.distribution, ref) > 0.9


STRESS = load_profile(fixture_text("profiles", "stress"))
SIMULATE_MODULE = importlib.import_module("wirecut.simulate")


@settings(max_examples=30, deadline=None)
@given(
    circuit_seed=st.integers(0, 2**32 - 1),
    width=st.integers(3, 7),
    n_gates=st.integers(6, 24),
    threshold=st.floats(0.85, 1.0),
    plan_seed=st.integers(0, 999),
)
# a plan four levels deep (k=5) that cuts two of its wires twice
@example(circuit_seed=6, width=6, n_gates=16, threshold=0.95, plan_seed=1)
# three leaves and no cut: numpy joins them in one step
@example(circuit_seed=262145, width=6, n_gates=9, threshold=1.0, plan_seed=0)
def test_property_multi_level_plans_reconstruct_exactly(
    circuit_seed, width, n_gates, threshold, plan_seed
):
    # thresholds near 1 under the stress profile split most circuits more
    # than once, and deeper splits cut some wires twice
    c = random_circuit(random.Random(circuit_seed), width, n_gates, two_q_prob=0.6)
    plan = recursive_fragment(
        c, STRESS, threshold, limits=Limits(max_k=6), seed=plan_seed, solver="ga"
    )
    outputs = execute_plan(plan)
    result = reconstruct(outputs, plan)
    assert tvd(result.distribution, measure_distribution(run_ideal(c))) < 1e-9
    assert result.k == plan.k and result.terms == 4 ** plan.k
    again = reconstruct(outputs, plan)
    assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(result.to_dict(), sort_keys=True)


@settings(max_examples=20, deadline=None)
@given(
    circuit_seed=st.integers(0, 2**32 - 1),
    width=st.integers(3, 6),
    n_gates=st.integers(6, 18),
    threshold=st.floats(0.85, 1.0),
    plan_seed=st.integers(0, 999),
    p2=st.floats(0.001, 0.1),
    records=st.lists(st.tuples(st.integers(0, 99), st.floats(0.0, 0.2)), max_size=4),
)
# a plan four levels deep (k=5) that cuts one wire three times, with two gate records
@example(circuit_seed=6, width=6, n_gates=16, threshold=0.95, plan_seed=1, p2=0.03,
         records=[(0, 0.1), (3, 0.0)])
def test_property_noisy_plans_reconstruct_the_noisy_circuit(
    circuit_seed, width, n_gates, threshold, plan_seed, p2, records
):
    # Without damping the noise on a gate does not depend on the schedule,
    # and with p1=0 the cuts' prep and basis gates are error-free. The cut
    # identity is linear in each fragment's outputs, so recombining the
    # noisy fragments then gives the uncut circuit's noisy distribution.
    c = random_circuit(random.Random(circuit_seed), width, n_gates, two_q_prob=0.6)
    plan = recursive_fragment(
        c, STRESS, threshold, limits=Limits(max_k=5), seed=plan_seed, solver="ga"
    )
    pairs = [(g.name, g.qubits) for g in c.gates if len(g.qubits) == 2]
    gates = {pairs[i % len(pairs)]: GateCal(err, 300.0) for i, err in records if pairs}
    profile = NoiseProfile(p1=0.0, p2=p2, gates=gates)
    result = reconstruct(execute_plan(plan, profile), plan)
    assert tvd(result.distribution, run_noisy(c, profile)) < 1e-9


@st.composite
def cut_leaves(draw):
    """A leaf of 1-5 qubits with in-cuts only, out-cuts only, both, or both
    on one qubit (the middle piece of a wire cut twice); cut ids are shuffled
    so that their order differs from the qubit order."""
    width = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["in", "out", "both", "twice"]))
    pick = st.sets(st.integers(0, width - 1), min_size=1, max_size=2)
    ins = sorted(draw(pick)) if kind != "out" else []
    outs = set(draw(pick)) if kind != "in" else set()
    if kind == "twice":
        outs.add(draw(st.sampled_from(ins)))
    outs = sorted(outs)
    ids = draw(st.permutations(range(len(ins) + len(outs))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return Fragment(
        id=draw(st.integers(0, 9)),
        circuit=random_circuit(rng, width, draw(st.integers(0, 12))),
        in_cuts=dict(zip(ids, ins)),
        out_cuts=dict(zip(ids[len(ins):], outs)),
        qubit_map=tuple(range(width)),
    )


def leaf_plan(leaf):
    return FragmentPlan(width=leaf.width, threshold=1.0, root=leaf, limits=Limits(),
                        seed=0, solver="ga")


@settings(max_examples=60, deadline=None)
@given(leaf=cut_leaves())
def test_property_batched_leaf_matches_each_variant_circuit(leaf):
    plan = leaf_plan(leaf)
    out = execute_plan(plan)[leaf.id]
    doc = outputs_to_dict({leaf.id: out}, "leaf")
    rows = fragment_rows(doc["probs"][str(leaf.id)], leaf.width)
    variants = enumerate_variants(leaf)
    assert leaf.n_variants == len(variants) == len(rows)
    for row, v in zip(rows, variants):
        idx = tuple(list(BASES).index(v.bases[c]) for c in sorted(leaf.out_cuts))
        idx += tuple(list(INITS).index(v.inits[c]) for c in sorted(leaf.in_cuts))
        expect = np.abs(run_ideal(v.circuit)) ** 2
        assert np.max(np.abs(out.probs[idx].reshape(-1) - expect)) <= 1e-12
        assert np.max(np.abs(row - expect)) <= 1e-12
    again = outputs_from_dict(json.loads(json.dumps(doc)), plan, "leaf")[leaf.id]
    assert again.leaf is leaf and again.shots == out.shots
    assert np.array_equal(again.probs, out.probs)


# one-qubit gates whose durations decide the schedule groups (prep: x, h, s)
# and whether a readout's basis gates (h, sdg) extend the makespan
_TIMED_GATES = ("x", "h", "s", "sdg")


@settings(max_examples=60, deadline=None)
@given(
    leaf=cut_leaves(),
    times=st.lists(st.tuples(st.floats(5.0, 200.0), st.floats(0.2, 2.0)), min_size=5, max_size=5),
    d1=st.sampled_from([20.0, 50.0]),
    records=st.lists(
        st.tuples(st.sampled_from(_TIMED_GATES), st.integers(0, 4), st.floats(0.0, 0.05),
                  st.sampled_from([10.0, 60.0, 60.0, 125.0, 400.0])),
        max_size=10,
    ),
)
def test_property_grouped_noisy_leaf_matches_each_variant_circuit(leaf, times, d1, records):
    # finite T1/T2 damp every idle gap, and gate records give the prep and
    # basis gates their own durations, so groups split and readouts move the
    # makespan: a schedule error in the grouped path shows as a row error
    qubits = {q: QubitCal(t1, t1 * ratio) for q, (t1, ratio) in enumerate(times)}
    gates = {(name, (q,)): GateCal(err, dur) for name, q, err, dur in records}
    profile = NoiseProfile(p1=0.002, d1_ns=d1, d2_ns=150.0, qubits=qubits, gates=gates)
    out = execute_plan(leaf_plan(leaf), profile)[leaf.id]
    local = profile.for_subcircuit(leaf.qubit_map)
    for v in enumerate_variants(leaf):
        idx = tuple(list(BASES).index(v.bases[c]) for c in sorted(leaf.out_cuts))
        idx += tuple(list(INITS).index(v.inits[c]) for c in sorted(leaf.in_cuts))
        expect = density_probs(v.circuit, local)
        assert np.max(np.abs(out.probs[idx].reshape(-1) - expect)) <= 1e-12


@pytest.mark.parametrize("seed", [3, 11, 12])
def test_noisy_readouts_out_of_qubit_order_match_each_variant_circuit(seed):
    # cut 0 is read on local qubit 1 and cut 1 on local qubit 0: the readout
    # option axes follow cut ids, not qubits, whatever order they are read in
    rng = random.Random(seed)
    leaf = Fragment(id=1, circuit=random_circuit(rng, 3, 12), in_cuts={2: 2},
                    out_cuts={1: 0, 0: 1}, qubit_map=(0, 1, 2))
    out = execute_plan(leaf_plan(leaf), STRESS)[leaf.id]
    for v in enumerate_variants(leaf):
        idx = (list(BASES).index(v.bases[0]), list(BASES).index(v.bases[1]),
               list(INITS).index(v.inits[2]))
        expect = density_probs(v.circuit, STRESS)
        assert np.max(np.abs(out.probs[idx].reshape(-1) - expect)) <= 1e-12


@pytest.mark.parametrize("outs, budget, chunk",
                         [([], 1 << 8, 1), ([3], 3 << 8, 3), ([], 4 << 8, 4), ([3], 5 << 8, 5)])
def test_noisy_groups_are_chunked_to_the_leaf_budget(monkeypatch, outs, budget, chunk):
    # two in-cuts under stress: one and plus share a prep duration, so the
    # 16 inits form 3 x 3 schedule groups of 1, 2 or 4 inits, which lie on
    # the batch axis group by group; the budget still admits the leaf's
    # outputs and allows ``chunk`` inits of 4^4 entries at a time, so chunk
    # boundaries fall between groups and inside them
    rng = random.Random(5)
    leaf = Fragment(id=1, circuit=random_circuit(rng, 4, 14), in_cuts={0: 0, 2: 2},
                    out_cuts=dict(zip([1], outs)), qubit_map=(0, 1, 2, 3))
    assert leaf.n_variants << leaf.width <= budget < 16 << (2 * leaf.width)
    assert budget >> (2 * leaf.width) == chunk
    prep_ends = [sum(STRESS.gate_duration(Gate(name, (0,))) for name in names)
                 for names in INITS.values()]
    sizes = [prep_ends.count(end) for end in dict.fromkeys(prep_ends)]
    group_ends = set(itertools.accumulate(a * b for a in sizes for b in sizes))
    assert sizes == [1, 2, 1] and max(group_ends) == 16
    boundaries = set(range(chunk, 16, chunk))
    assert boundaries & group_ends and boundaries - group_ends
    whole = execute_plan(leaf_plan(leaf), STRESS)[leaf.id].probs
    monkeypatch.setattr(SIMULATE_MODULE, "MAX_LEAF_ENTRIES", budget)
    chunked = execute_plan(leaf_plan(leaf), STRESS)[leaf.id].probs
    assert chunked.shape == whole.shape
    assert np.max(np.abs(chunked - whole)) <= 1e-15


def test_noisy_groups_that_disagree_apply_a_stack_of_channels(monkeypatch):
    # qubit 1 is busy when the prep on qubit 0 ends, so the cx's idle gap on
    # qubit 0 depends on the init's prep duration: the groups of one chunk
    # need different matrices for the cx, and each entry gets its own
    leaf = Fragment(id=1, circuit=Circuit(width=2, gates=(
        Gate("h", (1,)), Gate("x", (1,)), Gate("cx", (0, 1)), Gate("ry", (0,), (0.4,)),
        Gate("cx", (1, 0)), Gate("h", (1,)),
    )), in_cuts={0: 0}, out_cuts={1: 1}, qubit_map=(0, 1))
    stacked = []
    apply = SIMULATE_MODULE._apply

    def spy(t, m, axes):
        if m.ndim == 3:
            stacked.append(m.shape)
        return apply(t, m, axes)

    monkeypatch.setattr(SIMULATE_MODULE, "_apply", spy)
    out = execute_plan(leaf_plan(leaf), STRESS)[leaf.id]
    assert stacked and all(shape[0] == len(INITS) for shape in stacked)
    for v in enumerate_variants(leaf):
        idx = (list(BASES).index(v.bases[1]), list(INITS).index(v.inits[0]))
        expect = density_probs(v.circuit, STRESS)
        assert np.max(np.abs(out.probs[idx].reshape(-1) - expect)) <= 1e-12


def test_noisy_leaf_with_an_undamped_qubit_and_three_out_cuts():
    # qubit 1 has T1 = inf (dephasing only), and per-qubit basis gate
    # durations give the 27 readout combinations different makespans
    profile = NoiseProfile(
        p1=0.002, p2=0.02, d1_ns=40.0, d2_ns=200.0,
        qubits={0: QubitCal(60.0, 50.0), 1: QubitCal(math.inf, 40.0),
                2: QubitCal(30.0, 45.0), 3: QubitCal(90.0, 120.0)},
        gates={("h", (1,)): GateCal(0.003, 90.0), ("sdg", (3,)): GateCal(0.001, 130.0),
               ("x", (2,)): GateCal(0.002, 70.0)},
    )
    rng = random.Random(17)
    leaf = Fragment(id=2, circuit=random_circuit(rng, 4, 16), in_cuts={5: 2},
                    out_cuts={3: 0, 1: 1, 4: 3}, qubit_map=(0, 1, 2, 3))
    out = execute_plan(leaf_plan(leaf), profile)[leaf.id]
    assert out.probs.shape == (3, 3, 3, 4) + (2,) * 4
    for v in enumerate_variants(leaf):
        idx = tuple(list(BASES).index(v.bases[c]) for c in (1, 3, 4))
        idx += (list(INITS).index(v.inits[5]),)
        expect = density_probs(v.circuit, profile)
        assert np.max(np.abs(out.probs[idx].reshape(-1) - expect)) <= 1e-12


def test_noisy_readout_allocation_stays_within_the_leaf_budget(monkeypatch):
    # one init of a 6-qubit leaf with three out-cuts: reading all 27
    # combinations at once would make a first intermediate of 27 x 4^6 / 2
    # float64 entries (442 kB); blocks of combinations keep every
    # intermediate within max(budget, the leaf's output entries), and the
    # readout's peak allocation within three such intermediates of 8-byte
    # entries (one step's input and output, and a copy matmul may make of
    # its input), its result and small per-combination maps; reading all at
    # once peaks near 0.7 MB, and blocked complex entries would peak near
    # 160 kB, over this bound
    rng = random.Random(23)
    leaf = Fragment(id=1, circuit=random_circuit(rng, 6, 20), in_cuts={},
                    out_cuts={0: 0, 1: 2, 2: 5}, qubit_map=tuple(range(6)))
    whole = execute_plan(leaf_plan(leaf), STRESS)[leaf.id].probs
    budget = 1 << (2 * leaf.width)
    limit = max(budget, leaf.n_variants << leaf.width)
    peaks = []
    read = SIMULATE_MODULE._read

    def traced(*args, **kwargs):
        tracemalloc.start()
        try:
            return read(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(SIMULATE_MODULE, "MAX_LEAF_ENTRIES", budget)
    monkeypatch.setattr(SIMULATE_MODULE, "_read", traced)
    blocked = execute_plan(leaf_plan(leaf), STRESS)[leaf.id].probs
    assert len(peaks) == 1
    assert peaks[0] <= 8 * 3 * limit + 8 * whole.size + (32 << 10)
    assert np.max(np.abs(blocked - whole)) <= 1e-15


def test_sampled_variants_each_draw_with_their_own_seed():
    c = Circuit(width=3, gates=(
        Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rx", (1,), (0.7,)),
        Gate("cx", (1, 2)), Gate("ry", (1,), (1.1,)), Gate("cx", (0, 1)),
    ))
    plan = single_cut_plan(c, [0, 1, 0])
    for profile in (None, STRESS):
        exact = execute_plan(plan, profile=profile)
        doc = outputs_to_dict(execute_plan(plan, profile=profile, shots=64, seed=-13), "plan")
        assert doc["shots"] == 64
        for leaf in plan.leaf_fragments():
            written = fragment_rows(doc["probs"][str(leaf.id)], leaf.width)
            rows = exact[leaf.id].probs.reshape(-1, 1 << leaf.width)
            assert len(written) == len(rows) == len(enumerate_variants(leaf))
            for row, (got, probs) in enumerate(zip(written, rows)):
                draw = sample_frequencies(probs, 64, (-13 & 0x7FFFFFFF, leaf.id, row))
                assert got.tobytes() == draw.tobytes()


def test_width_cap_is_checked_before_allocation():
    # a synthetic 30-qubit plan and document: a 2^30 stack would take 8 GiB
    wide = recursive_fragment(Circuit(width=30, gates=(Gate("h", (0,)),)), QUIET, 0.0)
    doc = {"version": 4, "plan": "wide", "probs": {"0": packed_rows([[1.0]])}}
    with pytest.raises(ReconstructionError, match=f"needs 1 rows of {2 ** 30} probabilities"):
        outputs_from_dict(doc, wide, "wide")
    with pytest.raises(ReconstructionError, match="capped at 24"):
        reconstruct({}, wide)
    with pytest.raises(SimulationError, match="capped at 24"):
        execute_plan(wide)


# signed initialization runs per in-cut label (Peng et al. wire-cut identity)
INIT_WEIGHTS = {
    "I": (("zero", 1.0), ("one", 1.0)),
    "Z": (("zero", 1.0), ("one", -1.0)),
    "X": (("plus", 2.0), ("zero", -1.0), ("one", -1.0)),
    "Y": (("plus_i", 2.0), ("zero", -1.0), ("one", -1.0)),
}


def labelled_sum(outputs, plan):
    """Quasi-distribution as the direct sum over all 4^k cut labels."""
    cut_ids = plan.cut_ids()
    probs = outputs_to_dict(outputs, "plan")["probs"]
    docs = {leaf.id: fragment_rows(probs[str(leaf.id)], leaf.width).tolist()
            for leaf in plan.leaf_fragments()}
    quasi = defaultdict(float)
    for labels in itertools.product("IZXY", repeat=len(cut_ids)):
        label = dict(zip(cut_ids, labels))
        terms = {(): 0.5 ** len(cut_ids)}  # ((original qubit, bit), ...) -> weight
        for leaf in plan.leaf_fragments():
            out_ids, in_ids = sorted(leaf.out_cuts), sorted(leaf.in_cuts)
            # one row per variant, bases of the out-cuts outermost
            choices = itertools.product(*[BASES] * len(out_ids), *[INITS] * len(in_ids))
            row_of = {choice: row for row, choice in enumerate(choices)}
            bases = tuple("Z" if label[c] == "I" else label[c] for c in out_ids)
            factor = defaultdict(float)
            for inits in itertools.product(*(INIT_WEIGHTS[label[c]] for c in in_ids)):
                row = docs[leaf.id][row_of[bases + tuple(state for state, _ in inits)]]
                coeff = math.prod(w for _, w in inits)
                for index, p in enumerate(row):
                    bits = format(index, f"0{leaf.width}b")
                    sign = math.prod(-1 if bits[q] == "1" and label[c] != "I" else 1
                                     for c, q in leaf.out_cuts.items())
                    kept = tuple((leaf.qubit_map[q], bits[q]) for q in leaf.terminal_qubits())
                    factor[kept] += coeff * sign * p
            terms = {a + b: wa * wb for a, wa in terms.items() for b, wb in factor.items()}
        for assignment, weight in terms.items():
            quasi["".join(bit for _, bit in sorted(assignment))] += weight
    return quasi


def reconstruct_as_labelled_sum(outputs, plan):
    """``reconstruct(outputs, plan)``, checked against ``labelled_sum``:
    the clipped mass, and each probability once the negative quasi-mass is
    clipped and the rest renormalized, to 1e-12."""
    result = reconstruct(outputs, plan)
    quasi = labelled_sum(outputs, plan)
    clipped = -sum(min(v, 0.0) for v in quasi.values())
    positive = sum(max(v, 0.0) for v in quasi.values())
    assert result.clipped_mass == pytest.approx(clipped, abs=1e-12)
    got = _probs_to_dict(result.distribution)["probs"]
    for bits in set(quasi) | set(got):
        expected = max(quasi.get(bits, 0.0), 0.0) / positive
        assert got.get(bits, 0.0) == pytest.approx(expected, abs=1e-12)
    return result


def test_sampled_outputs_match_the_direct_labelled_sum():
    # shot noise makes the quasi-distribution non-physical, so exactness
    # against the ideal proves nothing; compare with the labelled sum instead
    rng = random.Random(404)
    seen_k, clipped_cases = set(), 0
    for _ in range(400):
        if len(seen_k) == 3 and clipped_cases >= 3:
            break
        c = random_circuit(rng, rng.randint(3, 6), rng.randint(6, 14), two_q_prob=0.6)
        g = build_graph(c, QUIET)
        pv = [rng.randint(0, 1) for _ in range(g.n)]
        if len(set(pv)) < 2 or not 1 <= int(cut_size(pv, g)) <= 3:
            continue
        plan = single_cut_plan(c, pv)
        result = reconstruct_as_labelled_sum(
            execute_plan(plan, shots=200, seed=rng.randrange(1000)), plan)
        seen_k.add(plan.k)
        clipped_cases += result.clipped_mass > 1e-6
    assert seen_k == {1, 2, 3} and clipped_cases >= 3


# recursive plans of three or more leaves, as (random_circuit seed, width,
# gate count): four leaves at k=3, one wire cut twice; four leaves at k=4;
# three at k=4 around a five-qubit leaf
MULTI_LEVEL_CASES = [(0, 6, 14), (12, 6, 12), (16, 5, 15)]


@pytest.mark.parametrize("profile", [None, STRESS], ids=["ideal", "noisy"])
def test_sampled_multi_level_outputs_match_the_direct_labelled_sum(profile):
    # multi-level plans contract their label tensors in more than one step;
    # sampled rows, from ideal or noisy ones, give negative quasi-mass
    clipped_cases = 0
    for seed, width, n_gates in MULTI_LEVEL_CASES:
        c = random_circuit(random.Random(seed), width, n_gates, two_q_prob=0.6)
        plan = recursive_fragment(c, STRESS, 0.95, limits=Limits(max_k=4), seed=0)
        leaves = plan.leaf_fragments()
        wires = [leaf.qubit_map[q] for leaf in leaves for q in leaf.out_cuts.values()]
        assert len(leaves) >= 3 and plan.k >= 3
        assert (len(set(wires)) < len(wires)) == (seed == 0)
        result = reconstruct_as_labelled_sum(
            execute_plan(plan, profile=profile, shots=200, seed=seed), plan)
        clipped_cases += result.clipped_mass > 1e-6
    assert clipped_cases >= 2


# a valid fragments document of GHZ3 cut once: upstream leaf 1, two qubits
# that measure cut 0, has three rows of 2^2 probabilities, and leaf 2, which
# initializes the cut, four
GHZ3_PLAN = exact_plan(GHZ3, [0, 1])
GHZ3_LEAVES = GHZ3_PLAN.leaf_fragments()
ROWS = [[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25], [0.0, 0.0, 0.0, 1.0]]
ROWS_2 = [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.0, 0.5], [0.5, 0.0, 0.0, 0.5]]
TEXT, TEXT_2 = packed_rows(ROWS), packed_rows(ROWS_2)  # TEXT: 128 characters, no padding
V4 = {"version": 4, "plan": "ghz3", "shots": 8, "probs": {"1": TEXT, "2": TEXT_2}}


def entry_1(value) -> dict:
    """``V4`` with leaf 1's entry replaced by ``value``."""
    return {**V4, "probs": {"1": value, "2": TEXT_2}}


def test_fragment_document_reads_dense_rows():
    outputs = outputs_from_dict(V4, GHZ3_PLAN, "ghz3")
    out = outputs[1]
    assert out.leaf is GHZ3_LEAVES[0] and out.shots == outputs[2].shots == 8
    assert out.probs.shape == (3, 2, 2) and out.probs[2, 1, 1] == 1.0
    assert out.probs.tolist() == np.reshape(ROWS, (3, 2, 2)).tolist()
    assert outputs_to_dict(outputs, "ghz3") == V4


LEAF_IDS = "keyed by exactly the plan's leaf ids [1, 2]"
NOT_A_DISTRIBUTION = "not a distribution"
NOT_BASE64 = "not the base64 of 96 bytes"
NOT_A_STRING = "needs 3 rows of 4 probabilities, one row per variant, as one base64 string"


@pytest.mark.parametrize("doc, message", [
    pytest.param([], "must be a JSON object", id="not-an-object"),
    pytest.param({"fragment": 1, "width": 2, "variants": {"m0:Z": {"width": 2, "probs": {"01": 1.0}}}},
                 "version None is not supported", id="v1-document"),
    pytest.param({**V4, "version": 2, "probs": ROWS},
                 "version 2 is not supported; expected version 4", id="version-2"),
    pytest.param({"version": 3, "fragment": 1, "width": 2, "out_cuts": [0], "in_cuts": [],
                  "probs": TEXT}, "version 3 is not supported", id="version-3"),
    pytest.param({**V4, "version": 4.0}, "version 4.0 is not supported", id="version-float"),
    pytest.param({**V4, "plan": "other"}, "another plan, 'other', not for ghz3", id="other-plan"),
    pytest.param({k: v for k, v in V4.items() if k != "plan"}, "another plan, None",
                 id="no-plan"),
    pytest.param({k: v for k, v in V4.items() if k != "probs"}, LEAF_IDS, id="no-probs"),
    pytest.param({**V4, "probs": {"1": TEXT}}, LEAF_IDS, id="missing-leaf"),
    pytest.param({**V4, "probs": {**V4["probs"], "3": TEXT}}, LEAF_IDS, id="extra-leaf"),
    pytest.param({**V4, "probs": {"1": TEXT, "3": TEXT_2}}, LEAF_IDS, id="other-leaf-id"),
    pytest.param({**V4, "probs": {"1": TEXT, 2: TEXT_2}}, LEAF_IDS, id="integer-leaf-id"),
    pytest.param({**V4, "width": 2}, "unknown key(s) ['width']", id="unknown-key"),
    # each leaf's entry under the other's id: leaf 1 has 3 rows, leaf 2 four
    pytest.param({**V4, "probs": {"1": TEXT_2, "2": TEXT}}, "fragment 1 needs 3 rows of 4",
                 id="other-leaf-cuts"),
    pytest.param(entry_1(packed_rows([[1.0]] * 3)), "needs 3 rows of 4 probabilities",
                 id="width-0"),
    pytest.param(entry_1(packed_rows(ROWS[:2])), "needs 3 rows of 4 probabilities",
                 id="missing-row"),
    pytest.param(entry_1(packed_rows([row[:3] for row in ROWS])), "needs 3 rows of 4",
                 id="short-row"),
    # rows as JSON lists are refused whatever their entries: they are version 2's
    pytest.param(entry_1(ROWS), NOT_A_STRING, id="list-rows"),
    pytest.param(entry_1([[0.5, "half", 0.0, 0.0]] * 3), NOT_A_STRING, id="string-entry"),
    pytest.param(entry_1([[[0.5], [0.5], [0.0], [0.0]]] * 3), NOT_A_STRING, id="nested-entry"),
    pytest.param(entry_1([[[0.5], [0.5, 0.5], 0.0, 0.0]] * 3), NOT_A_STRING, id="ragged-entry"),
    pytest.param(entry_1(1.0), NOT_A_STRING, id="number-probs"),
    pytest.param(entry_1("!" + TEXT[1:]), NOT_BASE64, id="non-base64-text"),
    pytest.param(entry_1("\u00e9" + TEXT[1:]), NOT_BASE64, id="non-ascii-text"),
    pytest.param(entry_1(TEXT[:-8] + "AAAA===="), NOT_BASE64, id="padding-inside"),
    pytest.param(entry_1(packed_rows([[math.nan, 1.0, 0.0, 0.0]] * 3)),
                 "not finite numbers", id="nan-entry"),
    pytest.param(entry_1(packed_rows([[math.inf, 0.0, 0.0, 0.0]] * 3)),
                 "not finite numbers", id="inf-entry"),
    pytest.param(entry_1(packed_rows([[-3.0, 5.0, 5.0, 5.0]] * 3)), NOT_A_DISTRIBUTION,
                 id="negative-entry"),
    pytest.param(entry_1(packed_rows([[0.25] * 4, [0.25] * 4, [0.25, 0.25, 0.25, 0.25 + 2e-9]])),
                 NOT_A_DISTRIBUTION, id="sum-off-one"),
    pytest.param({**V4, "shots": 0}, "not an integer >= 1", id="zero-shots"),
    pytest.param({**V4, "shots": 2.5}, "not an integer >= 1", id="fractional-shots"),
    pytest.param({**V4, "shots": True}, "not an integer >= 1", id="bool-shots"),
])
def test_fragment_document_reader_rejects(doc, message):
    with pytest.raises(ReconstructionError, match=re.escape(message)):
        outputs_from_dict(doc, GHZ3_PLAN, "ghz3")


@settings(max_examples=20, deadline=None)
@given(
    circuit_seed=st.integers(0, 2**32 - 1),
    width=st.integers(3, 6),
    n_gates=st.integers(6, 18),
    threshold=st.floats(0.85, 1.0),
    plan_seed=st.integers(0, 999),
    mode=st.sampled_from(["ideal", "noisy", "sampled"]),
)
# the plan four levels deep (k=5) of the tests above, in every mode
@example(circuit_seed=6, width=6, n_gates=16, threshold=0.95, plan_seed=1, mode="ideal")
@example(circuit_seed=6, width=6, n_gates=16, threshold=0.95, plan_seed=1, mode="noisy")
@example(circuit_seed=6, width=6, n_gates=16, threshold=0.95, plan_seed=1, mode="sampled")
def test_property_documents_read_back_only_against_their_own_leaf(
    circuit_seed, width, n_gates, threshold, plan_seed, mode
):
    c = random_circuit(random.Random(circuit_seed), width, n_gates, two_q_prob=0.6)
    plan = recursive_fragment(
        c, STRESS, threshold, limits=Limits(max_k=5), seed=plan_seed, solver="ga"
    )
    outputs = execute_plan(plan, profile=STRESS if mode == "noisy" else None,
                           shots=50 if mode == "sampled" else None, seed=plan_seed)
    doc = json.loads(json.dumps(outputs_to_dict(outputs, "plan")))
    again = outputs_from_dict(doc, plan, "plan")
    leaves = plan.leaf_fragments()
    for leaf in leaves:
        out = outputs[leaf.id]
        assert again[leaf.id].leaf is leaf and again[leaf.id].shots == out.shots
        # bit for bit, the sign of a zero included
        assert again[leaf.id].probs.tobytes() == out.probs.tobytes()
        # under another leaf's id, an entry is refused unless the layouts
        # hold as many entries
        for other in leaves:
            if other.n_variants << other.width != leaf.n_variants << leaf.width:
                entry = {str(other.id): doc["probs"][str(leaf.id)]}
                moved = {**doc, "probs": {**doc["probs"], **entry}}
                with pytest.raises(ReconstructionError, match=f"fragment {other.id} needs"):
                    outputs_from_dict(moved, plan, "plan")
    with pytest.raises(ReconstructionError, match="another plan"):
        outputs_from_dict(doc, plan, "another plan's id")


def test_output_of_another_leaf_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan)
    # leaf 2 given leaf 1's output
    outputs[2] = FragmentOutput(outputs[1].leaf, outputs[1].probs)
    with pytest.raises(ReconstructionError, match="is not plan leaf 2's"):
        reconstruct(outputs, plan)


def test_overflowing_recombination_is_an_error():
    # finite outputs the reader would refuse, given in memory: their label
    # tensors overflow, and the result is refused as not finite
    plan = exact_plan(GHZ3, [0, 1])
    outputs = {fid: FragmentOutput(o.leaf, np.full(o.probs.shape, 1e308))
               for fid, o in execute_plan(plan).items()}
    with pytest.raises(ReconstructionError, match="not finite"):
        reconstruct(outputs, plan)


def d(width, probs):
    """The probability vector of width ``width`` of a {bitstring: prob} map."""
    vec = np.zeros(1 << width)
    for bits, p in probs.items():
        vec[int(bits, 2)] = p
    return vec


def test_ideal_documents_match_their_golden_hash():
    # the ideal fragments and reconstruction documents every simulation and
    # recombination change must keep: stress plans of every fixture, each
    # fragments document naming its plan by fixture and threshold
    digest = hashlib.sha256()
    for name in CIRCUIT_FIXTURES:
        for threshold in (0.8, 0.95):
            plan = recursive_fragment(circuit_fixture(name), STRESS, threshold, seed=7)
            outputs = execute_plan(plan)
            docs = [outputs_to_dict(outputs, f"{name} {threshold}"),
                    reconstruct(outputs, plan).to_dict()]
            for doc in docs:
                digest.update(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == (
        "65933cd46df400caf2ea2b458a30db3d3feefe7bb27a73421ff7e962839a9b96")


_RUN_MODES = {"ideal": {}, "noisy": {"profile": STRESS}, "sampled": {"shots": 1000, "seed": 7}}


@pytest.fixture(scope="module")
def read_back_digests():
    """Per run mode, digests of the rows that the fragments documents decode
    to and of the reconstruction documents recombined from those rows:
    stress plans of every fixture, run ideal, noisy and sampled (with no
    profile, so sampled rows draw from ideal ones). Neither depends on how
    the fragments document spells its rows."""
    rows = {mode: hashlib.sha256() for mode in _RUN_MODES}
    recs = {mode: hashlib.sha256() for mode in _RUN_MODES}
    for name in CIRCUIT_FIXTURES:
        for threshold in (0.8, 0.95):
            plan = recursive_fragment(circuit_fixture(name), STRESS, threshold, seed=7)
            for mode, run in _RUN_MODES.items():
                outputs = execute_plan(plan, **run)
                read = outputs_from_dict(json.loads(json.dumps(outputs_to_dict(outputs, name))),
                                         plan, name)
                for fid in sorted(read):
                    rows[mode].update(read[fid].probs.astype("<f8").tobytes())
                recs[mode].update(json.dumps(reconstruct(read, plan).to_dict(), sort_keys=True,
                                             separators=(",", ":")).encode())
    return ({mode: h.hexdigest() for mode, h in rows.items()},
            {mode: h.hexdigest() for mode, h in recs.items()})


# The "sampled" digests below were made with numpy 2.4.6. numpy does not
# promise that Generator.multinomial keeps its stream across versions, so
# another numpy may move them with no change to this package.
def test_decoded_fragment_rows_match_their_golden_hash(read_back_digests):
    assert read_back_digests[0] == {
        "ideal": "08f9e8ccb6a0367065dd87d3fb9a7f6d747b20ecf62f2f4386b38a60e8ecf382",
        "noisy": "7c94bc2bde51f18a0c166f64acb499ad0126020e7ac642f49b97506f26549738",
        "sampled": "511086289fedb8668af8fa8fb3aed832cacfd289297fc29cc22688bfe75d5eee",
    }


def test_reconstruction_documents_match_their_golden_hash(read_back_digests):
    assert read_back_digests[1] == {
        "ideal": "ad64411a72b20be0abb9ac0d9d9b07bd8722534c9ad30b8fe6ee9f848f6f2b9b",
        "noisy": "b9ffbee92892d1162bbc800020f861c365b958aaec4327c69178d5334c1c5834",
        "sampled": "3d8ecb437f71a81cbecacd4b9a2f872ffa5d403c980cb85abe97656d0493df53",
    }


def _enabled_dispatch_features() -> list[str]:
    """The SIMD features numpy dispatches to at run time and finds enabled."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_recombination_bytes_do_not_depend_on_the_cpu(tmp_path):
    # the same plan and fragments documents recombine to the same bytes
    # under OpenBLAS's oldest x86-64 kernel and with numpy's dispatched SIMD
    # off, each set in a child process only: the stress plans of every
    # fixture, run ideal, noisy and sampled
    for name in CIRCUIT_FIXTURES:
        for threshold in (0.8, 0.95):
            plan = recursive_fragment(circuit_fixture(name), STRESS, threshold, seed=7)
            case = tmp_path / f"{name}_{threshold}"
            case.mkdir()
            (case / "plan.json").write_text(json.dumps(plan_to_dict(plan)), encoding="utf-8")
            for mode, run in _RUN_MODES.items():
                doc = outputs_to_dict(execute_plan(plan, **run), case.name)
                (case / f"fragments_{mode}.json").write_text(json.dumps(doc), encoding="utf-8")
    here = recombined_digests(tmp_path)
    assert len(here) == 42
    cpus = {"OPENBLAS_CORETYPE": "Prescott",
            "NPY_DISABLE_CPU_FEATURES": " ".join(_enabled_dispatch_features())}
    # the child imports this wirecut and the tests' helpers
    paths = [str(pathlib.Path(__file__).parent),
             str(pathlib.Path(importlib.import_module("wirecut").__file__).parents[1])]
    for var, value in cpus.items():
        env = {k: v for k, v in os.environ.items() if k not in cpus}
        env[var] = value
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", "import json, sys\nfrom helpers import recombined_digests\n"
             "print(json.dumps(recombined_digests(sys.argv[1])))", str(tmp_path)],
            env=env, capture_output=True, text=True)
        assert child.returncode == 0, child.stderr
        there = json.loads(child.stdout)
        moved = sorted(key for key in here if there[key] != here[key])
        assert not moved, f"{var}={value!r} moves the reconstructions of {moved}"


def test_noisy_rows_do_not_depend_on_what_the_process_ran_before():
    # gate channels, damping, idle pairs and option chains are cached for
    # the process by value: the stress rows come out byte-equal after
    # uniform runs add entries of other errors and coherence times, and
    # again after every cache is emptied
    plans = [recursive_fragment(circuit_fixture(name), STRESS, 0.8, seed=7)
             for name in CIRCUIT_FIXTURES]

    def rows(profile):
        runs = [execute_plan(plan, profile=profile) for plan in plans]
        return [outputs[fid].probs.tobytes() for outputs in runs for fid in sorted(outputs)]

    first = rows(STRESS)
    rows(load_profile(fixture_text("profiles", "uniform")))
    assert rows(STRESS) == first
    clear_simulation_caches()
    assert rows(STRESS) == first


def test_fidelity_examples():
    a = d(1, {"0": 1.0})
    assert fidelity(a, a) == pytest.approx(1.0)
    assert fidelity(a, d(1, {"0": 0.5, "1": 0.5})) == pytest.approx(0.5)
    assert fidelity(a, d(1, {"1": 1.0})) == 0.0
    with pytest.raises(ReconstructionError):
        fidelity(a, d(2, {"00": 1.0}))


def test_tvd_examples():
    a = d(1, {"0": 0.6, "1": 0.4})
    b = d(1, {"0": 0.5, "1": 0.5})
    assert tvd(a, b) == pytest.approx(0.1)
    assert tvd(a, a) == 0.0
    assert tvd(d(1, {"0": 1.0}), d(1, {"1": 1.0})) == pytest.approx(1.0)


def test_metric_properties_on_random_distributions():
    rng = random.Random(55)
    for _ in range(30):
        width = rng.randint(1, 4)
        def rand_dist():
            vals = [rng.random() for _ in range(1 << width)]
            total = sum(vals)
            return d(width, {format(i, f"0{width}b"): v / total for i, v in enumerate(vals)})
        a, b, c = rand_dist(), rand_dist(), rand_dist()
        assert fidelity(a, b) == pytest.approx(fidelity(b, a))
        assert fidelity(a, a) == pytest.approx(1.0)
        assert 0.0 <= fidelity(a, b) <= 1.0
        assert tvd(a, c) <= tvd(a, b) + tvd(b, c) + 1e-12
        assert 0.0 <= hellinger(a, b) <= 1.0


@st.composite
def sparse_pairs(draw):
    """Two sparse {bitstring: prob} maps of one width, 1-8 qubits, whose
    supports overlap or are disjoint."""
    width = draw(st.integers(1, 8))
    outcomes = st.integers(0, (1 << width) - 1)
    support_a = draw(st.sets(outcomes, min_size=1, max_size=12))
    if draw(st.booleans()):
        support_b = draw(st.sets(outcomes, min_size=1, max_size=12))
    else:
        rest = sorted(set(range(1 << width)) - support_a)
        support_b = draw(st.sets(st.sampled_from(rest), min_size=1, max_size=12)) if rest else {0}
    weight = st.floats(1e-6, 1.0)

    def normalized(support):
        raw = {format(i, f"0{width}b"): draw(weight) for i in sorted(support)}
        total = sum(raw.values())
        return {bits: p / total for bits, p in raw.items()}

    return width, normalized(support_a), normalized(support_b)


@settings(max_examples=100, deadline=None)
@given(sparse_pairs())
def test_property_vector_distances_equal_the_dict_loops(case):
    width, pa, pb = case
    a, b = d(width, pa), d(width, pb)
    assert fidelity(a, b) == dict_fidelity(pa, pb)
    assert tvd(a, b) == dict_tvd(pa, pb)
    assert hellinger(a, b) == dict_hellinger(pa, pb)
    assert _probs_to_dict(a) == {"width": width, "probs": pa}
    assert list(_probs_to_dict(a)["probs"]) == sorted(pa)


@pytest.mark.parametrize("distance", [fidelity, tvd, hellinger])
def test_distances_refuse_vectors_of_different_lengths(distance):
    with pytest.raises(ReconstructionError, match=r"shape mismatch: \(4,\) != \(8,\)"):
        distance(d(2, {"00": 1.0}), d(3, {"000": 1.0}))
