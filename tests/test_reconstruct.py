import itertools
import json
import math
import random
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_circuit
from wirecut.circuit import Circuit, Gate, parse_qasm
from wirecut.fixtures import fixture_text
from wirecut.fragment import Limits, recursive_fragment, single_cut_plan, variant_key
from wirecut.graph import build_graph
from wirecut.noise import NoiseProfile, load_profile
from wirecut.partition import cut_size
from wirecut.reconstruct import (
    Distribution,
    FragmentOutput,
    ReconstructionError,
    execute_plan,
    fidelity,
    hellinger,
    reconstruct,
    tvd,
)
from wirecut.simulate import measure_distribution, run_ideal

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
GHZ3 = parse_qasm(HEADER + "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];", name="ghz3")
QUIET = NoiseProfile()


def exact_plan(c, pv):
    g = build_graph(c, QUIET)
    return single_cut_plan(c, pv, g)


def test_ghz3_reconstructs_exactly():
    plan = exact_plan(GHZ3, [0, 1])
    result = reconstruct(execute_plan(plan), plan)
    ref = measure_distribution(run_ideal(GHZ3))
    assert tvd(result.distribution, ref) < 1e-9
    assert result.distribution.probs == pytest.approx({"000": 0.5, "111": 0.5})
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
    plan = single_cut_plan(c, pv, g)
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
    g = build_graph(c, QUIET)
    plan = single_cut_plan(c, [0, 1, 0], g)
    assert plan.k == 2
    result = reconstruct(execute_plan(plan), plan)
    ref = measure_distribution(run_ideal(c))
    assert tvd(result.distribution, ref) < 1e-9


def test_weight_two_edge_reconstructs():
    c = Circuit(width=2, gates=(
        Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rx", (0,), (0.5,)), Gate("cx", (0, 1)),
    ))
    g = build_graph(c, QUIET)
    plan = single_cut_plan(c, [0, 1], g)
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


def test_missing_variant_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan)
    upstream = next(fid for fid, o in outputs.items() if any(k.startswith("m") for k in o.variants))
    key = next(iter(outputs[upstream].variants))
    del outputs[upstream].variants[key]
    with pytest.raises(ReconstructionError, match="missing variant"):
        reconstruct(outputs, plan)


def test_missing_fragment_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan)
    outputs.pop(next(iter(outputs)))
    with pytest.raises(ReconstructionError, match="no output"):
        reconstruct(outputs, plan)


def test_layout_mismatch_is_an_error():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan)
    for node in plan.leaves():
        node.fragment.qubit_map = tuple(0 for _ in node.fragment.qubit_map)
    with pytest.raises(ReconstructionError, match="tile"):
        reconstruct(outputs, plan)


def test_shot_noise_yields_clipped_quasi_mass():
    plan = exact_plan(GHZ3, [0, 1])
    outputs = execute_plan(plan, shots=400, seed=11)
    result = reconstruct(outputs, plan)
    assert result.clipped_mass >= 0.0
    assert sum(result.distribution.probs.values()) == pytest.approx(1.0)
    ref = measure_distribution(run_ideal(GHZ3))
    assert fidelity(result.distribution, ref) > 0.9


STRESS = load_profile(fixture_text("profiles", "stress"))


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
    quasi = defaultdict(float)
    for labels in itertools.product("IZXY", repeat=len(cut_ids)):
        label = dict(zip(cut_ids, labels))
        terms = {(): 0.5 ** len(cut_ids)}  # ((original qubit, bit), ...) -> weight
        for leaf in plan.leaf_fragments():
            in_ids = sorted(leaf.in_cuts)
            bases = {c: "Z" if label[c] == "I" else label[c] for c in leaf.out_cuts}
            factor = defaultdict(float)
            for inits in itertools.product(*(INIT_WEIGHTS[label[c]] for c in in_ids)):
                key = variant_key(bases, {c: state for c, (state, _) in zip(in_ids, inits)})
                coeff = math.prod(w for _, w in inits)
                for bits, p in outputs[leaf.id].variants[key].probs.items():
                    sign = math.prod(-1 if bits[q] == "1" and label[c] != "I" else 1
                                     for c, q in leaf.out_cuts.items())
                    kept = tuple((leaf.qubit_map[q], bits[q]) for q in leaf.terminal_qubits())
                    factor[kept] += coeff * sign * p
            terms = {a + b: wa * wb for a, wa in terms.items() for b, wb in factor.items()}
        for assignment, weight in terms.items():
            quasi["".join(bit for _, bit in sorted(assignment))] += weight
    return quasi


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
        plan = single_cut_plan(c, pv, g)
        outputs = execute_plan(plan, shots=200, seed=rng.randrange(1000))
        result = reconstruct(outputs, plan)
        quasi = labelled_sum(outputs, plan)
        clipped = -sum(min(v, 0.0) for v in quasi.values())
        positive = sum(max(v, 0.0) for v in quasi.values())
        assert result.clipped_mass == pytest.approx(clipped, abs=1e-12)
        for bits in set(quasi) | set(result.distribution.probs):
            expected = max(quasi.get(bits, 0.0), 0.0) / positive
            assert result.distribution.probs.get(bits, 0.0) == pytest.approx(expected, abs=1e-12)
        seen_k.add(plan.k)
        clipped_cases += result.clipped_mass > 1e-6
    assert seen_k == {1, 2, 3} and clipped_cases >= 3


def test_fragment_document_rejects_malformed_outcomes():
    doc = {"fragment": 1, "width": 2, "variants": {"base": {"width": 2, "probs": {"011": 1.0}}}}
    with pytest.raises(ReconstructionError, match="'011'"):
        FragmentOutput.from_dict(doc)
    doc["variants"]["base"]["probs"] = {"01": "half"}
    with pytest.raises(ReconstructionError, match="'half'"):
        FragmentOutput.from_dict(doc)
    with pytest.raises(ReconstructionError, match="variants"):
        FragmentOutput.from_dict({"fragment": 1, "width": 2})


def d(width, probs):
    return Distribution(width=width, probs=probs)


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
