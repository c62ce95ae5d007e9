import random

import pytest

from helpers import random_circuit
from wirecut.circuit import Circuit, Gate, parse_qasm
from wirecut.fragment import recursive_fragment, single_cut_plan
from wirecut.graph import build_graph
from wirecut.noise import NoiseProfile
from wirecut.partition import cut_size
from wirecut.reconstruct import (
    Distribution,
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
