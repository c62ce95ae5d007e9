import json
import math
import random
import re

import pytest

from helpers import random_circuit
from oracles import mp_gate_error_rate, mp_success_probability
from wirecut.circuit import Circuit, Gate
from wirecut.fragment import Limits, enumerate_variants, recursive_fragment
from wirecut.noise import (
    GateCal,
    NoiseProfile,
    ProfileError,
    gate_error_prob,
    load_profile,
    success_probability,
)

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

DOC = """
{"version": 1,
 "defaults": {"p1": 0.001, "p2": 0.01, "d1_ns": 50, "d2_ns": 300, "t1_us": 100, "t2_us": 80},
 "qubits": [{"id": 0, "t1_us": 90, "t2_us": 70}],
 "gates": [{"name": "cx", "qubits": [0, 1], "error": 0.02, "duration_ns": 400}]}
"""


def test_load_defaults_only():
    p = load_profile('{"version": 1, "defaults": {"p1": 0.001, "p2": 0.01}}')
    assert p.gate_error(Gate("h", (3,))) == 0.001
    assert p.gate_error(Gate("cx", (1, 2))) == 0.01


def test_per_gate_override():
    p = load_profile(DOC)
    assert p.gate_error(Gate("cx", (0, 1))) == 0.02
    assert p.gate_duration(Gate("cx", (0, 1))) == 400
    assert p.gate_error(Gate("cx", (1, 2))) == 0.01  # falls back to default
    assert p.t1_us(0) == 90
    assert p.t1_us(5) == 100  # default


def test_missing_t1_is_schema_error():
    with pytest.raises(ProfileError, match="t1_us"):
        load_profile('{"version": 1, "qubits": [{"id": 0, "t2_us": 50}]}')


@pytest.mark.parametrize("text", ["[]", "42", "stress.json"])
def test_non_object_text_is_a_profile_error(text):
    # the text is parsed, never opened as a path
    with pytest.raises(ProfileError):
        load_profile(text)


@pytest.mark.parametrize("key, name, good, bad, message", [
    ("p1", "p1", 0.25, "1.5", "defaults.p1 must lie in [0, 1], got 1.5"),
    ("p2", "p2", 0.5, '"x"', "defaults.p2 must be a number"),
    ("d1_ns", "d1_ns", 20.0, "0", "defaults.d1_ns must be > 0, got 0"),
    ("d2_ns", "d2_ns", 250.0, "Infinity", "defaults.d2_ns must be finite, got inf"),
    ("t1_us", "t1_default_us", 70.0, "-1", "defaults.t1_us must be > 0, got -1"),
    ("t2_us", "t2_default_us", 30.0, "true", "defaults.t2_us must be a number"),
])
def test_each_default_sets_its_field_and_names_its_key_when_bad(key, name, good, bad, message):
    # ``bad`` is JSON text: the value as the document spells it
    p = load_profile(json.dumps({"version": 1, "defaults": {key: good}}))
    assert p == NoiseProfile(**{name: good})
    with pytest.raises(ProfileError, match=re.escape(message)):
        load_profile(f'{{"version": 1, "defaults": {{"{key}": {bad}}}}}')


def test_probability_out_of_range_rejected():
    with pytest.raises(ProfileError, match=r"\[0, 1\]"):
        load_profile('{"version": 1, "defaults": {"p1": 1.5}}')


@pytest.mark.parametrize("text, where", [
    ('{"version": 1, "defualts": {"p2": 0.5}}', "calibration document"),
    ('{"version": 1, "defaults": {"p_2": 0.5}}', "'defaults'"),
    ('{"version": 1, "qubits": [{"id": 0, "t1_us": 90, "t2_us": 70, "t3_us": 1}]}',
     "qubit record"),
    ('{"version": 1, "gates": [{"name": "cx", "qubits": [0, 1], "error": 0.02, '
     '"duration_ns": 400, "fidelity": 0.98}]}', "gate record"),
])
def test_unknown_key_at_any_level_is_a_profile_error(text, where):
    with pytest.raises(ProfileError, match=f"unknown key.* in {where}"):
        load_profile(text)


@pytest.mark.parametrize("name, qubits", [
    ("cnot", [0, 1]),  # not a gate name
    ("cx", [0]),  # fewer qubits than the gate's arity
    ("h", [0, 1]),  # more qubits than the gate's arity
    ("cx", [1, 1]),  # a repeated qubit
    ("measure", [0]),  # measurement has no error or duration
])
def test_gate_record_that_never_applies_is_a_profile_error(name, qubits):
    # such a record would leave the default in force for every gate
    rec = {"name": name, "qubits": qubits, "error": 0.02, "duration_ns": 400}
    with pytest.raises(ProfileError, match="names no gate|distinct qubit"):
        load_profile(json.dumps({"version": 1, "gates": [rec]}))


def test_readout_is_refused_as_unmodelled():
    with pytest.raises(ProfileError, match="readout error is not modelled"):
        load_profile('{"version": 1, "readout": [{"id": 0, "p01": 0.02, "p10": 0.03}]}')


def test_unphysical_t2_warns_but_loads():
    with pytest.warns(UserWarning, match="unphysical"):
        p = load_profile('{"version": 1, "qubits": [{"id": 0, "t1_us": 10, "t2_us": 50}]}')
    assert p.t2_us(0) == 50


def test_measure_has_no_error_or_duration():
    p = load_profile(DOC)
    m = Gate("measure", (0,))
    assert p.gate_error(m) == 0.0
    assert p.gate_duration(m) == 0.0


def test_gate_error_matches_closed_form():
    # 10 single-qubit gates at p1=0.001 plus 5 two-qubit gates at p2=0.01
    p = NoiseProfile(p1=0.001, p2=0.01)
    gates = tuple(Gate("h", (0,)) for _ in range(10)) + tuple(Gate("cx", (0, 1)) for _ in range(5))
    c = Circuit(width=2, gates=gates)
    expected = mp_gate_error_rate(10, 5, 0.001, 0.01)
    assert gate_error_prob(c, p) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.058478, abs=1e-6)


def test_gate_error_edge_cases():
    p = NoiseProfile()
    assert gate_error_prob(Circuit(width=1, gates=()), p) == 0.0
    full = NoiseProfile(p1=1.0)
    assert gate_error_prob(Circuit(width=1, gates=(Gate("x", (0,)),)), full) == 1.0


def test_success_probability_closed_form():
    # tau = 10*40 + 5*120 = 1000 ns = 1 us on a serial wire; T1=100us, T2=50us
    p = NoiseProfile(p1=0.001, p2=0.01, d1_ns=40.0, d2_ns=120.0,
                     t1_default_us=100.0, t2_default_us=50.0)
    gates = tuple(Gate("h", (0,)) for _ in range(10)) + tuple(Gate("cx", (0, 1)) for _ in range(5))
    est = success_probability(Circuit(width=2, gates=gates), p)
    assert est.tau_ns == 1000.0
    expected = mp_success_probability(10, 5, 0.001, 0.01, 1.0, 100.0, 50.0)
    assert est.success == pytest.approx(expected, abs=1e-12)
    assert est.success == pytest.approx(0.913697, abs=1e-6)
    assert est.p_error == pytest.approx(1.0 - est.success, abs=1e-15)


def test_success_empty_circuit_is_one():
    p = NoiseProfile()
    est = success_probability(Circuit(width=3, gates=()), p)
    assert est.success == 1.0
    assert est.tau_ns == 0.0


def test_success_collapses_for_long_circuits():
    # tau = 10 us against T1 = T2 = 1 us
    p = NoiseProfile(p1=0.0, p2=0.0, d1_ns=1000.0, t1_default_us=1.0, t2_default_us=1.0)
    gates = tuple(Gate("x", (0,)) for _ in range(10))
    est = success_probability(Circuit(width=1, gates=gates), p)
    assert est.success == pytest.approx(math.exp(-20.0), rel=1e-9)
    assert est.success < 2.1e-9  # exp(-20) = 2.06e-9, effectively zero


def test_success_uses_min_t1_t2_over_touched_qubits():
    from wirecut.noise import QubitCal
    p = NoiseProfile(p1=0.0, p2=0.0, d1_ns=1000.0,
                     qubits={0: QubitCal(10.0, 8.0), 1: QubitCal(2.0, 1.0), 5: QubitCal(0.1, 0.1)})
    c = Circuit(width=6, gates=(Gate("x", (0,)), Gate("x", (1,))))
    est = success_probability(c, p)
    # tau=1us, min T1=2us, min T2=1us among touched {0,1}; qubit 5 is untouched
    assert est.success == pytest.approx(math.exp(-(0.5 + 1.0)), rel=1e-12)


def test_adding_a_gate_never_increases_success():
    rng = random.Random(11)
    for _ in range(100):
        width = rng.randint(1, 5)
        c = random_circuit(rng, width, rng.randint(0, 12))
        p = NoiseProfile(
            p1=rng.uniform(0, 0.02), p2=rng.uniform(0, 0.05),
            d1_ns=rng.uniform(10, 100), d2_ns=rng.uniform(100, 500),
            t1_default_us=rng.uniform(20, 200), t2_default_us=rng.uniform(10, 100),
        )
        base = success_probability(c, p).success
        extra = random_circuit(rng, width, 1).gates
        pos = rng.randint(0, len(c.gates))
        grown = Circuit(width=width, gates=c.gates[:pos] + extra + c.gates[pos:])
        assert success_probability(grown, p).success <= base + 1e-12


def test_for_subcircuit_remaps_queries():
    p = load_profile(DOC)
    local = p.for_subcircuit(qubit_map=(0, 1))
    assert local.gate_error(Gate("cx", (0, 1))) == 0.02
    shifted = p.for_subcircuit(qubit_map=(1, 2))
    assert shifted.gate_error(Gate("cx", (0, 1))) == 0.01  # original (1,2) has no override
    assert shifted.t1_us(0) == 100  # original qubit 1 uses the default
    assert p.for_subcircuit(qubit_map=(0, 5)).t1_us(0) == 90


def test_variant_prep_and_basis_gates_read_their_calibration():
    # h is calibrated on every qubit but the chain has none: only the
    # variants' prep (plus, plus_i) and basis (X, Y) gates apply it
    chain = Circuit(width=4, gates=tuple(Gate("cx", (q, q + 1)) for q in range(3)))
    p = NoiseProfile(gates={("h", (q,)): GateCal(0.3, 70.0) for q in range(4)})
    plan = recursive_fragment(chain, p, threshold=0.99, limits=Limits(max_k=3), seed=1)
    assert plan.k >= 1
    hs = 0
    for leaf in plan.leaf_fragments():
        local = p.for_subcircuit(leaf.qubit_map)
        for v in enumerate_variants(leaf):
            for g in v.circuit.gates:
                orig = Gate(g.name, tuple(leaf.qubit_map[q] for q in g.qubits), g.params)
                assert local.gate_error(g) == p.gate_error(orig)
                assert local.gate_duration(g) == p.gate_duration(orig)
                hs += g.name == "h"
    assert hs > 0
    # a wire cut twice has two local qubits, and both carry its records
    twice = NoiseProfile(gates={("h", (2,)): GateCal(0.3, 70.0)}).for_subcircuit((2, 0, 2))
    assert [twice.gate_error(Gate("h", (q,))) for q in range(3)] == [0.3, 0.001, 0.3]
