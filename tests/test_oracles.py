import ast
import importlib
import math
import random
from pathlib import Path

import numpy as np
import pytest

from helpers import density_matrix, random_circuit, random_connected_graph, random_ising_models
from oracles import (
    brute_force_ising_ground,
    brute_force_min_cost,
    mp_gate_error_rate,
    mp_success_probability,
    pauli_error_channel,
    reference_density_evolution,
)
from wirecut.circuit import Circuit, Gate
from wirecut.graph import GateGraph
from wirecut.ising import IsingModel
from wirecut.noise import NoiseProfile, QubitCal
from wirecut.simulate import run_ideal


def test_brute_force_min_cost_uniform_path():
    g = GateGraph(weights=(0.25,) * 4, edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))
    pv, cost = brute_force_min_cost(g)
    assert cost == pytest.approx(4.0)
    assert pv in ([0, 0, 1, 1], [1, 1, 0, 0])


def test_brute_force_min_cost_two_vertices():
    g = GateGraph(weights=(0.4, 0.6), edges=((0, 1, 1),))
    pv, cost = brute_force_min_cost(g)
    assert sorted(pv) == [0, 1]
    assert cost == pytest.approx(1 / 0.4 + 1 / 0.6)


def test_brute_force_min_cost_caps():
    g = GateGraph(weights=(1.0,), edges=())
    with pytest.raises(ValueError):
        brute_force_min_cost(g)
    rng = random.Random(1)
    with pytest.raises(ValueError, match="capped"):
        brute_force_min_cost(random_connected_graph(rng, 21))


def test_brute_force_ising_single_spin():
    spins, e = brute_force_ising_ground(IsingModel(n=1, h=(1.0,), j={}))
    assert spins == [-1] and e == -1.0


def test_brute_force_ising_ferro_ring():
    j = {(i, i + 1): -1.0 for i in range(5)}
    j[(0, 5)] = -1.0
    spins, e = brute_force_ising_ground(IsingModel(n=6, h=(0.0,) * 6, j=j, offset=0.5))
    assert e == pytest.approx(-6.0 + 0.5)
    assert len(set(spins)) == 1


def test_brute_force_ising_empty_model():
    spins, e = brute_force_ising_ground(IsingModel(n=0, h=(), j={}, offset=0.75))
    assert spins == [] and e == 0.75


def _loop_ising_ground(m: IsingModel) -> tuple[list[int], float]:
    """The brute force with one pass per coupling over all 2^n energies."""
    codes = np.arange(1 << m.n, dtype=np.int64)
    spins = 2.0 * ((codes[:, None] >> np.arange(m.n)) & 1) - 1.0
    energy = spins @ np.array(m.h, dtype=float) + m.offset
    for (i, j), coupling in m.j.items():
        energy += coupling * spins[:, i] * spins[:, j]
    best = int(np.argmin(energy))
    return [int(s) for s in spins[best]], float(energy[best])


def test_dense_ising_ground_matches_the_coupling_loop_on_criterion_4s_instances():
    # the dense form sums each energy in another order: the same minimiser,
    # and energies within a few ulps of the 16-spin models' largest terms
    for m in random_ising_models(random.Random(2024), 100):
        spins, e = brute_force_ising_ground(m)
        loop_spins, loop_e = _loop_ising_ground(m)
        assert spins == loop_spins
        assert abs(e - loop_e) <= 1e-12


def test_reference_noiseless_matches_pure_state():
    rng = random.Random(5)
    quiet = NoiseProfile(p1=0.0, p2=0.0)
    for _ in range(10):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 10))
        rho = reference_density_evolution(c, quiet)
        sv = run_ideal(c)
        assert np.max(np.abs(rho - np.outer(sv, sv.conj()))) < 1e-12


def test_pauli_x_error_hand_algebra():
    # X on |0>, then a pure bit-flip channel at 0.1: diagonal (0.1, 0.9)
    rho = np.zeros((2, 2), dtype=complex)
    rho[0, 0] = 1.0
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    rho = x @ rho @ x.conj().T
    ch = pauli_error_channel(0.1, 0.0, 0.0)
    rho = sum(k @ rho @ k.conj().T for k in ch.operators)
    assert np.allclose(np.diag(rho).real, [0.1, 0.9], atol=1e-12)


def test_reference_idle_decay_closed_form():
    prof = NoiseProfile(
        p1=0.0, p2=0.0, d1_ns=100.0,
        qubits={0: QubitCal(t1_us=1.0, t2_us=2.0), 1: QubitCal(t1_us=1e9, t2_us=2e9)},
    )
    # q0 excited at t=0..100, then idles 1000 ns = T1 while q1 stays busy
    gates = [Gate("x", (0,))] + [Gate("x", (1,)) for _ in range(11)]
    rho = reference_density_evolution(Circuit(width=2, gates=tuple(gates)), prof)
    p1_q0 = rho[2, 2].real + rho[3, 3].real
    assert p1_q0 == pytest.approx(math.exp(-1), abs=1e-12)


def test_reference_width_cap():
    with pytest.raises(ValueError, match="capped"):
        reference_density_evolution(Circuit(width=7, gates=()), NoiseProfile())


def test_production_agrees_with_reference_on_random_circuits():
    rng = random.Random(42)
    worst = 0.0
    for _ in range(50):
        width = rng.randint(1, 4)
        c = random_circuit(rng, width, rng.randint(1, 12))
        prof = NoiseProfile(
            p1=rng.uniform(0, 0.02), p2=rng.uniform(0, 0.05),
            d1_ns=50.0, d2_ns=300.0,
            qubits={q: QubitCal(rng.uniform(20, 200), rng.uniform(10, 100)) for q in range(width)},
        )
        a = density_matrix(c, prof)
        b = reference_density_evolution(c, prof)
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-9


def test_high_precision_closed_forms():
    assert mp_gate_error_rate(0, 0, 0.1, 0.1) == 0.0
    assert mp_gate_error_rate(1, 0, 1.0, 0.0) == 1.0
    v = mp_gate_error_rate(10, 5, 0.001, 0.01)
    assert 0.0584 < v < 0.0585
    s = mp_success_probability(10, 5, 0.001, 0.01, 1.0, 100.0, 50.0)
    assert s == pytest.approx(0.913697, abs=1e-6)


def test_oracle_reports_collect_into_a_document():
    from oracles import compare_against_oracle
    from wirecut.partition import find_min_cut_ga

    rng = random.Random(71)
    reports = []
    for trial in range(10):
        g = random_connected_graph(rng, rng.randint(3, 10))
        _, opt = brute_force_min_cost(g)
        res = find_min_cut_ga(g, trial)
        reports.append(
            compare_against_oracle(f"graph-{trial}", opt, res.cost, tolerance=1e-9)
        )
    doc = [r.to_dict() for r in reports]
    assert all(entry["agree"] for entry in doc)
    assert {"instance", "oracle_result", "production_result", "tolerance", "agree"} == set(doc[0])


def test_oracles_import_only_public_names_of_the_package():
    # the references share nothing with the production code paths but the
    # domain types: every name they import from wirecut is in its module's
    # __all__, and no module of it is imported whole
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not [a.name for a in node.names if a.name.split(".")[0] == "wirecut"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "wirecut":
            public = getattr(importlib.import_module(node.module), "__all__", ())
            for alias in node.names:
                assert alias.name in public, f"{node.module}.{alias.name} is not public"
                imported.append(alias.name)
    assert imported
