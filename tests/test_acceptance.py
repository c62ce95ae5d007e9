"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Criteria with runtime budgets assert them.
"""
import random
import time

from helpers import (
    density_matrix,
    random_circuit,
    random_connected_graph,
    random_ising_models,
    single_cut_plan,
)
from oracles import (
    amplitude_damping_channel,
    brute_force_ising_ground,
    brute_force_min_cost,
    mp_gate_error_rate,
    mp_success_probability,
    pauli_error_channel,
    phase_damping_channel,
    reference_density_evolution,
)
from wirecut.circuit import Circuit, Gate
from wirecut.cli import main as cli_main
from wirecut.fixtures import circuit_fixture, profile_fixture
from wirecut.fragment import recursive_fragment
from wirecut.graph import build_graph
from wirecut.ising import default_schedule, simulated_anneal
from wirecut.noise import NoiseProfile, gate_error_prob, success_probability
from wirecut.partition import cut_size, find_min_cut_ga
from wirecut.reconstruct import execute_plan, fidelity, reconstruct, tvd
from wirecut.simulate import measure_distribution, run_ideal, run_noisy

BENCHMARKS = ("ghz_n10", "cat_n8", "bv_n9", "adder_n8", "su2_n8")


def report(criterion: str, detail: str):
    print(f"\nPASS {criterion}: {detail}")


def test_criterion_1_reconstruction_exactness():
    """>=50 random circuits (width 4-10, 5-40 gates), cuts with k in 1..4:
    reconstructed ideal distribution matches the uncut one with TVD < 1e-9
    and the term count is exactly 4^k. Runtime < 2 minutes."""
    t0 = time.time()
    rng = random.Random(7)
    quiet = NoiseProfile()
    done = {1: 0, 2: 0, 3: 0, 4: 0}
    worst_tvd = 0.0
    total = 0
    while total < 52:
        width = rng.randint(4, 10)
        c = random_circuit(rng, width, rng.randint(5, 40), two_q_prob=0.55)
        if len(c.two_qubit_indices()) < 2:
            continue
        g = build_graph(c, quiet)
        want_k = min(done, key=done.get)
        pv = None
        for _ in range(200):
            cand = [rng.randint(0, 1) for _ in range(g.n)]
            if len(set(cand)) == 2 and int(cut_size(cand, g)) == want_k:
                pv = cand
                break
        if pv is None:
            continue
        plan = single_cut_plan(c, pv)
        result = reconstruct(execute_plan(plan), plan)
        assert result.terms == 4 ** want_k
        d = tvd(result.distribution, measure_distribution(run_ideal(c)))
        assert d < 1e-9, f"width {width}, k {want_k}: TVD {d}"
        worst_tvd = max(worst_tvd, d)
        done[want_k] += 1
        total += 1
    elapsed = time.time() - t0
    assert all(v > 0 for v in done.values())
    assert elapsed < 120.0
    report("criterion 1 (reconstruction exactness)",
           f"{total} circuits, k histogram {done}, worst TVD {worst_tvd:.2e}, {elapsed:.1f}s")


def test_criterion_2_fig1_fixture():
    """The 5-qubit 4-CNOT chain: 4-vertex graph, selected cut k=1, two
    3-qubit fragments. Exact match."""
    c = circuit_fixture("fig1_n5")
    profile = profile_fixture("stress")
    g = build_graph(c, profile)
    assert g.n == 4
    plan = recursive_fragment(c, profile, threshold=0.9, seed=0)
    assert plan.k == 1
    leaves = plan.leaf_fragments()
    assert len(leaves) == 2
    assert sorted(f.width for f in leaves) == [3, 3]
    cut = plan.root.cut[0]
    assert (cut.qubit, cut.upstream_gate, cut.downstream_gate) == (2, 1, 2)
    result = reconstruct(execute_plan(plan), plan)
    assert tvd(result.distribution, measure_distribution(run_ideal(c))) < 1e-9
    report("criterion 2 (fig-1 fixture)",
           "4 vertices, k=1 on wire q2, fragments 3+3 qubits, exact reconstruction")


def test_criterion_3_ga_optimality_rate():
    """200 seeded random connected graphs (<=16 vertices): GA reaches the
    brute-force optimum in >=90% and never exceeds 1.5x; the best-cost
    trace is non-increasing in 100% of passes. Runtime < 1 minute."""
    t0 = time.time()
    rng = random.Random(1234)
    hits = 0
    worst = 0.0
    for trial in range(200):
        g = random_connected_graph(rng, rng.randint(4, 16))
        _, opt = brute_force_min_cost(g)
        res = find_min_cut_ga(g, trial)
        ratio = res.cost / opt
        worst = max(worst, ratio)
        if abs(res.cost - opt) < 1e-9:
            hits += 1
        assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))
    elapsed = time.time() - t0
    assert hits >= 180, f"only {hits}/200 optimal"
    assert worst <= 1.5, f"worst ratio {worst}"
    assert elapsed < 60.0
    report("criterion 3 (GA optimality)",
           f"{hits}/200 optimal, worst ratio {worst:.3f}, {elapsed:.1f}s")


def test_criterion_4_sa_optimality_rate():
    """100 seeded 16-spin instances, 1e4 sweeps, 4 restarts: the annealer
    reaches the brute-force ground energy in >=90%. Runtime < 1 minute."""
    t0 = time.time()
    hits = 0
    for trial, m in enumerate(random_ising_models(random.Random(2024), 100)):
        _, ground = brute_force_ising_ground(m)
        res = simulated_anneal(m, default_schedule(m, sweeps=10_000), seed=trial, restarts=4)
        if abs(res.energy - ground) < 1e-9:
            hits += 1
    elapsed = time.time() - t0
    assert hits >= 90, f"only {hits}/100 ground states"
    assert elapsed < 60.0
    report("criterion 4 (SA optimality)", f"{hits}/100 ground states, {elapsed:.1f}s")


def test_criterion_5_closed_form_agreement():
    """Error-model evaluations match a 50-digit oracle to 1e-12 over a
    1000-point sweep; success probability is monotone non-increasing under
    gate insertion across 500 cases."""
    rng = random.Random(5005)
    worst = 0.0
    for _ in range(1000):
        k1, k2 = rng.randint(0, 50), rng.randint(0, 30)
        p1, p2 = rng.uniform(0, 0.05), rng.uniform(0, 0.1)
        d1, d2 = rng.uniform(10, 100), rng.uniform(100, 600)
        t1, t2 = rng.uniform(10, 300), rng.uniform(5, 200)
        gates = tuple([Gate("h", (0,))] * k1 + [Gate("cx", (0, 1))] * k2)
        c = Circuit(width=2, gates=gates)
        p = NoiseProfile(p1=p1, p2=p2, d1_ns=d1, d2_ns=d2,
                         t1_default_us=t1, t2_default_us=t2)
        got = gate_error_prob(c, p)
        want = mp_gate_error_rate(k1, k2, p1, p2)
        worst = max(worst, abs(got - want))
        est = success_probability(c, p)
        tau_us = (k1 * d1 + k2 * d2) / 1000.0  # serial schedule on wire 0
        want_s = mp_success_probability(k1, k2, p1, p2, tau_us, t1, t2)
        worst = max(worst, abs(est.success - want_s))
    assert worst < 1e-12, f"worst deviation {worst}"

    rng = random.Random(606)
    for _ in range(500):
        width = rng.randint(1, 5)
        c = random_circuit(rng, width, rng.randint(0, 15))
        p = NoiseProfile(
            p1=rng.uniform(0, 0.02), p2=rng.uniform(0, 0.05),
            d1_ns=rng.uniform(10, 80), d2_ns=rng.uniform(100, 500),
            t1_default_us=rng.uniform(20, 200), t2_default_us=rng.uniform(10, 100),
        )
        base = success_probability(c, p).success
        pos = rng.randint(0, len(c.gates))
        extra = random_circuit(rng, width, 1).gates
        grown = Circuit(width=width, gates=c.gates[:pos] + extra + c.gates[pos:])
        assert success_probability(grown, p).success <= base + 1e-12
    report("criterion 5 (closed-form agreement)",
           f"1000-point sweep worst deviation {worst:.2e}; 500 monotonicity cases")


def test_criterion_6_channel_physicality():
    """Kraus completeness to 1e-12 across parameter sweeps; noisy runs keep
    trace error < 1e-9 and match the full-matrix reference to 1e-9 on 50
    random circuits of <=4 qubits."""
    import numpy as np

    rng = random.Random(66)
    for _ in range(200):
        tau = rng.uniform(0, 500)
        t1 = rng.uniform(1, 300)
        ch = amplitude_damping_channel(tau, t1, p_thermal=rng.choice((0.0, rng.random())))
        assert ch.completeness_defect() < 1e-12
        ch = phase_damping_channel(tau, rng.uniform(1, 300))
        assert ch.completeness_defect() < 1e-12
        p = sorted((rng.random(), rng.random(), rng.random()))
        ch = pauli_error_channel(p[0] / 3, p[1] / 3, p[2] / 3)
        assert ch.completeness_defect() < 1e-12

    rng = random.Random(42)
    worst_dev = 0.0
    worst_trace = 0.0
    for _ in range(50):
        width = rng.randint(1, 4)
        c = random_circuit(rng, width, rng.randint(1, 12))
        from wirecut.noise import QubitCal
        prof = NoiseProfile(
            p1=rng.uniform(0, 0.02), p2=rng.uniform(0, 0.05),
            d1_ns=50.0, d2_ns=300.0,
            qubits={q: QubitCal(rng.uniform(20, 200), rng.uniform(10, 100)) for q in range(width)},
        )
        rho = density_matrix(c, prof)
        worst_trace = max(worst_trace, abs(float(np.trace(rho).real) - 1.0))
        ref = reference_density_evolution(c, prof)
        worst_dev = max(worst_dev, float(np.max(np.abs(rho - ref))))
    assert worst_trace < 1e-9
    assert worst_dev < 1e-9
    report("criterion 6 (channel physicality)",
           f"completeness sweeps OK; worst trace error {worst_trace:.2e}, "
           f"worst reference deviation {worst_dev:.2e}")


def test_criterion_7_directional_fidelity():
    """Under the bundled stress profile every benchmark fixture scores an
    uncut success probability below 0.8, and fragmented noisy execution
    reaches fidelity >= uncut noisy execution on >=4 of the 5 families.
    Exact probabilities (no shots). Runtime < 5 minutes."""
    t0 = time.time()
    profile = profile_fixture("stress")
    wins = 0
    rows = []
    for name in BENCHMARKS:
        c = circuit_fixture(name)
        assert success_probability(c, profile).success < 0.8, f"{name} not stressed"
        ideal = measure_distribution(run_ideal(c))
        f_uncut = fidelity(run_noisy(c, profile), ideal)
        plan = recursive_fragment(c, profile, threshold=0.8, seed=7)
        outputs = execute_plan(plan, profile=profile)
        f_frag = fidelity(reconstruct(outputs, plan).distribution, ideal)
        wins += f_frag >= f_uncut
        rows.append(f"{name}: {f_uncut:.3f} -> {f_frag:.3f}")
    elapsed = time.time() - t0
    assert wins >= 4, f"only {wins}/5 improved: {rows}"
    assert elapsed < 300.0
    report("criterion 7 (directional fidelity)",
           f"{wins}/5 improved [{'; '.join(rows)}], {elapsed:.1f}s")


def test_criterion_8_threshold_sweep():
    """Leaf counts are non-decreasing over a 6-point threshold sweep on
    every fixture, and at least one fixture shows a higher threshold that
    does not increase fidelity (recorded, not asserted universal)."""
    profile = profile_fixture("stress")
    thresholds = (0.0, 0.5, 0.8, 0.9, 0.95, 0.99)
    non_increasing_step = []
    for name in BENCHMARKS:
        c = circuit_fixture(name)
        ideal = measure_distribution(run_ideal(c))
        leaves = []
        fids = []
        for t in thresholds:
            plan = recursive_fragment(c, profile, threshold=t, seed=7)
            leaves.append(len(plan.leaf_fragments()))
            outputs = execute_plan(plan, profile=profile)
            fids.append(fidelity(reconstruct(outputs, plan).distribution, ideal))
        assert leaves == sorted(leaves), f"{name}: leaf counts {leaves} not monotone"
        for i in range(len(thresholds) - 1):
            if fids[i + 1] <= fids[i]:
                non_increasing_step.append((name, thresholds[i], thresholds[i + 1]))
        print(f"\n  {name}: leaves {leaves}, fidelities {[round(f, 4) for f in fids]}")
    assert non_increasing_step, "every threshold increase raised fidelity everywhere"
    report("criterion 8 (threshold sweep)",
           f"leaf monotonicity on all fixtures; fidelity non-gains at {non_increasing_step[:3]}")


def test_criterion_9_cli_determinism(tmp_path):
    """Repeating any CLI command with identical seeds yields byte-identical
    output documents."""
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["cut", "--qasm", "fixture:cat_n8", "--profile", "fixture:stress",
                         "--threshold", "0.9", "--out", str(out), "--seed", "13"]) == 0
        assert cli_main(["run", "--out", str(out), "--noisy", "--profile", "fixture:stress",
                         "--seed", "13", "--shots", "2000"]) == 0
        assert cli_main(["reconstruct", "--out", str(out), "--reference"]) == 0
        assert cli_main(["sweep", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                         "--thresholds", "0,0.9", "--noisy", "--out", str(out), "--seed", "13"]) == 0
        assert cli_main(["graph", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                         "--out", str(out)]) == 0
        outs.append(out)
    a, b = outs
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    assert names_a == names_b
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
    report("criterion 9 (determinism)",
           f"{len(names_a)} documents byte-identical across repeated runs")
