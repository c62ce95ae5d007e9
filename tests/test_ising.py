import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from oracles import brute_force_ising_ground, brute_force_min_cost
from wirecut.fragment import anneal_min_cut
from wirecut.graph import GateGraph
from wirecut.ising import (
    AnnealSchedule,
    IsingModel,
    build_ising,
    default_schedule,
    energy,
    simulated_anneal,
    spins_to_partition,
)
from wirecut.partition import partition_cost


def two_vertex_graph(w1, w2, edge_weight=1):
    edges = ((0, 1, edge_weight),) if edge_weight else ()
    return GateGraph(weights=(w1, w2), edges=edges)


def path4(weights=(0.25, 0.25, 0.25, 0.25)):
    return GateGraph(weights=tuple(weights), edges=((0, 1, 1), (1, 2, 1), (2, 3, 1)))


def random_ising(rng, n, density=0.5):
    h = tuple(rng.uniform(-1, 1) for _ in range(n))
    j = {}
    for i in range(n):
        for k in range(i + 1, n):
            if rng.random() < density:
                j[(i, k)] = rng.uniform(-1, 1)
    return IsingModel(n=n, h=h, j=j, offset=rng.uniform(-1, 1))


def test_build_ising_single_edge_coupling():
    m = build_ising(two_vertex_graph(0.3, 0.7), alpha=1.0)
    assert m.j[(0, 1)] == pytest.approx(-0.5 + 2 * 0.3 * 0.7)
    assert m.j[(0, 1)] == pytest.approx(-0.08)
    # offset carries the spin-free edge term w^2/2 = 0.5 among its pieces
    assert m.offset >= 0.5
    assert m.h == (0.0, 0.0)


def test_build_ising_isolated_pair_prefers_balanced_split():
    m = build_ising(two_vertex_graph(0.5, 0.5, edge_weight=0), alpha=1.0)
    assert m.j[(0, 1)] == pytest.approx(0.5)
    spins, _ = brute_force_ising_ground(m)
    assert spins[0] != spins[1]


def test_build_ising_alpha_zero_grounds_are_min_weighted_cuts():
    rng = random.Random(31)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 10))
        m = build_ising(g, alpha=0.0)
        spins, ground = brute_force_ising_ground(m)
        # exhaustive check: ground energy equals the minimum squared-weight
        # cut over all assignments (the empty cut included)
        def sq_cut(bits):
            return sum(w * w for u, v, w in g.edges if bits[u] != bits[v])
        best = min(sq_cut(bits) for bits in itertools.product((0, 1), repeat=g.n))
        decoded = spins_to_partition(spins)
        assert sq_cut(decoded) == pytest.approx(best)


def test_energy_examples():
    m = IsingModel(n=2, h=(1.0, -1.0), j={})
    assert energy(m, [1, 1]) == 0.0
    m2 = IsingModel(n=2, h=(0.0, 0.0), j={(0, 1): 1.0})
    assert energy(m2, [1, -1]) == -1.0
    with pytest.raises(ValueError):
        energy(m2, [1, -1, 1])


def test_energy_matches_naive_evaluator():
    rng = random.Random(37)
    for _ in range(20):
        m = random_ising(rng, rng.randint(1, 8))
        s = [rng.choice((-1, 1)) for _ in range(m.n)]
        naive = m.offset
        for i in range(m.n):
            naive += m.h[i] * s[i]
        for (i, k), val in m.j.items():
            naive += val * s[i] * s[k]
        assert energy(m, s) == pytest.approx(naive, abs=1e-12)


def test_sa_single_spin_ground():
    m = IsingModel(n=1, h=(1.0,), j={}, offset=0.25)
    res = simulated_anneal(m, AnnealSchedule(2.0, 0.01, 200), seed=3)
    assert res.spins == [-1]
    assert res.energy == pytest.approx(-1.0 + 0.25)


def test_sa_ferromagnetic_ring():
    j = {(i, i + 1): -1.0 for i in range(5)}
    j[(0, 5)] = -1.0
    m = IsingModel(n=6, h=(0.0,) * 6, j=j)
    res = simulated_anneal(m, AnnealSchedule(4.0, 0.01, 2000), seed=1, restarts=2)
    assert res.energy == pytest.approx(-6.0)
    assert len(set(res.spins)) == 1


def test_sa_deterministic_and_never_above_ground_plus_zero():
    rng = random.Random(43)
    m = random_ising(rng, 10)
    a = simulated_anneal(m, default_schedule(m, sweeps=3000), seed=9, restarts=3)
    b = simulated_anneal(m, default_schedule(m, sweeps=3000), seed=9, restarts=3)
    assert a == b
    _, ground = brute_force_ising_ground(m)
    assert a.energy >= ground - 1e-9


@st.composite
def ising_models(draw):
    n = draw(st.integers(1, 10))
    coef = st.floats(-1.0, 1.0)
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return IsingModel(
        n=n,
        h=tuple(draw(st.lists(coef, min_size=n, max_size=n))),
        j={pair: draw(coef) for pair in chosen},
        offset=draw(coef),
    )


@settings(max_examples=80, deadline=None)
@given(
    m=ising_models(),
    seed=st.integers(0, 2**32 - 1),
    sweeps=st.integers(1, 60),
    restarts=st.integers(1, 3),
)
@example(m=IsingModel(n=1, h=(0.5,), j={}), seed=0, sweeps=1, restarts=1)
def test_sa_property_deterministic_exact_and_never_below_ground(m, seed, sweeps, restarts):
    schedule = default_schedule(m, sweeps=sweeps)
    res = simulated_anneal(m, schedule, seed=seed, restarts=restarts)
    assert simulated_anneal(m, schedule, seed=seed, restarts=restarts) == res
    assert res.energy == energy(m, res.spins)
    assert res.energy >= brute_force_ising_ground(m)[1] - 1e-9


def test_sa_sweep_longer_than_randomness_block():
    # 5000 spins: one sweep spans two randomness blocks. Every local field
    # prefers -1 and the temperature is far too low for an uphill flip, so
    # the chain ends all -1 exactly when every site is proposed.
    n = 5000
    m = IsingModel(n=n, h=(1.0,) * n, j={(i, i + 1): -0.1 for i in range(n - 1)})
    schedule = AnnealSchedule(1e-3, 1e-3, 25)
    res = simulated_anneal(m, schedule, seed=4)
    assert res.spins == [-1] * n
    assert res.energy == pytest.approx(-n - 0.1 * (n - 1))
    assert simulated_anneal(m, schedule, seed=4) == res


def test_sa_schedule_validation():
    m = IsingModel(n=1, h=(1.0,), j={})
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 2.0, 100)
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 0.1, 0)
    with pytest.raises(ValueError):
        simulated_anneal(m, AnnealSchedule(1.0, 0.1, 100), restarts=0)


def test_spin_flip_symmetry_of_graph_encodings():
    rng = random.Random(47)
    g = random_connected_graph(rng, 8)
    m = build_ising(g, alpha=1.0)
    for _ in range(20):
        s = [rng.choice((-1, 1)) for _ in range(8)]
        neg = [-x for x in s]
        assert energy(m, s) == pytest.approx(energy(m, neg), abs=1e-12)
        pv, npv = spins_to_partition(s), spins_to_partition(neg)
        assert npv == [b ^ 1 for b in pv]
        assert partition_cost(pv, g) == partition_cost(npv, g)


def test_path4_proper_ground_states_are_cost_optima():
    # the weight-1 balance penalty leaves one-sided states degenerate with
    # the middle cut; every proper ground state must still be the cost optimum
    g = path4()
    m = build_ising(g, alpha=1.0)
    _, ground = brute_force_ising_ground(m)
    _, best_cost = brute_force_min_cost(g)
    found_proper = False
    for bits in itertools.product((0, 1), repeat=4):
        spins = [2 * b - 1 for b in bits]
        if abs(energy(m, spins) - ground) < 1e-12 and 0 < sum(bits) < 4:
            found_proper = True
            assert partition_cost(list(bits), g) == pytest.approx(best_cost)
    assert found_proper
    res = simulated_anneal(m, default_schedule(m, sweeps=4000), seed=2, restarts=4)
    assert res.energy == pytest.approx(ground)


def test_anneal_route_recovers_path4_optimum():
    g = path4()
    pv, cost, _ = anneal_min_cut(g, seed=0)
    _, best = brute_force_min_cost(g)
    assert cost == pytest.approx(best)
    assert pv in ([0, 0, 1, 1], [1, 1, 0, 0])


def test_spins_to_partition():
    assert spins_to_partition([1, -1]) == [1, 0]
    assert spins_to_partition([-1, -1, -1]) == [0, 0, 0]
    assert spins_to_partition([2 * b - 1 for b in (0, 1, 1, 0)]) == [0, 1, 1, 0]


def test_model_validation():
    with pytest.raises(ValueError):
        IsingModel(n=2, h=(0.0,), j={})
    with pytest.raises(ValueError):
        IsingModel(n=2, h=(0.0, 0.0), j={(1, 0): 1.0})
    with pytest.raises(ValueError):
        IsingModel(n=2, h=(0.0, math.inf), j={})
