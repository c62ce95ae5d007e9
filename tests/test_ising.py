import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from oracles import brute_force_ising_ground, brute_force_min_cost, reference_anneal
from wirecut import ising
from wirecut.fixtures import CIRCUIT_FIXTURES, circuit_fixture, profile_fixture
from wirecut.fragment import DEFAULT_SA_ALPHAS, anneal_min_cut
from wirecut.graph import GateGraph, build_graph
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
    for restarts in (0, True, 2.0):
        with pytest.raises(ValueError):
            simulated_anneal(m, AnnealSchedule(1.0, 0.1, 100), restarts=restarts)


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


@pytest.mark.parametrize("n, j", [
    (2.0, {}),
    (True, {}),
    (2, {(0.5, 1): 1.0}),
    (2, {(0, 1.0): 1.0}),
    (2, {(False, True): 1.0}),
])
def test_model_requires_an_integer_size_and_integer_coupling_keys(n, j):
    with pytest.raises(ValueError):
        IsingModel(n=n, h=(0.0,) * int(n), j=j)


@pytest.mark.parametrize("t_start, t_end", [
    (math.inf, 0.1), (math.inf, math.inf), (math.nan, 0.1), (1.0, math.nan),
])
def test_schedule_requires_finite_temperatures(t_start, t_end):
    with pytest.raises(ValueError):
        AnnealSchedule(t_start, t_end, 10)


@pytest.mark.parametrize("sweeps", [10.5, 10.0, True])
def test_schedule_requires_an_integer_sweep_count(sweeps):
    with pytest.raises(ValueError):
        AnnealSchedule(1.0, 0.1, sweeps)


ANNEAL_GOLDEN_SHA256 = "8f3e57b08f878b0f61d5223047af78780d272d3e4d8036e270481e5be8e10dd8"


def test_anneal_results_match_their_golden_hash():
    # pins every bit the annealer returns: the planner's encodings of every
    # fixture's root graph at each balance weight, and sparse models with fields
    digest = hashlib.sha256()
    stress = profile_fixture("stress")
    for name in CIRCUIT_FIXTURES:
        g = build_graph(circuit_fixture(name), stress)
        for ai, alpha in enumerate(DEFAULT_SA_ALPHAS):
            m = build_ising(g, alpha=alpha)
            res = simulated_anneal(m, default_schedule(m, sweeps=200), seed=ai, restarts=2)
            digest.update(repr((res.spins, res.energy.hex())).encode())
    rng = random.Random(53)
    for n in range(1, 31):
        m = random_ising(rng, n, density=min(1.0, 3.0 / n))
        for seed in (0, 5):
            for restarts in (1, 3):
                res = simulated_anneal(m, default_schedule(m, sweeps=100), seed=seed,
                                       restarts=restarts)
                digest.update(repr((res.spins, res.energy.hex())).encode())
    assert digest.hexdigest() == ANNEAL_GOLDEN_SHA256


def _assert_matches_reference(m, schedule, seed, restarts):
    res = simulated_anneal(m, schedule, seed=seed, restarts=restarts)
    spins, e = reference_anneal(m, schedule, seed=seed, restarts=restarts)
    assert res.spins == spins
    # [1.0, -1.0] == [1, -1]: equal values would hide float spins
    assert [type(s) for s in res.spins] == [type(s) for s in spins]
    assert res.energy.hex() == e.hex()


@st.composite
def reference_cases(draw):
    n = draw(st.integers(1, 40))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    # complete and sparse models: a missing coupling adds a zero to each field
    density = 1.0 if draw(st.booleans()) else min(1.0, 3.0 / n)
    m = random_ising(rng, n, density)
    t_start = draw(st.floats(1e-3, 5.0))
    # cold ends switch to the look-ahead, often inside a randomness block
    t_end = t_start * draw(st.sampled_from((1e-4, 1e-2, 0.3, 1.0)))
    sweeps = draw(st.integers(1, 300))
    return m, AnnealSchedule(t_start, t_end, sweeps)


@settings(max_examples=100, deadline=None)
@given(case=reference_cases(), seed=st.integers(0, 2**32 - 1), restarts=st.integers(1, 3))
def test_property_anneal_equals_the_reference_bit_for_bit(case, seed, restarts):
    m, schedule = case
    _assert_matches_reference(m, schedule, seed, restarts)


@pytest.fixture
def chain_paths(monkeypatch):
    """Count the look-ahead's calls and the proposals it finds accepted."""
    seen = {"looks": [], "hits": 0}
    next_accept = ising._next_accept

    def counted_next_accept(xs, sites, cutoffs, pos):
        found = next_accept(xs, sites, cutoffs, pos)
        seen["looks"].append(pos)
        seen["hits"] += found < len(sites)
        return found

    monkeypatch.setattr(ising, "_next_accept", counted_next_accept)
    return seen


def test_anneal_single_spin_matches_the_reference(chain_paths):
    # five randomness blocks; the chain turns cold while the uphill flip is
    # still accepted now and then, so the look-ahead finds some
    m = IsingModel(n=1, h=(0.05,), j={}, offset=0.1)
    _assert_matches_reference(m, AnnealSchedule(2.0, 0.01, 20000), seed=4, restarts=2)
    assert chain_paths["hits"] > 0


def test_anneal_without_couplings_matches_the_reference(chain_paths):
    rng = random.Random(59)
    m = IsingModel(n=12, h=tuple(rng.uniform(-1, 1) for _ in range(12)), j={})
    _assert_matches_reference(m, AnnealSchedule(1.5, 1e-3, 800), seed=2, restarts=3)
    assert chain_paths["hits"] > 0


def test_hot_anneal_never_looks_ahead(chain_paths):
    rng = random.Random(61)
    m = random_ising(rng, 20, density=1.0)
    _assert_matches_reference(m, AnnealSchedule(1e3, 1e3, 600), seed=1, restarts=2)
    assert chain_paths["looks"] == []


@pytest.mark.parametrize("density", [1.0, 0.3])
def test_cold_anneal_looks_ahead_from_inside_a_block(chain_paths, density):
    # 20 spins, 2000 sweeps: ten randomness blocks, and the chain turns cold
    # after a 512-proposal window that does not end a block
    rng = random.Random(67)
    m = random_ising(rng, 20, density=density)
    _assert_matches_reference(m, default_schedule(m, sweeps=2000), seed=8, restarts=1)
    assert chain_paths["hits"] > 0
    assert chain_paths["looks"][0] % ising._BLOCK != 0


def test_empty_model_matches_the_reference():
    # with the hot and cold tests above, every path's spins are compared
    # with the reference's ints, types included
    m = IsingModel(n=0, h=(), j={}, offset=0.5)
    _assert_matches_reference(m, AnnealSchedule(1.0, 1.0, 1), seed=0, restarts=1)
