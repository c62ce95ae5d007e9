import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from oracles import brute_force_min_cost, greedy_descent
from wirecut import partition
from wirecut.graph import GateGraph
from wirecut.partition import crossover, cut_size, find_min_cut_ga, partition_cost


def path_graph(weights, edge_weights=None):
    n = len(weights)
    edge_weights = edge_weights or [1] * (n - 1)
    edges = tuple((i, i + 1, w) for i, w in enumerate(edge_weights))
    return GateGraph(weights=tuple(weights), edges=edges)


UNIFORM4 = path_graph([0.25] * 4)


def test_cut_size_path():
    assert cut_size([0, 0, 1, 1], UNIFORM4) == 1
    assert cut_size([0, 0, 0, 0], UNIFORM4) == 0
    assert cut_size([0, 1, 0, 1], UNIFORM4) == 3


def test_cut_size_counts_edge_weights():
    g = path_graph([0.5, 0.5], edge_weights=[2])
    assert cut_size([0, 1], g) == 2


def test_cut_size_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        cut_size([0, 1], UNIFORM4)


def test_partition_cost_two_vertices():
    g = path_graph([0.5, 0.5])
    assert partition_cost([0, 1], g) == pytest.approx(4.0)


def test_partition_cost_one_sided_is_infinite():
    assert partition_cost([0, 0, 0, 0], UNIFORM4) == math.inf
    assert partition_cost([1, 1, 1, 1], UNIFORM4) == math.inf


def test_partition_cost_middle_cut_is_brute_force_minimum():
    assert partition_cost([0, 0, 1, 1], UNIFORM4) == pytest.approx(4.0)
    _, best = brute_force_min_cost(UNIFORM4)
    assert best == pytest.approx(4.0)


def test_crossover_examples():
    assert crossover([1, 1, 1, 1], [0, 0, 0, 0], 0.5) == [1, 1, 0, 0]
    assert crossover([1, 0, 1, 0], [1, 0, 1, 0], 0.5) == [1, 0, 1, 0]
    assert crossover([1, 0, 1, 0], [0, 1, 0, 1], 0.25) == [1, 1, 0, 1]
    with pytest.raises(ValueError):
        crossover([0, 1], [0, 1, 1])


def test_label_flip_invariance():
    rng = random.Random(2)
    for _ in range(30):
        g = random_connected_graph(rng, rng.randint(2, 10))
        pv = [rng.randint(0, 1) for _ in range(g.n)]
        flipped = [b ^ 1 for b in pv]
        assert cut_size(pv, g) == cut_size(flipped, g)
        assert partition_cost(pv, g) == partition_cost(flipped, g)


def test_weight_scaling_scales_cost_and_keeps_argmin():
    rng = random.Random(8)
    for _ in range(10):
        n = rng.randint(3, 10)
        g = random_connected_graph(rng, n)
        lam = rng.uniform(0.5, 3.0)
        scaled = GateGraph(
            weights=tuple(w * lam for w in g.weights),
            edges=g.edges,
        )
        pv = [rng.randint(0, 1) for _ in range(n)]
        c = partition_cost(pv, g)
        cs = partition_cost(pv, scaled)
        if math.isinf(c):
            assert math.isinf(cs)
        else:
            assert cs == pytest.approx(c / lam, rel=1e-12)
        # argmin sets agree under exhaustive enumeration
        pv_a, _ = brute_force_min_cost(g)
        pv_b, _ = brute_force_min_cost(scaled)
        assert partition_cost(pv_a, g) == pytest.approx(partition_cost(pv_b, g), rel=1e-9)


def test_ga_on_uniform_path():
    res = find_min_cut_ga(UNIFORM4, 1)
    assert res.cost == pytest.approx(4.0)
    assert res.partition in ([0, 0, 1, 1], [1, 1, 0, 0])


def test_ga_two_vertex_graph():
    g = path_graph([0.3, 0.7])
    res = find_min_cut_ga(g, 0)
    assert sorted(res.partition) == [0, 1]
    assert res.cost == pytest.approx(1.0 / 0.3 + 1.0 / 0.7)
    assert res.cost == pytest.approx(4.761904761904762)


def test_ga_returns_proper_partition():
    rng = random.Random(17)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 12))
        res = find_min_cut_ga(g, rng.randint(0, 999))
        assert 0 < sum(res.partition) < g.n
        assert math.isfinite(res.cost)


def test_ga_deterministic_given_seed():
    rng = random.Random(19)
    g = random_connected_graph(rng, 12)
    a = find_min_cut_ga(g, 42)
    b = find_min_cut_ga(g, 42)
    assert a == b


def test_ga_trace_is_non_increasing():
    rng = random.Random(23)
    for _ in range(10):
        g = random_connected_graph(rng, rng.randint(4, 14))
        res = find_min_cut_ga(g, 7)
        assert all(res.trace[i + 1] <= res.trace[i] for i in range(len(res.trace) - 1))


def test_ga_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        find_min_cut_ga(path_graph([1.0]))


GA_GOLDEN_SHA256 = "12bc87eaecd884a5b61d11cb8a04e4ca797e501067c8030c7aaceb234a032ac4"


def test_ga_results_match_their_golden_hash():
    # pins every bit the GA returns, so a faster search must be the same search
    digest = hashlib.sha256()
    rng = random.Random(23)
    for n in (2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 150):
        g = random_connected_graph(rng, n)
        for seed in (0, 1, 7):
            r = find_min_cut_ga(g, seed)
            fields = (r.partition, r.cost.hex(), r.passes, [c.hex() for c in r.trace])
            digest.update(repr(fields).encode())
    assert digest.hexdigest() == GA_GOLDEN_SHA256


def test_tournament_draws_what_sample_and_min_draw():
    assert partition.POPULATION > 21  # sample's set branch, which _tournament follows
    for seed in range(400):
        costs = random.Random(seed).choices((0.5, 1.0, 2.0, math.inf), k=partition.POPULATION)
        pop = [(c, [i]) for i, c in enumerate(costs)]  # equal costs, distinct vectors
        expected, actual = random.Random(seed), random.Random(seed)
        for _ in range(5):
            want = min(expected.sample(pop, 3), key=lambda t: t[0])
            assert partition._tournament(actual.getrandbits, pop) is want
        assert actual.getstate() == expected.getstate()


def test_seeding_bits_draw_what_randint_draws():
    for seed in range(200):
        n = 2 + seed % 150
        expected, actual = random.Random(seed), random.Random(seed)
        want = [expected.randint(0, 1) for _ in range(n)]
        assert partition._random_bits(actual.getrandbits, n) == want
        assert actual.getstate() == expected.getstate()


@st.composite
def graph_and_vector(draw):
    n = draw(st.integers(2, 40))
    g = random_connected_graph(random.Random(draw(st.integers(0, 2**32))), n)
    kind = draw(st.sampled_from(("random", "zeros", "ones")))
    if kind == "random":
        pv = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    else:
        pv = [int(kind == "ones")] * n
    return g, pv


@settings(max_examples=200, deadline=None)
@given(case=graph_and_vector())
def test_property_gain_tracked_refine_is_the_resumming_descent(case):
    g, pv = case
    want_vec, want_cost = greedy_descent(g, pv)
    vec = list(pv)
    cost = partition._Scorer(g).refine(vec)
    assert vec == want_vec
    assert cost.hex() == want_cost.hex()


def test_refine_memo_holds_at_most_two_generations(monkeypatch):
    generations: list[set[bytes]] = []  # the inputs refined in each generation
    calls = []

    class Spy(partition._Scorer):
        def next_generation(self):
            super().next_generation()
            generations.append(set())

        def refine(self, pv):
            generations[-1].add(bytes(pv))
            calls.append(1)
            cost = super().refine(pv)
            previous = generations[-2] if len(generations) > 1 else set()
            assert set(self.memo) <= generations[-1]
            assert set(self.older) <= previous
            assert len(self.memo) + len(self.older) <= 2 * partition.POPULATION
            return cost

    g = random_connected_graph(random.Random(3), 40)
    plain = find_min_cut_ga(g, 5)
    monkeypatch.setattr(partition, "_Scorer", Spy)
    assert find_min_cut_ga(g, 5) == plain
    assert sum(map(len, generations)) < len(calls)  # the memo answered some calls
