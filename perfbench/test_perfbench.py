"""Tests of the benchmark's own logic; they run no workload."""
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pb_jobs import WORKLOADS, job_sources, percentile, random_qasm, summarize, variant_work
from pb_layers import layer_metrics
from pb_speed import SpeedProbe, probe
from pb_trace import Hook, Span, Tracer, covered, layer_totals, self_times, traced


def test_percentile_is_nearest_rank():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0]
    assert percentile(xs, 50) == 5.0
    assert percentile(xs, 90) == 9.0
    assert percentile(xs, 100) == 10.0
    assert percentile(xs, 0) == 1.0
    assert percentile([2.5], 90) == 2.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_summary_reports_sample_count_and_rate():
    s = summarize([1.0, 2.0, 3.0, 4.0, 10.0, 0.5, 0.5, 0.5, 0.5])
    assert s["samples"] == 9
    assert s["jobs_per_s"] == pytest.approx(9 / 22.0)
    assert s["job_s_p50"] == 1.0  # 5th of 9 sorted samples
    assert s["job_s_p90"] == 10.0  # 9th of 9


def test_covered_merges_overlaps():
    assert covered([]) == 0.0
    assert covered([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)


def test_self_time_is_span_minus_covered_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),  # overlaps a: counted once
        Span("a.child", 1.5, 2.5, 1, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped to the parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert own[1] == pytest.approx(2.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    total, own_by_name, calls = layer_totals(spans)
    assert total["a"] == pytest.approx(2.0) and own_by_name["a"] == pytest.approx(1.0)
    assert calls == {"root": 1, "a": 1, "b": 1, "a.child": 1, "c": 1}


def test_tracer_nests_spans_under_the_open_one():
    ticks = iter(range(100))
    t = Tracer(clock=lambda: float(next(ticks)))
    t.job = 3
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert [(s.name, s.parent, s.job) for s in t.spans] == [("outer", None, 3), ("inner", 0, 3)]
    assert self_times(t.spans) == [2.0, 1.0]


def _first_candidates(workload, seed):
    out = []
    for name, family, source in job_sources(workload, seed):
        if family == "random":
            spec, rng = source
            out.append((name, random_qasm(rng, spec.width, spec.n2q, spec.n1q, spec.chain)))
        else:
            out.append((name, source))
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_jobs_other_seed_other_circuits(name):
    w = WORKLOADS[name]
    a, b, c = (_first_candidates(w, s) for s in (11, 11, 12))
    assert a == b
    assert [n for n, _ in a] == [n for n, _ in c]
    randoms = [i for i, (n, _) in enumerate(a) if n.startswith("random_")]
    assert randoms
    assert all(a[i][1] != c[i][1] for i in randoms)


def test_random_circuit_has_the_requested_two_qubit_gates():
    import random

    text = random_qasm(random.Random(1), 8, 20, 12, chain=False)
    body = [ln for ln in text.splitlines() if ln.startswith(("cx ", "cz "))]
    assert len(body) == 20
    assert text.count("measure") == 8


def test_variant_work_counts_what_enumeration_runs():
    from wirecut.fixtures import circuit_fixture, profile_fixture
    from wirecut.fragment import enumerate_variants, plan_to_dict, recursive_fragment

    plan = recursive_fragment(circuit_fixture("su2_n8"), profile_fixture("stress"), 0.95,
                              seed=7, solver="ga")
    variants = [v for leaf in plan.leaf_fragments() for v in enumerate_variants(leaf)]
    work = variant_work(json.loads(json.dumps(plan_to_dict(plan))))
    assert work == {
        "variants": len(variants),
        "gate_apps": sum(1 for v in variants for g in v.circuit.gates if not g.is_measurement),
        "dm_bytes": sum(16 * 4 ** v.circuit.width for v in variants),
    }


@pytest.fixture
def fake_module():
    mod = types.ModuleType("pb_fake_layer")
    mod.double = lambda x: 2 * x
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_missing_wrapped_function_leaves_its_layer_absent(fake_module):
    original = fake_module.double
    hooks = (
        Hook("pb_fake_layer", "double", "fake.double",
             lambda t, a, r: t.add("fake.items", a["x"])),
        Hook("pb_fake_layer", "gone", "simulate.run_noisy"),
        Hook("pb_no_such_module", "anything", "reconstruct.reconstruct"),
    )
    tracer = Tracer()
    with traced(tracer, hooks) as missing:
        assert fake_module.double(4) == 8
    assert fake_module.double is original
    assert [h.attr for h in missing] == ["gone", "anything"]
    assert [s.name for s in tracer.spans] == ["fake.double"]
    assert tracer.counts["fake.items"] == 4

    m = layer_metrics(tracer, 1, missing, {"win_frac": 0.0, "cost_ratio": 0.0}, 0.0, 0.0)
    assert "simulate.noisy_s" not in m and "simulate.dm_bytes" not in m
    assert "reconstruct.combine_s" not in m and "reconstruct.terms" not in m
    assert m["ising.anneal_s"] == 0.0 and "cli.self_s" in m


def test_untraced_run_survives_when_every_hook_is_missing(fake_module):
    tracer = Tracer()
    with traced(tracer, (Hook("pb_fake_layer", "gone", "x.gone"),)) as missing:
        assert fake_module.double(1) == 2
    assert len(missing) == 1 and tracer.spans == []


def test_speed_probe_samples_inside_the_region_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sp = SpeedProbe(period=0.01, ref_probe_s=0.002, work=lambda: time.sleep(0.001))
    with sp.region() as r:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert r.samples >= 5 and r.samples == len(sp.samples)
    assert r.seconds == pytest.approx(r.wall_s - sum(sp.samples))
    assert r.ref_s == pytest.approx(r.seconds * 0.002 / r.probe_mean_s)
    # a region shorter than one period is sampled once, right after it ends
    with sp.region() as short:
        pass
    assert short.samples == 0 and short.seconds == short.wall_s
    assert short.probe_mean_s == sp.samples[-1] and short.ref_s > 0


def test_probe_work_is_fixed():
    assert probe() == probe()
