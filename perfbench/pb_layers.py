"""Which ``wirecut`` functions the traced run wraps, and the per-layer metrics.

Each hook wraps a public function under the name its calling module uses,
so the span sits at the boundary between two layers. Layers are the
modules of ``src/wirecut``; ``oracles.py`` is left out because only the
tests use it. Totals are divided by the number of passes over the job
list, so a count repeats exactly for a given seed.
"""
from __future__ import annotations

from pb_trace import Hook, Tracer, layer_totals


def _count_anneal(t: Tracer, a: dict, result) -> None:
    t.add("ising.spin_flips", a["restarts"] * a["schedule"].sweeps * a["m"].n)


def _count_ga(t: Tracer, a: dict, result) -> None:
    t.add("partition.ga_passes", result.passes)


def _count_graph(t: Tracer, a: dict, result) -> None:
    t.add("graph.vertices", result.n)


def _count_plan(t: Tracer, a: dict, result) -> None:
    t.add("fragment.nodes", len(result.solver_log))


def _count_variants(t: Tracer, a: dict, result) -> None:
    t.add("fragment.leaves", 1)
    t.add("fragment.variants", len(result))


def _gates(c) -> int:
    return sum(1 for g in c.gates if not g.is_measurement)


def _count_noisy(t: Tracer, a: dict, result) -> None:
    width = a["c"].width
    t.add("simulate.dm_bytes", 16 * 4 ** width)
    t.add("simulate.gate_apps", _gates(a["c"]))
    t.add("simulate.variant_runs", 1)
    t.high("simulate.dm_width_max", width)


def _count_ideal(t: Tracer, a: dict, result) -> None:
    t.add("simulate.gate_apps", _gates(a["c"]))
    t.add("simulate.variant_runs", 1)


def _count_combine(t: Tracer, a: dict, result) -> None:
    t.add("reconstruct.terms", result.terms)
    t.add("reconstruct.clipped_mass", result.clipped_mass)
    t.high("reconstruct.k_max", result.k)


HOOKS = (
    Hook("wirecut.cli", "parse_qasm", "circuit.parse_qasm"),
    Hook("wirecut.cli", "load_profile", "noise.load_profile"),
    Hook("wirecut.cli", "recursive_fragment", "fragment.recursive_fragment", _count_plan),
    Hook("wirecut.cli", "execute_plan", "reconstruct.execute_plan"),
    Hook("wirecut.cli", "reconstruct", "reconstruct.reconstruct", _count_combine),
    Hook("wirecut.cli", "run_ideal", "simulate.run_ideal"),
    Hook("wirecut.cli", "measure_distribution", "simulate.measure_distribution"),
    Hook("wirecut.cli", "fidelity", "reconstruct.fidelity"),
    Hook("wirecut.cli", "tvd", "reconstruct.tvd"),
    Hook("wirecut.cli", "hellinger", "reconstruct.hellinger"),
    Hook("wirecut.cli", "fixture_text", "fixtures.fixture_text"),
    Hook("wirecut.fragment", "success_probability", "noise.success_probability"),
    Hook("wirecut.fragment", "build_graph", "graph.build_graph", _count_graph),
    Hook("wirecut.fragment", "find_min_cut_ga", "partition.find_min_cut_ga", _count_ga),
    Hook("wirecut.fragment", "anneal_min_cut", "fragment.anneal_min_cut"),
    Hook("wirecut.fragment", "build_ising", "ising.build_ising"),
    Hook("wirecut.fragment", "simulated_anneal", "ising.simulated_anneal", _count_anneal),
    Hook("wirecut.reconstruct", "enumerate_variants", "fragment.enumerate_variants",
         _count_variants),
    Hook("wirecut.reconstruct", "run_noisy", "simulate.run_noisy", _count_noisy),
    Hook("wirecut.reconstruct", "run_ideal", "simulate.run_ideal", _count_ideal),
    Hook("wirecut.reconstruct", "measure_distribution", "simulate.measure_distribution"),
)

# metric name -> (unit, the span it reads), in the order BENCHMARK.json lists
# them; a metric whose span was never installed is left out
METRICS = {
    "ising.anneal_s": ("s", "ising.simulated_anneal"),
    "ising.anneal_calls": ("count", "ising.simulated_anneal"),
    "ising.spin_flips": ("count", "ising.simulated_anneal"),
    "ising.flips_per_s": ("1/s", "ising.simulated_anneal"),
    "ising.win_frac": ("frac", None),
    "ising.cost_ratio": ("ratio", None),
    "partition.ga_s": ("s", "partition.find_min_cut_ga"),
    "partition.ga_passes": ("count", "partition.find_min_cut_ga"),
    "graph.build_s": ("s", "graph.build_graph"),
    "graph.vertices": ("count", "graph.build_graph"),
    "circuit.parse_s": ("s", "circuit.parse_qasm"),
    "noise.profile_s": ("s", "noise.load_profile"),
    "noise.estimate_s": ("s", "noise.success_probability"),
    "fragment.plan_s": ("s", "fragment.recursive_fragment"),
    "fragment.plan_self_s": ("s", "fragment.recursive_fragment"),
    "fragment.nodes": ("count", "fragment.recursive_fragment"),
    "fragment.leaves": ("count", "fragment.enumerate_variants"),
    "fragment.variants": ("count", "fragment.enumerate_variants"),
    "simulate.noisy_s": ("s", "simulate.run_noisy"),
    "simulate.noisy_runs": ("count", "simulate.run_noisy"),
    "simulate.dm_width_max": ("qubits", "simulate.run_noisy"),
    "simulate.dm_bytes": ("B", "simulate.run_noisy"),
    "simulate.ideal_s": ("s", "simulate.run_ideal"),
    "simulate.ideal_runs": ("count", "simulate.run_ideal"),
    "simulate.gate_apps": ("count", None),
    "simulate.gates_per_variant": ("count", None),
    "reconstruct.combine_s": ("s", "reconstruct.reconstruct"),
    "reconstruct.terms": ("count", "reconstruct.reconstruct"),
    "reconstruct.k_max": ("count", "reconstruct.reconstruct"),
    "reconstruct.clipped_mass_mean": ("prob", "reconstruct.reconstruct"),
    "reconstruct.execute_self_s": ("s", "reconstruct.execute_plan"),
    "cli.self_s": ("s", None),
    "cli.doc_bytes": ("B", None),
    "trace.job_s": ("s", None),
    "trace.overhead_frac": ("frac", None),
}
UNITS = {name: unit for name, (unit, _) in METRICS.items()}


def layer_metrics(tracer: Tracer, passes: int, missing, plan_facts: dict,
                  doc_bytes: float, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics of a traced run, per pass over the job list.

    ``plan_facts`` carries the solver comparison read from plan documents
    (``win_frac``, ``cost_ratio``); ``doc_bytes`` is the bytes the jobs of
    one pass wrote.
    """
    total, own, calls = layer_totals(tracer.spans)
    c, hi = tracer.counts, tracer.maxima

    def t(name):
        return total.get(name, 0.0) / passes

    def n(key):
        return c.get(key, 0.0) / passes

    m = {
        "ising.anneal_s": t("ising.simulated_anneal"),
        "ising.anneal_calls": calls.get("ising.simulated_anneal", 0) / passes,
        "ising.spin_flips": n("ising.spin_flips"),
        "ising.win_frac": plan_facts["win_frac"],
        "ising.cost_ratio": plan_facts["cost_ratio"],
        "partition.ga_s": t("partition.find_min_cut_ga"),
        "partition.ga_passes": n("partition.ga_passes"),
        "graph.build_s": t("graph.build_graph"),
        "graph.vertices": n("graph.vertices"),
        "circuit.parse_s": t("circuit.parse_qasm"),
        "noise.profile_s": t("noise.load_profile"),
        "noise.estimate_s": t("noise.success_probability"),
        "fragment.plan_s": t("fragment.recursive_fragment"),
        "fragment.plan_self_s": own.get("fragment.recursive_fragment", 0.0) / passes,
        "fragment.nodes": n("fragment.nodes"),
        "fragment.leaves": n("fragment.leaves"),
        "fragment.variants": n("fragment.variants"),
        "simulate.noisy_s": t("simulate.run_noisy"),
        "simulate.noisy_runs": calls.get("simulate.run_noisy", 0) / passes,
        "simulate.dm_width_max": hi.get("simulate.dm_width_max", 0),
        "simulate.dm_bytes": n("simulate.dm_bytes"),
        "simulate.ideal_s": t("simulate.run_ideal") + t("simulate.measure_distribution"),
        "simulate.ideal_runs": calls.get("simulate.run_ideal", 0) / passes,
        "simulate.gate_apps": n("simulate.gate_apps"),
        "reconstruct.combine_s": t("reconstruct.reconstruct"),
        "reconstruct.terms": n("reconstruct.terms"),
        "reconstruct.k_max": hi.get("reconstruct.k_max", 0),
        "reconstruct.execute_self_s": own.get("reconstruct.execute_plan", 0.0) / passes,
        "cli.self_s": own.get("cli.main", 0.0) / passes,
        "cli.doc_bytes": doc_bytes,
        "trace.job_s": t("cli.main"),
        "trace.overhead_frac": overhead_frac,
    }
    anneal_s = m["ising.anneal_s"]
    m["ising.flips_per_s"] = m["ising.spin_flips"] / anneal_s if anneal_s > 0 else 0.0
    runs = c.get("simulate.variant_runs", 0.0)
    m["simulate.gates_per_variant"] = c.get("simulate.gate_apps", 0.0) / runs if runs else 0.0
    combines = calls.get("reconstruct.reconstruct", 0)
    m["reconstruct.clipped_mass_mean"] = (
        c.get("reconstruct.clipped_mass", 0.0) / combines if combines else 0.0
    )
    gone = {hook.span for hook in missing}
    return {name: m[name] for name, (_, span) in METRICS.items() if span not in gone}
