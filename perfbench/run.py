"""Benchmark of the wirecut pipeline: cut, run and reconstruct, in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload plan|noisy|recon --seed N --seconds S --trace 0|1

One client drives ``wirecut.cli.main`` in a closed loop from this process,
with no threads: each job starts when the previous one has finished. The
loop runs whole passes over the workload's job list until ``--seconds``
have passed (at least one pass). With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the same loop untraced and
then traced, and prints the per-layer metrics. The last line of standard
output is the result; the line before it is a report with the
environment, exact work counts and per-job figures. The exit code is 0
only when every check held. See README.md beside this file.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from pb_jobs import (
    DIRECTIONAL_FAMILIES, RESTARTS, SWEEPS, WORKLOADS, check_job, choose_circuits,
    job_documents, prepare, run_job, summarize,
)
from pb_layers import HOOKS, UNITS, layer_metrics
from pb_speed import SpeedProbe
from pb_trace import Tracer, traced

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fidelity_mean": "fidelity",
    "cut_cost_mean": "cost",
    "k_mean": "cuts",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("plan", "noisy", "recon"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Run:
    """Every job execution of one benchmark run, with its checks."""

    def __init__(self, workload, main, probe=None):
        self.workload = workload
        self.main = main
        self.probe = probe
        self.ref_times: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, dict] = {}

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.problems += problems

    def execute(self, job, tracer=None) -> tuple[float, dict | None]:
        """Run ``job`` once and check it; returns its seconds and facts.

        With a speed probe the seconds exclude the probe's own time, and
        the job's reference time is kept in ``ref_times``.
        """
        if self.probe is None:
            elapsed, codes, errors = run_job(self.main, job, tracer)
        else:
            with self.probe.region() as region:
                _, codes, errors = run_job(self.main, job, tracer)
            elapsed = region.seconds
            self.ref_times.setdefault(job.name, []).append(region.ref_s)
        self.attempted += 1
        docs = job_documents(job)
        facts, problems = check_job(self.workload, job, codes, errors, docs)
        if facts is not None:
            first = self.digests.setdefault(job.name, facts["digests"])
            if first != facts["digests"]:
                problems.append(f"{job.name}: repeated documents differ")
        if problems:
            self.fail(problems)
        return elapsed, facts

    def passes(self, jobs, seconds: float, tracer=None):
        """Whole passes over ``jobs`` until ``seconds`` have passed.

        With a tracer each job runs untraced and then traced, back to back,
        so both executions see the same machine; the traced executions form
        the traced run. Returns both record lists, the pass count and the
        hooks whose function was missing.
        """
        plain, with_trace, missing = [], [], []
        passes = 0
        start = time.perf_counter()
        while passes == 0 or time.perf_counter() - start < seconds:
            for job in jobs:
                plain.append((job, *self.execute(job)))
                if tracer is not None:
                    tracer.job = len(with_trace)
                    with traced(tracer, HOOKS) as missing:
                        with_trace.append((job, *self.execute(job, tracer)))
            passes += 1
        return plain, with_trace, passes, missing


def setup(workload, seed: int, work: Path, run: Run, probe: SpeedProbe):
    """Draw the circuits once, then prepare the job inputs ``SETUP_REPEATS`` times.

    Returns the first set of jobs, each set-up's wall and reference time,
    and the time the circuit draw took.
    """
    t0 = time.perf_counter()
    circuits = choose_circuits(workload, seed, work / "draw")
    draw_s = time.perf_counter() - t0
    times, ref_times = [], []
    prepared = []
    for rep in range(SETUP_REPEATS):
        with probe.region() as region:
            prepared.append(prepare(workload, circuits, work / f"setup{rep}"))
        times.append(region.seconds)
        ref_times.append(region.ref_s)
    jobs, first_docs = prepared[0]
    for _, docs in prepared[1:]:
        for name, digest in docs.items():
            run.attempted += 1
            if digest != first_docs[name]:
                run.fail([f"{name}: repeated set-up plan documents differ"])
    return jobs, times, ref_times, draw_s


def direct_fidelities(jobs) -> dict[str, float]:
    """Noisy fidelity of each uncut fixture circuit against its ideal distribution."""
    from wirecut.circuit import parse_qasm
    from wirecut.fixtures import profile_fixture
    from wirecut.reconstruct import fidelity
    from wirecut.simulate import measure_distribution, run_ideal, run_noisy

    profile = profile_fixture("stress")
    out = {}
    for job in jobs:
        if job.family != "random":
            c = parse_qasm(job.qasm.read_text(encoding="utf-8"), name=job.name)
            out[job.name] = fidelity(run_noisy(c, profile), measure_distribution(run_ideal(c)))
    return out


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def quality(records) -> dict[str, float]:
    """Figures read from the documents, the same on every pass."""
    facts = [f for _, _, f in records if f is not None]
    costs = [c for f in facts for c in f["chosen_costs"]]
    ratios = [r for f in facts for r in f.get("cost_ratios", ()) if math.isfinite(r)]
    nodes = sum(f["nodes"] for f in facts)
    if facts and "fidelity" in facts[0]:
        fid = _mean(f["fidelity"] for f in facts)
    else:  # plan: nothing is simulated; the noise model's estimate per leaf
        fid = _mean(_mean(f["leaf_success"]) for f in facts)
    return {
        "fidelity_mean": fid,
        "cut_cost_mean": _mean(costs),
        "k_mean": _mean(f["k"] for f in facts),
        "win_frac": sum(f.get("anneal_wins", 0) for f in facts) / nodes if nodes else 0.0,
        "cost_ratio": _mean(ratios),
    }


def work_counts(workload, jobs, records) -> dict:
    """Exact work of one pass, read from the plan and reconstruction documents."""
    from wirecut.fragment import DEFAULT_SA_ALPHAS

    first = records[: len(jobs)]
    counts = {
        "ising.spin_flips": 0,
        "fragment.variants": sum(j.work.get("variants", 0) for j in jobs),
        "simulate.dm_bytes": sum(j.work.get("dm_bytes", 0) for j in jobs)
        if workload.name == "noisy" else 0,
        "reconstruct.terms": sum(f["terms"] for _, _, f in first if f and "terms" in f),
        "simulate.gate_apps": sum(j.work.get("gate_apps", 0) for j in jobs),
    }
    if workload.name == "plan":
        per_vertex = len(DEFAULT_SA_ALPHAS) * int(RESTARTS) * int(SWEEPS)
        counts["ising.spin_flips"] = sum(
            f["node_vertices"] * per_vertex for _, _, f in first if f
        )
    v = counts["fragment.variants"]
    counts["simulate.gates_per_variant"] = counts["simulate.gate_apps"] / v if v else 0.0
    return counts


def per_job(records, direct: dict[str, float]) -> dict:
    table: dict[str, dict] = {}
    for job, elapsed, facts in records:
        row = table.setdefault(job.name, {"seconds": []})
        row["seconds"].append(elapsed)
        if facts:
            row["k"] = facts["k"]
            if "fidelity" in facts:
                row["fidelity"] = facts["fidelity"]
        if job.name in direct:
            row["direct_fidelity"] = direct[job.name]
    for row in table.values():
        row["seconds"] = statistics.median(row["seconds"])
    return table


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wirecut" / "cli.py").is_file():
        print(f"error: no wirecut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from wirecut.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    probe = SpeedProbe()
    # the traced run pairs untraced and traced executions itself and
    # reports no end-to-end metric, so its jobs run without the probe
    run = Run(workload, cli_main, None if args.trace else probe)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    report: dict = {"env": environment(args)}
    try:
        jobs, setup_times, setup_ref, draw_s = setup(workload, args.seed, work, run, probe)
        tracer = Tracer() if args.trace else None
        records, traced_records, passes, missing = run.passes(jobs, args.seconds, tracer)
        if passes == 1 and tracer is None:
            # one pass repeated nothing: run one of the faster half again and
            # compare its documents
            fast = sorted(records, key=lambda r: r[1])[: (len(records) + 1) // 2]
            run.execute(sorted(fast, key=lambda r: r[0].name)[args.seed % len(fast)][0])
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        direct = direct_fidelities(jobs) if workload.name == "noisy" else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(base.iterdir()):
            base.rmdir()

    # the claim of acceptance criterion 7 fails a job; other families are reported
    below_direct = set()
    for job, _, facts in records:
        if job.name in direct and facts is not None and facts["fidelity"] < direct[job.name]:
            if job.family in DIRECTIONAL_FAMILIES:
                run.fail([f"{job.name}: fragmented fidelity {facts['fidelity']:.5f} "
                          f"below direct {direct[job.name]:.5f}"])
            below_direct.add(job.name)
    timing = summarize([elapsed for _, elapsed, _ in records])
    q = quality(records)
    report.update(
        draw_s=draw_s,
        setup_s_reps=setup_ref,
        setup_wall_s_reps=setup_times,
        speed_probe=probe.summary(),
        passes=passes,
        timing=timing,
        attempted=run.attempted,
        failed=run.failed,
        fail_frac=run.failed / run.attempted,
        failures=run.problems[:20],
        counts=work_counts(workload, jobs, records),
        jobs=per_job(records, direct),
        fragmented_below_direct=sorted(below_direct),
    )
    if args.trace:
        untraced_rate = timing["jobs_per_s"]
        traced_rate = summarize([elapsed for _, elapsed, _ in traced_records])["jobs_per_s"]
        doc_bytes = sum(f["doc_bytes"] for _, _, f in traced_records if f) / passes
        metrics = layer_metrics(
            tracer, passes, missing, quality(traced_records), doc_bytes,
            (untraced_rate - traced_rate) / untraced_rate,
        )
        units = UNITS
        job_s = metrics.get("trace.job_s", 0.0)
        report["missing_hooks"] = [f"{h.module}.{h.attr}" for h in missing]
        report["layer_shares"] = {
            name: metrics[name] / job_s
            for name in ("ising.anneal_s", "partition.ga_s", "simulate.noisy_s",
                         "simulate.ideal_s", "reconstruct.combine_s", "cli.self_s")
            if name in metrics and job_s > 0
        }
    else:
        # each job's median over the passes, so one disturbed pass does not count
        ref_pass_s = sum(statistics.median(run.ref_times[job.name]) for job in jobs)
        report["wall"] = {"setup_s": statistics.median(setup_times),
                          "jobs_per_s": timing["jobs_per_s"]}
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "jobs_per_s": len(jobs) / ref_pass_s,
            "peak_rss_mb": peak_rss_mb,
            "fidelity_mean": q["fidelity_mean"],
            "cut_cost_mean": q["cut_cost_mean"],
            "k_mean": q["k_mean"],
        }
        units = E2E_UNITS
    print(json.dumps({"report": report}, sort_keys=True))
    correct = not run.problems
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
