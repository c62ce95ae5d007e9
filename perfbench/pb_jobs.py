"""Workloads, their seeded inputs, one job's execution and its checks.

A job is one or two ``wirecut`` command lines run in-process through
``wirecut.cli.main`` against a job directory. Inputs are QASM files: the
bundled fixtures copied out, plus random circuits drawn from the
benchmark seed. Random circuits are kept only when a GA-only set-up plan
gives them the shape their role needs (the cut count ``k`` and the amount
of work), so that the work in a pass stays alike from seed to seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PROFILE = "fixture:stress"
CLI_SEED = "7"  # the program's own seed; the benchmark seed only draws circuits
SWEEPS = "1000"
RESTARTS = "4"
MAX_ATTEMPTS = 300
# criterion 7 of the acceptance suite claims fragmented noisy fidelity beats
# direct noisy fidelity on these five families only
DIRECTIONAL_FAMILIES = ("ghz_n10", "cat_n8", "bv_n9", "adder_n8", "su2_n8")

ONE_QUBIT = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "rx", "ry", "rz")


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(xs)))
    return xs[rank - 1]


def summarize(times) -> dict:
    """Closed-loop throughput and job-time percentiles, with the sample count."""
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": percentile(times, 50),
        "job_s_p90": percentile(times, 90),
        "samples": len(times),
    }


def random_qasm(rng: random.Random, width: int, n2q: int, n1q: int, chain: bool) -> str:
    """OPENQASM 2.0 text with exactly ``n2q`` nearest-neighbour two-qubit gates.

    ``chain`` walks the two-qubit gates along the line one step at a time,
    so they run one after another like an entangler chain; otherwise each
    lands on a uniformly drawn neighbouring pair.
    """
    slots = [2] * n2q + [1] * n1q
    rng.shuffle(slots)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{width}];", f"creg c[{width}];"]
    pos = rng.randrange(width - 1)
    for kind in slots:
        if kind == 2:
            if chain:
                pos = min(max(pos + rng.choice((-1, 1)), 0), width - 2)
            else:
                pos = rng.randrange(width - 1)
            a, b = rng.choice(((pos, pos + 1), (pos + 1, pos)))
            lines.append(f"{rng.choice(('cx', 'cz'))} q[{a}],q[{b}];")
        else:
            name = rng.choice(ONE_QUBIT)
            q = rng.randrange(width)
            if name.startswith("r"):
                lines.append(f"{name}({rng.uniform(0.0, 2.0 * math.pi):.6f}) q[{q}];")
            else:
                lines.append(f"{name} q[{q}];")
    lines += [f"measure q[{i}] -> c[{i}];" for i in range(width)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Plan documents
# ---------------------------------------------------------------------------

def plan_leaves(doc: dict) -> list[dict]:
    """Leaf nodes of a plan document's tree, in the program's leaf order."""
    out = []

    def walk(node):
        if not node.get("children"):
            out.append(node)
        for child in node.get("children", ()):
            walk(child)

    walk(doc["tree"])
    return out


def plan_shape(doc: dict) -> dict:
    """Facts of a plan document used to select random circuits and to report."""
    log = doc["solver_log"]
    leaves = plan_leaves(doc)
    widths = [leaf["fragment"]["circuit"]["width"] for leaf in leaves]
    return {
        "k": doc["k"],
        "node_vertices": sum(entry["vertices"] for entry in log),
        "max_width": max(widths),
        "leaf_success": [leaf["success"] for leaf in leaves],
    }


def variant_work(doc: dict) -> dict:
    """Exact work a plan defines: variants, gate applications, density-matrix bytes.

    Each variant applies the leaf's gates plus its preparations and basis
    changes. Over the four initial states an in-cut adds 0+1+1+2 gates and
    over the three bases an out-cut adds 0+1+2, so every cut adds one gate
    per variant on average, and the sum is exact.
    """
    variants = gate_apps = dm_bytes = 0
    for leaf in plan_leaves(doc):
        frag = leaf["fragment"]
        n_in, n_out = len(frag["in_cuts"]), len(frag["out_cuts"])
        count = 3 ** n_out * 4 ** n_in
        body = sum(1 for g in frag["circuit"]["gates"] if g["name"] != "measure")
        variants += count
        gate_apps += count * (body + n_in + n_out)
        dm_bytes += count * 16 * 4 ** frag["circuit"]["width"]
    return {"variants": variants, "gate_apps": gate_apps, "dm_bytes": dm_bytes}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RandomSpec:
    """A random-circuit role: its generator settings and the plan shape it needs."""

    label: str
    width: int
    n2q: int
    n1q: int
    chain: bool
    accept: Callable[[dict], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    threshold: float
    fixtures: tuple[str, ...]
    randoms: tuple[RandomSpec, ...]


@dataclass(frozen=True)
class Job:
    name: str
    family: str  # fixture name, or "random"
    qasm: Path
    out: Path
    argvs: tuple[tuple[str, ...], ...]
    work: dict = field(default_factory=dict, compare=False)


# Why each workload exists and which layer it loads is in README.md. Random
# roles fix k and bound the work (plan-node vertices, which set the
# annealer's flips; gate applications, which set the noisy simulation), so
# a pass costs about the same under every seed.
WORKLOADS = {
    "plan": Workload(
        name="plan",
        threshold=0.8,
        fixtures=("cat_n8", "bv_n9", "ghz_n10", "su2_n8", "clusters_n8", "adder_n8"),
        randoms=(
            RandomSpec("r6", 10, 6, 24, True, lambda s: s["k"] == 1),
            RandomSpec("r20", 8, 20, 24, False,
                       lambda s: s["k"] == 8 and 47 <= s["node_vertices"] <= 51),
            RandomSpec("r48", 8, 48, 40, False,
                       lambda s: s["k"] == 8 and 112 <= s["node_vertices"] <= 120),
        ),
    ),
    "noisy": Workload(
        name="noisy",
        threshold=0.8,
        fixtures=("cat_n8", "bv_n9", "ghz_n10", "su2_n8", "clusters_n8", "adder_n8"),
        randoms=(
            RandomSpec("r8", 9, 8, 10, True,
                       lambda s: s["k"] == 1 and s["max_width"] <= 6),
            RandomSpec("r24a", 8, 24, 24, False,
                       lambda s: s["k"] == 7 and s["max_width"] <= 5
                       and 2400 <= s["gate_apps"] <= 3600),
            RandomSpec("r24b", 8, 24, 24, False,
                       lambda s: s["k"] == 7 and s["max_width"] <= 5
                       and 2400 <= s["gate_apps"] <= 3600),
        ),
    ),
    "recon": Workload(
        name="recon",
        threshold=0.95,
        fixtures=("cat_n8", "ghz_n10", "su2_n8", "clusters_n8", "adder_n8"),
        randoms=(
            RandomSpec("r7q", 7, 6, 8, False, lambda s: s["k"] == 6),
            RandomSpec("r8q", 8, 6, 8, False, lambda s: s["k"] == 6),
        ),
    ),
}


def _job_argvs(workload: Workload, qasm: Path, out: Path) -> tuple[tuple[str, ...], ...]:
    if workload.name == "plan":
        return ((
            "cut", "--qasm", str(qasm), "--profile", PROFILE,
            "--threshold", str(workload.threshold), "--solver", "both",
            "--sweeps", SWEEPS, "--restarts", RESTARTS, "--seed", CLI_SEED,
            "--out", str(out),
        ),)
    run = ("run", "--out", str(out), "--seed", CLI_SEED)
    if workload.name == "noisy":
        run += ("--noisy", "--profile", PROFILE)
    return (run, ("reconstruct", "--out", str(out), "--reference"))


def _setup_cut(main, workload: Workload, qasm: Path, out: Path) -> dict:
    argv = [
        "cut", "--qasm", str(qasm), "--profile", PROFILE,
        "--threshold", str(workload.threshold), "--solver", "ga",
        "--seed", CLI_SEED, "--out", str(out),
    ]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"set-up cut of {qasm.name} exited {code}: {sink.getvalue().strip()}")
    return json.loads((out / "plan.json").read_text(encoding="utf-8"))


def job_sources(workload: Workload, seed: int) -> list[tuple[str, str, object]]:
    """The job list before set-up: (name, family, fixture name or RandomSpec and rng)."""
    out: list[tuple[str, str, object]] = [(name, name, name) for name in workload.fixtures]
    for spec in workload.randoms:
        rng = random.Random(f"{seed}:{workload.name}:{spec.label}")
        out.append((f"random_{spec.label}", "random", (spec, rng)))
    return out


def _shape_and_work(workload: Workload, doc: dict) -> dict:
    shape = plan_shape(doc)
    if workload.name != "plan":  # plan jobs make their own plans
        shape.update(variant_work(doc))
    return shape


def choose_circuits(workload: Workload, seed: int, scratch: Path) -> list[tuple[str, str, str]]:
    """The job circuits as (name, family, QASM text), drawn once per run.

    Each random role takes the first candidate whose GA-only plan it
    accepts. The number of candidates tried depends on the seed, so this
    search stays outside the timed set-up.
    """
    from wirecut.cli import main
    from wirecut.fixtures import fixture_text

    scratch.mkdir(parents=True, exist_ok=True)
    out = []
    for name, family, source in job_sources(workload, seed):
        if isinstance(source, str):
            out.append((name, family, fixture_text("circuits", source)))
            continue
        spec, rng = source
        qasm = scratch / f"{name}.qasm"
        for _ in range(MAX_ATTEMPTS):
            text = random_qasm(rng, spec.width, spec.n2q, spec.n1q, spec.chain)
            qasm.write_text(text, encoding="utf-8")
            if spec.accept(_shape_and_work(workload, _setup_cut(main, workload, qasm, scratch))):
                out.append((name, family, text))
                break
        else:
            raise RuntimeError(f"no random circuit for role {spec.label} in {MAX_ATTEMPTS} attempts")
    return out


def prepare(workload: Workload, circuits, dest: Path) -> tuple[list[Job], dict[str, str]]:
    """Write every job's inputs under ``dest``: its QASM file and its GA set-up plan.

    Returns the jobs and the digest of each set-up plan document, so that
    repeated set-ups can be compared byte for byte.
    """
    from wirecut.cli import main

    jobs: list[Job] = []
    setup_docs: dict[str, str] = {}
    (dest / "circuits").mkdir(parents=True, exist_ok=True)
    for name, family, text in circuits:
        qasm = dest / "circuits" / f"{name}.qasm"
        qasm.write_text(text, encoding="utf-8")
        out = dest / "jobs" / name
        # noisy and recon jobs run the set-up plan; plan jobs make their own
        plan_dir = out if workload.name != "plan" else dest / "plans" / name
        doc = _setup_cut(main, workload, qasm, plan_dir)
        setup_docs[name] = hashlib.sha256((plan_dir / "plan.json").read_bytes()).hexdigest()
        out.mkdir(parents=True, exist_ok=True)
        jobs.append(Job(name, family, qasm, out, _job_argvs(workload, qasm, out),
                        _shape_and_work(workload, doc)))
    return jobs, setup_docs


# ---------------------------------------------------------------------------
# Running a job and checking what it wrote
# ---------------------------------------------------------------------------

def run_job(main, job: Job, tracer=None) -> tuple[float, list[int], str]:
    """Run a job's command lines; returns (seconds, exit codes, captured stderr)."""
    sink, errors = io.StringIO(), io.StringIO()
    codes = []
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(errors):
        t0 = time.perf_counter()
        for argv in job.argvs:
            if tracer is None:
                codes.append(main(list(argv)))
            else:
                with tracer.span("cli.main"):
                    codes.append(main(list(argv)))
        elapsed = time.perf_counter() - t0
    return elapsed, codes, errors.getvalue()


def job_documents(job: Job) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(job.out.glob("*.json"))}


def inspect_job(workload: Workload, job: Job, docs: dict[str, bytes]) -> dict:
    """Facts of one finished job, read from the documents it wrote."""
    facts: dict = {
        "digests": {name: hashlib.sha256(data).hexdigest() for name, data in docs.items()},
        # noisy and recon jobs read plan.json from set-up and write the rest
        "doc_bytes": sum(len(data) for name, data in docs.items()
                         if workload.name == "plan" or name != "plan.json"),
    }
    plan = json.loads(docs["plan.json"])
    shape = plan_shape(plan)
    log = plan["solver_log"]
    facts.update(
        k=plan["k"],
        nodes=len(log),
        node_vertices=shape["node_vertices"],
        chosen_costs=[entry[entry["chosen"]]["cost"] for entry in log],
        leaf_success=shape["leaf_success"],
    )
    if workload.name == "plan":
        facts["anneal_wins"] = sum(1 for e in log if e["chosen"] == "anneal")
        # a gate graph in two pieces has a free cut: cost 0 and no ratio
        facts["cost_ratios"] = [
            e["anneal"]["cost"] / e["ga"]["cost"] for e in log if e["ga"]["cost"] > 0
        ]
        return facts
    rec = json.loads(docs["reconstruction.json"])
    probs = list(rec["distribution"]["probs"].values())
    facts.update(
        fidelity=rec["metrics"]["fidelity_vs_ideal"],
        tvd=rec["metrics"]["tvd_vs_ideal"],
        terms=rec["terms"],
        clipped_mass=rec["clipped_mass"],
        prob_min=min(probs) if probs else math.nan,
        prob_sum=math.fsum(probs),
    )
    return facts


def check_job(workload: Workload, job: Job, codes: list[int], errors: str,
              docs: dict[str, bytes]) -> tuple[dict | None, list[str]]:
    """Facts and the list of failed checks for one execution of ``job``."""
    if any(code != 0 for code in codes):
        return None, [f"{job.name}: exit codes {codes}: {errors.strip()[:200]}"]
    try:
        facts = inspect_job(workload, job, docs)
    except (KeyError, ValueError) as exc:
        return None, [f"{job.name}: unreadable documents: {exc!r}"]
    problems = []
    if workload.name == "plan":
        problems += _plan_problems(job, json.loads(docs["plan.json"]))
    else:
        if not (facts["prob_min"] >= 0.0 and abs(facts["prob_sum"] - 1.0) < 1e-9):
            problems.append(f"{job.name}: reconstruction is not a distribution")
        if workload.name == "recon" and not facts["tvd"] < 1e-9:
            problems.append(f"{job.name}: tvd_vs_ideal {facts['tvd']:.3e} >= 1e-9")
    return facts, problems


def _plan_problems(job: Job, doc: dict) -> list[str]:
    from wirecut.fragment import plan_from_dict

    problems = []
    plan = plan_from_dict(doc)
    if plan.k != doc["k"] or plan.k > plan.limits.max_k:
        problems.append(f"{job.name}: plan k {doc['k']} inconsistent with its cuts")
    terminal = sorted(
        f.qubit_map[q] for f in plan.leaf_fragments() for q in f.terminal_qubits()
    )
    if terminal != list(range(plan.width)):
        problems.append(f"{job.name}: leaf terminal qubits do not tile the width")
    for entry in doc["solver_log"]:
        ga, sa = entry["ga"]["cost"], entry["anneal"]["cost"]
        want = "ga" if ga <= sa else "anneal"  # ties go to the GA
        if entry["chosen"] != want or not math.isfinite(min(ga, sa)):
            problems.append(f"{job.name}: node {entry['fragment']} chose {entry['chosen']}")
    return problems
