"""Command-line pipeline: cut, run, reconstruct, sweep, graph.

Documents are JSON with sorted keys, so identical inputs and seeds produce
byte-identical files. Exit codes: 0 success, 2 usage, 3 circuit parse
error, 4 profile error, 5 planning/reconstruction error, 6 simulation
error. Circuit and profile arguments accept either a path or
``fixture:<name>`` for the bundled benchmarks.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .circuit import Circuit, QasmError, parse_qasm
from .fixtures import fixture_text
from .fragment import (
    FragmentPlan,
    GaParams,
    Limits,
    PlanError,
    plan_from_dict,
    plan_to_dict,
    recursive_fragment,
)
from .graph import GraphError, build_graph, serialize_graph
from .noise import NoiseProfile, ProfileError, load_profile
from .reconstruct import (
    FragmentOutput,
    ReconstructionError,
    execute_plan,
    fidelity,
    hellinger,
    reconstruct,
    tvd,
)
from .simulate import SimulationError, measure_distribution, run_ideal

EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_PROFILE = 4
EXIT_PLAN = 5
EXIT_SIMULATION = 6


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_source(spec: str, kind: str) -> str:
    if spec.startswith("fixture:"):
        try:
            return fixture_text(kind, spec.split(":", 1)[1])
        except FileNotFoundError as exc:
            raise CliError(str(exc), EXIT_USAGE) from None
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"no such file: {spec}", EXIT_USAGE)
    return path.read_text(encoding="utf-8")


def _load_circuit(spec: str) -> Circuit:
    text = _read_source(spec, "circuits")
    name = spec.split(":", 1)[1] if spec.startswith("fixture:") else Path(spec).stem
    try:
        return parse_qasm(text, name=name)
    except QasmError as exc:
        raise CliError(f"circuit parse error: {exc}", EXIT_PARSE) from None


def _load_noise(spec: str) -> NoiseProfile:
    text = _read_source(spec, "profiles")
    try:
        return load_profile(text)
    except ProfileError as exc:
        raise CliError(f"profile error: {exc}", EXIT_PROFILE) from None


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_plan(out_dir: Path) -> FragmentPlan:
    plan_path = out_dir / "plan.json"
    if not plan_path.is_file():
        raise CliError(f"no plan document at {plan_path}; run 'cut' first", EXIT_PLAN)
    try:
        return plan_from_dict(json.loads(plan_path.read_text(encoding="utf-8")))
    except (json.JSONDecodeError, KeyError, PlanError) as exc:
        raise CliError(f"bad plan document: {exc}", EXIT_PLAN) from None


def _run_pipeline(circuit, profile, args, out_dir: Path) -> dict:
    """cut + run + reconstruct for one threshold; returns the summary row."""
    plan = recursive_fragment(
        circuit, profile, args.threshold,
        limits=Limits(max_depth=args.max_depth, max_k=args.max_k),
        seed=args.seed, solver=args.solver,
        sa_sweeps=args.sweeps, sa_restarts=args.restarts,
    )
    outputs = execute_plan(
        plan, profile=profile, noisy=args.noisy, shots=args.shots, seed=args.seed
    )
    result = reconstruct(outputs, plan)
    ideal = measure_distribution(run_ideal(circuit))
    return {
        "threshold": args.threshold,
        "leaves": len(plan.leaf_fragments()),
        "k": plan.k,
        "fidelity": fidelity(result.distribution, ideal),
        "tvd": tvd(result.distribution, ideal),
    }


def cmd_cut(args) -> int:
    circuit = _load_circuit(args.qasm)
    profile = _load_noise(args.profile)
    try:
        plan = recursive_fragment(
            circuit, profile, args.threshold,
            limits=Limits(max_depth=args.max_depth, max_k=args.max_k),
            seed=args.seed, solver=args.solver,
            ga_params=GaParams(),
            sa_sweeps=args.sweeps, sa_restarts=args.restarts,
        )
    except (PlanError, GraphError) as exc:
        raise CliError(f"planning failed: {exc}", EXIT_PLAN) from None
    out_dir = Path(args.out)
    _write_json(out_dir / "plan.json", plan_to_dict(plan))
    print(f"plan: {len(plan.leaf_fragments())} fragment(s), k={plan.k} -> {out_dir / 'plan.json'}")
    if plan.solver_log:
        print(f"{'fragment':>8} {'vertices':>8} {'ga cost':>10} {'ga k':>5} "
              f"{'anneal cost':>12} {'anneal k':>9} {'chosen':>7}")
        for entry in plan.solver_log:
            ga = entry.get("ga", {})
            sa = entry.get("anneal", {})
            print(f"{entry['fragment']:>8} {entry['vertices']:>8} "
                  f"{_fmt(ga.get('cost')):>10} {_fmt(ga.get('cut_size')):>5} "
                  f"{_fmt(sa.get('cost')):>12} {_fmt(sa.get('cut_size')):>9} "
                  f"{entry['chosen']:>7}")
    return 0


def _fmt(value) -> str:
    if value is None:
        return "-"
    if value == float("inf"):
        return "inf"
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def cmd_graph(args) -> int:
    circuit = _load_circuit(args.qasm)
    profile = _load_noise(args.profile)
    try:
        g = build_graph(circuit, profile)
    except GraphError as exc:
        raise CliError(f"graph construction failed: {exc}", EXIT_PLAN) from None
    text = serialize_graph(g)
    if args.out:
        out = Path(args.out) / "graph.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")
        print(f"graph: {g.n} vertices, {len(g.edges)} edges -> {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    out_dir = Path(args.out)
    plan = _read_plan(out_dir)
    profile = _load_noise(args.profile) if args.profile else None
    if args.noisy and profile is None:
        raise CliError("--noisy requires --profile", EXIT_USAGE)
    try:
        outputs = execute_plan(
            plan, profile=profile, noisy=args.noisy, shots=args.shots, seed=args.seed
        )
    except (SimulationError, ReconstructionError) as exc:
        raise CliError(f"simulation failed: {exc}", EXIT_SIMULATION) from None
    for fid in sorted(outputs):
        _write_json(out_dir / f"fragment_{fid}.json", outputs[fid].to_dict())
    n_variants = sum(len(o.variants) for o in outputs.values())
    print(f"ran {n_variants} variant(s) across {len(outputs)} fragment(s) -> {out_dir}")
    return 0


def cmd_reconstruct(args) -> int:
    out_dir = Path(args.out)
    plan = _read_plan(out_dir)
    outputs = {}
    for leaf in plan.leaf_fragments():
        path = out_dir / f"fragment_{leaf.id}.json"
        if not path.is_file():
            raise CliError(f"missing fragment output {path}; run 'run' first", EXIT_PLAN)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            outputs[leaf.id] = FragmentOutput.from_dict(doc)
        except (json.JSONDecodeError, ReconstructionError) as exc:
            raise CliError(f"bad fragment document {path}: {exc}", EXIT_PLAN) from None
    try:
        result = reconstruct(outputs, plan)
    except ReconstructionError as exc:
        raise CliError(f"reconstruction failed: {exc}", EXIT_PLAN) from None
    if args.reference:
        try:
            ideal = measure_distribution(run_ideal(plan.root.fragment.circuit))
        except SimulationError as exc:
            raise CliError(f"reference simulation failed: {exc}", EXIT_SIMULATION) from None
        result.metrics["fidelity_vs_ideal"] = fidelity(result.distribution, ideal)
        result.metrics["tvd_vs_ideal"] = tvd(result.distribution, ideal)
        result.metrics["hellinger_vs_ideal"] = hellinger(result.distribution, ideal)
    _write_json(out_dir / "reconstruction.json", result.to_dict())
    print(f"reconstructed k={result.k} ({result.terms} terms), "
          f"clipped mass {result.clipped_mass:.3e} -> {out_dir / 'reconstruction.json'}")
    for key in sorted(result.metrics):
        print(f"  {key}: {result.metrics[key]:.6f}")
    return 0


def cmd_sweep(args) -> int:
    circuit = _load_circuit(args.qasm)
    profile = _load_noise(args.profile)
    thresholds = []
    for tok in args.thresholds.split(","):
        tok = tok.strip()
        if tok:
            thresholds.append(float(tok))
    if not thresholds:
        raise CliError("need at least one threshold", EXIT_USAGE)
    out_dir = Path(args.out)
    rows = []
    for t in thresholds:
        sub = argparse.Namespace(**vars(args))
        sub.threshold = t
        try:
            rows.append(_run_pipeline(circuit, profile, sub, out_dir))
        except (PlanError, GraphError, ReconstructionError) as exc:
            raise CliError(f"sweep failed at threshold {t}: {exc}", EXIT_PLAN) from None
        except SimulationError as exc:
            raise CliError(f"sweep failed at threshold {t}: {exc}", EXIT_SIMULATION) from None
    _write_json(out_dir / "sweep.json", {"circuit": circuit.name, "noisy": args.noisy, "rows": rows})
    csv_lines = ["threshold,leaves,k,fidelity,tvd"]
    for row in rows:
        csv_lines.append(
            f"{row['threshold']},{row['leaves']},{row['k']},{row['fidelity']!r},{row['tvd']!r}"
        )
    (out_dir / "sweep.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")
    print(f"{'threshold':>9} {'leaves':>6} {'k':>3} {'fidelity':>10} {'tvd':>10}")
    for row in rows:
        print(f"{row['threshold']:>9} {row['leaves']:>6} {row['k']:>3} "
              f"{row['fidelity']:>10.6f} {row['tvd']:>10.6f}")
    return 0


def _shot_count(text: str) -> int:
    shots = int(text)
    if shots < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {shots}")
    return shots


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wirecut",
        description="Fragment quantum circuits along error-balanced min-cuts and "
                    "reconstruct the full output distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_inputs(p):
        p.add_argument("--qasm", required=True, help="circuit file or fixture:<name>")
        p.add_argument("--profile", required=True, help="calibration file or fixture:<name>")

    def solver_flags(p):
        p.add_argument("--solver", choices=("ga", "anneal", "both"), default="both")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-k", dest="max_k", type=int, default=8)
        p.add_argument("--max-depth", dest="max_depth", type=int, default=8)
        p.add_argument("--sweeps", type=int, default=4000, help="annealer sweeps")
        p.add_argument("--restarts", type=int, default=4, help="annealer restarts")

    def run_flags(p):
        p.add_argument("--noisy", action="store_true", help="density-matrix noise model")
        p.add_argument("--shots", type=_shot_count, default=None,
                       help="sample instead of exact output")

    p_cut = sub.add_parser("cut", help="plan a fragmentation")
    common_inputs(p_cut)
    p_cut.add_argument("--threshold", type=float, required=True)
    solver_flags(p_cut)
    p_cut.add_argument("--out", required=True)
    p_cut.set_defaults(fn=cmd_cut)

    p_graph = sub.add_parser("graph", help="dump the gate graph")
    common_inputs(p_graph)
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(fn=cmd_graph)

    p_run = sub.add_parser("run", help="simulate all fragment variants of a plan")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--profile", default=None, help="needed with --noisy")
    p_run.add_argument("--seed", type=int, default=0)
    run_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_rec = sub.add_parser("reconstruct", help="recombine fragment outputs")
    p_rec.add_argument("--out", required=True)
    p_rec.add_argument("--reference", action="store_true",
                       help="also score against the ideal uncut simulation")
    p_rec.set_defaults(fn=cmd_reconstruct)

    p_sweep = sub.add_parser("sweep", help="threshold sweep: cut+run+reconstruct per threshold")
    common_inputs(p_sweep)
    p_sweep.add_argument("--thresholds", required=True, help="comma-separated list")
    solver_flags(p_sweep)
    run_flags(p_sweep)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(fn=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (QasmError, ProfileError, PlanError, GraphError,
            ReconstructionError, SimulationError) as exc:
        # anything not wrapped closer to its source still maps to a code
        mapping = {
            QasmError: EXIT_PARSE,
            ProfileError: EXIT_PROFILE,
            SimulationError: EXIT_SIMULATION,
        }
        code = mapping.get(type(exc), EXIT_PLAN)
        print(f"error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
