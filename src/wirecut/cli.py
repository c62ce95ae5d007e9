"""Command-line pipeline: cut, run, reconstruct, sweep, graph.

``cut`` writes ``plan.json``, ``run`` one ``fragment_<id>.json`` per leaf
(version 2: sorted cut ids and one dense row of outcome probabilities per
variant, see ``FragmentOutput``), ``reconstruct`` ``reconstruction.json``
(the only document keyed by bitstrings) and ``sweep`` ``sweep.json``. One
writer emits them all as compact JSON with sorted keys, so identical inputs
and seeds produce byte-identical files. Circuit and profile arguments
accept either a path or ``fixture:<name>`` for the bundled benchmarks.

Exit codes: 0 success, 2 usage (``CliError``), and for library errors the
code in the one table ``_FAILURES``, which ``main`` reads: 3 circuit parse
error, 4 profile error, 5 planning/reconstruction error, 6 simulation
error. Commands let library errors through and catch one only to re-raise
its type with context. ``_read_text`` reads every input file and turns an
unreadable or non-UTF-8 one into its kind's error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .circuit import Circuit, QasmError, parse_qasm
from .fixtures import fixture_text
from .fragment import (
    FragmentPlan,
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

# exit code and message prefix of each library error that reaches ``main``
_FAILURES = {
    QasmError: (3, "circuit parse error"),
    ProfileError: (4, "profile error"),
    PlanError: (5, "plan error"),
    GraphError: (5, "plan error"),
    ReconstructionError: (5, "reconstruction error"),
    SimulationError: (6, "simulation error"),
}


class CliError(Exception):
    """A usage error: bad arguments or a missing input file (exit 2)."""


def _read_text(path: Path, error_type: type[Exception]) -> str:
    """The UTF-8 text of an input file; an unreadable or non-UTF-8 file
    raises ``error_type``, the error of the file's kind."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error_type(f"cannot read {path}: {exc}") from None


def _read_source(spec: str, kind: str, error_type: type[Exception]) -> str:
    if spec.startswith("fixture:"):
        try:
            return fixture_text(kind, spec.split(":", 1)[1])
        except FileNotFoundError as exc:
            raise CliError(str(exc)) from None
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"no such file: {spec}")
    return _read_text(path, error_type)


def _load_circuit(spec: str) -> Circuit:
    name = spec.split(":", 1)[1] if spec.startswith("fixture:") else Path(spec).stem
    return parse_qasm(_read_source(spec, "circuits", QasmError), name=name)


def _load_noise(spec: str) -> NoiseProfile:
    return load_profile(_read_source(spec, "profiles", ProfileError))


def _write_json(path: Path, doc) -> None:
    """Compact JSON with sorted keys; without an indent json uses its C encoder."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
                    encoding="utf-8")


def _read_plan(out_dir: Path) -> FragmentPlan:
    plan_path = out_dir / "plan.json"
    if not plan_path.is_file():
        raise PlanError(f"no plan document at {plan_path}; run 'cut' first")
    text = _read_text(plan_path, PlanError)
    try:
        return plan_from_dict(json.loads(text))
    except (json.JSONDecodeError, PlanError) as exc:
        raise PlanError(f"bad plan document: {exc}") from None


def _plan(circuit, profile, args, threshold: float) -> FragmentPlan:
    return recursive_fragment(
        circuit, profile, threshold,
        limits=Limits(max_depth=args.max_depth, max_k=args.max_k),
        seed=args.seed, solver=args.solver,
        sa_sweeps=args.sweeps, sa_restarts=args.restarts,
    )


def _run_pipeline(circuit, profile, args, threshold: float) -> dict:
    """cut + run + reconstruct for one threshold; returns the summary row."""
    plan = _plan(circuit, profile, args, threshold)
    outputs = execute_plan(plan, profile=profile if args.noisy else None,
                           shots=args.shots, seed=args.seed)
    result = reconstruct(outputs, plan)
    ideal = measure_distribution(run_ideal(circuit))
    return {
        "threshold": threshold,
        "leaves": len(plan.leaf_fragments()),
        "k": plan.k,
        "fidelity": fidelity(result.distribution, ideal),
        "tvd": tvd(result.distribution, ideal),
    }


def cmd_cut(args) -> int:
    circuit = _load_circuit(args.qasm)
    profile = _load_noise(args.profile)
    plan = _plan(circuit, profile, args, args.threshold)
    out_dir = Path(args.out)
    _write_json(out_dir / "plan.json", plan_to_dict(plan))
    print(f"plan: {len(plan.leaf_fragments())} fragment(s), k={plan.k} -> {out_dir / 'plan.json'}")
    if plan.solver_log:
        # every log entry holds the same solvers: the ones the plan ran
        ran = [name for name in ("ga", "anneal") if name in plan.solver_log[0]]
        print(f"{'fragment':>8} {'vertices':>8} "
              + "".join(f"{name + ' cost':>12} {name + ' k':>9} " for name in ran)
              + f"{'chosen':>7}")
        for entry in plan.solver_log:
            print(f"{entry['fragment']:>8} {entry['vertices']:>8} "
                  + "".join(f"{_fmt(entry[name]['cost']):>12} "
                            f"{_fmt(entry[name]['cut_size']):>9} " for name in ran)
                  + f"{entry['chosen']:>7}")
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
    g = build_graph(circuit, profile)
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
    if args.noisy != (args.profile is not None):
        raise CliError("--noisy and --profile go together")
    out_dir = Path(args.out)
    plan = _read_plan(out_dir)
    profile = _load_noise(args.profile) if args.noisy else None
    outputs = execute_plan(plan, profile=profile, shots=args.shots, seed=args.seed)
    for fid in sorted(outputs):
        _write_json(out_dir / f"fragment_{fid}.json", outputs[fid].to_dict())
    n_variants = sum(o.n_variants for o in outputs.values())
    print(f"ran {n_variants} variant(s) across {len(outputs)} fragment(s) -> {out_dir}")
    return 0


def cmd_reconstruct(args) -> int:
    out_dir = Path(args.out)
    plan = _read_plan(out_dir)
    outputs = {}
    for leaf in plan.leaf_fragments():
        path = out_dir / f"fragment_{leaf.id}.json"
        if not path.is_file():
            raise ReconstructionError(f"missing fragment output {path}; run 'run' first")
        text = _read_text(path, ReconstructionError)
        try:
            outputs[leaf.id] = FragmentOutput.from_dict(json.loads(text))
        except (json.JSONDecodeError, ReconstructionError) as exc:
            raise ReconstructionError(f"bad fragment document {path}: {exc}") from None
    result = reconstruct(outputs, plan)
    if args.reference:
        ideal = measure_distribution(run_ideal(plan.root.fragment.circuit))
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
    out_dir = Path(args.out)
    rows = []
    for t in args.thresholds:
        try:
            rows.append(_run_pipeline(circuit, profile, args, t))
        except tuple(_FAILURES) as exc:
            raise type(exc)(f"at threshold {t}: {exc}") from None
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


def _int_at_least(low: int):
    """argparse type for an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _threshold(text: str) -> float:
    """argparse type for a threshold in [0, 1]; NaN lies outside it. A
    non-number raises ``float``'s ValueError, which argparse reports."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {value}")
    return value


def _threshold_list(text: str) -> list[float]:
    """argparse type for a comma-separated list of at least one threshold."""
    try:
        values = [_threshold(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of numbers: {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("need at least one threshold")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by ``main``."""
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
        p.add_argument("--solver", choices=("ga", "anneal", "both"), default="ga",
                       help="partitioner: the genetic search (default), the annealer, "
                            "or both with the cheaper cut kept")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--max-k", dest="max_k", type=_int_at_least(0), default=8)
        p.add_argument("--max-depth", dest="max_depth", type=_int_at_least(0), default=8)
        p.add_argument("--sweeps", type=_int_at_least(1), default=4000,
                       help="annealer sweeps; used only with --solver anneal|both")
        p.add_argument("--restarts", type=_int_at_least(1), default=4,
                       help="annealer restarts; used only with --solver anneal|both")

    def run_flags(p):
        p.add_argument("--noisy", action="store_true", help="density-matrix noise model")
        p.add_argument("--shots", type=_int_at_least(1), default=None,
                       help="sample instead of exact output")

    p_cut = sub.add_parser("cut", help="plan a fragmentation")
    common_inputs(p_cut)
    p_cut.add_argument("--threshold", type=_threshold, required=True)
    solver_flags(p_cut)
    p_cut.add_argument("--out", required=True)
    p_cut.set_defaults(fn=cmd_cut)

    p_graph = sub.add_parser("graph", help="dump the gate graph")
    common_inputs(p_graph)
    p_graph.add_argument("--out", default=None)
    p_graph.set_defaults(fn=cmd_graph)

    p_run = sub.add_parser("run", help="simulate all fragment variants of a plan")
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--profile", default=None, help="calibration for --noisy, given only with it")
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
    p_sweep.add_argument("--thresholds", type=_threshold_list, required=True,
                         help="comma-separated list")
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
        return 2
    except tuple(_FAILURES) as exc:
        code, prefix = _FAILURES[type(exc)]
        print(f"error: {prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
