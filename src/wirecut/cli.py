"""Command-line pipeline: cut, run, reconstruct, sweep, graph.

``cut`` writes ``plan.json``, ``run`` ``fragments.json`` (every leaf's rows,
named for the ``plan.json`` they ran, see ``outputs_to_dict``),
``reconstruct`` ``reconstruction.json`` (the only document keyed by
bitstrings), ``sweep`` ``sweep.json`` and ``graph`` an indented
``graph.json``. ``_write_json`` writes all others as compact JSON with
sorted keys, so identical inputs and seeds produce byte-identical files.
Circuit and profile arguments accept either a path or ``fixture:<name>``
for the bundled benchmarks.

Exit codes: 0 success, 2 usage (``CliError``: bad arguments, a missing
input file or an output file that cannot be written), and for library
errors the code in the one table ``_FAILURES``, which ``main`` reads: 3
circuit parse error, 4 profile error, 5 planning/reconstruction error, 6
simulation error. Commands let library errors through and catch one only
to re-raise its type with context. ``_read_source`` (circuits, profiles)
and ``_read_json`` (plan, fragments) turn an unreadable or non-UTF-8 input
file, and ``_read_json`` malformed or too deeply nested JSON, into its
kind's error. ``_write_text`` writes every output file in place: it opens
the file without truncating it, writes the new bytes over the old ones and
then truncates the file to their length. On ext4 that rewrote a 20 kB file
in about 20 µs, against about 120 µs when the file is truncated to zero
first; a temporary file renamed over the old one (about 90 µs) would also
replace a symlink or a read-only file instead of writing through it. A
write that fails truncates the file to zero before ``CliError``, so no
previous document stays readable.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from .circuit import Circuit, QasmError, parse_qasm
from .fixtures import fixture_text
from .fragment import (
    DEFAULT_SA_RESTARTS,
    DEFAULT_SA_SWEEPS,
    SOLVERS,
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
    ReconstructionError,
    execute_plan,
    fidelity,
    hellinger,
    outputs_from_dict,
    outputs_to_dict,
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
    """A usage error: bad arguments, a missing input file or an output file
    that cannot be written (exit 2)."""


def _read_json(path: Path, error_type: type[Exception]):
    """The JSON document in an input file and the sha256 hex of its bytes."""
    try:
        raw = path.read_bytes()
        return json.loads(raw.decode("utf-8")), hashlib.sha256(raw).hexdigest()
    except (OSError, UnicodeDecodeError) as exc:
        raise error_type(f"cannot read {path}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error_type(str(exc)) from None


def _read_source(spec: str, kind: str, error_type: type[Exception]) -> str:
    if spec.startswith("fixture:"):
        try:
            return fixture_text(kind, spec.split(":", 1)[1])
        except FileNotFoundError as exc:
            raise CliError(str(exc)) from None
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"no such file: {spec}")
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error_type(f"cannot read {path}: {exc}") from None


def _load_circuit(spec: str) -> Circuit:
    name = spec.split(":", 1)[1] if spec.startswith("fixture:") else Path(spec).stem
    return parse_qasm(_read_source(spec, "circuits", QasmError), name=name)


def _load_noise(spec: str) -> NoiseProfile:
    return load_profile(_read_source(spec, "profiles", ProfileError))


def _write_text(path: Path, text: str) -> None:
    """Write an output file as UTF-8 in place (see the module docstring),
    making its directory; a path that cannot be written raises ``CliError``."""
    data = text.encode("utf-8")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, 0)
        raise CliError(f"cannot write {path}: {exc}") from None
    finally:
        os.close(fd)


def _write_json(path: Path, doc) -> None:
    """Compact JSON with sorted keys; without an indent json uses its C encoder."""
    _write_text(path, json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _read_plan(out_dir: Path) -> tuple[FragmentPlan, str]:
    """The plan in ``out_dir`` and the sha256 hex of its document's bytes."""
    plan_path = out_dir / "plan.json"
    if not plan_path.is_file():
        raise PlanError(f"no plan document at {plan_path}; run 'cut' first")
    try:
        doc, digest = _read_json(plan_path, PlanError)
        return plan_from_dict(doc), digest
    except PlanError as exc:
        raise PlanError(f"bad plan document: {exc}") from None


def _plan(circuit, profile, args, threshold: float) -> FragmentPlan:
    return recursive_fragment(
        circuit, profile, threshold,
        limits=Limits(max_depth=args.max_depth, max_k=args.max_k),
        seed=args.seed, solver=args.solver,
        sa_sweeps=args.sweeps, sa_restarts=args.restarts,
    )


def _run_pipeline(circuit, profile, args, threshold: float, reference) -> dict:
    """cut + run + reconstruct for one threshold, scored against
    ``reference()``, the ideal distribution; returns the summary row."""
    plan = _plan(circuit, profile, args, threshold)
    outputs = execute_plan(plan, profile=profile if args.noisy else None,
                           shots=args.shots, seed=args.seed)
    result = reconstruct(outputs, plan)
    ideal = reference()
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
        _write_text(out, text)
        print(f"graph: {g.n} vertices, {len(g.edges)} edges -> {out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_run(args) -> int:
    if args.noisy != (args.profile is not None):
        raise CliError("--noisy and --profile go together")
    out_dir = Path(args.out)
    plan, plan_id = _read_plan(out_dir)
    profile = _load_noise(args.profile) if args.noisy else None
    outputs = execute_plan(plan, profile=profile, shots=args.shots, seed=args.seed)
    _write_json(out_dir / "fragments.json", outputs_to_dict(outputs, plan_id))
    n_variants = sum(o.leaf.n_variants for o in outputs.values())
    print(f"ran {n_variants} variant(s) across {len(outputs)} fragment(s) -> {out_dir}")
    return 0


def cmd_reconstruct(args) -> int:
    out_dir = Path(args.out)
    plan, plan_id = _read_plan(out_dir)
    path = out_dir / "fragments.json"
    if not path.is_file():
        raise ReconstructionError(f"no fragments document at {path}; run 'run' first")
    try:
        outputs = outputs_from_dict(_read_json(path, ReconstructionError)[0], plan, plan_id)
    except ReconstructionError as exc:
        raise ReconstructionError(f"bad fragments document {path}: {exc}") from None
    result = reconstruct(outputs, plan)
    if args.reference:
        ideal = measure_distribution(run_ideal(plan.root.circuit))
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
    # simulated once, when the first threshold has been reconstructed
    reference = functools.cache(lambda: measure_distribution(run_ideal(circuit)))
    rows = []
    for t in args.thresholds:
        try:
            rows.append(_run_pipeline(circuit, profile, args, t, reference))
        except tuple(_FAILURES) as exc:
            raise type(exc)(f"at threshold {t}: {exc}") from None
    _write_json(out_dir / "sweep.json", {"circuit": circuit.name, "noisy": args.noisy, "rows": rows})
    csv_lines = ["threshold,leaves,k,fidelity,tvd"]
    for row in rows:
        csv_lines.append(
            f"{row['threshold']},{row['leaves']},{row['k']},{row['fidelity']!r},{row['tvd']!r}"
        )
    _write_text(out_dir / "sweep.csv", "\n".join(csv_lines) + "\n")
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
        p.add_argument("--solver", choices=SOLVERS, default="ga",
                       help="partitioner: the genetic search (default), the annealer, "
                            "or both with the cheaper cut kept")
        p.add_argument("--seed", type=int, default=0)
        limits = Limits()
        p.add_argument("--max-k", dest="max_k", type=_int_at_least(0), default=limits.max_k)
        p.add_argument("--max-depth", dest="max_depth", type=_int_at_least(0),
                       default=limits.max_depth)
        p.add_argument("--sweeps", type=_int_at_least(1), default=DEFAULT_SA_SWEEPS,
                       help="annealer sweeps; used only with --solver anneal|both")
        p.add_argument("--restarts", type=_int_at_least(1), default=DEFAULT_SA_RESTARTS,
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
