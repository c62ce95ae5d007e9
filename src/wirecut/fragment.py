"""Wire-cut fragmentation: applying a partition to a circuit.

One step, ``_split``, applies a bipartition of a fragment's two-qubit
gates, one side bit per gate in gate order. Every wire segment between
consecutive two-qubit gates on different sides becomes a cut point,
numbered in (qubit, upstream gate) order. Cutting splits every wire into
pieces; each piece becomes a fresh local qubit of the child owning its
gates, carrying an initialization role (in-cut) when the piece starts at a
cut and a measurement role (out-cut) when it ends at one. A piece is always
owned by one side because every crossing adjacency is cut, so both children
stay straight-line circuits. The step records the split on the fragment
itself, its cuts and two child fragments numbered from a shared pair of
counters: the children take the next two fragment ids and the cuts the
next cut ids, so a plan's tree is numbered depth first.

Each out-cut is measured in the Z, X, or Y basis (basis change appended at
the end of the wire), and each in-cut is prepared in one of |0>, |1>, |+>,
|+i> (preparation prepended), for 3^out * 4^in variants per fragment.
``execute_plan`` passes these preparations and readouts to the executors as
prep and readout entries; ``enumerate_variants``, which writes each variant
out as a circuit, is kept only for the tests and the benchmark's hook.

The recursive driver keeps splitting any fragment whose estimated success
probability falls below the threshold and stops at the depth/cut-count
limits. Each split comes from the genetic search; the annealer can run
instead, or beside it for comparison, in which case the cheaper cut by
the exact cut cost is kept.

A plan is a tree of fragments, each carrying the planner's decision on it.
A plan document (version 2) stores those decisions: each node's
status and success, each split node's partition, and the fragment only at
the root and at the leaves; cuts and the fragments of split nodes below
the root are derived, so they are not stored. The document is rebuilt,
not trusted: ``plan_from_dict`` replays the planner's decisions from the
root circuit, ``_split`` along each stored partition, and the writer's
document of the rebuilt plan must then equal the stored one, so the
writer alone defines the layout.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .circuit import Circuit, Gate, _is_finite_real, circuit_from_dict, circuit_to_dict
from .graph import GateGraph, build_graph
from .ising import build_ising, default_schedule, simulated_anneal, spins_to_partition
from .noise import NoiseProfile, success_probability
from .partition import cut_size, find_min_cut_ga, partition_cost

__all__ = [
    "PlanError",
    "CutPoint",
    "Fragment",
    "VariantRun",
    "FragmentPlan",
    "Limits",
    "enumerate_variants",
    "recursive_fragment",
    "anneal_min_cut",
    "plan_to_dict",
    "plan_from_dict",
]

SOLVERS = ("ga", "anneal", "both")
# each in-cut init's prep gates and each out-cut basis's readout gates, the
# first applied first; key order is the order of an init or basis axis
INITS = {"zero": (), "one": ("x",), "plus": ("h",), "plus_i": ("h", "s")}
BASES = {"Z": (), "X": ("h",), "Y": ("sdg", "h")}


class PlanError(ValueError):
    """Raised on partitions that cannot split a fragment, or bad plan documents."""


class CutPoint(NamedTuple):
    """A wire cut on ``qubit`` immediately after ``upstream_gate``."""

    qubit: int
    upstream_gate: int
    downstream_gate: int
    cut_id: int


@dataclass
class Fragment:
    """A sub-circuit over compacted local qubits, and a node of its plan.

    in_cuts / out_cuts map cut ids to local qubits; qubit_map maps local
    qubits back to the original circuit's qubit indices (several locals
    may share an original when a wire is cut more than once; the one
    without an out-cut role carries the wire's final value).

    The planner's decision on the fragment: its estimated success and its
    status, ``split`` or a leaf's (``ok``, ``unsplittable-gates``,
    ``unsplittable-depth`` or ``unsplittable-k``); a split fragment also
    holds its partition, its cuts and its two child fragments.
    """

    id: int
    circuit: Circuit
    in_cuts: dict[int, int] = field(default_factory=dict)
    out_cuts: dict[int, int] = field(default_factory=dict)
    qubit_map: tuple[int, ...] = ()
    success: float = 0.0
    status: str = "ok"
    cut: tuple[CutPoint, ...] | None = None
    partition: list[int] | None = None
    children: list[Fragment] = field(default_factory=list)

    @property
    def width(self) -> int:
        return self.circuit.width

    @property
    def variant_cuts(self) -> list[int]:
        """The cut of each leading axis of the leaf's outputs: the out-cuts,
        then the in-cuts, each in id order."""
        return sorted(self.out_cuts) + sorted(self.in_cuts)

    @property
    def variant_axes(self) -> tuple[int, ...]:
        """Leading axes of the leaf's outputs, one entry per variant: a basis
        axis per out-cut and an init axis per in-cut, in ``variant_cuts``
        order (``enumerate_variants`` order when flattened)."""
        return tuple(len(BASES) if cid in self.out_cuts else len(INITS)
                     for cid in self.variant_cuts)

    @property
    def n_variants(self) -> int:
        return math.prod(self.variant_axes)

    def terminal_qubits(self) -> list[int]:
        """Local qubits whose value survives to the final distribution."""
        cut_outs = set(self.out_cuts.values())
        return [q for q in range(self.width) if q not in cut_outs]


@dataclass
class VariantRun:
    fragment_id: int
    bases: dict[int, str]
    inits: dict[int, str]
    circuit: Circuit


# ---------------------------------------------------------------------------
# Variant enumeration
# ---------------------------------------------------------------------------

def enumerate_variants(f: Fragment) -> list[VariantRun]:
    """All measurement-basis / initialization combinations for a fragment."""
    out_ids = sorted(f.out_cuts)
    in_ids = sorted(f.in_cuts)
    variants = []
    for bases in itertools.product(BASES, repeat=len(out_ids)):
        for inits in itertools.product(INITS, repeat=len(in_ids)):
            prep: list[Gate] = []
            for cid, state in zip(in_ids, inits):
                for name in INITS[state]:
                    prep.append(Gate(name, (f.in_cuts[cid],)))
            post: list[Gate] = []
            for cid, basis in zip(out_ids, bases):
                for name in BASES[basis]:
                    post.append(Gate(name, (f.out_cuts[cid],)))
            circuit = Circuit(
                width=f.width,
                gates=tuple(prep) + f.circuit.gates + tuple(post),
                name=f.circuit.name,
            )
            variants.append(
                VariantRun(
                    fragment_id=f.id,
                    bases=dict(zip(out_ids, bases)),
                    inits=dict(zip(in_ids, inits)),
                    circuit=circuit,
                )
            )
    return variants


# ---------------------------------------------------------------------------
# Recursive fragmentation plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Limits:
    """max_k caps the plan's total cut count: reconstruction work is 4^k."""

    max_depth: int = 8
    max_k: int = 8

    def __post_init__(self):
        if not all(type(v) is int and v >= 0 for v in (self.max_depth, self.max_k)):
            raise ValueError("limits must be non-negative integers")


@dataclass
class FragmentPlan:
    width: int
    threshold: float
    root: Fragment
    limits: Limits
    seed: int
    solver: str
    solver_log: list[dict] = field(default_factory=list)

    def leaf_fragments(self) -> list[Fragment]:
        """The fragments without children, depth first."""
        out: list[Fragment] = []

        def walk(f: Fragment):
            if not f.children:
                out.append(f)
            for child in f.children:
                walk(child)

        walk(self.root)
        return out

    def cut_ids(self) -> list[int]:
        ids = set()
        for f in self.leaf_fragments():
            ids.update(f.in_cuts)
            ids.update(f.out_cuts)
        return sorted(ids)

    @property
    def k(self) -> int:
        return len(self.cut_ids())


def _as_root_fragment(c: Circuit) -> Fragment:
    return Fragment(id=0, circuit=c, qubit_map=tuple(range(c.width)))


def _split(parent: Fragment, pv, ids: dict[str, int]) -> None:
    """Split ``parent`` along partition ``pv``, one bit, 0 or 1, per
    two-qubit gate of its circuit, in gate order, and record the split on
    ``parent``: status ``split``, the partition, the cuts and the two child
    fragments.

    Each wire segment between consecutive two-qubit gates on different sides
    becomes one cut, so two gates sharing both wires yield two cuts and the
    cut count equals the gate graph's weighted cut size. Cut ids run from
    ``ids["cut"]`` in (qubit, upstream gate) order, and the children, ``ok``
    leaves until the planner decides on them, take ids ``ids["fragment"]``
    and the one after it. Both counters advance past the ids taken once the
    split succeeds; a refused partition raises ``PlanError`` and leaves them
    and ``parent`` as they were.
    """
    c = parent.circuit
    width, circuit_gates = c.width, c.gates
    two_q = c.two_qubit_indices()
    if len(pv) != len(two_q):
        raise PlanError(f"partition length {len(pv)} != two-qubit gate count {len(two_q)}")
    if not ({*map(type, pv)} <= {int} and {*pv} <= {0, 1}):
        raise PlanError("partition bits must be the integers 0 and 1")
    if len(set(pv)) == 1:
        raise PlanError("partition is one-sided; no cut to derive")
    first_side = [0] * width  # the side of each wire's first two-qubit gate
    last_side = [-1] * width  # per wire, the side and position of its last
    last_gate = [0] * width  # two-qubit gate so far
    crossing = []
    for gi, side in zip(two_q, pv):
        for q in circuit_gates[gi].qubits:
            before = last_side[q]
            if before < 0:
                first_side[q] = side
            elif before != side:
                crossing.append((q, last_gate[q], gi))
            last_side[q], last_gate[q] = side, gi
    crossing.sort()
    first_cut_id = ids["cut"]
    cuts = tuple(CutPoint(q, up, down, cid)
                 for cid, (q, up, down) in enumerate(crossing, first_cut_id))

    # a wire's cuts split it into pieces, whose sides alternate from its
    # first two-qubit gate's (side 0 for a wire without one); each piece
    # becomes the next local qubit of its side, in (wire, piece) order
    n_pieces = [1] * width
    cut_after: dict[int, dict[int, int]] = {}  # upstream gate -> {wire: cut id}
    for cid, (q, up, _) in enumerate(crossing, first_cut_id):
        n_pieces[q] += 1
        cut_after.setdefault(up, {})[q] = cid
    maps: tuple[list[int], list[int]] = ([], [])
    where: list[list[tuple[int, int]]] = []  # per wire, (side, local qubit) per piece
    for q, original in enumerate(parent.qubit_map):
        side, pieces = first_side[q], []
        for _ in range(n_pieces[q]):
            pieces.append((side, len(maps[side])))
            maps[side].append(original)
            side ^= 1
        where.append(pieces)

    # each gate goes to the side of the pieces it touches; after the upstream
    # gate of a cut, always a two-qubit gate, the wire's piece measures the
    # cut and its next piece, which the wire moves to, is initialized
    piece = [0] * width
    side_now = [pieces[0][0] for pieces in where]  # per wire, the side and local
    local_now = [pieces[0][1] for pieces in where]  # qubit of its current piece
    gates: tuple[list[Gate], list[Gate]] = ([], [])
    in_cuts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    out_cuts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for gi, gate in enumerate(circuit_gates):
        qs = gate.qubits
        if len(qs) == 1:
            q = qs[0]
            gates[side_now[q]].append(gate.relabelled((local_now[q],)))
            continue
        a, b = qs
        gates[side_now[a]].append(gate.relabelled((local_now[a], local_now[b])))
        cut_here = cut_after.get(gi)
        if cut_here is None:
            continue
        for q in qs:
            cid = cut_here.get(q)
            if cid is not None:
                out_cuts[side_now[q]][cid] = local_now[q]
                piece[q] += 1
                side_now[q], local_now[q] = where[q][piece[q]]
                in_cuts[side_now[q]][cid] = local_now[q]
    # inherited roles: an in-cut enters at the wire start (first piece), an
    # out-cut leaves at the wire end (last piece)
    for roles, inherited, end in ((in_cuts, parent.in_cuts, 0), (out_cuts, parent.out_cuts, -1)):
        for cid, q in inherited.items():
            side, loc = where[q][end]
            roles[side][cid] = loc

    children = []
    for side in (0, 1):
        if not maps[side]:
            raise PlanError("partition leaves one side empty")
        circuit = Circuit(width=len(maps[side]), gates=tuple(gates[side]), name=f"{c.name}.{side}")
        children.append(Fragment(ids["fragment"] + side, circuit, in_cuts[side], out_cuts[side],
                                 tuple(maps[side])))
    ids["fragment"] += 2
    ids["cut"] += len(cuts)
    parent.status, parent.partition = "split", list(pv)
    parent.cut, parent.children = cuts, children


def _solver_seed(seed: int, node: int, salt: int) -> int:
    return (seed * 1_000_003 + node * 10_007 + salt) & 0x7FFFFFFF


DEFAULT_SA_ALPHAS = (2.0, 4.0, 8.0, 16.0)
DEFAULT_SA_SWEEPS = 4000
DEFAULT_SA_RESTARTS = 4


def anneal_min_cut(
    g: GateGraph,
    seed: int = 0,
    sweeps: int = DEFAULT_SA_SWEEPS,
    restarts: int = DEFAULT_SA_RESTARTS,
) -> tuple[list[int], float, float]:
    """Best cut found by annealing a ladder of balance weights.

    With sum-normalized vertex weights the balance penalty at weight 1 is
    bounded by 1 while every crossing edge costs at least 1, so the
    weight-1 encoding's ground states are one-sided; stronger weights make
    proper cuts competitive. Every decoded configuration is re-scored with
    the exact cut cost (raw energies are never compared across encodings)
    and the cheapest proper cut wins.
    """
    best_pv: list[int] | None = None
    best_cost = math.inf
    best_energy = math.nan
    for ai, alpha in enumerate(DEFAULT_SA_ALPHAS):
        model = build_ising(g, alpha=alpha)
        sa = simulated_anneal(
            model,
            default_schedule(model, sweeps=sweeps),
            seed=(seed * 31 + ai) & 0x7FFFFFFF,
            restarts=restarts,
        )
        pv = spins_to_partition(sa.spins)
        cost = partition_cost(pv, g)
        if cost < best_cost:
            best_pv, best_cost, best_energy = pv, cost, sa.energy
    if best_pv is None:
        best_pv = spins_to_partition([1] * g.n)
    return best_pv, best_cost, best_energy


def _choose_partition(
    g: GateGraph,
    solver: str,
    seed: int,
    node_index: int,
    sa_sweeps: int,
    sa_restarts: int,
) -> tuple[list[int], float, dict]:
    """Run the requested solvers and keep the cheaper cut (ties favor the GA)."""
    log: dict = {"vertices": g.n}
    candidates = []
    if solver in ("ga", "both"):
        ga_seed = _solver_seed(seed, node_index, 0)
        res = find_min_cut_ga(g, ga_seed)
        log["ga"] = {
            "algorithm": "ga",
            "partition": list(res.partition),
            "cost": res.cost,
            "cut_size": cut_size(res.partition, g),
            "seed": ga_seed,
            "passes": res.passes,
        }
        candidates.append(("ga", res.partition, res.cost))
    if solver in ("anneal", "both"):
        sa_seed = _solver_seed(seed, node_index, 1)
        pv, cost, energy = anneal_min_cut(
            g,
            seed=sa_seed,
            sweeps=sa_sweeps,
            restarts=sa_restarts,
        )
        log["anneal"] = {
            "algorithm": "anneal",
            "partition": list(pv),
            "cost": cost,
            "cut_size": cut_size(pv, g) if not math.isinf(cost) else None,
            "seed": sa_seed,
            "energy": energy,
        }
        candidates.append(("anneal", pv, cost))
    # stable min: the GA is listed first, so ties pick it
    name, pv, cost = min(candidates, key=lambda t: t[2])
    if math.isinf(cost):
        raise PlanError("no proper cut found")
    log["chosen"] = name
    return list(pv), cost, log


def _planned(frag: Fragment, depth: int, threshold: float, limits: Limits) -> tuple[str, ...]:
    """The statuses the planner can give ``frag`` at ``depth``, once its
    ``success`` is set; of ``split`` and ``unsplittable-k``, the cut budget
    decides. ``recursive_fragment`` and ``_replay`` both follow it."""
    if frag.success >= threshold:
        return ("ok",)
    if len(frag.circuit.two_qubit_indices()) < 2:
        return ("unsplittable-gates",)
    if depth >= limits.max_depth:
        return ("unsplittable-depth",)
    return ("split", "unsplittable-k")


def recursive_fragment(
    c: Circuit,
    p: NoiseProfile,
    threshold: float,
    limits: Limits | None = None,
    seed: int = 0,
    solver: str = "ga",
    sa_sweeps: int = DEFAULT_SA_SWEEPS,
    sa_restarts: int = DEFAULT_SA_RESTARTS,
) -> FragmentPlan:
    """Threshold-driven recursive bipartitioning.

    A (sub-)circuit whose estimated success probability reaches the
    threshold becomes a leaf; anything else is split and recursed, until
    the limits mark leaves unsplittable. ``solver`` picks the split: the
    genetic search (``"ga"``), the annealer (``"anneal"``, with
    ``sa_sweeps`` and ``sa_restarts``), or the cheaper of the two
    (``"both"``, ties to the GA). Every solver run is logged in
    ``solver_log``.
    """
    if not 0.0 <= threshold <= 1.0:
        raise PlanError(f"threshold must lie in [0, 1], got {threshold}")
    if solver not in SOLVERS:
        raise PlanError(f"unknown solver {solver!r}")
    limits = limits or Limits()
    ids = {"fragment": 1, "cut": 0}
    solver_log: list[dict] = []

    def visit(frag: Fragment, depth: int) -> None:
        local_profile = p.for_subcircuit(frag.qubit_map)
        frag.success = success_probability(frag.circuit, local_profile).success
        planned = _planned(frag, depth, threshold, limits)
        if len(planned) == 1:
            frag.status = planned[0]
            return
        g = build_graph(frag.circuit, local_profile)
        pv, cost, log = _choose_partition(g, solver, seed, len(solver_log), sa_sweeps, sa_restarts)
        k = int(round(cut_size(pv, g)))
        log["fragment"] = frag.id
        log["k"] = k
        solver_log.append(log)
        if ids["cut"] + k > limits.max_k:
            frag.status = "unsplittable-k"
            return
        _split(frag, pv, ids)
        for child in frag.children:
            visit(child, depth + 1)

    root = _as_root_fragment(c)
    visit(root, 0)
    return FragmentPlan(
        width=c.width,
        threshold=threshold,
        root=root,
        limits=limits,
        seed=seed,
        solver=solver,
        solver_log=solver_log,
    )


# ---------------------------------------------------------------------------
# Plan documents
# ---------------------------------------------------------------------------

def _node_to_dict(f: Fragment, is_root: bool = False) -> dict:
    """A node's document: its decision, and the fragment only at the root
    and at leaves, since a split node below the root is its parent's child,
    which the parent's partition derives."""
    doc: dict = {"success": f.success, "status": f.status}
    if is_root or f.status != "split":
        doc["fragment"] = {
            "id": f.id,
            "in_cuts": {str(cid): q for cid, q in sorted(f.in_cuts.items())},
            "out_cuts": {str(cid): q for cid, q in sorted(f.out_cuts.items())},
            "qubit_map": list(f.qubit_map),
            "circuit": circuit_to_dict(f.circuit),
        }
    if f.partition is not None:
        doc["partition"] = list(f.partition)
    if f.children:
        doc["children"] = [_node_to_dict(child) for child in f.children]
    return doc


def plan_to_dict(plan: FragmentPlan) -> dict:
    leaves, cut_ids = plan.leaf_fragments(), plan.cut_ids()
    return {
        "version": 2,
        "threshold": plan.threshold,
        "limits": {"max_depth": plan.limits.max_depth, "max_k": plan.limits.max_k},
        "seed": plan.seed,
        "solver": plan.solver,
        "solver_log": plan.solver_log,
        "width": plan.width,
        "k": len(cut_ids),
        "cut_ids": cut_ids,
        "leaves": [f.id for f in leaves],
        "variant_counts": {str(f.id): f.n_variants for f in leaves},
        "tree": _node_to_dict(plan.root, is_root=True),
    }


def _replay(doc: dict, frag: Fragment, ids: dict[str, int], plan: FragmentPlan,
            depth: int = 0) -> None:
    """Replay the planner on ``frag``, at ``depth`` in ``plan``, as ``doc``
    records it: set its ``success`` and ``status``, split it along its
    ``partition`` (``_split`` numbers from ``ids``, depth first) and replay
    the ``children`` that pair with its two. Its status must be one that
    ``_planned`` allows, as in ``recursive_fragment``. Nothing else is
    compared here."""
    status, success = doc["status"], doc["success"]
    if not (_is_finite_real(success) and 0 <= success <= 1):
        raise PlanError(f"fragment {frag.id} success {success!r} is not a number in [0, 1]")
    frag.success = success
    planned = _planned(frag, depth, plan.threshold, plan.limits)
    if status not in planned:
        raise PlanError(f"fragment {frag.id} has status {status!r}, where the planner "
                        f"decides {' or '.join(planned)}")
    frag.status = status
    if status == "split":
        _split(frag, doc["partition"], ids)
        for child_doc, child in zip(doc["children"], frag.children):
            _replay(child_doc, child, ids, plan, depth + 1)


def plan_from_dict(doc: dict) -> FragmentPlan:
    """Rebuild a plan from ``plan_to_dict``'s document by replaying the planner.

    Only version 2 is read, and of it only the plan's settings, the root
    circuit and what ``_replay`` reads: each node's ``status``, ``success``
    and ``partition``. Each status must be one the planner decides under
    the plan's ``threshold`` and ``limits``, and the rebuilt plan may not
    have more cuts than ``max_k``. The writer's document of the rebuilt
    plan must then equal ``doc``, so anything the writer does not write is
    refused too: a ``cuts`` key, a fragment on a split node below the root,
    or ``children`` other than a list of two on each split node. Anything
    else raises ``PlanError``: another version, a malformed field, a root
    circuit that ``Circuit`` or ``Gate`` rejects (wider than
    ``MAX_CIRCUIT_QUBITS`` included), a ``success`` or ``threshold`` outside
    [0, 1], a non-integer ``seed`` or limit, a ``solver_log`` that is not a
    list of objects, an unknown ``solver`` or a tree nested too deeply.
    """
    if not isinstance(doc, dict):
        raise PlanError("plan document must be a JSON object")
    if type(doc.get("version")) is not int or doc["version"] != 2:
        raise PlanError("unsupported plan document version")
    try:
        solver_log = doc["solver_log"]
        if not (isinstance(solver_log, list) and all(isinstance(e, dict) for e in solver_log)):
            raise PlanError("plan solver_log is not a list of objects")
        root = _as_root_fragment(circuit_from_dict(doc["tree"]["fragment"]["circuit"]))
        plan = FragmentPlan(
            width=root.width,
            threshold=doc["threshold"],
            root=root,
            limits=Limits(**doc["limits"]),
            seed=doc["seed"],
            solver=doc["solver"],
            solver_log=list(solver_log),
        )
        if not (_is_finite_real(plan.threshold) and 0 <= plan.threshold <= 1):
            raise PlanError(f"plan threshold {plan.threshold!r} is not a number in [0, 1]")
        if type(plan.seed) is not int:
            raise PlanError(f"plan seed {plan.seed!r} is not an integer")
        if plan.solver not in SOLVERS:
            raise PlanError(f"plan solver {plan.solver!r} is not one of {SOLVERS}")
        ids = {"fragment": 1, "cut": 0}
        _replay(doc["tree"], root, ids, plan)
        if ids["cut"] > plan.limits.max_k:
            raise PlanError(f"plan has {ids['cut']} cuts, over its max_k of {plan.limits.max_k}")
        rebuilt = plan_to_dict(plan)
    except PlanError:
        raise
    except RecursionError:
        raise PlanError("plan tree is nested too deeply") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise PlanError(f"missing or malformed field {exc}") from None
    if rebuilt != doc:
        raise PlanError("the document is not the one its rebuilt plan writes")
    return plan
