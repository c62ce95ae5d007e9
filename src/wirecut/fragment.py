"""Wire-cut fragmentation: applying a partition to a circuit.

One step, ``_split``, applies a bipartition of a fragment's gate graph.
Every wire segment whose endpoint gates land on different sides becomes a
cut point, numbered in (qubit, upstream gate) order. Cutting splits every
wire into pieces; each piece becomes a fresh local qubit of the child
owning its gates, carrying an initialization role (in-cut) when the piece
starts at a cut and a measurement role (out-cut) when it ends at one. A
piece is always owned by one side because every crossing adjacency is
cut, so both children stay straight-line circuits. The step returns the
split plan node with its two children.

Variant enumeration synthesizes the runnable circuits: each out-cut is
measured in the Z, X, or Y basis (basis change appended at the end of the
wire), and each in-cut is prepared in one of |0>, |1>, |+>, |+i>
(preparation prepended), for 3^out * 4^in variants per fragment.

The recursive driver keeps splitting any fragment whose estimated success
probability falls below the threshold and stops at the depth/cut-count
limits. Each split comes from the genetic search; the annealer can run
instead, or beside it for comparison, in which case the cheaper cut by
the exact cut cost is kept. ``single_cut_plan`` applies one given
partition with the same step.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
    "PlanNode",
    "FragmentPlan",
    "Limits",
    "enumerate_variants",
    "recursive_fragment",
    "anneal_min_cut",
    "single_cut_plan",
    "plan_to_dict",
    "plan_from_dict",
]

INIT_STATES = ("zero", "one", "plus", "plus_i")
MEAS_BASES = ("Z", "X", "Y")

_PREP_GATES = {
    "zero": (),
    "one": ("x",),
    "plus": ("h",),
    "plus_i": ("h", "s"),
}
_BASIS_GATES = {
    "Z": (),
    "X": ("h",),
    "Y": ("sdg", "h"),
}


class PlanError(ValueError):
    """Raised on partitions that cannot split a fragment, or bad plan documents."""


@dataclass(frozen=True)
class CutPoint:
    """A wire cut on ``qubit`` immediately after ``upstream_gate``."""

    qubit: int
    upstream_gate: int
    downstream_gate: int
    cut_id: int


@dataclass
class Fragment:
    """A sub-circuit over compacted local qubits.

    in_cuts / out_cuts map cut ids to local qubits; qubit_map maps local
    qubits back to the original circuit's qubit indices (several locals
    may share an original when a wire is cut more than once; the one
    without an out-cut role carries the wire's final value).
    """

    id: int
    circuit: Circuit
    in_cuts: dict[int, int] = field(default_factory=dict)
    out_cuts: dict[int, int] = field(default_factory=dict)
    qubit_map: tuple[int, ...] = ()

    @property
    def width(self) -> int:
        return self.circuit.width

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
    for bases in itertools.product(MEAS_BASES, repeat=len(out_ids)):
        for inits in itertools.product(INIT_STATES, repeat=len(in_ids)):
            prep: list[Gate] = []
            for cid, state in zip(in_ids, inits):
                for name in _PREP_GATES[state]:
                    prep.append(Gate(name, (f.in_cuts[cid],)))
            post: list[Gate] = []
            for cid, basis in zip(out_ids, bases):
                for name in _BASIS_GATES[basis]:
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
        if self.max_depth < 0 or self.max_k < 0:
            raise ValueError("limits must be non-negative")


@dataclass
class PlanNode:
    fragment: Fragment
    success: float
    status: str  # ok | split | unsplittable-gates | unsplittable-depth | unsplittable-k
    cut: tuple[CutPoint, ...] | None = None
    partition: list[int] | None = None
    children: list["PlanNode"] = field(default_factory=list)

    def is_leaf(self) -> bool:
        return not self.children


@dataclass
class FragmentPlan:
    width: int
    threshold: float
    root: PlanNode
    limits: Limits
    seed: int
    solver: str
    solver_log: list[dict] = field(default_factory=list)

    def leaves(self) -> list[PlanNode]:
        out: list[PlanNode] = []

        def walk(node: PlanNode):
            if node.is_leaf():
                out.append(node)
            for child in node.children:
                walk(child)

        walk(self.root)
        return out

    def leaf_fragments(self) -> list[Fragment]:
        return [node.fragment for node in self.leaves()]

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


def _split(
    parent: Fragment,
    success: float,
    pv,
    g: GateGraph,
    first_cut_id: int,
    child_ids: tuple[int, int],
) -> PlanNode:
    """The split node that applies partition ``pv`` of ``g``, the gate graph
    of ``parent``'s circuit.

    Each crossing wire segment becomes one cut, so their count equals the
    weighted cut size (a weight-2 edge yields two cuts); cut ids run from
    ``first_cut_id`` in (qubit, upstream gate) order. Both children are
    built, with ids ``child_ids``, as ``ok`` leaves of the returned node.
    """
    if len(pv) != g.n:
        raise PlanError(f"partition length {len(pv)} != vertex count {g.n}")
    if len(set(pv)) == 1 and g.n > 0:
        raise PlanError("partition is one-sided; no cut to derive")
    crossing = sorted(
        (s for e in g.edges if pv[e.u] != pv[e.v] for s in e.segments),
        key=lambda s: (s.qubit, s.upstream_gate),
    )
    cuts = tuple(
        CutPoint(s.qubit, s.upstream_gate, s.downstream_gate, first_cut_id + i)
        for i, s in enumerate(crossing)
    )
    cuts_after = {(cp.qubit, cp.upstream_gate) for cp in cuts}
    c = parent.circuit
    width = c.width
    vertex_of_gate = {gi: vid for vid, gi in enumerate(c.two_qubit_indices())}

    # walk once: which piece of which wire each gate touches, and the piece
    # index right after each two-qubit gate (for cut role placement)
    cur = [0] * width
    placements: list[list[tuple[int, int]]] = []
    piece_side: dict[tuple[int, int], int] = {}
    piece_of_gate: dict[tuple[int, int], int] = {}
    for gi, gate in enumerate(c.gates):
        spots = [(q, cur[q]) for q in gate.qubits]
        placements.append(spots)
        if gate.is_two_qubit:
            side = pv[vertex_of_gate[gi]]
            for spot in spots:
                piece_side[spot] = side
            for q in gate.qubits:
                piece_of_gate[(q, gi)] = cur[q]
                if (q, gi) in cuts_after:
                    cur[q] += 1

    # every wire contributes its pieces; sideless pieces (wires without any
    # two-qubit gate) default to side 0
    pieces = [(q, i) for q in range(width) for i in range(cur[q] + 1)]
    local: dict[tuple[int, int], int] = {}
    maps: tuple[list[int], list[int]] = ([], [])
    for piece in pieces:
        side = piece_side.get(piece, 0)
        local[piece] = len(maps[side])
        maps[side].append(parent.qubit_map[piece[0]])
    side_of = {piece: piece_side.get(piece, 0) for piece in pieces}

    gates: tuple[list[Gate], list[Gate]] = ([], [])
    for gi, gate in enumerate(c.gates):
        spots = placements[gi]
        side = side_of[spots[0]]
        gates[side].append(Gate(gate.name, tuple(local[s] for s in spots), gate.params))

    in_cuts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    out_cuts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for cp in cuts:
        up_piece = (cp.qubit, piece_of_gate[(cp.qubit, cp.upstream_gate)])
        down_piece = (cp.qubit, up_piece[1] + 1)
        out_cuts[side_of[up_piece]][cp.cut_id] = local[up_piece]
        in_cuts[side_of[down_piece]][cp.cut_id] = local[down_piece]
    # inherited roles: an in-cut enters at the wire start (first piece), an
    # out-cut leaves at the wire end (last piece)
    for cid, q in parent.in_cuts.items():
        piece = (q, 0)
        in_cuts[side_of[piece]][cid] = local[piece]
    for cid, q in parent.out_cuts.items():
        piece = (q, cur[q])
        out_cuts[side_of[piece]][cid] = local[piece]

    children = []
    for side in (0, 1):
        if not maps[side]:
            raise PlanError("partition leaves one side empty")
        child = Fragment(
            id=child_ids[side],
            circuit=Circuit(
                width=len(maps[side]),
                gates=tuple(gates[side]),
                name=f"{c.name}.{side}",
            ),
            in_cuts=in_cuts[side],
            out_cuts=out_cuts[side],
            qubit_map=tuple(maps[side]),
        )
        children.append(PlanNode(fragment=child, success=0.0, status="ok"))
    return PlanNode(fragment=parent, success=success, status="split", cut=cuts,
                    partition=list(pv), children=children)


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
    if not candidates:
        raise PlanError(f"unknown solver '{solver}'")
    # stable min: the GA is listed first, so ties pick it
    name, pv, cost = min(candidates, key=lambda t: t[2])
    if math.isinf(cost):
        raise PlanError("no proper cut found")
    log["chosen"] = name
    return list(pv), cost, log


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
    limits = limits or Limits()
    counters = {"fragment": 1, "cut": 0, "node": 0}
    solver_log: list[dict] = []

    def visit(frag: Fragment, depth: int) -> PlanNode:
        local_profile = p.for_subcircuit(frag.qubit_map)
        est = success_probability(frag.circuit, local_profile)
        if est.success >= threshold:
            return PlanNode(fragment=frag, success=est.success, status="ok")
        if len(frag.circuit.two_qubit_indices()) < 2:
            return PlanNode(fragment=frag, success=est.success, status="unsplittable-gates")
        if depth >= limits.max_depth:
            return PlanNode(fragment=frag, success=est.success, status="unsplittable-depth")
        g = build_graph(frag.circuit, local_profile)
        node_index = counters["node"]
        counters["node"] += 1
        pv, cost, log = _choose_partition(g, solver, seed, node_index, sa_sweeps, sa_restarts)
        k = int(round(cut_size(pv, g)))
        log["fragment"] = frag.id
        log["k"] = k
        solver_log.append(log)
        if counters["cut"] + k > limits.max_k:
            return PlanNode(fragment=frag, success=est.success, status="unsplittable-k")
        ids = (counters["fragment"], counters["fragment"] + 1)
        node = _split(frag, est.success, pv, g, counters["cut"], ids)
        counters["cut"] += len(node.cut)
        counters["fragment"] += 2
        node.children = [visit(child.fragment, depth + 1) for child in node.children]
        return node

    root = visit(_as_root_fragment(c), 0)
    return FragmentPlan(
        width=c.width,
        threshold=threshold,
        root=root,
        limits=limits,
        seed=seed,
        solver=solver,
        solver_log=solver_log,
    )


def single_cut_plan(c: Circuit, pv, g: GateGraph) -> FragmentPlan:
    """One forced split along ``pv``; useful for testing reconstruction."""
    root = _split(_as_root_fragment(c), 0.0, pv, g, 0, (1, 2))
    return FragmentPlan(
        width=c.width, threshold=0.0, root=root, limits=Limits(), seed=0, solver="manual"
    )


# ---------------------------------------------------------------------------
# Plan documents
# ---------------------------------------------------------------------------

def _fragment_to_dict(f: Fragment) -> dict:
    return {
        "id": f.id,
        "circuit": circuit_to_dict(f.circuit),
        "in_cuts": {str(cid): q for cid, q in sorted(f.in_cuts.items())},
        "out_cuts": {str(cid): q for cid, q in sorted(f.out_cuts.items())},
        "qubit_map": list(f.qubit_map),
    }


def _fragment_from_dict(doc: dict) -> Fragment:
    f = Fragment(
        id=doc["id"],
        circuit=circuit_from_dict(doc["circuit"]),
        in_cuts={int(k): v for k, v in doc["in_cuts"].items()},
        out_cuts={int(k): v for k, v in doc["out_cuts"].items()},
        qubit_map=tuple(doc["qubit_map"]),
    )
    if len(f.qubit_map) != f.width:
        raise PlanError(f"fragment {f.id} maps {len(f.qubit_map)} qubits, its circuit has {f.width}")
    for role, cuts in (("in", f.in_cuts), ("out", f.out_cuts)):
        local = list(cuts.values())
        if not all(type(q) is int and 0 <= q < f.width for q in local) \
                or len(set(local)) != len(local):
            raise PlanError(f"fragment {f.id} {role}-cuts {cuts} need distinct local "
                            f"qubits in 0..{f.width - 1}")
    return f


def _node_to_dict(node: PlanNode) -> dict:
    doc = {
        "fragment": _fragment_to_dict(node.fragment),
        "success": node.success,
        "status": node.status,
    }
    if node.cut is not None:
        doc["cuts"] = [
            {
                "qubit": cp.qubit,
                "upstream_gate": cp.upstream_gate,
                "downstream_gate": cp.downstream_gate,
                "cut_id": cp.cut_id,
            }
            for cp in node.cut
        ]
    if node.partition is not None:
        doc["partition"] = list(node.partition)
    if node.children:
        doc["children"] = [_node_to_dict(child) for child in node.children]
    return doc


def _node_from_dict(doc: dict, ids: set[int]) -> PlanNode:
    """Rebuild a node and its subtree, adding their fragment ids to ``ids``."""
    cut = None
    if "cuts" in doc:
        cut = tuple(
            CutPoint(c["qubit"], c["upstream_gate"], c["downstream_gate"], c["cut_id"])
            for c in doc["cuts"]
        )
    fragment = _fragment_from_dict(doc["fragment"])
    if type(fragment.id) is not int or fragment.id < 0 or fragment.id in ids:
        raise PlanError(f"fragment id {fragment.id!r} is not an integer >= 0 "
                        "distinct from the plan's other fragment ids")
    ids.add(fragment.id)
    node = PlanNode(
        fragment=fragment,
        success=doc["success"],
        status=doc["status"],
        cut=cut,
        partition=list(doc["partition"]) if "partition" in doc else None,
    )
    node.children = [_node_from_dict(child, ids) for child in doc.get("children", [])]
    return node


def plan_to_dict(plan: FragmentPlan) -> dict:
    return {
        "version": 1,
        "width": plan.width,
        "threshold": plan.threshold,
        "k": plan.k,
        "cut_ids": plan.cut_ids(),
        "limits": {"max_depth": plan.limits.max_depth, "max_k": plan.limits.max_k},
        "seed": plan.seed,
        "solver": plan.solver,
        "solver_log": plan.solver_log,
        "tree": _node_to_dict(plan.root),
        "leaves": [node.fragment.id for node in plan.leaves()],
        "variant_counts": {
            str(node.fragment.id): 3 ** len(node.fragment.out_cuts)
            * 4 ** len(node.fragment.in_cuts)
            for node in plan.leaves()
        },
    }


def plan_from_dict(doc: dict) -> FragmentPlan:
    """Rebuild a plan from ``plan_to_dict``'s document; a document of the
    wrong shape, a gate ``Gate`` rejects, a tree nested too deeply to
    rebuild, a ``width`` other than the root fragment's, a ``threshold``
    outside [0, 1] or a non-integer ``seed`` raises ``PlanError``."""
    if not isinstance(doc, dict):
        raise PlanError("plan document must be a JSON object")
    if doc.get("version") != 1:
        raise PlanError("unsupported plan document version")
    try:
        plan = FragmentPlan(
            width=doc["width"],
            threshold=doc["threshold"],
            root=_node_from_dict(doc["tree"], set()),
            limits=Limits(**doc["limits"]),
            seed=doc["seed"],
            solver=doc["solver"],
            solver_log=list(doc.get("solver_log", [])),
        )
    except PlanError:
        raise
    except RecursionError:
        raise PlanError("plan tree is nested too deeply") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise PlanError(f"missing or malformed field {exc}") from None
    if type(plan.width) is not int or plan.width != plan.root.fragment.width:
        raise PlanError(f"plan width {plan.width!r} is not the root fragment's width "
                        f"{plan.root.fragment.width}")
    if not (_is_finite_real(plan.threshold) and 0 <= plan.threshold <= 1):
        raise PlanError(f"plan threshold {plan.threshold!r} is not a number in [0, 1]")
    if type(plan.seed) is not int:
        raise PlanError(f"plan seed {plan.seed!r} is not an integer")
    return plan
