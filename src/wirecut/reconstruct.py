"""Variant execution and recombination into the full-circuit distribution.

A leaf's outputs are one array (``FragmentOutput.probs``) with the leaf's
``Fragment.variant_axes``, one basis axis per out-cut and one init axis per
in-cut, then one bit axis per qubit; the output holds its plan leaf.
``execute_plan`` fills it through one of ``simulate``'s two variant
executors, ``run_ideal`` or ``run_noisy_variants``, with one prep entry per
in-cut (the prep gates of each init) and one readout entry per out-cut (the
basis gates of each basis). Sampling (``shots``) is one later step over
those exact rows. One document holds a run's outputs (``outputs_to_dict``):
the id of its plan and per leaf one base64 string of little-endian float64
bytes, one dense row per variant, so no variant key or bitstring is written
or parsed and every row reads back bit for bit. It is read against the
plan, not trusted: it must name that plan and hold exactly its leaves, each
row a distribution in its leaf's layout; recombination checks once that
each output belongs to the leaf it is combined for. The reconstructed
``Distribution`` wraps the recombined probability vector, and fidelity, TVD
and Hellinger distance are elementwise expressions over two vectors.

Each cut carries one of four labels I, Z, X, Y; the sum over all 4^k label
assignments, scaled by 1/2 per cut, is the uncut distribution (Peng et al.,
PRL 125, 150504, 2020). It is evaluated as a tensor network (CutQC, Tang et
al., ASPLOS 2021). Fixed maps turn a leaf's array into its label tensor,
one 4-valued axis per cut and one bit axis per terminal qubit: per out-cut,
I reads the Z-basis bit with signs [1, 1], Z the Z-basis bit with [1, -1],
X and Y their own bases with [1, -1]; per in-cut, I = zero + one,
Z = zero - one, X = 2 plus - zero - one and Y = 2 plus_i - zero - one. The
maps are applied along a fixed path, one ``tensordot`` per cut, with no
path search. The label tensors are contracted over shared cut axes into
original qubit order along numpy's greedy path, searched once per
reconstruction under a memory limit and checked before it runs: a path
that joins more than two tensors in one step (numpy's fallback when no
pair fits the limit) is refused when the plan cuts. The path depends
only on the plan's shapes, so equal inputs give byte-identical results,
and its cost is set by the largest intermediate, not the 4^k assignments.
"""
from __future__ import annotations

import base64
import math
from dataclasses import dataclass, field

import numpy as np

# enumerate_variants and run_noisy are not called here, but
# perfbench/pb_layers.py hooks them under these names and drops every metric
# of a hook whose target is missing
from .fragment import (
    _BASIS_GATES,
    _PREP_GATES,
    INIT_STATES,
    MEAS_BASES,
    Fragment,
    FragmentPlan,
    enumerate_variants,  # noqa: F401
)
from .noise import NoiseProfile
from .simulate import (
    MAX_STATEVECTOR_QUBITS,
    Distribution,
    SimulationError,
    run_ideal,
    run_noisy,  # noqa: F401
    run_noisy_variants,
    sample_frequencies,
)

__all__ = [
    "ReconstructionError",
    "FragmentOutput",
    "outputs_to_dict",
    "outputs_from_dict",
    "ReconstructionResult",
    "execute_plan",
    "reconstruct",
    "fidelity",
    "tvd",
    "hellinger",
]


# out-cut map over (label, basis, bit): labels I, Z, X, Y read bases Z, Z, X, Y
_OUT_MAP = np.zeros((4, len(MEAS_BASES), 2))
_OUT_MAP[range(4), [MEAS_BASES.index(b) for b in "ZZXY"]] = [[1, 1], [1, -1], [1, -1], [1, -1]]
# in-cut map over (label, init), inits in INIT_STATES order: zero, one, plus, plus_i
_IN_MAP = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [-1, -1, 2, 0], [-1, -1, 0, 2]], dtype=float)
# the prep gates of each init and the basis gates of each readout basis, in
# INIT_STATES and MEAS_BASES order
_PREP_OPTIONS = tuple(_PREP_GATES[s] for s in INIT_STATES)
_BASIS_OPTIONS = tuple(_BASIS_GATES[b] for b in MEAS_BASES)
_MAX_INDICES = 52  # np.einsum names every index with one of 52 letters
# elements an intermediate tensor may hold when the leaves are contracted
# (32 MiB), or 2^width when more; when no pair fits, numpy's greedy path
# joins the remaining tensors in one step, which ``reconstruct`` refuses
_MAX_INTERMEDIATE = 1 << 22


class ReconstructionError(ValueError):
    """Raised on missing variants or inconsistent fragment layouts."""


@dataclass(eq=False)
class FragmentOutput:
    """Every variant's outcome distribution of one plan leaf, in one array.

    ``probs`` has the leaf's ``variant_axes`` (one basis axis per out-cut
    in ``MEAS_BASES`` order, then one init axis per in-cut in
    ``INIT_STATES`` order, each in cut-id order), then one bit axis per
    local qubit. ``shots`` is set when the distributions were sampled.
    """

    leaf: Fragment
    probs: np.ndarray
    shots: int | None = None


def outputs_to_dict(outputs: dict[int, FragmentOutput], plan_id: str) -> dict:
    """The fragments document of one run's ``outputs``, keyed by leaf id as
    ``execute_plan`` returns them, of the plan ``plan_id`` names:
    ``{"version": 4, "plan": plan_id, "shots"?, "probs"}``. ``probs`` maps
    each leaf id, as a string, to the base64 of its little-endian float64
    (``<f8``) bytes: one row of 2^width probabilities per variant, in
    ``enumerate_variants`` order, which reads back bit for bit."""
    (shots,) = {o.shots for o in outputs.values()}  # one run, one shots value
    doc = {"version": 4, "plan": plan_id, "probs": {
        str(fid): base64.b64encode(o.probs.astype("<f8", copy=False).tobytes()).decode("ascii")
        for fid, o in outputs.items()  # row-major
    }}
    if shots is not None:
        doc["shots"] = shots
    return doc


def outputs_from_dict(doc, plan: FragmentPlan, plan_id: str) -> dict[int, FragmentOutput]:
    """The outputs, keyed by leaf id, in ``outputs_to_dict``'s document of
    a run of ``plan``, which ``plan_id`` names.

    The document must be of version 4 and of ``plan_id``, with exactly the
    plan's leaf ids, no other key and ``shots`` absent or an integer >= 1.
    Each entry's length is checked against its leaf's layout before it is
    decoded, and its rows must be distributions: finite, non-negative and
    summing to 1 within 1e-9. Each ``probs`` is a read-only view of the
    decoded bytes.
    """
    if not isinstance(doc, dict):
        raise ReconstructionError("fragments document must be a JSON object")
    version = doc.get("version")
    if type(version) is not int or version != 4:
        raise ReconstructionError(
            f"fragments document version {version!r} is not supported; expected version 4")
    if doc.get("plan") != plan_id:
        raise ReconstructionError(f"it was written for another plan, {doc.get('plan')!r}, "
                                  f"not for {plan_id}")
    leaves = sorted(plan.leaf_fragments(), key=lambda f: f.id)
    probs = doc.get("probs")
    if not isinstance(probs, dict) or set(probs) != {str(leaf.id) for leaf in leaves}:
        raise ReconstructionError("its probs must be an object keyed by exactly the plan's "
                                  f"leaf ids {[leaf.id for leaf in leaves]}")
    unknown = sorted(set(doc) - {"version", "plan", "shots", "probs"})
    if unknown:
        raise ReconstructionError(f"unknown key(s) {unknown}")
    shots = doc.get("shots")
    if "shots" in doc and not (type(shots) is int and shots >= 1):
        raise ReconstructionError(f"shots {shots!r} is not an integer >= 1")
    return {leaf.id: _leaf_output(probs[str(leaf.id)], leaf, shots) for leaf in leaves}


def _leaf_output(text, leaf: Fragment, shots: int | None) -> FragmentOutput:
    """The output of ``leaf`` that a fragments document's entry holds."""
    n_rows, n_cols = leaf.n_variants, 1 << leaf.width
    n_bytes = 8 * n_rows * n_cols
    n_chars = 4 * -(-n_bytes // 3)  # padded base64
    if not isinstance(text, str) or len(text) != n_chars:
        raise ReconstructionError(f"fragment {leaf.id} needs {n_rows} rows of {n_cols} "
                                  "probabilities, one row per variant, as one base64 "
                                  f"string of {n_chars} characters")
    bad = ReconstructionError(f"fragment {leaf.id} has probs that are not the base64 "
                              f"of {n_bytes} bytes")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or a character outside ASCII
        raise bad from None
    if len(raw) != n_bytes:  # padding inside the text shortens it
        raise bad
    probs = np.frombuffer(raw, dtype="<f8").reshape(n_rows, n_cols)
    if not np.isfinite(probs).all():
        raise ReconstructionError(
            f"fragment {leaf.id} has entries that are not finite numbers")
    with np.errstate(over="ignore"):  # an overflowing sum is off 1 too
        off = np.abs(probs.sum(axis=1) - 1.0)
    if (probs < 0).any() or not (off <= 1e-9).all():
        raise ReconstructionError(f"fragment {leaf.id} has a row that is not a distribution: "
                                  "a negative entry or a sum off 1 by more than 1e-9")
    return FragmentOutput(leaf, probs.astype(float, copy=False).reshape(
        leaf.variant_axes + (2,) * leaf.width), shots)


@dataclass
class ReconstructionResult:
    distribution: Distribution
    k: int
    terms: int
    clipped_mass: float
    metrics: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "distribution": self.distribution.to_dict(),
            "k": self.k,
            "terms": self.terms,
            "clipped_mass": self.clipped_mass,
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
        }


def execute_plan(
    plan: FragmentPlan,
    profile: NoiseProfile | None = None,
    shots: int | None = None,
    seed: int = 0,
) -> dict[int, FragmentOutput]:
    """Simulate every variant of every leaf fragment.

    Each leaf's in-cuts become prep entries offering each init's prep gates,
    and its out-cuts readout entries offering each basis's gates, both in
    cut-id order. Without ``profile`` they go to ``run_ideal``, whose
    amplitudes are squared; with it, to ``run_noisy_variants`` under the
    profile remapped onto the leaf's qubits, whose rows each equal a
    separate density-matrix run of their variant circuit to rounding.
    Either way the leaf's exact rows come first. With ``shots``, each row
    (one per variant, in ``enumerate_variants`` order) is then replaced by
    the frequencies ``sample_frequencies`` draws from it, seeded with
    ``(seed & 0x7FFFFFFF, leaf id, row index)``.

    An executor's ``SimulationError`` is raised again with the leaf's id:
    among them, a leaf whose outputs would hold more than
    ``MAX_LEAF_ENTRIES`` (2^24) entries, refused before anything is
    allocated.
    """
    outputs: dict[int, FragmentOutput] = {}
    for leaf in plan.leaf_fragments():
        preps = [(leaf.in_cuts[cid], _PREP_OPTIONS) for cid in sorted(leaf.in_cuts)]
        readouts = [(leaf.out_cuts[cid], _BASIS_OPTIONS) for cid in sorted(leaf.out_cuts)]
        try:
            if profile is None:
                probs = np.abs(run_ideal(leaf.circuit, preps, readouts)) ** 2
            else:
                probs = run_noisy_variants(leaf.circuit, profile.for_subcircuit(leaf.qubit_map),
                                           preps, readouts)
        except SimulationError as exc:
            raise SimulationError(f"fragment {leaf.id}: {exc}") from None
        if shots is not None:
            rows = [
                sample_frequencies(p, shots, (seed & 0x7FFFFFFF, leaf.id, row))
                for row, p in enumerate(probs.reshape(-1, 1 << leaf.width))
            ]
            probs = np.array(rows).reshape(probs.shape)
        outputs[leaf.id] = FragmentOutput(leaf, probs, shots)
    return outputs


# ---------------------------------------------------------------------------
# Recombination
# ---------------------------------------------------------------------------

def _leaf_tensor(leaf: Fragment, output: FragmentOutput) -> np.ndarray:
    """Label tensor of one leaf: one 4-valued axis per cut, in the leaf's
    ``variant_cuts`` order, then one bit axis per terminal qubit."""
    if output.leaf != leaf:
        raise ReconstructionError(
            f"the output given for fragment {leaf.id} is not plan leaf {leaf.id}'s")

    # t's axes: the settings of the cuts not yet mapped, the bits of the local
    # qubits still held, then one label per mapped cut; each map removes its
    # cut's setting (and an out-cut's bit) and appends the label
    t, held, cuts = output.probs, list(range(leaf.width)), leaf.variant_cuts
    for j, cid in enumerate(cuts):
        if cid in leaf.out_cuts:
            q = leaf.out_cuts[cid]
            t = np.tensordot(t, _OUT_MAP, ([0, len(cuts) - j + held.index(q)], [1, 2]))
            held.remove(q)
        else:
            t = np.tensordot(t, _IN_MAP, ([0], [1]))
    # a view, not a copy: the final contraction's rounding follows its strides
    return t.transpose([*range(len(held), t.ndim), *range(len(held))])


def reconstruct(outputs: dict[int, FragmentOutput], plan: FragmentPlan) -> ReconstructionResult:
    """Recombine fragment outputs, keyed by leaf id as ``execute_plan``
    returns them, into the full-width distribution.

    Negative quasi-probability mass (possible under noise or sampling) is
    clipped to zero and the result renormalized; the clipped amount is
    reported. Under ideal inputs the quasi-distribution is already a
    distribution and clipping is a no-op. ``terms`` is 4^k, the number of
    label assignments the contraction sums over. A plan whose leaves no
    pairwise contraction order joins within the intermediate limit raises
    ``ReconstructionError`` before anything is contracted.
    """
    if plan.width > MAX_STATEVECTOR_QUBITS:
        raise ReconstructionError(
            f"reconstruction capped at {MAX_STATEVECTOR_QUBITS} qubits, got width {plan.width}"
        )
    leaves = sorted(plan.leaf_fragments(), key=lambda f: f.id)
    for leaf in leaves:
        if leaf.id not in outputs:
            raise ReconstructionError(f"no output document for fragment {leaf.id}")

    cut_ids = plan.cut_ids()
    k = len(cut_ids)
    # every cut is measured by exactly one leaf and initialized by exactly one
    for role in ("out_cuts", "in_cuts"):
        if sorted(cid for leaf in leaves for cid in getattr(leaf, role)) != cut_ids:
            raise ReconstructionError("cut ids are not paired across fragments")

    terminals = [[leaf.qubit_map[q] for q in leaf.terminal_qubits()] for leaf in leaves]
    positions = sorted(q for qubits in terminals for q in qubits)
    if positions != list(range(plan.width)):
        raise ReconstructionError(
            f"terminal qubits {positions} do not tile the original width {plan.width}"
        )
    if plan.width + k > _MAX_INDICES:
        raise ReconstructionError(
            f"width {plan.width} plus {k} cuts exceeds the {_MAX_INDICES} contraction indices"
        )

    # einsum indices: original qubits 0..width-1, then one per cut; the
    # output lists the qubits in order, which is the final transpose
    cut_index = {cid: plan.width + j for j, cid in enumerate(cut_ids)}
    operands: list = []
    limit = max(_MAX_INTERMEDIATE, 1 << plan.width)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below when not finite
        for leaf, qubits in zip(leaves, terminals):
            operands += [_leaf_tensor(leaf, outputs[leaf.id]),
                         [cut_index[c] for c in leaf.variant_cuts] + qubits]
        operands.append(list(range(plan.width)))
        path, _ = np.einsum_path(*operands, optimize=("greedy", limit))
        # with no cut every index is the output's, and numpy leaves the whole
        # product to one step, whose one array is the 2^width output
        if k and any(len(step) > 2 for step in path[1:]):
            raise ReconstructionError(
                f"no contraction order of the {len(leaves)} leaves keeps every intermediate "
                f"within {limit} elements")
        quasi = np.einsum(*operands, optimize=path).reshape(-1) * (0.5 ** k)

    clipped = float(-np.sum(np.minimum(quasi, 0.0))) or 0.0  # never -0.0
    clipped_vec = np.clip(quasi, 0.0, None)
    total = clipped_vec.sum()
    if not (np.isfinite(total) and np.isfinite(clipped)):
        raise ReconstructionError("reconstructed distribution is not finite")
    if total <= 0:
        raise ReconstructionError("reconstructed distribution has no positive mass")
    return ReconstructionResult(
        distribution=Distribution(clipped_vec / total), k=k, terms=4 ** k, clipped_mass=clipped
    )


# ---------------------------------------------------------------------------
# Distribution distances
# ---------------------------------------------------------------------------

def _check_widths(a: Distribution, b: Distribution):
    if a.width != b.width:
        raise ReconstructionError(f"width mismatch: {a.width} != {b.width}")


# Python's ``sum`` over the non-zero terms in index (sorted-bitstring) order:
# np.sum's pairwise order would move the last bits; the list fits the support.

def _bhattacharyya(a: Distribution, b: Distribution) -> float:
    both = (a.probs > 0) & (b.probs > 0)
    return sum(np.sqrt(a.probs[both] * b.probs[both]).tolist(), 0.0)


def fidelity(a: Distribution, b: Distribution) -> float:
    """Classical (Bhattacharyya) fidelity: (sum_x sqrt(a(x) b(x)))^2."""
    _check_widths(a, b)
    return min(_bhattacharyya(a, b) ** 2, 1.0)


def tvd(a: Distribution, b: Distribution) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    _check_widths(a, b)
    diff = np.abs(a.probs - b.probs)
    return 0.5 * sum(diff[diff > 0].tolist(), 0.0)


def hellinger(a: Distribution, b: Distribution) -> float:
    """Hellinger distance: sqrt(1 - Bhattacharyya coefficient)."""
    _check_widths(a, b)
    return math.sqrt(max(0.0, 1.0 - _bhattacharyya(a, b)))