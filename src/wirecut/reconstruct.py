"""Variant execution and recombination into the full-circuit distribution.

A leaf's outputs are one array (``FragmentOutput.probs``) with the leaf's
``Fragment.variant_axes``, one basis axis per out-cut and one init axis per
in-cut, then one bit axis per qubit; the output holds its plan leaf.
Ideal execution fills it from a single evolution of the leaf's body: the
in-cut initializations are leading batch axes of the statevector, and by
linearity one fixed rotation per out-cut then yields every readout basis.
Noisy execution evolves the body's density matrix once per schedule group
(the inits whose prep gates take the same durations, as one batch) and
reads every readout basis from it (``simulate.run_noisy_variants``), into
the same array. Sampling (``shots``) is one later step over those exact
rows. A fragment document (``to_dict``/``from_dict``) stores that array
as one dense row per variant under its leaf's header (id, width and
sorted cut ids), so no variant key or bitstring is written or parsed.
It is read against the plan's leaf, not trusted: the header must be that
leaf's and every row a distribution in its layout, and recombination
checks once that each output belongs to the leaf it is combined for. The
reconstructed ``Distribution`` wraps the recombined probability vector,
and fidelity, TVD and Hellinger distance are elementwise expressions over
two vectors.

Each cut carries one of four labels I, Z, X, Y; the sum over all 4^k label
assignments, scaled by 1/2 per cut, is the uncut distribution (Peng et al.,
PRL 125, 150504, 2020). It is evaluated as a tensor network (CutQC, Tang et
al., ASPLOS 2021). Fixed maps turn a leaf's array into its label tensor,
one 4-valued axis per cut and one bit axis per terminal qubit: per out-cut,
I reads the Z-basis bit with signs [1, 1], Z the Z-basis bit with [1, -1],
X and Y their own bases with [1, -1]; per in-cut, I = zero + one,
Z = zero - one, X = 2 plus - zero - one and Y = 2 plus_i - zero - one. The
label tensors are contracted over shared cut axes into original qubit order
along numpy's greedy path, which depends only on the plan's shapes, so equal
inputs give byte-identical results. The cost is set by the largest
intermediate tensor, not by the 4^k assignments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import GATES
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
    "ReconstructionResult",
    "execute_plan",
    "reconstruct",
    "fidelity",
    "tvd",
    "hellinger",
]


def _gates_unitary(names: tuple[str, ...]) -> np.ndarray:
    """Product of the named one-qubit gates, the first applied first."""
    u = np.eye(2, dtype=complex)
    for name in names:
        u = GATES[name].unitary() @ u
    return u


# amplitudes of each init state, in INIT_STATES order, over (init, bit)
_INIT_AMPS = np.array([_gates_unitary(_PREP_GATES[s])[:, 0] for s in INIT_STATES])
# rotation before the Z readout of each basis, in MEAS_BASES order, over
# (basis, bit after, bit before): Z -> I, X -> H, Y -> H.Sdg
_BASIS_ROT = np.array([_gates_unitary(_BASIS_GATES[b]) for b in MEAS_BASES])
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
# (32 MiB); numpy's greedy path falls back to one nested loop past it
_MAX_INTERMEDIATE = 1 << 22
# entries of one leaf's stacked outputs (3^out * 4^in * 2^width): the size of
# an uncut leaf at the statevector width cap
_MAX_LEAF_ENTRIES = 1 << MAX_STATEVECTOR_QUBITS


class ReconstructionError(ValueError):
    """Raised on missing variants or inconsistent fragment layouts."""


def _header(leaf: Fragment) -> dict:
    """The fields of a fragment document that follow from its leaf."""
    return {"version": 2, "fragment": leaf.id, "width": leaf.width,
            "out_cuts": sorted(leaf.out_cuts), "in_cuts": sorted(leaf.in_cuts)}


@dataclass(eq=False)
class FragmentOutput:
    """Every variant's outcome distribution of one plan leaf, in one array.

    ``probs`` has the leaf's ``variant_axes`` (one basis axis per out-cut
    in ``MEAS_BASES`` order, then one init axis per in-cut in
    ``INIT_STATES`` order, each in cut-id order), then one bit axis per
    local qubit. ``shots`` is set when the distributions were sampled.

    The document form (version 2) is the leaf's header (its id, width and
    sorted cut ids) and ``probs`` as dense rows: ``probs.reshape(-1,
    2**width)``, one row of 2^width outcome probabilities per variant, in
    ``enumerate_variants`` order.
    """

    leaf: Fragment
    probs: np.ndarray
    shots: int | None = None

    def to_dict(self) -> dict:
        doc = {**_header(self.leaf),
               "probs": self.probs.reshape(-1, 1 << self.leaf.width).tolist()}
        if self.shots is not None:
            doc["shots"] = self.shots
        return doc

    @classmethod
    def from_dict(cls, doc, leaf: Fragment) -> "FragmentOutput":
        """Read ``to_dict``'s document of ``leaf``.

        Its header must equal the one ``to_dict`` writes for ``leaf``, and
        its rows must be the leaf's ``n_variants`` distributions over 2^width
        outcomes: non-negative numbers that sum to 1 within 1e-9. Lengths
        are checked before any array is built, and the leaf's values are
        used, never the document's.
        """
        if not isinstance(doc, dict):
            raise ReconstructionError("fragment document must be a JSON object")
        version = doc.get("version", 1)  # version 1 documents had no version field
        if version != 2:
            raise ReconstructionError(
                f"fragment document version {version!r} is not supported; expected version 2")
        header = _header(leaf)
        found = {key: doc.get(key) for key in header}
        if found != header:
            raise ReconstructionError(f"the document is not plan leaf {leaf.id}'s: "
                                      f"its header {found} differs from {header}")
        rows, n_rows, n_cols = doc.get("probs"), leaf.n_variants, 1 << leaf.width
        if not isinstance(rows, list) or len(rows) != n_rows or not all(
            isinstance(row, list) and len(row) == n_cols for row in rows
        ):
            raise ReconstructionError(f"fragment {leaf.id} needs {n_rows} rows of {n_cols} "
                                      "probabilities, one row per variant")
        shots = doc.get("shots")
        if "shots" in doc and not (type(shots) is int and shots >= 1):
            raise ReconstructionError(
                f"fragment {leaf.id} has shots {shots!r}, not an integer >= 1")
        bad = ReconstructionError(f"fragment {leaf.id} has entries that are not finite numbers")
        try:
            probs = np.asarray(rows)
        except ValueError:  # entries that are lists of different lengths
            raise bad from None
        if probs.ndim != 2 or probs.dtype.kind not in "iuf" or not np.isfinite(probs).all():
            raise bad
        with np.errstate(over="ignore"):  # an overflowing sum is off 1 too
            off = np.abs(probs.sum(axis=1) - 1.0)
        if (probs < 0).any() or not (off <= 1e-9).all():
            raise ReconstructionError(f"fragment {leaf.id} has a row that is not a distribution: "
                                      "a negative entry or a sum off 1 by more than 1e-9")
        return cls(leaf, probs.astype(float, copy=False).reshape(
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

    Without ``profile`` each leaf's body evolves once, over a batch of all
    its in-cut initializations, and every out-cut is then rotated into each
    readout basis. With ``profile`` the density-matrix model, under the
    profile remapped onto the leaf's qubits, evolves the body once per
    schedule group of in-cut initializations (those whose prep gates take
    the same durations) and reads every readout basis from that evolution;
    each row equals ``run_noisy`` of its variant circuit to rounding.
    Either way the leaf's exact rows come first. With ``shots``, each row
    (one per variant, in ``enumerate_variants`` order) is then replaced by
    the frequencies ``sample_frequencies`` draws from it, seeded with
    ``(seed & 0x7FFFFFFF, leaf id, row index)``.

    A leaf whose outputs would hold more than 2^24 entries raises
    ``SimulationError`` before anything is allocated. The same budget
    bounds a noisy group's batch: ``batch * 4^width`` entries at a time.
    """
    outputs: dict[int, FragmentOutput] = {}
    for leaf in plan.leaf_fragments():
        entries = leaf.n_variants << leaf.width
        if entries > _MAX_LEAF_ENTRIES:
            raise SimulationError(
                f"fragment {leaf.id}: {leaf.n_variants} variant(s) of width {leaf.width} need "
                f"{entries} entries ({16 * entries} bytes of amplitudes), over the limit of "
                f"{_MAX_LEAF_ENTRIES}: one uncut leaf, its width capped at "
                f"{MAX_STATEVECTOR_QUBITS} qubits"
            )
        if profile is None:
            probs = np.abs(_ideal_amplitudes(leaf)) ** 2
        else:
            probs = run_noisy_variants(
                leaf.circuit, profile.for_subcircuit(leaf.qubit_map),
                preps=[(leaf.in_cuts[cid], _PREP_OPTIONS) for cid in sorted(leaf.in_cuts)],
                readouts=[(leaf.out_cuts[cid], _BASIS_OPTIONS) for cid in sorted(leaf.out_cuts)],
                max_entries=_MAX_LEAF_ENTRIES,
            )
        if shots is not None:
            rows = [
                sample_frequencies(p, shots, (seed & 0x7FFFFFFF, leaf.id, row))
                for row, p in enumerate(probs.reshape(-1, 1 << leaf.width))
            ]
            probs = np.array(rows).reshape(probs.shape)
        outputs[leaf.id] = FragmentOutput(leaf, probs, shots)
    return outputs


def _ideal_amplitudes(leaf: Fragment) -> np.ndarray:
    """Amplitudes of every variant of ``leaf``, by linearity from one evolution.

    The body evolves a batch holding the product of every in-cut's init
    states (other qubits start in |0>); a fixed rotation per out-cut then
    turns the batch into one entry per readout basis. The axes are those of
    ``FragmentOutput.probs``.
    """
    m, w = len(leaf.in_cuts), leaf.width
    init_axis = {leaf.in_cuts[cid]: j for j, cid in enumerate(sorted(leaf.in_cuts))}
    operands = []
    for q in range(w):
        if q in init_axis:
            operands += [_INIT_AMPS, [init_axis[q], m + q]]
        else:
            operands += [_INIT_AMPS[INIT_STATES.index("zero")], [m + q]]
    state = np.einsum(*operands, list(range(m + w)))
    amps = run_ideal(leaf.circuit, state)
    # rotate the last out-cut first, so that the basis axes prepended by
    # tensordot end up in id order
    for done, cid in enumerate(sorted(leaf.out_cuts, reverse=True)):
        axis = done + m + leaf.out_cuts[cid]
        amps = np.moveaxis(np.tensordot(_BASIS_ROT, amps, axes=([2], [axis])), 1, axis + 1)
    return amps


# ---------------------------------------------------------------------------
# Recombination
# ---------------------------------------------------------------------------

def _leaf_tensor(leaf: Fragment, output: FragmentOutput) -> np.ndarray:
    """Label tensor of one leaf: one 4-valued axis per cut, in the leaf's
    ``variant_cuts`` order, then one bit axis per terminal qubit."""
    if output.leaf != leaf:
        raise ReconstructionError(
            f"the output given for fragment {leaf.id} is not plan leaf {leaf.id}'s")

    # einsum indices: local qubits 0..w-1, labels w..w+n-1, settings w+n..w+2n-1
    cuts = leaf.variant_cuts
    w, n = leaf.width, len(cuts)
    operands = [output.probs, list(range(w + n, w + 2 * n)) + list(range(w))]
    for j, cid in enumerate(cuts):
        if cid in leaf.out_cuts:
            operands += [_OUT_MAP, [w + j, w + n + j, leaf.out_cuts[cid]]]
        else:
            operands += [_IN_MAP, [w + j, w + n + j]]
    operands.append(list(range(w, w + n)) + leaf.terminal_qubits())
    return np.einsum(*operands, optimize="greedy")


def reconstruct(outputs: dict[int, FragmentOutput], plan: FragmentPlan) -> ReconstructionResult:
    """Recombine fragment outputs, keyed by leaf id as ``execute_plan``
    returns them, into the full-width distribution.

    Negative quasi-probability mass (possible under noise or sampling) is
    clipped to zero and the result renormalized; the clipped amount is
    reported. Under ideal inputs the quasi-distribution is already a
    distribution and clipping is a no-op. ``terms`` is 4^k, the number of
    label assignments the contraction sums over.
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
        quasi = np.einsum(*operands, optimize=("greedy", limit)).reshape(-1) * (0.5 ** k)

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