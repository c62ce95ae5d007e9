"""Recombination of fragment outputs into the full-circuit distribution.

Each cut carries one of four labels I, Z, X, Y; the sum over all 4^k label
assignments, scaled by 1/2 per cut, is the uncut distribution (Peng et al.,
PRL 125, 150504, 2020). It is evaluated as a tensor network (CutQC, Tang et
al., ASPLOS 2021). A leaf's variant outputs are stacked with one basis axis
per out-cut, one init axis per in-cut and one bit axis per qubit. Fixed maps
turn the stack into the leaf's label tensor, one 4-valued axis per cut and one
bit axis per terminal qubit: per out-cut, I reads the Z-basis bit with signs
[1, 1], Z the Z-basis bit with [1, -1], X and Y their own bases with [1, -1];
per in-cut, I = zero + one, Z = zero - one, X = 2 plus - zero - one and
Y = 2 plus_i - zero - one. The label tensors are contracted over shared cut
axes into original qubit order along numpy's greedy path, which depends only
on the plan's shapes, so equal inputs give byte-identical results. The cost
is set by the largest intermediate tensor, not by the 4^k assignments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fragment import (
    INIT_STATES,
    MEAS_BASES,
    Fragment,
    FragmentPlan,
    enumerate_variants,
    variant_key,
)
from .noise import NoiseProfile
from .simulate import Distribution, measure_distribution, run_ideal, run_noisy

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

# out-cut map over (label, basis, bit): labels I, Z, X, Y read bases Z, Z, X, Y
_OUT_MAP = np.zeros((4, len(MEAS_BASES), 2))
_OUT_MAP[range(4), [MEAS_BASES.index(b) for b in "ZZXY"]] = [[1, 1], [1, -1], [1, -1], [1, -1]]
# in-cut map over (label, init), inits in INIT_STATES order: zero, one, plus, plus_i
_IN_MAP = np.array([[1, 1, 0, 0], [1, -1, 0, 0], [-1, -1, 2, 0], [-1, -1, 0, 2]], dtype=float)
_MAX_INDICES = 52  # np.einsum names every index with one of 52 letters
# elements an intermediate tensor may hold when the leaves are contracted
# (32 MiB); numpy's greedy path falls back to one nested loop past it
_MAX_INTERMEDIATE = 1 << 22


class ReconstructionError(ValueError):
    """Raised on missing variants or inconsistent fragment layouts."""


@dataclass
class FragmentOutput:
    """All variant distributions of one fragment, keyed by variant key."""

    fragment_id: int
    width: int
    variants: dict[str, Distribution] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fragment": self.fragment_id,
            "width": self.width,
            "variants": {k: self.variants[k].to_dict() for k in sorted(self.variants)},
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "FragmentOutput":
        try:
            out = cls(
                fragment_id=doc["fragment"],
                width=doc["width"],
                variants={k: Distribution.from_dict(v) for k, v in doc["variants"].items()},
            )
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise ReconstructionError(f"missing or malformed field {exc}") from None
        for key, dist in out.variants.items():
            for bits, p in dist.probs.items():
                if (len(bits) != dist.width or not set(bits) <= {"0", "1"}
                        or not isinstance(p, (int, float))):
                    raise ReconstructionError(
                        f"variant '{key}' has entry {bits!r}: {p!r} at width {dist.width}"
                    )
        return out


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
    noisy: bool = False,
    shots: int | None = None,
    seed: int = 0,
) -> dict[int, FragmentOutput]:
    """Simulate every variant of every leaf fragment.

    Ideal statevector simulation by default; with ``noisy`` the
    density-matrix model runs under ``profile`` remapped onto each
    fragment's qubits. Each variant's shot seed derives from ``seed`` and
    the variant's key.
    """
    if noisy and profile is None:
        raise ReconstructionError("noisy execution needs a noise profile")
    outputs: dict[int, FragmentOutput] = {}
    for leaf in plan.leaf_fragments():
        out = outputs[leaf.id] = FragmentOutput(fragment_id=leaf.id, width=leaf.width)
        local_profile = profile.for_subcircuit(leaf.circuit, leaf.qubit_map) if noisy else None
        for variant in enumerate_variants(leaf):
            shot_seed = _shot_seed(seed, leaf.id, variant.key)
            if noisy:
                dist = run_noisy(variant.circuit, local_profile, shots=shots, seed=shot_seed)
            else:
                dist = measure_distribution(
                    run_ideal(variant.circuit), shots=shots, seed=shot_seed
                )
            out.variants[variant.key] = dist
    return outputs


def _shot_seed(seed: int, fragment_id: int, key: str) -> int:
    acc = seed & 0x7FFFFFFF
    for ch in f"{fragment_id}|{key}":
        acc = (acc * 131 + ord(ch)) & 0x7FFFFFFF
    return acc


# ---------------------------------------------------------------------------
# Recombination
# ---------------------------------------------------------------------------

def _leaf_tensor(leaf: Fragment, output: FragmentOutput) -> np.ndarray:
    """Label tensor of one leaf: one 4-valued axis per out-cut, then per
    in-cut, each in id order, then one bit axis per terminal qubit."""
    out_ids, in_ids = sorted(leaf.out_cuts), sorted(leaf.in_cuts)
    settings = (3,) * len(out_ids) + (4,) * len(in_ids)
    stack = np.empty(settings + (2,) * leaf.width)
    for idx in np.ndindex(settings):
        key = variant_key(
            {cid: MEAS_BASES[i] for cid, i in zip(out_ids, idx)},
            {cid: INIT_STATES[i] for cid, i in zip(in_ids, idx[len(out_ids):])},
        )
        dist = output.variants.get(key)
        if dist is None:
            raise ReconstructionError(f"fragment {leaf.id} is missing variant '{key}'")
        if dist.width != leaf.width:
            raise ReconstructionError(
                f"fragment {leaf.id} variant '{key}' has width {dist.width}, expected {leaf.width}"
            )
        stack[idx] = dist.vector().reshape((2,) * leaf.width)

    # einsum indices: local qubits 0..w-1, labels w..w+n-1, settings w+n..w+2n-1
    cuts, w, n = out_ids + in_ids, leaf.width, len(settings)
    operands = [stack, list(range(w + n, w + 2 * n)) + list(range(w))]
    for j, cid in enumerate(cuts):
        if cid in leaf.out_cuts:
            operands += [_OUT_MAP, [w + j, w + n + j, leaf.out_cuts[cid]]]
        else:
            operands += [_IN_MAP, [w + j, w + n + j]]
    operands.append(list(range(w, w + n)) + leaf.terminal_qubits())
    return np.einsum(*operands, optimize="greedy")


def reconstruct(
    outputs: dict[int, FragmentOutput] | list[FragmentOutput],
    plan: FragmentPlan,
) -> ReconstructionResult:
    """Recombine fragment outputs into the full-width distribution.

    Negative quasi-probability mass (possible under noise or sampling) is
    clipped to zero and the result renormalized; the clipped amount is
    reported. Under ideal inputs the quasi-distribution is already a
    distribution and clipping is a no-op. ``terms`` is 4^k, the number of
    label assignments the contraction sums over.
    """
    if isinstance(outputs, list):
        outputs = {o.fragment_id: o for o in outputs}
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
    for leaf, qubits in zip(leaves, terminals):
        cuts = sorted(leaf.out_cuts) + sorted(leaf.in_cuts)
        operands += [_leaf_tensor(leaf, outputs[leaf.id]), [cut_index[c] for c in cuts] + qubits]
    operands.append(list(range(plan.width)))
    limit = max(_MAX_INTERMEDIATE, 1 << plan.width)
    quasi = np.einsum(*operands, optimize=("greedy", limit)).reshape(-1) * (0.5 ** k)

    clipped = float(-np.sum(np.minimum(quasi, 0.0))) or 0.0  # never -0.0
    clipped_vec = np.clip(quasi, 0.0, None)
    total = clipped_vec.sum()
    if total <= 0:
        raise ReconstructionError("reconstructed distribution has no positive mass")
    clipped_vec = clipped_vec / total
    dist = Distribution.from_vector(clipped_vec, plan.width)
    return ReconstructionResult(
        distribution=dist, k=k, terms=4 ** k, clipped_mass=clipped
    )


# ---------------------------------------------------------------------------
# Distribution distances
# ---------------------------------------------------------------------------

def _check_widths(a: Distribution, b: Distribution):
    if a.width != b.width:
        raise ReconstructionError(f"width mismatch: {a.width} != {b.width}")


def _bhattacharyya(a: Distribution, b: Distribution) -> float:
    bc = 0.0
    for bits in sorted(a.probs):
        pa = a.probs[bits]
        pb = b.probs.get(bits, 0.0)
        if pa > 0 and pb > 0:
            bc += math.sqrt(pa * pb)
    return bc


def fidelity(a: Distribution, b: Distribution) -> float:
    """Classical (Bhattacharyya) fidelity: (sum_x sqrt(a(x) b(x)))^2."""
    _check_widths(a, b)
    return min(_bhattacharyya(a, b) ** 2, 1.0)


def tvd(a: Distribution, b: Distribution) -> float:
    """Total variation distance: half the L1 distance over the union support."""
    _check_widths(a, b)
    # sorted union: set iteration order is hash-salted across processes and
    # would perturb the floating-point sum
    keys = sorted(set(a.probs) | set(b.probs))
    return 0.5 * sum(abs(a.probs.get(x, 0.0) - b.probs.get(x, 0.0)) for x in keys)


def hellinger(a: Distribution, b: Distribution) -> float:
    """Hellinger distance: sqrt(1 - Bhattacharyya coefficient)."""
    _check_widths(a, b)
    return math.sqrt(max(0.0, 1.0 - _bhattacharyya(a, b)))