"""Recombination of fragment outputs into the full-circuit distribution.

Each cut contributes one of four labels {I, X, Y, Z}. For a given label
assignment, the out-cut side supplies a signed marginal of its joint
distribution (the Z-basis run marginalized plainly for I and with outcome
signs for Z; the X/Y-basis runs signed for X/Y) and the in-cut side
supplies a signed combination of its initialization runs (|0>+|1> for I,
|0>-|1> for Z, 2|+>-|0>-|1> for X, 2|+i>-|0>-|1> for Y). Summing the
Kronecker products of the per-fragment factors over all 4^k assignments,
scaled by 1/2 per cut, reproduces the uncut distribution exactly.

Terms are accumulated in lexicographic label order with compensated
summation, so the result does not depend on how the work is scheduled.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fragment import Fragment, FragmentPlan, enumerate_variants, variant_key
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

PAULI_LABELS = ("I", "X", "Y", "Z")

# per-label signed initialization combinations: (init state, coefficient)
_INIT_COMBOS = {
    "I": (("zero", 1.0), ("one", 1.0)),
    "Z": (("zero", 1.0), ("one", -1.0)),
    "X": (("plus", 2.0), ("zero", -1.0), ("one", -1.0)),
    "Y": (("plus_i", 2.0), ("zero", -1.0), ("one", -1.0)),
}

_PLUS = np.array([1.0, 1.0])
_MINUS = np.array([1.0, -1.0])


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
        return cls(
            fragment_id=doc["fragment"],
            width=doc["width"],
            variants={k: Distribution.from_dict(v) for k, v in doc["variants"].items()},
        )


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

def _leaf_factor(
    leaf: Fragment,
    output: FragmentOutput,
    labels: dict[int, str],
) -> np.ndarray:
    """Signed factor vector over the leaf's terminal qubits for one labeling."""
    out_ids = sorted(leaf.out_cuts)
    in_ids = sorted(leaf.in_cuts)
    bases = {cid: ("Z" if labels[cid] in ("I", "Z") else labels[cid]) for cid in out_ids}
    out_axes = sorted(((leaf.out_cuts[cid], labels[cid]) for cid in out_ids), reverse=True)

    total: np.ndarray | None = None
    for combo in itertools.product(*(_INIT_COMBOS[labels[cid]] for cid in in_ids)):
        coeff = 1.0
        inits = {}
        for cid, (state, c) in zip(in_ids, combo):
            inits[cid] = state
            coeff *= c
        key = variant_key(bases, inits)
        dist = output.variants.get(key)
        if dist is None:
            raise ReconstructionError(
                f"fragment {leaf.id} is missing variant '{key}'"
            )
        if dist.width != leaf.width:
            raise ReconstructionError(
                f"fragment {leaf.id} variant '{key}' has width {dist.width}, expected {leaf.width}"
            )
        tensor = dist.vector().reshape([2] * leaf.width)
        # contract out-cut axes highest-first so remaining axes keep order
        for axis, label in out_axes:
            sign = _PLUS if label == "I" else _MINUS
            tensor = np.tensordot(tensor, sign, axes=([axis], [0]))
        term = coeff * tensor.reshape(-1)
        total = term if total is None else total + term
    assert total is not None
    return total


def reconstruct(
    outputs: dict[int, FragmentOutput] | list[FragmentOutput],
    plan: FragmentPlan,
) -> ReconstructionResult:
    """Recombine fragment outputs into the full-width distribution.

    Negative quasi-probability mass (possible under noise or sampling) is
    clipped to zero and the result renormalized; the clipped amount is
    reported. Under ideal inputs the quasi-distribution is already a
    distribution and clipping is a no-op.
    """
    if isinstance(outputs, list):
        outputs = {o.fragment_id: o for o in outputs}
    leaves = sorted(plan.leaf_fragments(), key=lambda f: f.id)
    for leaf in leaves:
        if leaf.id not in outputs:
            raise ReconstructionError(f"no output document for fragment {leaf.id}")

    cut_ids = plan.cut_ids()
    k = len(cut_ids)
    out_once: set[int] = set()
    in_once: set[int] = set()
    for leaf in leaves:
        for cid in leaf.out_cuts:
            if cid in out_once:
                raise ReconstructionError(f"cut {cid} measured by two fragments")
            out_once.add(cid)
        for cid in leaf.in_cuts:
            if cid in in_once:
                raise ReconstructionError(f"cut {cid} initialized by two fragments")
            in_once.add(cid)
    if out_once != set(cut_ids) or in_once != set(cut_ids):
        raise ReconstructionError("cut ids are not paired across fragments")

    # axis layout: concatenated terminal qubits of the leaves, then one
    # transpose at the end into original qubit order
    positions: list[int] = []
    for leaf in leaves:
        positions.extend(leaf.qubit_map[q] for q in leaf.terminal_qubits())
    if sorted(positions) != list(range(plan.width)):
        raise ReconstructionError(
            f"terminal qubits {sorted(positions)} do not tile the original width {plan.width}"
        )

    acc = np.zeros(1 << plan.width)
    comp = np.zeros_like(acc)  # Kahan compensation
    factor_cache: dict[tuple[int, tuple[str, ...]], np.ndarray] = {}
    terms = 0
    for assignment in itertools.product(PAULI_LABELS, repeat=k):
        labels = dict(zip(cut_ids, assignment))
        term = np.ones(1)
        for leaf in leaves:
            leaf_labels = tuple(labels[cid] for cid in sorted(set(leaf.out_cuts) | set(leaf.in_cuts)))
            cached = factor_cache.get((leaf.id, leaf_labels))
            if cached is None:
                cached = _leaf_factor(leaf, outputs[leaf.id], labels)
                factor_cache[(leaf.id, leaf_labels)] = cached
            term = np.multiply.outer(term, cached).reshape(-1)
        terms += 1
        y = term - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t

    perm = [positions.index(q) for q in range(plan.width)]
    quasi = np.transpose(acc.reshape([2] * plan.width), axes=perm).reshape(-1)
    quasi = quasi * (0.5 ** k)

    clipped = float(-np.sum(np.minimum(quasi, 0.0))) or 0.0  # never -0.0
    clipped_vec = np.clip(quasi, 0.0, None)
    total = clipped_vec.sum()
    if total <= 0:
        raise ReconstructionError("reconstructed distribution has no positive mass")
    clipped_vec = clipped_vec / total
    dist = Distribution.from_vector(clipped_vec, plan.width)
    return ReconstructionResult(
        distribution=dist, k=k, terms=terms, clipped_mass=clipped
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