"""Statevector and density-matrix simulation of the gate-error + damping model.

Conventions: qubit 0 owns the leftmost character of a measurement
bitstring, and a ``Distribution`` is the dense vector of the 2^width
outcome probabilities, indexed by those bits. A statevector is held with
one 2-valued axis per qubit. ``run_ideal`` can also evolve a batch of
states at once: leading axes before the qubit axes are carried through
every gate, which is how a fragment's body is simulated once for all of
its cut initializations. One kernel, ``_apply``, does every gate
application of both paths: it moves the operand axes to the front,
multiplies them by the gate's matrix (a unitary on a statevector, a
superoperator on a density matrix) and moves them back. Gate matrices
come from the one gate table, ``circuit.GATES``, through ``gate_unitary``.
Simulation yields exact probabilities only; ``sample_frequencies`` is the
one sampler, which draws shot frequencies from such a probability vector.

The noise model applies, per gate, amplitude and phase damping over each
operand's idle gap of the ASAP schedule, then the ideal unitary, then a
Pauli error channel (p_x = p_y = p_z) on each operand; a two-qubit gate's
error budget is split evenly between its operands. Idle time left at the
end of the schedule is damped too.

The density-matrix path holds rho with one 4-valued axis per qubit,
indexed ``2*ket + bra``, so a one-qubit channel is a 4x4 superoperator
(``K ⊗ conj(K)`` summed over its Kraus operators) on one axis. Each gate's
damping, unitary and Pauli error are multiplied, in closed form, into one
superoperator (4x4, or 16x16 on the two operand axes) and applied with
one ``_apply``. The tests check those closed forms against Kraus
channels built independently in ``tests/oracles.py``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import GATES, Circuit, Gate, asap_schedule
from .noise import NoiseProfile

__all__ = [
    "SimulationError",
    "Distribution",
    "run_ideal",
    "measure_distribution",
    "sample_frequencies",
    "density_matrix",
    "run_noisy",
    "gate_unitary",
]

MAX_STATEVECTOR_QUBITS = 24
MAX_DENSITY_QUBITS = 12

_I4 = np.eye(4, dtype=complex)


class SimulationError(ValueError):
    """Raised on width caps and malformed simulation inputs."""


def gate_unitary(g: Gate) -> np.ndarray:
    """2x2 or 4x4 unitary of a gate, from ``GATES``; measurements have none."""
    unitary = GATES[g.name].unitary
    if unitary is None:
        raise SimulationError(f"no unitary for gate '{g.name}'")
    return unitary(*g.params)


def _apply(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """Contract the square matrix ``m`` with the given axes of ``t``, the
    first most significant: a unitary on a statevector's qubit axes or a
    superoperator on a density matrix's. Other axes, batch axes too, stay."""
    order = list(axes) + [i for i in range(t.ndim) if i not in axes]
    out = m @ t.transpose(order).reshape(len(m), -1)
    out = out.reshape([t.shape[i] for i in order])
    return out.transpose(sorted(range(t.ndim), key=order.__getitem__))


# ---------------------------------------------------------------------------
# Statevector path
# ---------------------------------------------------------------------------

def run_ideal(c: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Exact statevector after applying every unitary gate of ``c``.

    Without ``state`` the evolution starts from |0...0> and returns the
    2^width amplitudes as a vector. ``state`` may instead give the initial
    amplitudes with shape ``batch + (2,) * width``, any number of leading
    batch axes included; every entry of the batch is evolved at once and
    the result has that shape. Measurements are terminal and carry no
    operator, so they are skipped.
    """
    if c.width > MAX_STATEVECTOR_QUBITS:
        raise SimulationError(
            f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits, got {c.width}"
        )
    n = c.width
    if state is None:
        t = np.zeros((2,) * n, dtype=complex)
        t[(0,) * n] = 1.0
    else:
        t = np.asarray(state, dtype=complex)
        if t.shape[t.ndim - n:] != (2,) * n:
            raise SimulationError(
                f"initial state of shape {t.shape} does not end in {n} qubit axes"
            )
    batch = t.ndim - n
    for g in c.gates:
        if not g.is_measurement:
            t = _apply(t, gate_unitary(g), [batch + q for q in g.qubits])
    return t.reshape(-1) if state is None else t


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Distribution:
    """Outcome probabilities as a dense vector over the 2^width bitstrings.

    Entry i is the bitstring of i in binary with qubit 0 leftmost, so index
    order is sorted bitstring order. Bitstrings exist only in the document
    form (``to_dict``).
    """

    probs: np.ndarray

    @property
    def width(self) -> int:
        return self.probs.size.bit_length() - 1

    def to_dict(self) -> dict:
        """``{"width", "probs"}`` with only the non-zero entries."""
        nonzero = np.flatnonzero(self.probs)
        spec = f"0{self.width}b"
        keys = [format(i, spec) for i in nonzero.tolist()]
        return {"width": self.width, "probs": dict(zip(keys, self.probs[nonzero].tolist()))}


def measure_distribution(state) -> Distribution:
    """Exact Born-rule outcome distribution of a statevector or density matrix."""
    state = np.asarray(state)
    if state.ndim == 1:
        probs = np.abs(state) ** 2
    elif state.ndim == 2:
        probs = np.real(np.diagonal(state)).copy()
        probs[np.abs(probs) < 1e-14] = 0.0
        probs = np.clip(probs, 0.0, None)
    else:
        raise SimulationError("expected a vector or a square matrix")
    return Distribution(probs)


def sample_frequencies(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Outcome frequencies of ``shots`` draws from the probability vector
    ``probs`` (normalized first), with a generator seeded by ``seed``: an
    integer or a sequence of non-negative integers."""
    if shots < 1:
        raise SimulationError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / probs.sum()) / shots


# ---------------------------------------------------------------------------
# Density-matrix path
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, without its per-call overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def _unitary_superop_2q(u: np.ndarray) -> np.ndarray:
    """``U ⊗ conj(U)`` of a two-qubit gate, rows and columns reordered from
    (ket_a, ket_b, bra_a, bra_b) to (ket_a, bra_a, ket_b, bra_b) so that it
    acts on qubit a's axis and then qubit b's."""
    s = _kron(u, u.conj()).reshape((2,) * 8)
    return s.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)


def _pauli_superop(e: float) -> np.ndarray:
    """Pauli error with p_x = p_y = p_z = e/3: each of X, Y, Z with probability e/3."""
    a, b, d = 1.0 - 2.0 * e / 3.0, 2.0 * e / 3.0, 1.0 - 4.0 * e / 3.0
    return np.array([[a, 0, 0, b], [0, d, 0, 0], [0, 0, d, 0], [b, 0, 0, a]], dtype=complex)


def _damping_superop(tau: float, t1: float, t2: float) -> np.ndarray:
    """Amplitude then phase damping over ``tau`` ns, T1 and T2 in ns.

    An infinite T1 skips amplitude damping; pure dephasing runs at rate
    1/T2 - 1/(2 T1) and is skipped when T2 is infinite or that rate is not
    positive.
    """
    lam = 0.0 if math.isinf(t1) else -math.expm1(-tau / t1)
    lam_phi = 0.0
    if not math.isinf(t2):
        inv_phi = 1.0 / t2 - (0.0 if math.isinf(t1) else 0.5 / t1)
        if inv_phi > 0:
            lam_phi = -math.expm1(-tau * inv_phi)
    c = math.sqrt(1.0 - lam) * math.sqrt(1.0 - lam_phi)
    return np.array(
        [[1, 0, 0, lam], [0, c, 0, 0], [0, 0, c, 0], [0, 0, 0, 1.0 - lam]], dtype=complex
    )


def density_matrix(c: Circuit, p: NoiseProfile) -> np.ndarray:
    """Full density matrix of ``c`` under the gate-error + damping model."""
    if c.width > MAX_DENSITY_QUBITS:
        raise SimulationError(
            f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits, got {c.width}"
        )
    n = c.width
    t1 = [p.t1_us(q) * 1000.0 for q in range(n)]
    t2 = [p.t2_us(q) * 1000.0 for q in range(n)]
    rho = np.zeros((4,) * n, dtype=complex)
    rho[(0,) * n] = 1.0
    spans, makespan = asap_schedule(c, p)
    free = [0.0] * n
    for gi, g in enumerate(c.gates):
        if g.is_measurement:
            continue
        start, end = spans[gi]
        pre = []
        for q in g.qubits:
            gap = start - free[q]
            pre.append(_damping_superop(gap, t1[q], t2[q]) if gap > 0 else _I4)
            free[q] = end
        u = gate_unitary(g)
        err = p.gate_error(g)
        if len(g.qubits) == 1:
            s = _pauli_superop(err) @ _kron(u, u.conj()) @ pre[0]
        else:
            pe = _pauli_superop(err / 2.0)
            s = _kron(pe, pe) @ _unitary_superop_2q(u) @ _kron(*pre)
        rho = _apply(rho, s, g.qubits)
    for q in range(n):
        gap = makespan - free[q]
        if gap > 0:
            rho = _apply(rho, _damping_superop(gap, t1[q], t2[q]), (q,))
    kets_then_bras = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return rho.reshape((2,) * (2 * n)).transpose(kets_then_bras).reshape(1 << n, 1 << n)


def run_noisy(c: Circuit, p: NoiseProfile) -> Distribution:
    """Exact outcome distribution of ``c`` under the gate-error + damping model.

    Density-matrix evolution, so the cost is 4^width; capped accordingly.
    """
    return measure_distribution(density_matrix(c, p))
