"""Statevector and density-matrix simulation with Kraus noise channels.

Conventions: qubit 0 owns the leftmost character of a measurement
bitstring; statevectors and density matrices are reshaped to one axis (or
an axis pair) per qubit, and gates are applied by tensor contraction.
Exact probabilities are the default output; shot sampling is opt-in so
identity tests stay deterministic.

The noise model applies, per gate, the ideal unitary followed by a Pauli
error channel on each operand qubit, and fills every idle gap of the ASAP
schedule with amplitude and phase damping. A two-qubit gate's error budget
is split evenly between its operands.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import Circuit, Gate, asap_schedule
from .noise import NoiseProfile

__all__ = [
    "SimulationError",
    "Distribution",
    "KrausChannel",
    "run_ideal",
    "measure_distribution",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "pauli_error_channel",
    "density_matrix",
    "run_noisy",
    "gate_unitary",
]

MAX_STATEVECTOR_QUBITS = 24
MAX_DENSITY_QUBITS = 12

_SQ2 = 1.0 / math.sqrt(2.0)
_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)

_FIXED_1Q = {
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "x": _X,
    "y": _Y,
    "z": _Z,
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
}


class SimulationError(ValueError):
    """Raised on width caps and malformed simulation inputs."""


def gate_unitary(g: Gate) -> np.ndarray:
    """2x2 or 4x4 unitary for a gate; measurements have none."""
    if g.name in _FIXED_1Q:
        return _FIXED_1Q[g.name]
    p = g.params
    if g.name == "rx":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if g.name == "ry":
        c, s = math.cos(p[0] / 2), math.sin(p[0] / 2)
        return np.array([[c, -s], [s, c]], dtype=complex)
    if g.name == "rz":
        return np.diag([np.exp(-1j * p[0] / 2), np.exp(1j * p[0] / 2)]).astype(complex)
    if g.name == "u1":
        return np.diag([1, np.exp(1j * p[0])]).astype(complex)
    if g.name == "u2":
        phi, lam = p
        return _SQ2 * np.array(
            [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]],
            dtype=complex,
        )
    if g.name == "u3":
        th, phi, lam = p
        c, s = math.cos(th / 2), math.sin(th / 2)
        return np.array(
            [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
            dtype=complex,
        )
    if g.name == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if g.name == "cz":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    raise SimulationError(f"no unitary for gate '{g.name}'")


# ---------------------------------------------------------------------------
# Statevector path
# ---------------------------------------------------------------------------

def _apply_1q_state(state: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    state = np.moveaxis(state.reshape([2] * n), q, 0)
    state = np.tensordot(u, state, axes=([1], [0]))
    return np.moveaxis(state, 0, q).reshape(-1)


def _apply_2q_state(state: np.ndarray, u: np.ndarray, qa: int, qb: int, n: int) -> np.ndarray:
    t = state.reshape([2] * n)
    t = np.moveaxis(t, (qa, qb), (0, 1))
    shape = t.shape
    t = np.tensordot(u.reshape(2, 2, 2, 2), t, axes=([2, 3], [0, 1]))
    return np.moveaxis(t.reshape(shape), (0, 1), (qa, qb)).reshape(-1)


def run_ideal(c: Circuit) -> np.ndarray:
    """Exact statevector after applying every unitary gate of ``c``.

    Measurements are terminal and carry no operator, so they are skipped.
    """
    if c.width > MAX_STATEVECTOR_QUBITS:
        raise SimulationError(
            f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits, got {c.width}"
        )
    n = c.width
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    for g in c.gates:
        if g.is_measurement:
            continue
        u = gate_unitary(g)
        if len(g.qubits) == 1:
            state = _apply_1q_state(state, u, g.qubits[0], n)
        else:
            state = _apply_2q_state(state, u, g.qubits[0], g.qubits[1], n)
    return state


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------

@dataclass
class Distribution:
    """Map bitstring -> probability; ``shots`` is set when it was sampled."""

    width: int
    probs: dict[str, float] = field(default_factory=dict)
    shots: int | None = None

    def vector(self) -> np.ndarray:
        out = np.zeros(1 << self.width)
        for bits, p in self.probs.items():
            out[int(bits, 2)] = p
        return out

    @classmethod
    def from_vector(cls, vec: np.ndarray, width: int) -> "Distribution":
        probs = {}
        for i, p in enumerate(vec):
            if p != 0.0:
                probs[format(i, f"0{width}b")] = float(p)
        return cls(width=width, probs=probs)

    def to_dict(self) -> dict:
        doc = {"width": self.width, "probs": {k: self.probs[k] for k in sorted(self.probs)}}
        if self.shots is not None:
            doc["shots"] = self.shots
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "Distribution":
        return cls(width=doc["width"], probs=dict(doc["probs"]), shots=doc.get("shots"))


def measure_distribution(state, shots: int | None = None, seed: int = 0) -> Distribution:
    """Born-rule outcome distribution of a statevector or density matrix.

    Exact by default; pass ``shots`` to sample outcome frequencies instead.
    """
    state = np.asarray(state)
    if state.ndim == 1:
        probs = np.abs(state) ** 2
        width = int(round(math.log2(state.shape[0])))
    elif state.ndim == 2:
        probs = np.real(np.diagonal(state)).copy()
        probs[np.abs(probs) < 1e-14] = 0.0
        probs = np.clip(probs, 0.0, None)
        width = int(round(math.log2(state.shape[0])))
    else:
        raise SimulationError("expected a vector or a square matrix")
    if shots is None:
        return Distribution.from_vector(probs, width)
    if shots < 1:
        raise SimulationError(f"shots must be at least 1, got {shots}")
    rng = np.random.default_rng(seed)
    outcomes = rng.choice(probs.shape[0], size=shots, p=probs / probs.sum())
    values, counts = np.unique(outcomes, return_counts=True)
    freq = np.zeros_like(probs)
    freq[values] = counts / shots
    dist = Distribution.from_vector(freq, width)
    dist.shots = shots
    return dist


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KrausChannel:
    operators: tuple[np.ndarray, ...]

    def completeness_defect(self) -> float:
        """max-abs deviation of sum(K^dag K) from the identity."""
        dim = self.operators[0].shape[0]
        acc = np.zeros((dim, dim), dtype=complex)
        for k in self.operators:
            acc += k.conj().T @ k
        return float(np.max(np.abs(acc - np.eye(dim))))


def amplitude_damping_channel(tau: float, t1: float, p_thermal: float = 0.0) -> KrausChannel:
    """Relaxation channel over duration ``tau`` with timescale ``t1``.

    lambda = 1 - exp(-tau/t1); ``p_thermal`` weighs the absorbing branch
    (excitation toward |1>), zero for a cold environment, where only the
    decay pair acts.
    """
    if tau < 0 or t1 <= 0:
        raise SimulationError(f"need tau >= 0 and t1 > 0, got tau={tau}, t1={t1}")
    if not 0.0 <= p_thermal <= 1.0:
        raise SimulationError(f"p_thermal must lie in [0, 1], got {p_thermal}")
    lam = -math.expm1(-tau / t1)
    p = 1.0 - p_thermal
    ops = []
    if p > 0:
        ops.append(math.sqrt(p) * np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex))
        ops.append(math.sqrt(p) * np.array([[0, math.sqrt(lam)], [0, 0]], dtype=complex))
    if p_thermal > 0:
        ops.append(
            math.sqrt(p_thermal) * np.array([[math.sqrt(1 - lam), 0], [0, 1]], dtype=complex)
        )
        ops.append(math.sqrt(p_thermal) * np.array([[0, 0], [math.sqrt(lam), 0]], dtype=complex))
    return KrausChannel(operators=tuple(ops))


def phase_damping_channel(tau: float, t_phi: float) -> KrausChannel:
    """Pure dephasing over duration ``tau`` with timescale ``t_phi``:
    coherences decay by sqrt(1-lambda), populations are untouched."""
    if tau < 0 or t_phi <= 0:
        raise SimulationError(f"need tau >= 0 and t_phi > 0, got tau={tau}, t_phi={t_phi}")
    lam = -math.expm1(-tau / t_phi)
    return KrausChannel(
        operators=(
            np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
            np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex),
        )
    )


def pauli_error_channel(p_ex: float, p_ey: float, p_ez: float) -> KrausChannel:
    """Apply X, Y, Z with the given probabilities, identity otherwise."""
    for name, p in (("p_ex", p_ex), ("p_ey", p_ey), ("p_ez", p_ez)):
        if not 0.0 <= p <= 1.0:
            raise SimulationError(f"{name} must lie in [0, 1], got {p}")
    total = p_ex + p_ey + p_ez
    if total > 1.0 + 1e-12:
        raise SimulationError(f"error probabilities sum to {total} > 1")
    return KrausChannel(
        operators=(
            math.sqrt(max(1.0 - total, 0.0)) * _I2,
            math.sqrt(p_ex) * _X,
            math.sqrt(p_ey) * _Y,
            math.sqrt(p_ez) * _Z,
        )
    )


# ---------------------------------------------------------------------------
# Density-matrix path
# ---------------------------------------------------------------------------

def _apply_1q_dm(rho: np.ndarray, op: np.ndarray, q: int, n: int) -> np.ndarray:
    # rho has one axis per ket qubit then one per bra qubit
    rho = np.moveaxis(np.tensordot(op, rho, axes=([1], [q])), 0, q)
    rho = np.moveaxis(np.tensordot(op.conj(), rho, axes=([1], [n + q])), 0, n + q)
    return rho


def _apply_2q_dm(rho: np.ndarray, u: np.ndarray, qa: int, qb: int, n: int) -> np.ndarray:
    u4 = u.reshape(2, 2, 2, 2)
    rho = np.moveaxis(np.tensordot(u4, rho, axes=([2, 3], [qa, qb])), (0, 1), (qa, qb))
    rho = np.moveaxis(
        np.tensordot(u4.conj(), rho, axes=([2, 3], [n + qa, n + qb])), (0, 1), (n + qa, n + qb)
    )
    return rho


def _apply_channel_dm(rho: np.ndarray, ch: KrausChannel, q: int, n: int) -> np.ndarray:
    out = None
    for k in ch.operators:
        term = _apply_1q_dm(rho, k, q, n)
        out = term if out is None else out + term
    return out


def _damping_channels(p: NoiseProfile, q: int, tau: float) -> list[KrausChannel]:
    chans = []
    t1 = p.t1_us(q) * 1000.0
    if not math.isinf(t1):
        chans.append(amplitude_damping_channel(tau, t1))
    t2 = p.t2_us(q) * 1000.0
    if not math.isinf(t2):
        inv_phi = 1.0 / t2 - (0.0 if math.isinf(t1) else 0.5 / t1)
        if inv_phi > 0:
            chans.append(phase_damping_channel(tau, 1.0 / inv_phi))
    return chans


def density_matrix(c: Circuit, p: NoiseProfile) -> np.ndarray:
    """Full density matrix of ``c`` under the gate-error + damping model."""
    if c.width > MAX_DENSITY_QUBITS:
        raise SimulationError(
            f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits, got {c.width}"
        )
    n = c.width
    rho = np.zeros([2] * (2 * n), dtype=complex)
    rho[(0,) * (2 * n)] = 1.0
    spans, makespan = asap_schedule(c, p)
    free = [0.0] * n
    for gi, g in enumerate(c.gates):
        if g.is_measurement:
            continue
        start, end = spans[gi]
        for q in g.qubits:
            gap = start - free[q]
            if gap > 0:
                for ch in _damping_channels(p, q, gap):
                    rho = _apply_channel_dm(rho, ch, q, n)
            free[q] = end
        u = gate_unitary(g)
        if len(g.qubits) == 1:
            rho = _apply_1q_dm(rho, u, g.qubits[0], n)
        else:
            rho = _apply_2q_dm(rho, u, g.qubits[0], g.qubits[1], n)
        err = p.gate_error(g)
        if err > 0:
            share = err if len(g.qubits) == 1 else err / 2.0
            ch = pauli_error_channel(share / 3.0, share / 3.0, share / 3.0)
            for q in g.qubits:
                rho = _apply_channel_dm(rho, ch, q, n)
    for q in range(n):
        gap = makespan - free[q]
        if gap > 0:
            for ch in _damping_channels(p, q, gap):
                rho = _apply_channel_dm(rho, ch, q, n)
    return rho.reshape(1 << n, 1 << n)


def run_noisy(
    c: Circuit,
    p: NoiseProfile,
    shots: int | None = None,
    seed: int = 0,
) -> Distribution:
    """Outcome distribution of ``c`` under the gate-error + damping model.

    Density-matrix evolution, so the cost is 4^width; capped accordingly.
    """
    return measure_distribution(density_matrix(c, p), shots=shots, seed=seed)
