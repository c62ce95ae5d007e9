"""Independent brute-force oracles for tests and calibration.

Everything here is deliberately naive and shares nothing with the
production code paths beyond the domain types: partition costs are
re-derived from scratch over exhaustive enumerations, the noisy-evolution
reference builds explicit full-space matrices, the Kraus channels are the
operator-sum forms the simulator's fused superoperators are checked
against, the reference annealer tests and flips one proposal at a time
over Python lists, and the closed-form error model is evaluated in
high-precision arithmetic. Exponential cost is by design; hard size caps keep runs
tractable.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np

from wirecut.circuit import Circuit
from wirecut.graph import GateGraph
from wirecut.ising import IsingModel
from wirecut.noise import NoiseProfile
from wirecut.simulate import SimulationError

__all__ = [
    "OracleReport",
    "compare_against_oracle",
    "brute_force_min_cost",
    "greedy_descent",
    "brute_force_ising_ground",
    "reference_anneal",
    "reference_density_evolution",
    "KrausChannel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "pauli_error_channel",
    "mp_gate_error_rate",
    "mp_success_probability",
    "dict_fidelity",
    "dict_tvd",
    "dict_hellinger",
]


@dataclass(frozen=True)
class OracleReport:
    """One oracle-vs-production comparison for a test-report document."""

    instance: str
    oracle_result: float
    production_result: float
    tolerance: float
    agree: bool

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "oracle_result": self.oracle_result,
            "production_result": self.production_result,
            "tolerance": self.tolerance,
            "agree": self.agree,
        }


def compare_against_oracle(
    instance: str, oracle_result: float, production_result: float, tolerance: float
) -> OracleReport:
    agree = abs(oracle_result - production_result) <= tolerance
    return OracleReport(
        instance=instance,
        oracle_result=oracle_result,
        production_result=production_result,
        tolerance=tolerance,
        agree=agree,
    )


def brute_force_min_cost(g: GateGraph, max_vertices: int = 20) -> tuple[list[int], float]:
    """Global optimum of the balanced-cut cost over all 2^n assignments."""
    n = g.n
    if n < 2:
        raise ValueError("need at least 2 vertices")
    if n > max_vertices:
        raise ValueError(f"brute force capped at {max_vertices} vertices, got {n}")
    codes = np.arange(1 << n, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(n)) & 1  # column i = assignment of vertex i
    weights = np.array(g.weights)
    side1 = bits @ weights
    side0 = weights.sum() - side1
    cut = np.zeros(1 << n)
    for u, v, w in g.edges:
        cut += w * (bits[:, u] != bits[:, v])
    with np.errstate(divide="ignore", invalid="ignore"):  # one-sided rows masked below
        cost = cut * (1.0 / side0 + 1.0 / side1)
    proper = (bits.sum(axis=1) > 0) & (bits.sum(axis=1) < n)
    cost[~proper] = np.inf
    best = int(np.argmin(cost))
    return [int(b) for b in bits[best]], float(cost[best])


def greedy_descent(g: GateGraph, pv: list[int]) -> tuple[list[int], float]:
    """First-improvement bit-flip descent that re-sums each candidate's cut change.

    The reference for the GA's refinement step: vertices are visited in
    index order, a flip is kept when it lowers the cost, and the scan
    repeats until a whole scan keeps none. The side weight and the cut are
    carried along in the same order as the production descent, so equal
    inputs give equal cost bits.
    """
    n = g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    total = sum(g.weights)

    def cost(cut, w1, n1):
        if n1 == 0 or n1 == n:
            return math.inf
        return cut * (1.0 / (total - w1) + 1.0 / w1)

    pv = list(pv)
    cut = sum(w for u, v, w in g.edges if pv[u] != pv[v])
    w1 = 0.0
    for bit, w in zip(pv, g.weights):
        if bit:
            w1 += w
    n1 = sum(pv)
    best = cost(cut, w1, n1)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            dcut = sum(w if pv[i] == pv[j] else -w for j, w in adj[i])
            nw1 = w1 - g.weights[i] if pv[i] else w1 + g.weights[i]
            nn1 = n1 - 1 if pv[i] else n1 + 1
            ncost = cost(cut + dcut, nw1, nn1)
            if ncost < best:
                pv[i] ^= 1
                cut, w1, n1, best = cut + dcut, nw1, nn1, ncost
                improved = True
    return pv, best


def brute_force_ising_ground(m: IsingModel, max_spins: int = 20) -> tuple[list[int], float]:
    """Global minimum energy over all 2^n spin configurations."""
    n = m.n
    if n > max_spins:
        raise ValueError(f"brute force capped at {max_spins} spins, got {n}")
    if n == 0:
        return [], m.offset
    codes = np.arange(1 << n, dtype=np.int64)
    spins = 2.0 * ((codes[:, None] >> np.arange(n)) & 1) - 1.0
    couplings = np.zeros((n, n))  # upper-triangular: the model's keys have i < j
    for (i, j), coupling in m.j.items():
        couplings[i, j] = coupling
    # an einsum, not a BLAS matvec, whose thread start-up can stall at this shape
    energy = np.einsum("si,i->s", spins, np.array(m.h, dtype=float)) + m.offset
    energy += np.einsum("si,si->s", spins @ couplings, spins)
    best = int(np.argmin(energy))
    return [int(s) for s in spins[best]], float(energy[best])


_SA_BLOCK = 4096
_SA_INV53 = 1.0 / float(1 << 53)


def _reference_chain(h, nbrs, temps, rng) -> list[int]:
    """One Metropolis chain over plain Python lists, one proposal at a time.

    This is the annealer's chain before its numpy field updates and its
    look-ahead: the same randomness table per block of 4096 proposals and
    the same scalar test and updates, each applied in proposal order.
    """
    n = len(h)
    spins = [1 if rng.random() < 0.5 else -1 for _ in range(n)]
    fields = list(h)
    for i, nb in enumerate(nbrs):
        for j, w2 in nb:
            fields[j] += 0.5 * w2 * spins[i]
    e = 0.0
    best_e = 0.0
    best = spins[:]
    total = len(temps) * n
    for start in range(0, total, _SA_BLOCK):
        stop = min(start + _SA_BLOCK, total)
        scaled = (np.frombuffer(rng.randbytes(8 * (stop - start)), "<u8") >> 11) * (n * _SA_INV53)
        sites = scaled.astype(np.intp)
        cutoffs = 0.5 * temps[np.arange(start, stop) // n] * np.log1p(sites - scaled)
        for i, cutoff in zip(sites.tolist(), cutoffs.tolist()):
            si = spins[i]
            x = si * fields[i]
            if x < cutoff:
                continue
            spins[i] = -si
            if si > 0:
                for j, w2 in nbrs[i]:
                    fields[j] -= w2
            else:
                for j, w2 in nbrs[i]:
                    fields[j] += w2
            e -= 2.0 * x
            if e < best_e:
                best_e = e
                best = spins[:]
    return best


def reference_anneal(m: IsingModel, schedule, seed: int = 0, restarts: int = 1
                     ) -> tuple[list[int], float]:
    """(spins, energy) that ``simulated_anneal`` must return, bit for bit."""
    if m.n == 0:
        return [], m.offset
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(m.n)]
    for (i, k), coupling in sorted(m.j.items()):
        nbrs[i].append((k, 2.0 * coupling))
        nbrs[k].append((i, 2.0 * coupling))
    sweeps = schedule.sweeps
    ratio = schedule.t_end / schedule.t_start
    temps = schedule.t_start * ratio ** (np.arange(sweeps) / max(sweeps - 1, 1))
    rng = random.Random(seed)
    best_spins, best_energy = [], math.inf
    for _ in range(restarts):
        spins = _reference_chain(m.h, nbrs, temps, rng)
        # the exact energy, summed in the production order: offset, fields, couplings
        e = m.offset
        for i, h in enumerate(m.h):
            e += h * spins[i]
        for (i, k), coupling in m.j.items():
            e += coupling * spins[i] * spins[k]
        if e < best_energy:
            best_energy, best_spins = e, spins
    return best_spins, best_energy


# ---------------------------------------------------------------------------
# Full-matrix noisy evolution
# ---------------------------------------------------------------------------

_I2 = np.eye(2, dtype=complex)


def _full_op(op: np.ndarray, qubits: tuple[int, ...], width: int) -> np.ndarray:
    """Embed a 1- or 2-qubit operator into the full 2^width space by kron.

    Qubit 0 owns the most significant bit of the computational index.
    """
    if len(qubits) == 1:
        mats = [_I2] * width
        mats[qubits[0]] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out
    # general two-qubit embed: act on basis states directly
    a, b = qubits
    dim = 1 << width
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        abit = (col >> (width - 1 - a)) & 1
        bbit = (col >> (width - 1 - b)) & 1
        src = (abit << 1) | bbit
        for dst in range(4):
            amp = op[dst, src]
            if amp == 0:
                continue
            row = col
            row &= ~(1 << (width - 1 - a))
            row &= ~(1 << (width - 1 - b))
            row |= ((dst >> 1) & 1) << (width - 1 - a)
            row |= (dst & 1) << (width - 1 - b)
            full[row, col] += amp
    return full


def _unitary_of(gate) -> np.ndarray:
    """Local re-derivation of gate matrices (kept separate from the simulator)."""
    from math import cos, sin

    n, p = gate.name, gate.params
    s2 = 1.0 / math.sqrt(2.0)
    if n == "h":
        return np.array([[s2, s2], [s2, -s2]], dtype=complex)
    if n == "x":
        return np.array([[0, 1], [1, 0]], dtype=complex)
    if n == "y":
        return np.array([[0, -1j], [1j, 0]], dtype=complex)
    if n == "z":
        return np.diag([1, -1]).astype(complex)
    if n == "s":
        return np.diag([1, 1j]).astype(complex)
    if n == "sdg":
        return np.diag([1, -1j]).astype(complex)
    if n == "t":
        return np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
    if n == "tdg":
        return np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex)
    if n == "rx":
        t = p[0] / 2
        return np.array([[cos(t), -1j * sin(t)], [-1j * sin(t), cos(t)]], dtype=complex)
    if n == "ry":
        t = p[0] / 2
        return np.array([[cos(t), -sin(t)], [sin(t), cos(t)]], dtype=complex)
    if n == "rz":
        t = p[0] / 2
        return np.diag([np.exp(-1j * t), np.exp(1j * t)]).astype(complex)
    if n == "u1":
        return np.diag([1, np.exp(1j * p[0])]).astype(complex)
    if n == "u2":
        phi, lam = p
        return s2 * np.array(
            [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]], dtype=complex
        )
    if n == "u3":
        th, phi, lam = p
        return np.array(
            [
                [cos(th / 2), -np.exp(1j * lam) * sin(th / 2)],
                [np.exp(1j * phi) * sin(th / 2), np.exp(1j * (phi + lam)) * cos(th / 2)],
            ],
            dtype=complex,
        )
    if n == "cx":
        return np.array(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
        )
    if n == "cz":
        return np.diag([1, 1, 1, -1]).astype(complex)
    raise ValueError(f"no unitary for gate '{n}'")


def reference_density_evolution(c: Circuit, p: NoiseProfile, max_width: int = 6) -> np.ndarray:
    """Density matrix of ``c`` under the gate-error + damping noise model.

    Mirrors the production model definition (ideal gate, then a Pauli
    channel per operand qubit, plus amplitude and phase damping over idle
    gaps) but computes everything with explicit 2^w x 2^w matrices and its
    own schedule walk.
    """
    w = c.width
    if w > max_width:
        raise ValueError(f"reference evolution capped at {max_width} qubits, got {w}")
    dim = 1 << w
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0

    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.diag([1, -1]).astype(complex)

    def apply_kraus(rho, ops_2x2, q):
        out = np.zeros_like(rho)
        for k in ops_2x2:
            kf = _full_op(k, (q,), w)
            out += kf @ rho @ kf.conj().T
        return out

    def pauli_ops(err):
        ps = err / 3.0
        return [
            math.sqrt(max(1.0 - err, 0.0)) * _I2,
            math.sqrt(ps) * X,
            math.sqrt(ps) * Y,
            math.sqrt(ps) * Z,
        ]

    def damping_ops(tau, q):
        ops = []
        t1 = p.t1_us(q) * 1000.0
        if not math.isinf(t1):
            lam = 1.0 - math.exp(-tau / t1)
            ops.append([
                np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
                np.array([[0, math.sqrt(lam)], [0, 0]], dtype=complex),
            ])
        t2 = p.t2_us(q) * 1000.0
        if not math.isinf(t2):
            inv_phi = 1.0 / t2 - (0.0 if math.isinf(t1) else 0.5 / t1)
            if inv_phi > 0:
                lam = 1.0 - math.exp(-tau * inv_phi)
                ops.append([
                    np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
                    np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex),
                ])
        return ops

    # independent ASAP schedule walk
    free = [0.0] * w
    for g in c.gates:
        if g.is_measurement:
            continue
        start = max(free[q] for q in g.qubits)
        for q in g.qubits:
            gap = start - free[q]
            if gap > 0:
                for ops in damping_ops(gap, q):
                    rho = apply_kraus(rho, ops, q)
        u = _full_op(_unitary_of(g), g.qubits, w)
        rho = u @ rho @ u.conj().T
        err = p.gate_error(g)
        if err > 0:
            share = err if len(g.qubits) == 1 else err / 2.0
            for q in g.qubits:
                rho = apply_kraus(rho, pauli_ops(share), q)
        end = start + p.gate_duration(g)
        for q in g.qubits:
            free[q] = end
    makespan = max(free)
    for q in range(w):
        gap = makespan - free[q]
        if gap > 0:
            for ops in damping_ops(gap, q):
                rho = apply_kraus(rho, ops, q)
    return rho


# ---------------------------------------------------------------------------
# Kraus channels
# ---------------------------------------------------------------------------
# The operator-sum forms of the channels whose closed-form transfer matrices
# ``wirecut.simulate`` fuses per gate.

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)


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
# High-precision closed forms
# ---------------------------------------------------------------------------

def mp_gate_error_rate(k1: int, k2: int, p1, p2) -> float:
    """1 - (1-p1)^k1 (1-p2)^k2 evaluated with 50-digit arithmetic."""
    with mpmath.workdps(50):
        ok = (1 - mpmath.mpf(p1)) ** k1 * (1 - mpmath.mpf(p2)) ** k2
        return float(1 - ok)


def mp_success_probability(k1: int, k2: int, p1, p2, tau, t1, t2) -> float:
    """(1-p1)^k1 (1-p2)^k2 exp(-(tau/t1 + tau/t2)) in 50-digit arithmetic."""
    with mpmath.workdps(50):
        ok = (1 - mpmath.mpf(p1)) ** k1 * (1 - mpmath.mpf(p2)) ** k2
        decay = mpmath.e ** (-(mpmath.mpf(tau) / t1 + mpmath.mpf(tau) / t2))
        return float(ok * decay)


# ---------------------------------------------------------------------------
# Distribution distances over {bitstring: prob} maps
# ---------------------------------------------------------------------------
# Keys are visited in sorted order and summed with Python's ``sum``, which
# is the order and the summation of the vector forms in ``reconstruct.py``;
# the two agree exactly on every Python version (3.12 made ``sum`` of floats
# compensated).

def _dict_bhattacharyya(a: dict[str, float], b: dict[str, float]) -> float:
    return sum(
        (math.sqrt(a[x] * b.get(x, 0.0)) for x in sorted(a) if a[x] > 0 and b.get(x, 0.0) > 0),
        0.0,
    )


def dict_fidelity(a: dict[str, float], b: dict[str, float]) -> float:
    """Classical fidelity (sum_x sqrt(a(x) b(x)))^2, capped at 1."""
    return min(_dict_bhattacharyya(a, b) ** 2, 1.0)


def dict_tvd(a: dict[str, float], b: dict[str, float]) -> float:
    """Half the L1 distance over the sorted union of both supports."""
    keys = sorted(set(a) | set(b))
    return 0.5 * sum(abs(a.get(x, 0.0) - b.get(x, 0.0)) for x in keys)


def dict_hellinger(a: dict[str, float], b: dict[str, float]) -> float:
    """sqrt(1 - Bhattacharyya coefficient)."""
    return math.sqrt(max(0.0, 1.0 - _dict_bhattacharyya(a, b)))
