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
superoperator (4x4, or 16x16 on the two operand axes): ``_gate_channel``
then ``_idle``. ``_evolve`` multiplies each qubit's run of one-qubit
channels into the next two-qubit channel on that qubit, so most gates cost
no ``_apply`` of their own. The tests check the closed forms against Kraus
channels built independently in ``tests/oracles.py``, and the evolution
against a full-matrix reference.

``run_noisy`` simulates one circuit. ``run_noisy_variants`` gives every
variant of a circuit that differs only in one-qubit gates prepended or
appended on some qubits (a fragment's cut preparations and readout
bases). Variants whose prepended gates take the same durations share the
body's schedule, so the body evolves once per such group, over a batch
of their prepared states, and every readout is read from that evolution,
in one contraction per distinct makespan.
"""
from __future__ import annotations

import itertools
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
    "run_noisy_variants",
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


def _decay(tau: float, t1: float) -> float:
    """The excited population that amplitude damping moves to |0> over
    ``tau`` ns, T1 in ns; none when T1 is infinite."""
    return 0.0 if math.isinf(t1) else -math.expm1(-tau / t1)


def _damping_superop(tau: float, t1: float, t2: float) -> np.ndarray:
    """Amplitude then phase damping over ``tau`` ns, T1 and T2 in ns.

    An infinite T1 skips amplitude damping; pure dephasing runs at rate
    1/T2 - 1/(2 T1) and is skipped when T2 is infinite or that rate is not
    positive.
    """
    lam = _decay(tau, t1)
    lam_phi = 0.0
    if not math.isinf(t2):
        inv_phi = 1.0 / t2 - (0.0 if math.isinf(t1) else 0.5 / t1)
        if inv_phi > 0:
            lam_phi = -math.expm1(-tau * inv_phi)
    c = math.sqrt(1.0 - lam) * math.sqrt(1.0 - lam_phi)
    return np.array(
        [[1, 0, 0, lam], [0, c, 0, 0], [0, 0, c, 0], [0, 0, 0, 1.0 - lam]], dtype=complex
    )


def _gate_channel(g: Gate, p: NoiseProfile) -> np.ndarray:
    """The unitary, then the Pauli error, of one gate: 4x4 on one operand
    axis or 16x16 on two."""
    u = gate_unitary(g)
    err = p.gate_error(g)
    if len(g.qubits) == 1:
        return _pauli_superop(err) @ _kron(u, u.conj())
    pe = _pauli_superop(err / 2.0)
    return _kron(pe, pe) @ _unitary_superop_2q(u)


def _idle(qubits, gaps, t1, t2) -> np.ndarray:
    """Damping of each operand over its idle gap (``gaps``, in operand
    order), on the operands' axes. ``t1`` and ``t2`` give each qubit's times
    in ns."""
    pre = [_damping_superop(gap, t1[q], t2[q]) if gap > 0 else _I4
           for q, gap in zip(qubits, gaps)]
    return pre[0] if len(pre) == 1 else _kron(*pre)


def _check_density_width(n: int):
    if n > MAX_DENSITY_QUBITS:
        raise SimulationError(
            f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits, got {n}"
        )


def _coherence_ns(p: NoiseProfile, n: int) -> tuple[list[float], list[float]]:
    return [p.t1_us(q) * 1000.0 for q in range(n)], [p.t2_us(q) * 1000.0 for q in range(n)]


def _evolve(rho: np.ndarray, c: Circuit, p: NoiseProfile, free: list[float], t1, t2,
            superops: dict):
    """Apply every gate's fused channel to the last ``c.width`` axes of
    ``rho`` (leading batch axes are carried through), on the ASAP schedule
    whose qubit clocks start at ``free``. ``free`` is advanced to the end of
    each qubit's last gate.

    One-qubit channels are not applied one by one. Each qubit's run of them
    is multiplied into the next two-qubit channel on that qubit, as
    ``s2 @ kron(run_a, run_b)``, and a run that no two-qubit gate follows is
    applied once at the end, qubit by qubit. Channels on other qubits
    commute with a run, so this is the same map, rounded differently.
    ``superops`` caches, for evolutions of ``c`` from other clocks, each
    gate's own channel by its index and each applied product by its
    members' gate indices and gaps, in the order they act."""
    batch = rho.ndim - c.width

    def fused(gi: int, gaps) -> np.ndarray:
        """Gate ``gi``'s fused channel: damping over its operands' gaps, then
        its own channel, which is cached by the gate index."""
        core = superops.get(gi)
        if core is None:
            core = superops[gi] = _gate_channel(c.gates[gi], p)
        return core @ _idle(c.gates[gi].qubits, gaps, t1, t2) if any(gaps) else core

    def run(members) -> np.ndarray:
        """The channel of one qubit's run of one-qubit gates."""
        s = _I4
        for gi, gaps in members:
            m = fused(gi, gaps)
            s = m if s is _I4 else m @ s
        return s

    spans, _ = asap_schedule(c, p, free)
    pending: list[list] = [[] for _ in range(c.width)]  # per qubit, its run's (gate, gaps)
    for gi, (g, (start, end)) in enumerate(zip(c.gates, spans)):
        if g.is_measurement:
            continue
        gaps = tuple(start - free[q] for q in g.qubits)
        for q in g.qubits:
            free[q] = end
        if len(g.qubits) == 1:
            pending[g.qubits[0]].append((gi, gaps))
            continue
        a, b = g.qubits
        key = (*pending[a], *pending[b], (gi, gaps))
        s = superops.get(key)
        if s is None:
            s = fused(gi, gaps)
            if len(key) > 1:
                s = s @ _kron(run(pending[a]), run(pending[b]))
            superops[key] = s
        pending[a], pending[b] = [], []
        rho = _apply(rho, s, [batch + a, batch + b])
    for q, members in enumerate(pending):
        if members:
            key = tuple(members)
            if key not in superops:
                superops[key] = run(members)
            rho = _apply(rho, superops[key], (batch + q,))
    return rho


def density_matrix(c: Circuit, p: NoiseProfile) -> np.ndarray:
    """Full density matrix of ``c`` under the gate-error + damping model.

    The channels are fused as ``_evolve`` fuses them, so the matrix equals
    the gate-by-gate evolution to rounding (within 1e-12 of the full-matrix
    reference in the tests), not bit for bit."""
    _check_density_width(c.width)
    n = c.width
    t1, t2 = _coherence_ns(p, n)
    rho = np.zeros((4,) * n, dtype=complex)
    rho[(0,) * n] = 1.0
    free = [0.0] * n
    rho = _evolve(rho, c, p, free, t1, t2, {})
    makespan = max(free, default=0.0)
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


def _chain(q: int, names, p: NoiseProfile) -> tuple[np.ndarray, list[float]]:
    """The channel of the named one-qubit gates run back to back on ``q``,
    and the gates' durations in order."""
    s, durations = _I4, []
    for name in names:
        g = Gate(name, (q,))
        s = _gate_channel(g, p) @ s
        durations.append(p.gate_duration(g))
    return s, durations


def _end(clock: float, durations) -> float:
    """The clock after gates of these durations run back to back from ``clock``."""
    for d in durations:
        clock = clock + d
    return clock


def run_noisy_variants(c: Circuit, p: NoiseProfile, preps, readouts,
                       max_entries: int) -> np.ndarray:
    """Exact outcome probabilities of every variant of ``c`` under the
    gate-error + damping model.

    ``preps`` and ``readouts`` are sequences of ``(qubit, options)``, each
    option a tuple of one-qubit gate names; no qubit appears twice in one
    sequence. A variant picks one option per entry: a prep option's gates
    run before ``c`` on its qubit and a readout option's after it. The
    result has one axis per readout and then one per prep, indexed by
    option, then one bit axis per qubit; each entry is ``run_noisy`` of
    that variant's circuit, to rounding.

    A prep's gates start a fresh wire at t=0, so only their durations shape
    the body's schedule. Variants whose preps end at the same clocks form a
    schedule group: their prepared states are one batch axis of rho, at most
    ``max(1, max_entries // 4^width)`` at a time, and the body's fused
    channels (see ``_evolve``) run once over the batch. The readout
    combinations are read from the evolved batch in one contraction per
    distinct makespan, with one 2x4 map per qubit: the readout gates'
    channel (from the qubit's body end), the damping up to the makespan,
    and the diagonal. Rows get ``measure_distribution``'s clean-up.
    """
    _check_density_width(c.width)
    n = c.width
    t1, t2 = _coherence_ns(p, n)
    zero = _I4[0]  # |0><0|
    # per prep: each option's prepared one-qubit state and its end clock
    prepared = [[(s[:, 0], _end(0.0, durations))
                 for s, durations in (_chain(q, names, p) for names in options)]
                for q, options in preps]
    # per readout: each option's channel and gate durations
    chains = [[_chain(q, names, p) for names in options] for q, options in readouts]
    prep_shape = tuple(len(options) for _, options in preps)
    readout_shape = tuple(len(options) for _, options in readouts)
    out = np.empty(readout_shape + prep_shape + (1 << n,))
    flat = out.reshape(math.prod(readout_shape), math.prod(prep_shape), 1 << n)

    classes = []  # per prep: its option indices grouped by end clock
    for states in prepared:
        by_end: dict[float, list[int]] = {}
        for i, (_, end) in enumerate(states):
            by_end.setdefault(end, []).append(i)
        classes.append(list(by_end.items()))
    chunk = max(1, max_entries >> (2 * n))
    superops: dict = {}
    for group in itertools.product(*classes):
        start = [0.0] * n
        for (q, _), (end, _) in zip(preps, group):
            start[q] = end
        members = list(itertools.product(*(indices for _, indices in group)))
        for lo in range(0, len(members), chunk):
            part = members[lo:lo + chunk]
            rho = np.ones(len(part), dtype=complex)
            vectors = {q: np.array([prepared[j][m[j]][0] for m in part])
                       for j, (q, _) in enumerate(preps)}
            for q in range(n):
                v = vectors.get(q, zero[None])
                rho = rho[..., None] * v.reshape(v.shape[:1] + (1,) * q + (4,))
            free = list(start)
            rho = _evolve(rho, c, p, free, t1, t2, superops)
            cols = [np.ravel_multi_index(m, prep_shape) for m in part]
            flat[:, cols] = _read_out(rho, free, readouts, chains, t1)
    out[np.abs(out) < 1e-14] = 0.0
    np.clip(out, 0.0, None, out=out)
    return out.reshape(readout_shape + prep_shape + (2,) * n)


def _read_map(channel: np.ndarray, gap: float, t1: float) -> np.ndarray:
    """The 2x4 map that applies ``channel``, damps the qubit over ``gap`` ns
    and reads |0><0| and |1><1|: rows 0 and 3 of the product, which only
    amplitude damping moves."""
    lam = _decay(gap, t1) if gap > 0 else 0.0
    return np.array([channel[0] + lam * channel[3], (1.0 - lam) * channel[3]])


def _read_out(rho, free, readouts, chains, t1) -> np.ndarray:
    """Outcome probabilities of a batch of evolved density matrices (one
    leading batch axis) under every readout combination, over (combination,
    batch, outcome). ``free`` holds each qubit's clock at the body's end,
    and ``chains`` each readout option's channel and gate durations.

    The combinations that end at the same makespan are read in one
    contraction. A qubit without a readout takes one 2x4 map: damping from
    its clock to the makespan, then its diagonal. A readout qubit stacks one
    such map per option, after that option's channel and from its end
    clock. The qubits without a readout are contracted first, each in place
    of its axis, so every intermediate stays within rho's size until the
    readout qubits add their option axes; those axes then move to the
    front, in readout order."""
    n, batch = len(free), len(rho)
    read = {q: j for j, (q, _) in enumerate(readouts)}
    # each readout option's end clock on its qubit, gate by gate from free
    ends = [[_end(free[q], durations) for _, durations in options]
            for (q, _), options in zip(readouts, chains)]
    body = max((free[q] for q in range(n) if q not in read), default=0.0)
    combos = list(itertools.product(*(range(len(e)) for e in ends)))
    makespans = [max([body, *(e[i] for e, i in zip(ends, combo))]) for combo in combos]
    # a contraction's axes: batch, then per qubit its bit, after its option
    # axis if read
    shape, option_axis, bit_axes = [batch], {}, []
    for q in range(n):
        if q in read:
            option_axis[q] = len(shape)
            shape.append(len(ends[read[q]]))
        bit_axes.append(len(shape))
        shape.append(2)
    order = [option_axis[q] for q, _ in readouts] + [0] + bit_axes
    res = np.empty((len(combos), batch, 1 << n))
    for makespan in sorted(set(makespans)):
        probs, sizes = rho, [4] * n
        for q in sorted(range(n), key=read.__contains__):
            if q in read:
                j = read[q]
                m = np.concatenate([_read_map(ch, makespan - end, t1[q])
                                    for (ch, _), end in zip(chains[j], ends[j])])
            else:
                m = _read_map(_I4, makespan - free[q], t1[q])
            probs = np.matmul(m, probs.reshape(batch * math.prod(sizes[:q]), 4, -1))
            sizes[q] = len(m)
        probs = probs.real.reshape(shape).transpose(order).reshape(len(combos), batch, -1)
        rows = [r for r, m in enumerate(makespans) if m == makespan]
        res[rows] = probs[rows]
    return res
