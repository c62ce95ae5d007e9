"""Statevector and density-matrix simulation of the gate-error + damping model.

Conventions: qubit 0 owns the leftmost character of a measurement
bitstring, and a ``Distribution`` is the dense vector of the 2^width
outcome probabilities, indexed by those bits. A statevector is held with
one 2-valued axis per qubit.

``run_ideal`` and ``run_noisy_variants`` give every variant of a circuit
that differs only in one-qubit gates prepended or appended on some qubits
(a fragment's cut preparations and readout bases). Both take the same
``preps`` and ``readouts`` entries, checked by one ``_check_entries``
before anything is allocated, and return the same axes. ``run_ideal``
evolves the prepared states as leading batch axes of the statevector and
then rotates each read qubit. One kernel, ``_apply``, does every gate
application of both paths: it moves the operand axes to the front,
multiplies them by the gate's matrix (a unitary on a statevector, a Pauli
transfer matrix on a density matrix) and moves them back. Gate matrices
come from the one gate table, ``circuit.GATES``, through ``gate_unitary``.
Simulation yields exact probabilities only; ``sample_frequencies`` is the
one sampler, which draws shot frequencies from such a probability vector.

The noise model applies, per gate, amplitude and phase damping over each
operand's idle gap of the ASAP schedule, then the ideal unitary, then a
Pauli error channel (p_x = p_y = p_z) on each operand; a two-qubit gate's
error budget is split evenly between its operands. Idle time left at the
end of the schedule is damped too.

The density-matrix path works in the normalised Pauli basis B = {I, X, Y,
Z}/sqrt(2), where every channel of this model and every state is real. It
holds rho as float64 with one 4-valued axis per qubit, its coordinates
Tr(B_i rho) per qubit, so a one-qubit channel is a real 4x4 Pauli transfer
matrix (PTM) on one axis, Tr(B_i E(B_j)). The closed forms: a unitary's
PTM is Tr(B_i U B_j U^dag), the Pauli error's is diag(1, d, d, d) with d =
1 - 4e/3, and damping shrinks X and Y and relaxes Z toward +1. A two-qubit
channel is the Kronecker product over its operand axes. Each gate's
damping, unitary and Pauli error are multiplied into one PTM (4x4, or
16x16 on the two operand axes): ``_gate_channel`` then ``_idle``.
``_steps`` multiplies each qubit's run of one-qubit channels into the next
two-qubit channel on that qubit, so most gates cost no ``_apply`` of their
own, and ``_evolve`` applies the products. The tests check the closed
forms against Kraus channels built independently in ``tests/oracles.py``,
and the evolution against a full-matrix reference.

Caches: ``_gate_channel`` by gate name, angles and error, ``_unitaries``
and ``_named`` by gate names and ``_orders`` by shapes, each for the
process and its arrays read-only; ``_fuser``'s per call, by gate index.

``run_noisy_variants`` gives every variant in one pass; ``run_noisy``,
direct execution of one circuit, is its case with no variants. Variants whose
prepended gates take the same durations form a schedule group; the
prepared states of every group lie on one batch axis of rho, and the body
evolves once over it, each application taking one matrix where the groups
agree and a per-entry stack where they do not. Every readout combination
of every entry is then read in one contraction, one batched matmul per
qubit. ``density_matrix`` is the tests' full-matrix view of the same fused
evolution: one group, with the end-of-schedule damping applied to rho
instead of read, and the Pauli coordinates then summed back into a matrix.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuit import GATES, Circuit, Gate
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
# entries of a fragment leaf's outputs (an uncut leaf's at the width cap), and of a noisy batch
MAX_LEAF_ENTRIES = 1 << MAX_STATEVECTOR_QUBITS

_I2 = np.eye(2, dtype=complex)
_I4 = np.eye(4)


class SimulationError(ValueError):
    """Raised on width caps and malformed simulation inputs."""


def gate_unitary(g: Gate) -> np.ndarray:
    """2x2 or 4x4 unitary of a gate, from ``GATES``; measurements have none."""
    unitary = GATES[g.name].unitary
    if unitary is None:
        raise SimulationError(f"no unitary for gate '{g.name}'")
    return unitary(*g.params)


@functools.cache
def _orders(ndim: int, lead: int, axes: tuple[int, ...]) -> tuple[tuple, tuple]:
    """``_apply``'s axis order for ``ndim`` axes, ``lead`` of them matched
    by a matrix stack and ``axes`` contracted, and its inverse permutation.
    The width caps bound the keys, so the unbounded cache stays small."""
    order = tuple(range(lead)) + axes + tuple(i for i in range(lead, ndim) if i not in axes)
    return order, tuple(sorted(range(ndim), key=order.__getitem__))


def _apply(t: np.ndarray, m: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract the square matrix ``m`` with the given axes of ``t``, the
    first most significant: a unitary on a statevector's qubit axes or a
    Pauli transfer matrix on a density matrix's. Other axes, batch axes too,
    stay. ``m`` may also be a stack of matrices, one per entry of ``t``'s
    leading axis, which then applies each entry's own matrix in one batched
    matmul.
    The permutations come from ``_orders``, worked out once per shape."""
    lead = m.ndim - 2
    order, inverse = _orders(t.ndim, lead, axes)
    moved = t.transpose(order)
    out = m @ moved.reshape(*t.shape[:lead], m.shape[-1], -1)
    return out.reshape(moved.shape).transpose(inverse)


# ---------------------------------------------------------------------------
# Variant entries, as both paths take them
# ---------------------------------------------------------------------------

def _check_entries(preps, readouts, n: int, dtype) -> tuple[int, ...]:
    """Each prep or readout entry is on its own qubit of the circuit and
    offers at least one option, and every variant's outputs, entries of
    ``dtype``, together fit within ``MAX_LEAF_ENTRIES``. Returns the variant
    axes' sizes: one per readout, then one per prep."""
    for kind, entries in (("prep", preps), ("readout", readouts)):
        seen: dict = {}
        for j, (q, options) in enumerate(entries):
            if not (type(q) is int and 0 <= q < n):
                raise SimulationError(
                    f"{kind} entry {j} is on qubit {q!r}, not one of the circuit's {n} qubits")
            if q in seen:
                raise SimulationError(
                    f"{kind} entry {j} repeats qubit {q} of {kind} entry {seen[q]}")
            if not options:
                raise SimulationError(f"{kind} entry {j} on qubit {q} has no options")
            seen[q] = j
    axes = tuple(len(options) for _, options in [*readouts, *preps])
    entries = math.prod(axes) << n
    if entries > MAX_LEAF_ENTRIES:
        dtype = np.dtype(dtype)
        raise SimulationError(
            f"{math.prod(axes)} variant(s) of width {n} need {entries} entries "
            f"({dtype.itemsize * entries} bytes of {dtype}), over the limit of {MAX_LEAF_ENTRIES}: "
            f"one uncut leaf, its width capped at {MAX_STATEVECTOR_QUBITS} qubits")
    return axes


# ---------------------------------------------------------------------------
# Statevector path
# ---------------------------------------------------------------------------

def run_ideal(c: Circuit, preps=None, readouts=None) -> np.ndarray:
    """Exact amplitudes after applying every unitary gate of ``c``.

    Without ``preps`` and ``readouts`` the evolution starts from |0...0>
    and returns the 2^width amplitudes as a vector. With either, given as
    ``run_noisy_variants`` takes them, it returns each variant's amplitudes
    over that function's axes, from one evolution: the body evolves the
    product of every prep option's state (other qubits start in |0>) as
    leading batch axes, and by linearity each readout's option unitaries
    then rotate their qubit. Measurements are terminal and carry no
    operator, so they are skipped.
    """
    if c.width > MAX_STATEVECTOR_QUBITS:
        raise SimulationError(
            f"statevector simulation capped at {MAX_STATEVECTOR_QUBITS} qubits, got {c.width}"
        )
    flat = preps is None and readouts is None
    preps, readouts = preps or (), readouts or ()
    n, m = c.width, len(preps)
    axes = _check_entries(preps, readouts, n, complex)
    # per prepped qubit: its prep's axis and each option's amplitudes, over (option, bit)
    amps = {q: (j, _unitaries(*map(tuple, options))[:, :, 0])
            for j, (q, options) in enumerate(preps)}
    t = np.ones(axes[len(readouts):], dtype=complex)
    for q in range(n):
        shape, v = [1] * (m + q) + [2], _I2[0]  # |0>
        if q in amps:
            j, v = amps[q]
            shape[j] = len(v)
        t = t[..., None] * v.reshape(shape)
    for g in c.gates:
        if not g.is_measurement:
            t = _apply(t, gate_unitary(g), tuple([m + q for q in g.qubits]))
    # rotate on the last readout's qubit first, so that the option axes that
    # tensordot prepends end up in entry order
    for done, (q, options) in enumerate(reversed(readouts)):
        axis = done + m + q
        t = np.moveaxis(np.tensordot(_unitaries(*map(tuple, options)), t, axes=([2], [axis])),
                        1, axis + 1)
    return t.reshape(-1) if flat else t


@functools.lru_cache(maxsize=256)
def _named(names: tuple[str, ...]) -> tuple[Gate, ...]:
    """An option's named one-qubit gates, each checked as a ``Gate`` on qubit 0."""
    return tuple(Gate(name, (0,)) for name in names)


@functools.lru_cache(maxsize=256)
def _unitaries(*options: tuple[str, ...]) -> np.ndarray:
    """Each option's unitary, the product of its ``_named`` gates, the first
    applied first: over (option, bit after, bit before). Cached by the
    options' names, so read-only."""
    us = np.array([functools.reduce(lambda u, g: gate_unitary(g) @ u, _named(names), _I2)
                   for names in options])
    us.flags.writeable = False
    return us


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
    """Exact Born-rule outcome distribution of a statevector; noisy
    distributions come from ``run_noisy``."""
    state = np.asarray(state)
    if state.ndim != 1:
        raise SimulationError("expected a statevector")
    return Distribution(np.abs(state) ** 2)


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


# the normalised Pauli basis {I, X, Y, Z}/sqrt(2), over (index, row, column),
# and its two-qubit products, index 4*i + j for the first operand's i
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                   [[1, 0], [0, -1]]]) / math.sqrt(2)
_PAULI2 = np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(16, 4, 4)
# |0><0| = (I + Z)/2 and |1><1| = (I - Z)/2: a Z readout's rows, and the initial state
_READ = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]]) / math.sqrt(2)
_ZERO = _READ[0]


def _unitary_ptm(u: np.ndarray) -> np.ndarray:
    """The Pauli transfer matrix Tr(B_i U B_j U^dag) of a one- or two-qubit
    unitary, over the normalised Pauli basis B: real, 4x4 or 16x16."""
    basis = _PAULI if len(u) == 2 else _PAULI2
    images = u @ basis @ u.conj().T
    return (basis.reshape(len(basis), -1).conj() @ images.reshape(len(basis), -1).T).real


def _pauli_superop(e: float) -> np.ndarray:
    """Pauli error with p_x = p_y = p_z = e/3, as its transfer matrix: X, Y
    and Z each shrink by d = 1 - 4e/3."""
    d = 1.0 - 4.0 * e / 3.0
    return np.diag([1.0, d, d, d])


def _decay(tau: float, t1: float) -> float:
    """The excited population that amplitude damping moves to |0> over
    ``tau`` ns, T1 in ns; none when T1 is infinite."""
    return 0.0 if math.isinf(t1) else -math.expm1(-tau / t1)


def _damping_superop(tau: float, t1: float, t2: float) -> np.ndarray:
    """Amplitude then phase damping over ``tau`` ns, T1 and T2 in ns, as
    their transfer matrix: X and Y shrink by c, and Z relaxes toward +1 by
    the decayed population lambda.

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
    return np.array([[1, 0, 0, 0], [0, c, 0, 0], [0, 0, c, 0], [lam, 0, 0, 1.0 - lam]])


@functools.lru_cache(maxsize=1024)
def _gate_channel(name: str, params: tuple[float, ...], err: float) -> np.ndarray:
    """The unitary, then the Pauli error ``err``, of one gate of ``GATES``:
    4x4 on one operand axis or 16x16 on two. It depends on nothing else, so
    it is cached by value for the process, and read-only."""
    spec = GATES[name]
    pe = _pauli_superop(err if spec.arity == 1 else err / 2.0)
    if spec.arity == 2:
        pe = _kron(pe, pe)
    s = pe @ _unitary_ptm(spec.unitary(*params))
    s.flags.writeable = False
    return s


def _idle(qubits, gaps, t1, t2) -> np.ndarray:
    """Damping of a two-qubit gate's operands over their idle gaps
    (``gaps``, in operand order), on the operands' axes; a one-qubit gate
    starts when its qubit is free, so it has none. ``t1`` and ``t2`` give
    each qubit's times in ns."""
    return _kron(*[_damping_superop(gap, t1[q], t2[q]) if gap > 0 else _I4
                   for q, gap in zip(qubits, gaps)])


def _check_density_width(n: int):
    if n > MAX_DENSITY_QUBITS:
        raise SimulationError(
            f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits, got {n}"
        )


def _coherence_ns(p: NoiseProfile, n: int) -> tuple[list[float], list[float]]:
    return [p.t1_us(q) * 1000.0 for q in range(n)], [p.t2_us(q) * 1000.0 for q in range(n)]


def _steps(c: Circuit, durations, free: list[float]) -> list:
    """The superoperator applications that evolve ``c`` on the ASAP schedule
    whose qubit clocks start at ``free`` (``asap_schedule``'s arithmetic, on
    the gates' ``durations``), as ``(qubits, key)`` in order. ``free`` is
    advanced to the end of each qubit's last gate.

    One-qubit gates get no application of their own. Each qubit's run of
    them is multiplied into the next two-qubit channel on that qubit, as
    ``s2 @ kron(run_a, run_b)``, and a run that no two-qubit gate follows is
    applied once at the end, qubit by qubit. Channels on other qubits
    commute with a run, so this is the same map, rounded differently. A key
    names its members as ``(gate index, gaps)``: ``(run_a, run_b, last)``
    for a two-qubit application, the run itself for a one-qubit one. The
    qubits of every application follow from ``c`` alone; only the gaps, and
    so the keys, depend on ``free``."""
    pending: list[list] = [[] for _ in range(c.width)]  # per qubit, its run's (gate, gaps)
    steps = []
    for gi, g in enumerate(c.gates):
        if g.is_measurement:
            continue
        if len(g.qubits) == 1:  # starts when its qubit is free: no gap
            q = g.qubits[0]
            pending[q].append((gi, (0.0,)))
            free[q] = free[q] + durations[gi]
            continue
        a, b = g.qubits
        start = max(free[a], free[b])
        steps.append((g.qubits, (tuple(pending[a]), tuple(pending[b]),
                                 (gi, (start - free[a], start - free[b])))))
        pending[a], pending[b] = [], []
        free[a] = free[b] = start + durations[gi]
    steps += [((q,), tuple(members)) for q, members in enumerate(pending) if members]
    return steps


def _fuser(c: Circuit, p: NoiseProfile, t1, t2):
    """The matrix of one of ``_steps``' applications of ``c``, by its qubits
    and key: damping over each member's gaps, then its ``_gate_channel``,
    multiplied in the order they act. Each is built once per key, which
    names ``c``'s gates by index, so this cache lives for one call."""
    cores = [None if g.is_measurement else _gate_channel(g.name, g.params, p.gate_error(g))
             for g in c.gates]
    superops: dict = {}

    def fused(gi: int, gaps) -> np.ndarray:
        core = cores[gi]
        return core @ _idle(c.gates[gi].qubits, gaps, t1, t2) if any(gaps) else core

    def run(members) -> np.ndarray:
        s = _I4
        for gi, gaps in members:
            m = fused(gi, gaps)
            s = m if s is _I4 else m @ s
        return s

    def matrix(qubits, key) -> np.ndarray:
        s = superops.get(key)
        if s is None:
            if len(qubits) == 1:
                s = run(key)
            else:
                run_a, run_b, last = key
                s = fused(*last)
                if run_a or run_b:
                    s = s @ _kron(run(run_a), run(run_b))
            superops[key] = s
        return s

    return matrix


def _evolve(rho: np.ndarray, steps: list, group, matrix) -> np.ndarray:
    """Apply ``_steps``' applications to ``rho``, whose leading axis is a
    batch and whose other axes are the circuit's qubits. ``steps`` holds one
    list per schedule group, all with the same qubits in the same order, and
    ``group`` each batch entry's index into it (``None`` for one group).
    Where the groups' keys give one matrix it is applied to the whole batch;
    otherwise each entry gets its group's matrix, from one stack."""
    for k, (qubits, _) in enumerate(steps[0]):
        ms = [matrix(qubits, s[k][1]) for s in steps]
        m = ms[0]
        if any(other is not m for other in ms):
            m = np.stack(ms)[group]
        rho = _apply(rho, m, tuple([1 + q for q in qubits]))
    return rho


def density_matrix(c: Circuit, p: NoiseProfile) -> np.ndarray:
    """Full density matrix of ``c`` under the gate-error + damping model.

    The channels are fused as ``_steps`` fuses them, so the matrix equals
    the gate-by-gate evolution to rounding (within 1e-12 of the full-matrix
    reference in the tests), not bit for bit."""
    _check_density_width(c.width)
    n = c.width
    t1, t2 = _coherence_ns(p, n)
    rho = functools.reduce(np.multiply.outer, [_ZERO] * n, np.ones(1))
    free = [0.0] * n
    steps = _steps(c, [p.gate_duration(g) for g in c.gates], free)
    rho = _evolve(rho, [steps], None, _fuser(c, p, t1, t2))[0]
    makespan = max(free, default=0.0)
    for q in range(n):
        gap = makespan - free[q]
        if gap > 0:
            rho = _apply(rho, _damping_superop(gap, t1[q], t2[q]), (q,))
    for _ in range(n):  # each qubit's Pauli axis in turn becomes (ket, bra) at the end
        rho = np.tensordot(rho, _PAULI, axes=([0], [0]))
    kets_then_bras = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return rho.transpose(kets_then_bras).reshape(1 << n, 1 << n)


def run_noisy(c: Circuit, p: NoiseProfile) -> Distribution:
    """Exact outcome distribution of ``c`` under the gate-error + damping model.

    The variant-free case of ``run_noisy_variants``: density-matrix
    evolution, so the cost is 4^width; capped accordingly.
    """
    return Distribution(run_noisy_variants(c, p, (), ()).reshape(-1))


def _chain(q: int, names, p: NoiseProfile) -> tuple[np.ndarray, list[float]]:
    """The channel of the named one-qubit gates run back to back on ``q``,
    and the gates' durations in order."""
    gates = [g.relabelled((q,)) for g in _named(tuple(names))]
    s = _I4
    for g in gates:
        s = _gate_channel(g.name, g.params, p.gate_error(g)) @ s
    return s, [p.gate_duration(g) for g in gates]


def _end(clock, durations):
    """The clock after gates of these durations run back to back from
    ``clock``, a float or an array of them."""
    for d in durations:
        clock = clock + d
    return clock


def run_noisy_variants(c: Circuit, p: NoiseProfile, preps, readouts) -> np.ndarray:
    """Exact outcome probabilities of every variant of ``c`` under the
    gate-error + damping model.

    ``preps`` and ``readouts`` are sequences of ``(qubit, options)``, each
    option a tuple of one-qubit gate names; no qubit appears twice in one
    sequence, or ``SimulationError`` names the entry. Outputs over
    ``MAX_LEAF_ENTRIES`` entries are refused first, before the width cap
    and before anything is allocated. A variant picks one
    option per entry: a prep option's gates run before ``c`` on its qubit
    and a readout option's after it. The result has one axis per readout
    and then one per prep, indexed by option, then one bit axis per qubit;
    each entry is the diagonal of ``density_matrix`` of that variant's
    circuit, to rounding.

    A prep's gates start a fresh wire at t=0, so only their durations shape
    the body's schedule. Variants whose preps end at the same clocks form a
    schedule group, and each group's schedule and fused applications are
    worked out once (``_steps``, with each gate's duration looked up once).
    Every prepared state of every group then goes on one batch axis of rho,
    group by group, at most ``max(1, MAX_LEAF_ENTRIES // 4^width)`` at a time,
    and the body evolves once over it: every group applies the same
    sequence of channels, and an application whose matrix differs between
    the groups of a chunk applies each entry's own from a stack. All
    readout combinations of every entry are then read in one contraction
    (``_read``), its intermediates within the larger of ``MAX_LEAF_ENTRIES``
    and the result's entries. Gate channels and option gates come from
    process-wide caches, ``_gate_channel`` and ``_named``. Probabilities
    below 1e-14 in magnitude are then zeroed, and negative ones clipped.
    """
    n = c.width
    axes = _check_entries(preps, readouts, n, float)
    _check_density_width(n)
    t1, t2 = _coherence_ns(p, n)
    # per prep: each option's prepared one-qubit state and its end clock
    prepared = [[(s @ _ZERO, _end(0.0, durations))
                 for s, durations in (_chain(q, names, p) for names in options)]
                for q, options in preps]
    # per readout: each option's channel and gate durations
    chains = [[_chain(q, names, p) for names in options]
              for q, options in readouts]
    readout_shape, prep_shape = axes[:len(readouts)], axes[len(readouts):]
    out = np.empty(axes + (1 << n,))
    flat = out.reshape(math.prod(readout_shape), math.prod(prep_shape), 1 << n)

    classes = []  # per prep: its option indices grouped by end clock
    for states in prepared:
        by_end: dict[float, list[int]] = {}
        for i, (_, end) in enumerate(states):
            by_end.setdefault(end, []).append(i)
        classes.append(list(by_end.items()))
    durations = [p.gate_duration(g) for g in c.gates]
    steps, frees, members = [], [], []  # per group; per init, (group, option per prep)
    for group in itertools.product(*classes):
        free = [0.0] * n
        for (q, _), (end, _) in zip(preps, group):
            free[q] = end
        members += [(len(steps), m) for m in itertools.product(*(ix for _, ix in group))]
        steps.append(_steps(c, durations, free))
        frees.append(free)
    matrix = _fuser(c, p, t1, t2)
    chunk = max(1, MAX_LEAF_ENTRIES >> (2 * n))
    limit = max(MAX_LEAF_ENTRIES, out.size)
    for lo in range(0, len(members), chunk):
        part = members[lo:lo + chunk]
        first, last = part[0][0], part[-1][0] + 1
        group = np.array([g - first for g, _ in part])
        rho = np.ones(len(part))
        vectors = {q: np.array([prepared[j][m[j]][0] for _, m in part])
                   for j, (q, _) in enumerate(preps)}
        for q in range(n):
            v = vectors.get(q, _ZERO[None])
            rho = rho[..., None] * v.reshape(v.shape[:1] + (1,) * q + (4,))
        rho = _evolve(rho, steps[first:last], group, matrix)
        cols = [np.ravel_multi_index(m, prep_shape) for _, m in part]
        flat[:, cols] = _read(rho, group, frees[first:last], chains, [q for q, _ in readouts],
                              t1, limit)
    out[np.abs(out) < 1e-14] = 0.0
    return np.clip(out, 0.0, None, out=out).reshape(axes + (2,) * n)


def _read(rho, group, frees, chains, read_qubits, t1, limit: int) -> np.ndarray:
    """Outcome probabilities of a batch of evolved density matrices (one
    leading batch axis, Pauli coordinates per qubit) under every readout
    combination, over (combination, entry, outcome), combinations in C
    order of the readouts' options.
    ``group`` gives each entry's index into ``frees``, its group's qubit
    clocks at the body's end; readout j is on ``read_qubits[j]`` and
    ``chains[j]`` holds each of its options' channel and gate durations.

    Each qubit takes one real 2x4 map per (combination, entry): the readout
    option's PTM, if the qubit is read, then amplitude damping from the
    qubit's end clock to that combination's makespan in that group, then
    the rows |0><0| = (1, 0, 0, 1)/sqrt(2) and |1><1| = (1, 0, 0, -1)/sqrt(2).
    The damping only moves weight from the second row to the first, so it
    mixes the two rows after the channel. The qubits are contracted one at
    a time, each with one batched float64 matmul, with the combinations on
    the leading axis, so the first contraction makes the largest
    intermediate: half the batch's size per combination. Blocks of
    combinations keep it within ``limit`` entries (at least one
    combination at a time)."""
    n, batch = rho.ndim - 1, len(rho)
    shape = tuple(len(options) for options in chains)
    n_combos = math.prod(shape)
    combos = np.indices(shape).reshape(len(shape), n_combos)  # option per readout
    free = np.array(frees)  # (group, qubit)
    # per qubit: its clock before the damping, over (group, combination), and
    # the index into ``table`` of the readout rows after the channel before
    # it (the identity's unless the qubit is read), over combination
    ends = np.repeat(free.T[:, :, None], n_combos, axis=2)
    table = [_READ]
    index = np.zeros((n, n_combos), dtype=np.intp)
    for j, (q, options) in enumerate(zip(read_qubits, chains)):
        clocks = np.array([_end(free[:, q], durations) for _, durations in options])
        ends[q] = clocks[combos[j]].T
        index[q] = len(table) + combos[j]
        table += [_READ @ ch for ch, _ in options]
    table = np.array(table)
    gaps = ends.max(axis=0) - ends  # to each combination's makespan
    decay = -np.expm1(-gaps / np.array(t1)[:, None, None])  # 0 where T1 is infinite
    decay = decay[:, group].transpose(0, 2, 1)[..., None]  # (qubit, combination, entry, 1)
    res = np.empty((n_combos, batch, 1 << n))
    block = max(1, min(n_combos, limit // (batch << (2 * n - 1))))
    for lo in range(0, n_combos, block):
        r, lam = table[index[:, lo:lo + block, None]], decay[:, lo:lo + block]
        maps = np.stack([r[..., 0, :] + lam * r[..., 1, :], (1.0 - lam) * r[..., 1, :]], axis=-1)
        probs = rho.reshape(1, batch, -1)
        for q in range(n):
            probs = probs.reshape(*probs.shape[:2], 4, -1).swapaxes(2, 3) @ maps[q]
        res[lo:lo + block] = probs.reshape(len(probs), batch, -1)
    return res
