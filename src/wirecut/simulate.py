"""Statevector and density-matrix simulation of the gate-error + damping model.

Conventions: qubit 0 owns the leftmost character of a measurement
bitstring, and a ``Distribution`` is the dense vector of the 2^width
outcome probabilities, indexed by those bits. A statevector is held with
one 2-valued axis per qubit.

``run_ideal`` and ``run_noisy_variants`` give every variant of a circuit
that differs only in one-qubit gates prepended or appended on some qubits
(a fragment's cut preparations and readout bases). Both take the same
``preps`` and ``readouts`` entries, checked by one ``_check_entries`` and
read from one option table, ``_option``, before anything is allocated, and
return the same axes. ``run_ideal`` evolves the prepared states as
leading batch axes of the statevector and then rotates each read qubit.
One kernel, ``_apply``, does every gate application of both paths: it
moves the operand axes to the front, multiplies them by the gate's matrix
(a unitary on a statevector, a Pauli transfer matrix on a density matrix)
and moves them back. Gate matrices
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
``_structure`` multiplies each qubit's run of one-qubit channels into the
next two-qubit channel on that qubit, so most gates cost no ``_apply`` of
their own, and ``_evolve`` applies the products. The tests check the closed
forms against Kraus channels built independently in ``tests/oracles.py``,
and the evolution against a full-matrix reference.

Caches: ``_option``, the one option table of both executors (each option
of a prep or readout entry, its checked gates, and the stack of their
unitary products), by the entry's options and qubit; ``_gate_channel`` by
gate name, angles and error; ``_idle`` (a two-qubit gate's operand damping)
by its operand gaps, T1s and T2s; ``_chain`` (an option's prepared state
and readout rows) by gate names and errors; and ``_orders`` by shapes.
Each lives for the process, its arrays read-only, and each but
``_orders``, whose keys the width caps bound, holds a bounded number of
entries. ``_fuser``'s lives for one call, keyed by application index and
gaps.

``run_noisy_variants`` gives every variant in one pass; ``run_noisy``,
direct execution of one circuit, is its case with no variants. Variants whose
prepended gates take the same durations form a schedule group. Which
applications act on which qubits follows from the circuit alone
(``_structure``, once per call); a group's clocks set only each two-qubit
application's idle gaps (``_clocks``, once per group). The prepared states
of every group lie on one batch axis of rho, and the body evolves once
over it, each application taking one matrix where the groups' gaps agree
and a per-entry stack where they do not. Every readout combination
of every entry is then read in one contraction, one batched matmul per
qubit.
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


@functools.lru_cache(maxsize=256)
def _option(options: tuple[tuple[str, ...], ...], q: int) -> tuple[tuple, np.ndarray]:
    """The options of a prep or readout entry on qubit ``q``: per option,
    its named one-qubit gates, each checked as a ``Gate`` on ``q``, and one
    stack of their unitary products, the first gate applied first, over
    (option, bit after, bit before), from ``gate_unitary`` (so ``measure``
    raises ``SimulationError``). Both executors read this table, cached by
    options and qubit, so the stack is read-only."""
    gates, stack = [], np.empty((len(options), 2, 2), dtype=complex)
    for i, names in enumerate(options):
        gates.append(tuple(Gate(name, (q,)) for name in names))
        u = _I2
        for g in gates[-1]:
            u = gate_unitary(g) @ u
        stack[i] = u
    stack.flags.writeable = False
    return tuple(gates), stack


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
    amps = {q: (j, _option(options, q)[1][:, :, 0]) for j, (q, options) in enumerate(preps)}
    # per readout, the last first: its qubit and each option's unitary
    rotations = [(q, _option(options, q)[1]) for q, options in reversed(readouts)]
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
    for done, (q, us) in enumerate(rotations):
        axis = done + m + q
        t = np.moveaxis(np.tensordot(us, t, axes=([2], [axis])), 1, axis + 1)
    return t.reshape(-1) if flat else t


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


@functools.lru_cache(maxsize=1024)
def _idle(gaps: tuple[float, float], t1: tuple[float, float], t2: tuple[float, float]) -> np.ndarray:
    """Damping of a two-qubit gate's operands over their idle gaps, on the
    operands' axes: ``gaps``, ``t1`` and ``t2`` give each operand's, in
    operand order and in ns. A one-qubit gate starts when its qubit is free,
    so it has none. Cached by value for the process, so read-only."""
    s = _kron(*[_damping_superop(gap, a, b) if gap > 0 else _I4 for gap, a, b in zip(gaps, t1, t2)])
    s.flags.writeable = False
    return s


def _structure(c: Circuit) -> list:
    """The superoperator applications that evolve ``c``, in order, as
    ``(qubits, gate, runs)``: all that follows from ``c`` alone.

    One-qubit gates get no application of their own. Each qubit's run of
    them, as gate indices, is multiplied into the next two-qubit channel on
    that qubit, gate index ``gate``, as ``s2 @ kron(run_a, run_b)``: ``runs``
    holds one run per operand. A run that no two-qubit gate follows is
    applied once at the end, qubit by qubit, with ``gate`` None. Channels on
    other qubits commute with a run, so this is the same map, rounded
    differently."""
    pending: list[list[int]] = [[] for _ in range(c.width)]  # per qubit, its run
    apps = []
    for gi, g in enumerate(c.gates):
        if g.is_measurement:
            continue
        if len(g.qubits) == 1:
            pending[g.qubits[0]].append(gi)
            continue
        a, b = g.qubits
        apps.append((g.qubits, gi, (tuple(pending[a]), tuple(pending[b]))))
        pending[a], pending[b] = [], []
    apps += [((q,), None, (tuple(run),)) for q, run in enumerate(pending) if run]
    return apps


def _clocks(apps: list, durations, free: list[float]) -> list[tuple[float, float]]:
    """The idle gaps of ``_structure``'s two-qubit applications ``apps``, a
    pair in operand order for each, on the ASAP schedule whose qubit clocks
    start at ``free``: ``asap_schedule``'s arithmetic on the gates'
    ``durations``, in its order. ``free`` is advanced to the end of each
    qubit's last gate. A one-qubit gate starts when its qubit is free, so
    only these gaps depend on the clocks."""
    gaps = []
    for qubits, gi, runs in apps:
        if gi is None:  # a trailing run
            q, = qubits
            clock = free[q]
            for r in runs[0]:
                clock = clock + durations[r]
            free[q] = clock
            continue
        (a, b), (run_a, run_b) = qubits, runs
        clock_a, clock_b = free[a], free[b]
        for r in run_a:
            clock_a = clock_a + durations[r]
        for r in run_b:
            clock_b = clock_b + durations[r]
        start = max(clock_a, clock_b)
        gaps.append((start - clock_a, start - clock_b))
        free[a] = free[b] = start + durations[gi]
    return gaps


def _fuser(c: Circuit, p: NoiseProfile, apps: list, t1, t2):
    """The matrix of ``_structure``'s application ``k`` of ``c`` for its
    ``_clocks`` gaps (``()`` for a trailing run): the product of its runs'
    ``_gate_channel``s, then damping over the gaps, then the two-qubit
    gate's channel, multiplied in the order they act. The runs' product is
    built once per application and each matrix once per (application,
    gaps), which name ``c``'s applications by index, so this cache lives for
    one call."""
    cores = [None if g.is_measurement else _gate_channel(g.name, g.params, p.gate_error(g))
             for g in c.gates]
    runs: dict = {}
    superops: dict = {}

    def run(members) -> np.ndarray:
        s = _I4
        for gi in members:
            s = cores[gi] if s is _I4 else cores[gi] @ s
        return s

    def matrix(k: int, gaps) -> np.ndarray:
        s = superops.get((k, gaps))
        if s is None:
            qubits, gi, members = apps[k]
            if gi is None:
                s = run(members[0])
            else:
                s = cores[gi]
                if any(gaps):
                    a, b = qubits
                    s = s @ _idle(gaps, (t1[a], t1[b]), (t2[a], t2[b]))
                if k not in runs:
                    runs[k] = _kron(run(members[0]), run(members[1])) if any(members) else None
                if runs[k] is not None:
                    s = s @ runs[k]
            superops[k, gaps] = s
        return s

    return matrix


def _evolve(rho: np.ndarray, apps: list, gaps: list, group, matrix) -> np.ndarray:
    """Apply ``_structure``'s applications ``apps`` to ``rho``, whose
    leading axis is a batch and whose other axes are the circuit's qubits.
    ``gaps`` holds one ``_clocks`` list per schedule group, and ``group``
    each batch entry's index into it (``None`` for one group). Where the
    groups' gaps agree one matrix is applied to the whole batch; otherwise
    each entry gets its group's matrix, from one stack."""
    columns = zip(*gaps)  # per two-qubit application, its gaps in each group
    for k, (qubits, gi, _) in enumerate(apps):
        if gi is None:
            m = matrix(k, ())
        else:
            col = next(columns)
            if col.count(col[0]) == len(col):
                m = matrix(k, col[0])
            else:
                m = np.stack([matrix(k, gap) for gap in col])[group]
        rho = _apply(rho, m, tuple([1 + q for q in qubits]))
    return rho


def run_noisy(c: Circuit, p: NoiseProfile) -> Distribution:
    """Exact outcome distribution of ``c`` under the gate-error + damping model.

    The variant-free case of ``run_noisy_variants``: density-matrix
    evolution, so the cost is 4^width; capped accordingly.
    """
    return Distribution(run_noisy_variants(c, p, (), ()).reshape(-1))


@functools.lru_cache(maxsize=256)
def _chain(names: tuple[str, ...], errors: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The state that the named one-qubit gates, run back to back with these
    Pauli errors, prepare from |0>, and the readout rows |0><0|, |1><1| read
    after them: ``(s @ _ZERO, _READ @ s)`` for their channel ``s``. They
    depend on nothing else, so they are cached by value for the process, and
    read-only."""
    s = _I4
    for name, err in zip(names, errors):
        s = _gate_channel(name, (), err) @ s
    state, rows = s @ _ZERO, _READ @ s
    state.flags.writeable = rows.flags.writeable = False
    return state, rows


def _options(q: int, options, p: NoiseProfile) -> list:
    """Per option of a prep or readout entry on qubit ``q``: its ``_chain``
    state and rows, and its ``_option`` gates' durations in order."""
    out = []
    for names, gates in zip(options, _option(options, q)[0]):
        state, rows = _chain(names, tuple([p.gate_error(g) for g in gates]))
        out.append((state, rows, [p.gate_duration(g) for g in gates]))
    return out


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
    ``options`` a tuple of options and each option a tuple of one-qubit
    gate names; no qubit appears twice in one
    sequence, or ``SimulationError`` names the entry. Outputs over
    ``MAX_LEAF_ENTRIES`` entries are refused first, before the width cap
    and before anything is allocated. A variant picks one
    option per entry: a prep option's gates run before ``c`` on its qubit
    and a readout option's after it. The result has one axis per readout
    and then one per prep, indexed by option, then one bit axis per qubit;
    each entry is the outcome distribution of a separate density-matrix run
    of that variant's circuit, to rounding.

    A prep's gates start a fresh wire at t=0, so only their durations shape
    the body's schedule. Variants whose preps end at the same clocks form a
    schedule group. The body's applications are worked out once
    (``_structure``) and each group's clocks once (``_clocks``, with each
    gate's duration looked up once), which give each two-qubit
    application's idle gaps; each fused matrix is built once per
    application and gaps. Every prepared state of every group then goes on
    one batch axis of rho, group by group, at most ``max(1,
    MAX_LEAF_ENTRIES // 4^width)`` at a time, and the body evolves once over
    it: every group applies the same sequence of channels, and an
    application whose gaps differ between the groups of a chunk applies
    each entry's own matrix from a stack. All readout combinations of every
    entry are then read in one contraction (``_read``), its intermediates
    within the larger of ``MAX_LEAF_ENTRIES`` and the result's entries.
    Gate channels, idle damping, option gates and each option's prepared
    state and readout rows come from process-wide caches keyed by value
    (``_gate_channel``, ``_idle``, ``_option`` and ``_chain``). Probabilities below 1e-14 in magnitude are then zeroed,
    and negative ones clipped.
    """
    n = c.width
    axes = _check_entries(preps, readouts, n, float)
    if n > MAX_DENSITY_QUBITS:
        raise SimulationError(
            f"density-matrix simulation capped at {MAX_DENSITY_QUBITS} qubits, got {n}")
    t1 = [p.t1_us(q) * 1000.0 for q in range(n)]
    t2 = [p.t2_us(q) * 1000.0 for q in range(n)]
    # per prep: each option's prepared one-qubit state and its end clock
    prepared = [[(state, _end(0.0, durations)) for state, _, durations in _options(q, options, p)]
                for q, options in preps]
    # per readout: each option's readout rows and gate durations
    chains = [[(rows, durations) for _, rows, durations in _options(q, options, p)]
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
    apps = _structure(c)
    durations = [p.gate_duration(g) for g in c.gates]
    gaps, frees, members = [], [], []  # per group; per init, (group, option per prep)
    for group in itertools.product(*classes):
        free = [0.0] * n
        for (q, _), (end, _) in zip(preps, group):
            free[q] = end
        members += [(len(gaps), m) for m in itertools.product(*(ix for _, ix in group))]
        gaps.append(_clocks(apps, durations, free))
        frees.append(free)
    matrix = _fuser(c, p, apps, t1, t2)
    groups = np.array([g for g, _ in members])
    picks = np.array([m for _, m in members], dtype=np.intp).reshape(len(members), len(preps))
    cols = np.ravel_multi_index(picks.T, prep_shape).reshape(-1)
    # per prepped qubit: each init's prepared state, over (init, 4)
    states = {q: np.array([state for state, _ in prepared[j]])[picks[:, j]]
              for j, (q, _) in enumerate(preps)}
    chunk = max(1, MAX_LEAF_ENTRIES >> (2 * n))
    limit = max(MAX_LEAF_ENTRIES, out.size)
    for lo in range(0, len(members), chunk):
        part = slice(lo, lo + chunk)
        group = groups[part]
        first, last = group[0], group[-1] + 1
        group = group - first
        rho = np.ones(len(group))
        for q in range(n):
            v = states[q][part] if q in states else _ZERO[None]
            rho = rho[..., None] * v.reshape(v.shape[:1] + (1,) * q + (4,))
        rho = _evolve(rho, apps, gaps[first:last], group, matrix)
        _read(rho, group, frees[first:last], chains, [q for q, _ in readouts], t1, limit,
              flat, cols[part])
    out[out < 1e-14] = 0.0  # those below 1e-14 in magnitude, and every negative one
    return out.reshape(axes + (2,) * n)


def _read(rho, group, frees, chains, read_qubits, t1, limit: int, out, cols):
    """Write the outcome probabilities of a batch of evolved density
    matrices (one leading batch axis, Pauli coordinates per qubit) under
    every readout combination to ``out[:, cols]``: ``out`` is over
    (combination, entry of the leaf, outcome), combinations in C order of
    the readouts' options, and ``cols`` gives each batch entry's column.
    ``group`` gives each entry's index into ``frees``, its group's qubit
    clocks at the body's end; readout j is on ``read_qubits[j]`` and
    ``chains[j]`` holds each of its options' readout rows and gate durations.

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
        clock = free[:, q]
        ends[q] = np.array([_end(clock, durations) for _, durations in options])[combos[j]].T
        index[q] = len(table) + combos[j]
        table += [rows for rows, _ in options]
    table = np.array(table)
    gaps = ends.max(axis=0) - ends  # to each combination's makespan
    decay = -np.expm1(-gaps / np.array(t1)[:, None, None])  # 0 where T1 is infinite
    decay = decay.transpose(0, 2, 1)[..., None]  # (qubit, combination, group, 1)
    block = max(1, min(n_combos, limit // (batch << (2 * n - 1))))
    for lo in range(0, n_combos, block):
        r, lam = table[index[:, lo:lo + block, None]], decay[:, lo:lo + block]
        # built per group, then taken for each entry
        maps = np.stack([r[..., 0, :] + lam * r[..., 1, :], (1.0 - lam) * r[..., 1, :]],
                        axis=-1).take(group, axis=2)
        probs = rho.reshape(1, batch, -1)
        for q in range(n):
            probs = probs.reshape(*probs.shape[:2], 4, -1).swapaxes(2, 3) @ maps[q]
        out[lo:lo + block, cols] = probs.reshape(len(probs), batch, -1)
