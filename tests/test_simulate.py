import importlib
import json
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import clear_simulation_caches, density_matrix, density_probs, random_circuit
from oracles import (
    KrausChannel,
    amplitude_damping_channel,
    pauli_error_channel,
    phase_damping_channel,
    reference_density_evolution,
)
from wirecut.circuit import GATES, Circuit, Gate, QasmError, asap_schedule, parse_qasm, wire_walk
from wirecut.noise import GateCal, NoiseProfile, QubitCal
from wirecut.reconstruct import _probs_to_dict, fidelity, tvd
from wirecut.simulate import (
    SimulationError,
    _apply,
    _damping_superop,
    _gaps,
    _pairs,
    _pauli_superop,
    gate_unitary,
    measure_distribution,
    run_ideal,
    run_noisy,
    run_noisy_variants,
    sample_frequencies,
)

SIMULATE_MODULE = importlib.import_module("wirecut.simulate")
HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'
GHZ3 = parse_qasm(HEADER + "qreg q[3]; h q[0]; cx q[0],q[1]; cx q[1],q[2];")


def test_hadamard_amplitudes():
    sv = run_ideal(parse_qasm(HEADER + "qreg q[1]; h q[0];"))
    assert sv == pytest.approx(np.array([1, 1]) / math.sqrt(2))


def test_ghz_state():
    sv = run_ideal(GHZ3)
    expect = np.zeros(8)
    expect[0] = expect[7] = 1 / math.sqrt(2)
    assert sv == pytest.approx(expect)


def test_empty_circuit_stays_in_zero():
    sv = run_ideal(Circuit(width=2, gates=()))
    assert sv == pytest.approx(np.array([1, 0, 0, 0]))


def test_all_gate_unitaries_are_unitary():
    rng = random.Random(3)
    names = ["h", "x", "y", "z", "s", "sdg", "t", "tdg", "cx", "cz"]
    for name in names:
        qubits = (0, 1) if name in ("cx", "cz") else (0,)
        u = gate_unitary(Gate(name, qubits))
        assert np.allclose(u @ u.conj().T, np.eye(u.shape[0]), atol=1e-12)
    for name in ("rx", "ry", "rz", "u1"):
        u = gate_unitary(Gate(name, (0,), (rng.uniform(0, 6.28),)))
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    u = gate_unitary(Gate("u2", (0,), (0.3, 1.2)))
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)
    u = gate_unitary(Gate("u3", (0,), (0.3, 1.2, -0.5)))
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-12)


def test_width_cap():
    with pytest.raises(SimulationError, match="capped"):
        run_ideal(Circuit(width=25, gates=()))
    with pytest.raises(SimulationError, match="capped"):
        run_noisy(Circuit(width=13, gates=()), NoiseProfile())


# the one-qubit gates a prep or readout option can name: those without angles
_NAMED_GATES = tuple(name for name, spec in GATES.items()
                     if spec.arity == 1 and spec.n_params == 0 and spec.unitary is not None)


@st.composite
def _variant_entries(draw):
    """A random circuit of 1-4 qubits with prep and readout entries in any
    qubit order, each of 1-3 options that chain 0-3 named one-qubit gates;
    one qubit is both prepped and read."""
    width = draw(st.integers(1, 4))
    c = random_circuit(random.Random(draw(st.integers(0, 2**32 - 1))), width,
                       draw(st.integers(0, 12)))
    both = draw(st.integers(0, width - 1))
    chain = st.lists(st.sampled_from(_NAMED_GATES), max_size=3).map(tuple)
    entries = []
    for _ in range(2):
        extra = draw(st.sets(st.integers(0, width - 1), max_size=2))
        qubits = draw(st.permutations(sorted(extra | {both})))
        entries.append([(q, tuple(draw(st.lists(chain, min_size=1, max_size=3))))
                        for q in qubits])
    return c, *entries


@settings(max_examples=60, deadline=None)
@given(_variant_entries())
def test_ideal_variants_match_each_variant_circuit(case):
    c, preps, readouts = case
    out = run_ideal(c, preps, readouts)
    shape = tuple(len(options) for _, options in readouts + preps)
    assert out.shape == shape + (2,) * c.width
    for idx in np.ndindex(shape):
        names = [(q, options[i]) for (q, options), i in zip(readouts + preps, idx)]
        before = [Gate(name, (q,)) for q, chain in names[len(readouts):] for name in chain]
        after = [Gate(name, (q,)) for q, chain in names[:len(readouts)] for name in chain]
        variant = Circuit(width=c.width, gates=tuple(before) + c.gates + tuple(after))
        assert np.max(np.abs(out[idx].reshape(-1) - run_ideal(variant))) < 1e-12


@st.composite
def _contractions(draw):
    """An array of 1 to 5 axes of mixed sizes, 1 to 3 of its axes in any
    order, and a random square matrix on their product; the other axes
    stand for batch axes."""
    shape = draw(st.lists(st.sampled_from([1, 2, 3, 4]), min_size=1, max_size=5))
    order = draw(st.permutations(range(len(shape))))
    axes = tuple(order[:draw(st.integers(1, min(3, len(shape))))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = math.prod(shape[a] for a in axes)
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return t, m, axes


def _einsum_apply(t, m, axes):
    """The square matrix ``m`` on ``axes`` of ``t``, the first most
    significant, as one einsum."""
    letters = "abcdefghijklmnop"
    t_idx = letters[:t.ndim]
    new_idx = letters[t.ndim:t.ndim + len(axes)]
    out_idx = list(t_idx)
    for a, new in zip(axes, new_idx):
        out_idx[a] = new
    sizes = [t.shape[a] for a in axes]
    spec = f"{new_idx}{''.join(t_idx[a] for a in axes)},{t_idx}->{''.join(out_idx)}"
    return np.einsum(spec, m.reshape(sizes + sizes), t)


@settings(max_examples=200, deadline=None)
@given(_contractions())
def test_apply_matches_an_einsum_reference(case):
    t, m, axes = case
    got = _apply(t, m, axes)
    assert got.shape == t.shape
    np.testing.assert_allclose(got, _einsum_apply(t, m, axes), rtol=0, atol=1e-12)


def test_apply_keeps_one_permutation_per_rank_stack_and_axis_order():
    # calls of one rank that differ only in the order of their axes, or in
    # whether the matrix is a stack, must not share a cached permutation
    rng = np.random.default_rng(11)
    shape = (3, 2, 2, 2, 2)
    t = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ms = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
    for _ in range(2):  # the second round reads every permutation from the cache
        for axes in [(1, 3), (3, 1), (2, 4), (4, 2)]:
            np.testing.assert_allclose(_apply(t, m, axes), _einsum_apply(t, m, axes),
                                       rtol=0, atol=1e-12)
            got = _apply(t, ms, axes)
            for b in range(len(t)):
                np.testing.assert_allclose(
                    got[b], _einsum_apply(t[b], ms[b], tuple(a - 1 for a in axes)),
                    rtol=0, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(_contractions())
def test_apply_with_a_matrix_stack_applies_each_entry_its_own(case):
    # a stack of matrices, one per entry of the leading axis, is applied as
    # each entry's own matrix on that entry
    t, m, axes = case
    axes = tuple(a + 1 for a in axes)
    batch = 3
    t = np.stack([t * (b + 1) for b in range(batch)])
    ms = np.stack([m + b for b in range(batch)])
    got = _apply(t, ms, axes)
    assert got.shape == t.shape
    for b in range(batch):
        expect = _apply(t[b], ms[b], tuple(a - 1 for a in axes))
        np.testing.assert_allclose(got[b], expect, rtol=0, atol=1e-12)


_TWO_QUBITS = Circuit(width=2, gates=(Gate("h", (0,)), Gate("cx", (0, 1))))
# the two variant executors, with one signature
_EXECUTORS = (lambda c, preps, readouts: run_noisy_variants(c, NoiseProfile(), preps, readouts),
              run_ideal)


@pytest.mark.parametrize("preps, readouts, message", [
    ([(0, (("x",), ())), (0, ((), ("h",)))], [], "prep entry 1 repeats qubit 0 of prep entry 0"),
    ([(5, ((),))], [], "prep entry 0 is on qubit 5, not one of the circuit's 2 qubits"),
    ([], [(-1, ((),))], "readout entry 0 is on qubit -1"),
    ([], [(1, ((),)), (0, ((),)), (1, (("h",),))], "readout entry 2 repeats qubit 1"),
    ([(1, ())], [], "prep entry 0 on qubit 1 has no options"),
    ([(True, ((), ("x",)))], [], "prep entry 0 is on qubit True, not one of the circuit's 2"),
])
def test_noisy_variants_refuse_bad_entries(preps, readouts, message):
    for execute in _EXECUTORS:
        with pytest.raises(SimulationError, match=re.escape(message)):
            execute(_TWO_QUBITS, preps, readouts)


@pytest.mark.parametrize("preps, readouts, message", [
    ([(0, ((), ("foo",)))], [], "unsupported gate 'foo'"),
    ([(0, (("x",),)), (1, (("x", "bar"),))], [], "unsupported gate 'bar'"),
    ([], [(1, (("h",), ("cx",)))], "gate 'cx' expects 2 qubit(s), got 1"),
])
def test_noisy_variants_refuse_unknown_or_two_qubit_gate_names(preps, readouts, message):
    for execute in _EXECUTORS:
        with pytest.raises(QasmError, match=re.escape(message)):
            execute(_TWO_QUBITS, preps, readouts)


@pytest.mark.parametrize("preps, readouts", [
    ([(0, ((), ("measure",)))], []),
    ([], [(1, (("h",), ("x", "measure")))]),
])
def test_both_executors_refuse_a_measure_option(preps, readouts, monkeypatch):
    # a measurement is a known one-qubit gate without a unitary: both
    # executors read their options from one table, which refuses it before
    # anything is evolved
    monkeypatch.setattr(SIMULATE_MODULE, "_apply", lambda *args: pytest.fail("evolved"))
    for execute in _EXECUTORS:
        with pytest.raises(SimulationError, match=re.escape("no unitary for gate 'measure'")):
            execute(_TWO_QUBITS, preps, readouts)


def test_both_executors_refuse_outputs_over_the_leaf_budget(monkeypatch):
    # 4 x 4 x 3 variants of 2 qubits need 192 entries; the check comes before
    # any allocation, and before the density-matrix width cap; each executor
    # prices them as what it would allocate: float64 probabilities or
    # complex128 amplitudes
    monkeypatch.setattr(SIMULATE_MODULE, "MAX_LEAF_ENTRIES", 16)
    four = ((), ("x",), ("h",), ("h", "s"))
    preps, readouts = [(0, four), (1, four)], [(1, ((), ("h",), ("sdg", "h")))]
    for execute, priced in zip(_EXECUTORS, ("1536 bytes of float64", "3072 bytes of complex128")):
        with pytest.raises(SimulationError, match=re.escape(
                f"48 variant(s) of width 2 need 192 entries ({priced}), over the limit of 16")):
            execute(_TWO_QUBITS, preps, readouts)
        assert execute(_TWO_QUBITS, [(0, four)], []).size == 16  # at the limit
    with pytest.raises(SimulationError, match="1 variant.s. of width 13 need 8192 entries"):
        run_noisy(Circuit(width=13, gates=()), NoiseProfile())


def test_noisy_variants_take_a_qubit_in_both_a_prep_and_a_readout():
    # the middle piece of a wire cut twice: a prep and a readout on one qubit
    out = run_noisy_variants(_TWO_QUBITS, NoiseProfile(), [(0, ((), ("x",)))],
                             [(0, ((), ("h",)))])
    assert out.shape == (2, 2, 2, 2)
    variant = Circuit(width=2, gates=(Gate("x", (0,)),) + _TWO_QUBITS.gates + (Gate("h", (0,)),))
    assert np.max(np.abs(out[1, 1].reshape(-1) - density_probs(variant, NoiseProfile()))) < 1e-12


def test_noisy_states_channels_and_readout_are_real(monkeypatch):
    # in the Pauli basis every state and channel of the model is real: each
    # application takes a float64 batch and matrix, and the readout makes no
    # complex intermediate that its float64 result would have to drop
    applied = []
    apply = SIMULATE_MODULE._apply

    def traced(t, m, axes):
        applied.append((t.dtype, m.dtype))
        return apply(t, m, axes)

    monkeypatch.setattr(SIMULATE_MODULE, "_apply", traced)
    profile = NoiseProfile(p1=0.01, p2=0.03, t1_default_us=0.5, t2_default_us=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_noisy_variants(GHZ3, profile, [(0, ((), ("x",), ("h",), ("h", "s")))],
                                 [(2, ((), ("h",), ("sdg", "h")))])
    assert out.dtype == np.float64 and out.shape == (3, 4, 2, 2, 2)
    assert applied and set(applied) == {(np.dtype(np.float64), np.dtype(np.float64))}


def test_a_repeated_noisy_run_builds_no_gate_channel(monkeypatch):
    # gate channels, damping, idle pairs and option chains are cached for
    # the process by value: a second run of the same leaf computes no
    # unitary's transfer matrix, and after every cache is emptied a run
    # computes one per distinct channel
    profile = NoiseProfile(p1=0.01, p2=0.03, t1_default_us=0.5, t2_default_us=0.4)
    circuit = Circuit(width=3, gates=GHZ3.gates + (Gate("rz", (2,), (0.7,)),))
    preps, readouts = [(0, ((), ("x",), ("h",), ("h", "s")))], [(2, ((), ("h",), ("sdg", "h")))]
    first = run_noisy_variants(circuit, profile, preps, readouts)
    calls = []
    ptm = SIMULATE_MODULE._unitary_ptm
    monkeypatch.setattr(SIMULATE_MODULE, "_unitary_ptm", lambda u: calls.append(u) or ptm(u))
    assert run_noisy_variants(circuit, profile, preps, readouts).tobytes() == first.tobytes()
    assert calls == []
    clear_simulation_caches()
    assert run_noisy_variants(circuit, profile, preps, readouts).tobytes() == first.tobytes()
    assert len(calls) == 6  # h, cx, rz(0.7), x, s, sdg


def test_a_repeated_ideal_run_builds_no_option_unitary(monkeypatch):
    # option unitaries come from the process-wide option table: with an
    # empty body every gate_unitary call is an option's, a second run makes
    # none, and after every cache is emptied a run makes one per option gate
    empty = Circuit(width=2, gates=())
    preps, readouts = [(0, ((), ("x",), ("h", "s")))], [(1, ((), ("sdg",), ("y", "z")))]
    first = run_ideal(empty, preps, readouts)
    calls = []
    unitary = SIMULATE_MODULE.gate_unitary
    monkeypatch.setattr(SIMULATE_MODULE, "gate_unitary",
                        lambda g: calls.append(g.name) or unitary(g))
    assert run_ideal(empty, preps, readouts).tobytes() == first.tobytes()
    assert calls == []
    clear_simulation_caches()
    assert run_ideal(empty, preps, readouts).tobytes() == first.tobytes()
    assert sorted(calls) == ["h", "s", "sdg", "x", "y", "z"]


@pytest.mark.parametrize("name", [name for name, spec in GATES.items()
                                  if spec.n_params == 0 and spec.unitary is not None])
def test_shared_gate_matrices_are_read_only(name):
    # a fixed gate's unitary and every cached array are shared by all later
    # calls: an in-place write raises, and later runs are unchanged
    gate = Gate(name, tuple(range(GATES[name].arity)))
    circuit = Circuit(width=2, gates=(Gate("h", (0,)), gate))
    profile = NoiseProfile(p1=0.01, p2=0.03, t1_default_us=0.5, t2_default_us=0.4)
    preps, readouts = [(1, ((), ("h", "s")))], [(0, ((), ("sdg", "h")))]
    ideal = run_ideal(circuit, preps, readouts)
    noisy = run_noisy_variants(circuit, profile, preps, readouts)
    shared = [
        gate_unitary(gate),
        SIMULATE_MODULE._gate_channel(name, (), profile.gate_error(gate)),
        SIMULATE_MODULE._idle((0.0, 50.0), (500.0, 500.0), (400.0, 400.0)),
        *SIMULATE_MODULE._chain(("h", "s"), (0.01, 0.01)),
        *SIMULATE_MODULE._chain(("sdg", "h"), (0.01, 0.01)),
        *[SIMULATE_MODULE._option(options, q)[1] for q, options in preps + readouts],
    ]
    if GATES[name].arity == 1:
        shared += SIMULATE_MODULE._chain((name,), (profile.gate_error(gate),))
    for array in shared:
        with pytest.raises(ValueError, match="read-only"):
            array *= 2
    assert run_ideal(circuit, preps, readouts).tobytes() == ideal.tobytes()
    assert run_noisy_variants(circuit, profile, preps, readouts).tobytes() == noisy.tobytes()


def test_measure_distribution_ghz():
    d = measure_distribution(run_ideal(GHZ3))
    assert _probs_to_dict(d)["probs"] == pytest.approx({"000": 0.5, "111": 0.5})


def test_measure_distribution_zero_state():
    d = measure_distribution(run_ideal(Circuit(width=1, gates=())))
    assert _probs_to_dict(d)["probs"] == {"0": 1.0}


def test_shot_sampling_within_binomial_bound():
    freq = sample_frequencies(measure_distribution(run_ideal(GHZ3)), 100_000, 7)
    assert abs(freq[0b000] - 0.5) < 0.01
    assert abs(freq[0b111] - 0.5) < 0.01
    assert freq.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("shots", [0, -5])
def test_shots_below_one_are_rejected(shots):
    with pytest.raises(SimulationError, match="at least 1"):
        sample_frequencies(measure_distribution(run_ideal(GHZ3)), shots, 0)


def test_shots_past_an_int64_are_rejected():
    probs = measure_distribution(run_ideal(GHZ3))
    with pytest.raises(SimulationError, match=f"at most {2 ** 63 - 1}"):
        sample_frequencies(probs, 2 ** 63, 0)
    assert sample_frequencies(probs, 2 ** 63 - 1, 0).sum() == pytest.approx(1.0)


# a profile whose one-qubit gates take 1e308 ns: two in a row overflow a float
_OVERFLOW = NoiseProfile(d1_ns=1e308, t1_default_us=100.0, t2_default_us=80.0)


@pytest.mark.parametrize("qasm, preps, readouts", [
    pytest.param("qreg q[3]; h q[0]; h q[0]; h q[1]; cx q[1],q[2];", (), (), id="body"),
    pytest.param("qreg q[2]; cx q[0],q[1];", ((0, (("h",), ("h", "h"))),), (), id="prep"),
    pytest.param("qreg q[2]; h q[0]; cx q[0],q[1];", (), ((1, ((), ("h", "h"))),), id="readout"),
])
def test_a_schedule_whose_clocks_overflow_is_refused_before_evolving(
        monkeypatch, qasm, preps, readouts):
    def evolve(*args):
        raise AssertionError("evolved")

    monkeypatch.setattr(SIMULATE_MODULE, "_evolve", evolve)
    c = parse_qasm(HEADER + qasm)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SimulationError, match="clocks are not all finite"):
            run_noisy_variants(c, _OVERFLOW, preps, readouts)


def test_a_direct_noisy_run_whose_schedule_overflows_is_refused():
    c = parse_qasm(HEADER + "qreg q[3]; h q[0]; h q[0]; h q[1]; cx q[1],q[2];")
    with pytest.raises(SimulationError, match="clocks are not all finite"):
        run_noisy(c, _OVERFLOW)


def test_amplitude_damping_limits():
    ch = amplitude_damping_channel(0.0, 100.0)
    assert len(ch.operators) == 2
    assert np.allclose(ch.operators[0], np.eye(2))
    assert ch.completeness_defect() < 1e-12
    # full relaxation: |1><1| maps to |0><0|
    ch = amplitude_damping_channel(1e9, 1.0)
    rho1 = np.array([[0, 0], [0, 1]], dtype=complex)
    out = sum(k @ rho1 @ k.conj().T for k in ch.operators)
    assert np.allclose(out, np.array([[1, 0], [0, 0]]), atol=1e-12)


def test_amplitude_damping_lambda_value():
    ch = amplitude_damping_channel(1.0, 1.0)
    lam = abs(ch.operators[1][0, 1]) ** 2
    assert lam == pytest.approx(1 - math.exp(-1))
    assert lam == pytest.approx(0.632121, abs=1e-6)


def test_thermal_branch_completeness():
    for p_th in (0.0, 0.3, 1.0):
        ch = amplitude_damping_channel(50.0, 80.0, p_thermal=p_th)
        assert ch.completeness_defect() < 1e-12


def test_phase_damping_kills_coherence_only():
    ch = phase_damping_channel(2.0, 1.0)
    assert ch.completeness_defect() < 1e-12
    plus = np.full((2, 2), 0.5, dtype=complex)
    out = sum(k @ plus @ k.conj().T for k in ch.operators)
    assert out[0, 0] == pytest.approx(0.5)
    assert abs(out[0, 1]) < 0.5  # coherence decayed
    rho1 = np.array([[0, 0], [0, 1]], dtype=complex)
    out = sum(k @ rho1 @ k.conj().T for k in ch.operators)
    assert np.allclose(out, rho1, atol=1e-12)  # populations untouched


def test_pauli_channel_validation_and_identity():
    ch = pauli_error_channel(0.0, 0.0, 0.0)
    assert len(ch.operators) == 4
    assert ch.completeness_defect() < 1e-12
    with pytest.raises(SimulationError):
        pauli_error_channel(0.6, 0.3, 0.2)
    with pytest.raises(SimulationError):
        pauli_error_channel(-0.1, 0.0, 0.0)


def test_pauli_channel_completeness_sweep():
    rng = random.Random(5)
    for _ in range(50):
        p = [rng.uniform(0, 0.33) for _ in range(3)]
        assert pauli_error_channel(*p).completeness_defect() < 1e-12


def test_noiseless_profile_matches_ideal():
    rng = random.Random(9)
    quiet = NoiseProfile(p1=0.0, p2=0.0)
    for _ in range(10):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 10))
        noisy = run_noisy(c, quiet)
        ideal = measure_distribution(run_ideal(c))
        assert tvd(noisy, ideal) < 1e-12


def test_x_gate_with_bit_flip_error():
    # X on |0> then a 10% X-error: outcome 1 with 0.9, 0 with 0.1
    p = NoiseProfile(p1=0.3, p2=0.0)  # p1/3 per Pauli = 0.1 each
    c = Circuit(width=1, gates=(Gate("x", (0,)),))
    d = run_noisy(c, p)
    # X and Y errors flip the outcome back, Z does not
    assert d[0] == pytest.approx(0.2)
    assert d[1] == pytest.approx(0.8)


def test_idle_relaxation_population():
    # qubit 0 excited then idles tau = T1 while qubit 1 stays busy
    prof = NoiseProfile(
        p1=0.0, p2=0.0, d1_ns=50.0,
        qubits={0: QubitCal(t1_us=1.0, t2_us=2.0), 1: QubitCal(t1_us=1e9, t2_us=2e9)},
    )
    gates = [Gate("x", (0,))] + [Gate("x", (1,)) for _ in range(21)]
    d = run_noisy(Circuit(width=2, gates=tuple(gates)), prof)
    p_one = d.reshape(2, 2)[1].sum()  # qubit 0 is the leading bit
    assert p_one == pytest.approx(math.exp(-1), abs=1e-12)


def test_trace_preserved_under_noise():
    rng = random.Random(21)
    for _ in range(10):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 12))
        prof = NoiseProfile(
            p1=rng.uniform(0, 0.05), p2=rng.uniform(0, 0.08),
            t1_default_us=rng.uniform(10, 100), t2_default_us=rng.uniform(5, 50),
        )
        rho = density_matrix(c, prof)
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.allclose(rho, rho.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_fidelity_degrades_as_error_grows():
    ideal = measure_distribution(run_ideal(GHZ3))
    last = 1.1
    for p2 in (0.0, 0.02, 0.05, 0.1, 0.2):
        prof = NoiseProfile(p1=0.0, p2=p2)
        f = fidelity(run_noisy(GHZ3, prof), ideal)
        assert f <= last + 1e-12
        last = f


def test_fidelity_degrades_as_damping_grows():
    ideal = measure_distribution(run_ideal(GHZ3))
    last = 1.1
    for t in (1e9, 100.0, 20.0, 5.0):
        prof = NoiseProfile(p1=0.0, p2=0.0, t1_default_us=t, t2_default_us=t)
        f = fidelity(run_noisy(GHZ3, prof), ideal)
        assert f <= last + 1e-12
        last = f


def test_to_dict_matches_the_dense_loop():
    rng = np.random.default_rng(4)
    for width in (1, 3, 6):
        vec = rng.normal(size=1 << width)
        vec[rng.random(vec.shape) < 0.5] = 0.0
        vec[0] = -0.0
        vec[-1] = -0.25
        old = {}
        for i, p in enumerate(vec):
            if p != 0.0:
                old[format(i, f"0{width}b")] = float(p)
        doc = _probs_to_dict(vec)
        new = doc["probs"]
        assert doc["width"] == width
        assert list(new) == list(old)
        assert all(type(v) is float for v in new.values())
        assert json.dumps(new) == json.dumps(old)
    assert _probs_to_dict(np.zeros(4)) == {"width": 2, "probs": {}}


# the normalised Pauli basis {I, X, Y, Z}/sqrt(2), over (index, row, column)
_PAULI_BASIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                         [[1, 0], [0, -1]]]) / math.sqrt(2)


def _ptm(ch: KrausChannel) -> np.ndarray:
    """The channel's Pauli transfer matrix: sum of K ⊗ conj(K), the channel
    on rho's (ket, bra) index 2*ket + bra, taken to the Pauli basis, where
    rho's coordinates are Tr(B_i rho) and rho = sum_i r_i B_i."""
    s = sum(np.kron(k, k.conj()) for k in ch.operators)
    to_pauli = _PAULI_BASIS.conj().reshape(4, 4)  # row i: Tr(B_i rho) over (ket, bra)
    ptm = to_pauli @ s @ _PAULI_BASIS.reshape(4, 4).T
    assert np.max(np.abs(ptm.imag)) < 1e-15
    return ptm.real


@pytest.mark.parametrize("tau", [0.0, 35.0, 400.0, 1e7])
def test_closed_form_superoperators_match_their_kraus_channels(tau):
    for e in (0.0, 0.01, 0.3, 0.75):
        ref = _ptm(pauli_error_channel(e / 3, e / 3, e / 3))
        assert np.max(np.abs(_pauli_superop(e) - ref)) < 1e-14
    inf = math.inf
    for t1, t2 in ((80.0, 60.0), (80.0, 160.0), (80.0, 400.0), (80.0, inf), (inf, 60.0), (inf, inf)):
        ref = np.eye(4)
        if t1 != inf:
            ref = _ptm(amplitude_damping_channel(tau, t1)) @ ref
        inv_phi = 1 / t2 - (0.0 if t1 == inf else 0.5 / t1)
        if inv_phi > 0:  # at T2 >= 2*T1 dephasing is skipped
            ref = _ptm(phase_damping_channel(tau, 1 / inv_phi)) @ ref
        assert np.max(np.abs(_damping_superop(tau, t1, t2) - ref)) < 1e-14, (t1, t2)


_GATE_NAMES = sorted(n for n in GATES if n != "measure")
_ONE_QUBIT_NAMES = [n for n in _GATE_NAMES if GATES[n].arity == 1]
_TIMES = st.one_of(st.just(math.inf), st.floats(0.05, 5.0))
_ERRORS = st.one_of(st.just(0.0), st.floats(0.0, 0.2))


def _gate(draw, name: str, qubits) -> Gate:
    return Gate(name, qubits, tuple(draw(st.floats(-7.0, 7.0)) for _ in range(GATES[name].n_params)))


def _run(draw, q: int, most: int) -> list[Gate]:
    """Up to ``most`` one-qubit gates on ``q``, back to back."""
    names = draw(st.lists(st.sampled_from(_ONE_QUBIT_NAMES), max_size=most))
    return [_gate(draw, name, (q,)) for name in names]


@st.composite
def _noisy_case(draw):
    # runs of one-qubit gates before a two-qubit gate are folded into its
    # channel and runs after the last one are applied at the end: draw both
    width = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from([n for n in _GATE_NAMES if width > 1 or n not in ("cx", "cz")]))
        if name in ("cx", "cz"):
            qubits = tuple(draw(st.permutations(range(width)))[:2])
            for q in qubits:
                gates += _run(draw, q, 3)
        else:
            qubits = (draw(st.integers(0, width - 1)),)
        gates.append(_gate(draw, name, qubits))
    for q in range(width):
        gates += _run(draw, q, 2)
    measured = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
    gates += [Gate("measure", (q,)) for q in measured]
    qubits = {}
    for q in draw(st.lists(st.integers(0, width - 1), unique=True)):
        t1 = draw(_TIMES)
        t2 = draw(st.one_of(_TIMES, st.floats(2.0, 4.0).map(lambda f: f * t1)))  # T2 > 2*T1 too
        qubits[q] = QubitCal(t1, t2)
    calibrated = {}
    unitary = [g for g in gates if not g.is_measurement]
    for g in draw(st.lists(st.sampled_from(unitary), max_size=4)) if unitary else ():
        calibrated[(g.name, g.qubits)] = GateCal(draw(_ERRORS), draw(st.floats(10.0, 900.0)))
    profile = NoiseProfile(
        p1=draw(_ERRORS), p2=draw(_ERRORS),
        d1_ns=draw(st.floats(10.0, 200.0)), d2_ns=draw(st.floats(100.0, 700.0)),
        t1_default_us=draw(_TIMES), t2_default_us=draw(_TIMES),
        qubits=qubits, gates=calibrated,
    )
    return Circuit(width=width, gates=tuple(gates)), profile


@settings(max_examples=100, deadline=None)
@given(_noisy_case(), st.lists(st.floats(0.0, 500.0), min_size=5, max_size=5))
def test_evolution_clocks_follow_the_asap_schedule(case, starts):
    # the noisy evolution reads the one ASAP schedule through the one wire
    # walk: the walk follows from the circuit alone, and the schedule from
    # any start clocks gives one gap pair per two-qubit application of that
    # one walk, which one evolution of several schedule groups relies on
    c, profile = case
    durations = [profile.gate_duration(g) for g in c.gates]
    apps = wire_walk(c)
    assert [gi for _, gi, _, _ in apps if gi is not None] == c.two_qubit_indices()
    assert all(gi is not None for _, gi, _, _ in apps[:len(c.two_qubit_indices())])
    for q in range(c.width):  # each qubit's gates, each once, in order
        mine = [gi for gi, g in enumerate(c.gates) if not g.is_measurement and q in g.qubits]
        order = [k for qubits, gi, runs, _ in apps if q in qubits
                 for k in (*runs[qubits.index(q)], gi) if k is not None]
        assert order == mine
        # and each entry names the two-qubit gate before it on the wire
        twos = [gi for gi in c.two_qubit_indices() if q in c.gates[gi].qubits]
        before = [ups[qubits.index(q)] for qubits, _, _, ups in apps if q in qubits]
        assert before == ([None] + twos)[:len(before)]
    for start in ([0.0] * c.width, starts[:c.width]):
        starts, ends, _ = asap_schedule(c, durations, start)
        clocks = _gaps(starts, ends, start, _pairs(apps))
        assert len(clocks) == len(c.two_qubit_indices())
        assert all(len(pair) == 2 and min(pair) == 0.0 <= max(pair) for pair in clocks)
    assert wire_walk(c) == apps


@settings(max_examples=150, deadline=None)
@given(_noisy_case())
def test_fused_density_matrix_matches_the_full_matrix_reference(case):
    c, profile = case
    rho = density_matrix(c, profile)
    assert np.max(np.abs(rho - reference_density_evolution(c, profile))) < 1e-12


@settings(max_examples=150, deadline=None)
@given(_noisy_case())
def test_direct_run_reads_the_full_matrix_diagonal(case):
    # direct execution is the variant-free readout of the fragments'
    # evolution; it must give the outcome probabilities of density_matrix
    c, profile = case
    assert np.max(np.abs(run_noisy(c, profile) - density_probs(c, profile))) <= 1e-14
