import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit
from oracles import (
    KrausChannel,
    amplitude_damping_channel,
    pauli_error_channel,
    phase_damping_channel,
    reference_density_evolution,
)
from wirecut.circuit import PARAM_COUNTS, Circuit, Gate, parse_qasm
from wirecut.noise import GateCal, NoiseProfile, QubitCal
from wirecut.reconstruct import fidelity, tvd
from wirecut.simulate import (
    Distribution,
    SimulationError,
    _apply,
    _damping_superop,
    _pauli_superop,
    density_matrix,
    gate_unitary,
    measure_distribution,
    run_ideal,
    run_noisy,
    sample_frequencies,
)

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


def test_batched_initial_states_evolve_like_single_ones():
    rng = np.random.default_rng(5)
    c = random_circuit(random.Random(5), 3, 14)
    batch = rng.normal(size=(2, 3, 2, 2, 2)) + 1j * rng.normal(size=(2, 3, 2, 2, 2))
    out = run_ideal(c, batch)
    assert out.shape == batch.shape
    prep = Circuit(width=3, gates=(Gate("x", (1,)),))
    for idx in np.ndindex(2, 3):
        single = run_ideal(c, batch[idx])
        assert np.max(np.abs(out[idx] - single)) < 1e-12
    # an explicit |010> matches the gates that prepare it
    start = run_ideal(prep).reshape(2, 2, 2)
    joined = Circuit(width=3, gates=prep.gates + c.gates)
    assert np.max(np.abs(run_ideal(c, start).reshape(-1) - run_ideal(joined))) < 1e-12
    with pytest.raises(SimulationError, match="qubit axes"):
        run_ideal(c, np.zeros((4, 2)))


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


@settings(max_examples=200, deadline=None)
@given(_contractions())
def test_apply_matches_an_einsum_reference(case):
    t, m, axes = case
    letters = "abcdefghijklmnop"
    t_idx = letters[:t.ndim]
    new_idx = letters[t.ndim:t.ndim + len(axes)]
    out_idx = list(t_idx)
    for a, new in zip(axes, new_idx):
        out_idx[a] = new
    sizes = [t.shape[a] for a in axes]
    spec = f"{new_idx}{''.join(t_idx[a] for a in axes)},{t_idx}->{''.join(out_idx)}"
    expected = np.einsum(spec, m.reshape(sizes + sizes), t)
    got = _apply(t, m, axes)
    assert got.shape == t.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_measure_distribution_ghz():
    d = measure_distribution(run_ideal(GHZ3))
    assert d.to_dict()["probs"] == pytest.approx({"000": 0.5, "111": 0.5})


def test_measure_distribution_zero_state():
    d = measure_distribution(run_ideal(Circuit(width=1, gates=())))
    assert d.to_dict()["probs"] == {"0": 1.0}


def test_shot_sampling_within_binomial_bound():
    freq = sample_frequencies(measure_distribution(run_ideal(GHZ3)).probs, 100_000, 7)
    assert abs(freq[0b000] - 0.5) < 0.01
    assert abs(freq[0b111] - 0.5) < 0.01
    assert freq.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("shots", [0, -5])
def test_shots_below_one_are_rejected(shots):
    with pytest.raises(SimulationError, match="at least 1"):
        sample_frequencies(measure_distribution(run_ideal(GHZ3)).probs, shots, 0)


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
    assert d.probs[0] == pytest.approx(0.2)
    assert d.probs[1] == pytest.approx(0.8)


def test_idle_relaxation_population():
    # qubit 0 excited then idles tau = T1 while qubit 1 stays busy
    prof = NoiseProfile(
        p1=0.0, p2=0.0, d1_ns=50.0,
        qubits={0: QubitCal(t1_us=1.0, t2_us=2.0), 1: QubitCal(t1_us=1e9, t2_us=2e9)},
    )
    gates = [Gate("x", (0,))] + [Gate("x", (1,)) for _ in range(21)]
    d = run_noisy(Circuit(width=2, gates=tuple(gates)), prof)
    p_one = d.probs.reshape(2, 2)[1].sum()  # qubit 0 is the leading bit
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
        doc = Distribution(vec).to_dict()
        new = doc["probs"]
        assert doc["width"] == width
        assert list(new) == list(old)
        assert all(type(v) is float for v in new.values())
        assert json.dumps(new) == json.dumps(old)
    assert Distribution(np.zeros(4)).to_dict() == {"width": 2, "probs": {}}


def _superop(ch: KrausChannel) -> np.ndarray:
    """sum of K ⊗ conj(K): the channel on rho's (ket, bra) index 2*ket + bra."""
    return sum(np.kron(k, k.conj()) for k in ch.operators)


@pytest.mark.parametrize("tau", [0.0, 35.0, 400.0, 1e7])
def test_closed_form_superoperators_match_their_kraus_channels(tau):
    for e in (0.0, 0.01, 0.3, 0.75):
        ref = _superop(pauli_error_channel(e / 3, e / 3, e / 3))
        assert np.max(np.abs(_pauli_superop(e) - ref)) < 1e-14
    inf = math.inf
    for t1, t2 in ((80.0, 60.0), (80.0, 160.0), (80.0, 400.0), (80.0, inf), (inf, 60.0), (inf, inf)):
        ref = np.eye(4)
        if t1 != inf:
            ref = _superop(amplitude_damping_channel(tau, t1)) @ ref
        inv_phi = 1 / t2 - (0.0 if t1 == inf else 0.5 / t1)
        if inv_phi > 0:  # at T2 >= 2*T1 dephasing is skipped
            ref = _superop(phase_damping_channel(tau, 1 / inv_phi)) @ ref
        assert np.max(np.abs(_damping_superop(tau, t1, t2) - ref)) < 1e-14, (t1, t2)


_GATE_NAMES = sorted(n for n in PARAM_COUNTS if n not in ("swap", "measure"))  # parser rewrites swap
_TIMES = st.one_of(st.just(math.inf), st.floats(0.05, 5.0))
_ERRORS = st.one_of(st.just(0.0), st.floats(0.0, 0.2))


@st.composite
def _noisy_case(draw):
    width = draw(st.integers(1, 4))
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        name = draw(st.sampled_from([n for n in _GATE_NAMES if width > 1 or n not in ("cx", "cz")]))
        if name in ("cx", "cz"):
            qubits = tuple(draw(st.permutations(range(width)))[:2])
        else:
            qubits = (draw(st.integers(0, width - 1)),)
        params = tuple(draw(st.floats(-7.0, 7.0)) for _ in range(PARAM_COUNTS[name]))
        gates.append(Gate(name, qubits, params))
    measured = draw(st.lists(st.integers(0, width - 1), unique=True, max_size=width))
    gates += [Gate("measure", (q,), is_measurement=True) for q in measured]
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


@settings(max_examples=150, deadline=None)
@given(_noisy_case())
def test_fused_density_matrix_matches_the_full_matrix_reference(case):
    c, profile = case
    rho = density_matrix(c, profile)
    assert np.max(np.abs(rho - reference_density_evolution(c, profile))) < 1e-12
