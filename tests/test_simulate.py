import math
import random

import numpy as np
import pytest

from helpers import random_circuit
from wirecut.circuit import Circuit, Gate, parse_qasm
from wirecut.noise import NoiseProfile, QubitCal
from wirecut.reconstruct import fidelity, tvd
from wirecut.simulate import (
    SimulationError,
    amplitude_damping_channel,
    density_matrix,
    gate_unitary,
    measure_distribution,
    pauli_error_channel,
    phase_damping_channel,
    run_ideal,
    run_noisy,
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


def test_measure_distribution_ghz():
    d = measure_distribution(run_ideal(GHZ3))
    assert d.probs == pytest.approx({"000": 0.5, "111": 0.5})


def test_measure_distribution_zero_state():
    d = measure_distribution(run_ideal(Circuit(width=1, gates=())))
    assert d.probs == {"0": 1.0}


def test_shot_sampling_within_binomial_bound():
    d = measure_distribution(run_ideal(GHZ3), shots=100_000, seed=7)
    assert d.shots == 100_000
    assert abs(d.probs.get("000", 0.0) - 0.5) < 0.01
    assert abs(d.probs.get("111", 0.0) - 0.5) < 0.01
    assert sum(d.probs.values()) == pytest.approx(1.0)


@pytest.mark.parametrize("shots", [0, -5])
def test_shots_below_one_are_rejected(shots):
    with pytest.raises(SimulationError, match="at least 1"):
        measure_distribution(run_ideal(GHZ3), shots=shots)


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
    assert d.probs["0"] == pytest.approx(0.2)
    assert d.probs["1"] == pytest.approx(0.8)


def test_idle_relaxation_population():
    # qubit 0 excited then idles tau = T1 while qubit 1 stays busy
    prof = NoiseProfile(
        p1=0.0, p2=0.0, d1_ns=50.0,
        qubits={0: QubitCal(t1_us=1.0, t2_us=2.0), 1: QubitCal(t1_us=1e9, t2_us=2e9)},
    )
    gates = [Gate("x", (0,))] + [Gate("x", (1,)) for _ in range(21)]
    d = run_noisy(Circuit(width=2, gates=tuple(gates)), prof)
    p_one = sum(v for bits, v in d.probs.items() if bits[0] == "1")
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
