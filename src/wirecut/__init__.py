"""wirecut: error-balanced fragmentation of quantum circuits.

Cuts a gate-level circuit into smaller sub-circuits by solving a balanced
min-cut on its doubly-weighted gate graph (genetic search and simulated
annealing), simulates the fragments, and reconstructs the full output
distribution by contracting the fragments' variant outputs as a tensor
network over the cut wires.
"""

from .circuit import Circuit, Gate, QasmError, gate_counts, parse_qasm, schedule_makespan, to_qasm
from .fragment import (
    CutSpec,
    Fragment,
    FragmentPlan,
    Limits,
    PlanError,
    derive_cut_points,
    enumerate_variants,
    fragment,
    recursive_fragment,
    single_cut_plan,
)
from .graph import GateGraph, GraphError, build_graph, load_graph, serialize_graph
from .ising import (
    IsingModel,
    QuboModel,
    build_ising,
    energy,
    ising_to_qubo,
    qubo_to_ising,
    simulated_anneal,
    spins_to_partition,
)
from .noise import ErrorEstimate, NoiseProfile, ProfileError, gate_error_prob, load_profile, success_probability
from .partition import GaParams, crossover, cut_size, find_min_cut_ga, partition_cost
from .reconstruct import (
    FragmentOutput,
    ReconstructionError,
    execute_plan,
    fidelity,
    hellinger,
    reconstruct,
    tvd,
)
from .simulate import (
    Distribution,
    KrausChannel,
    SimulationError,
    amplitude_damping_channel,
    measure_distribution,
    pauli_error_channel,
    phase_damping_channel,
    run_ideal,
    run_noisy,
)

__version__ = "0.1.0"
