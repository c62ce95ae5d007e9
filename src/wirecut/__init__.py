"""wirecut: error-balanced fragmentation of quantum circuits.

Cuts a gate-level circuit into smaller sub-circuits by solving a balanced
min-cut on its doubly-weighted gate graph with a genetic search (a
simulated annealer is kept for comparison), simulates the fragments, and
reconstructs the full output distribution by contracting the fragments'
variant outputs as a tensor network over the cut wires.
"""

from .circuit import Circuit, Gate, QasmError, parse_qasm
from .fragment import (
    Fragment,
    FragmentPlan,
    Limits,
    PlanError,
    enumerate_variants,
    recursive_fragment,
)
from .graph import GateGraph, GraphError, build_graph, serialize_graph
from .ising import IsingModel, build_ising, energy, simulated_anneal, spins_to_partition
from .noise import ErrorEstimate, NoiseProfile, ProfileError, gate_error_prob, load_profile, success_probability
from .partition import crossover, cut_size, find_min_cut_ga, partition_cost
from .reconstruct import (
    FragmentOutput,
    ReconstructionError,
    execute_plan,
    fidelity,
    hellinger,
    reconstruct,
    tvd,
)
from .simulate import Distribution, SimulationError, measure_distribution, run_ideal, run_noisy

__version__ = "0.1.0"
