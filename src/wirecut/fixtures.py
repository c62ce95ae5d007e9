"""Bundled benchmark circuits and calibration profiles.

Circuit families mirror common benchmark suites at simulable widths:
entangler chains (ghz_n10), fan-out entanglers (cat_n8), an oracle-query
circuit (bv_n9), a working 3-bit ripple-carry adder (adder_n8), a
hardware-efficient ansatz (su2_n8), and the 5-qubit 4-CNOT chain
(fig1_n5) used throughout the tests. ``stress`` is a synthetic
decoherence-heavy profile under which every 8-10 qubit fixture scores an
uncut success probability below 0.8.
"""
from __future__ import annotations

from importlib import resources

from .circuit import Circuit, parse_qasm
from .noise import NoiseProfile, load_profile

__all__ = [
    "CIRCUIT_FIXTURES",
    "PROFILE_FIXTURES",
    "circuit_fixture",
    "profile_fixture",
    "fixture_text",
]

CIRCUIT_FIXTURES = ("adder_n8", "bv_n9", "cat_n8", "clusters_n8", "fig1_n5", "ghz_n10", "su2_n8")
PROFILE_FIXTURES = ("stress", "uniform")


def fixture_text(kind: str, name: str) -> str:
    """A bundled fixture's text, by a name in ``CIRCUIT_FIXTURES`` or ``PROFILE_FIXTURES``."""
    names, ext = (CIRCUIT_FIXTURES, "qasm") if kind == "circuits" else (PROFILE_FIXTURES, "json")
    if name not in names:
        raise FileNotFoundError(f"no bundled {kind[:-1]} fixture named '{name}'")
    return resources.files("wirecut").joinpath(f"fixtures/{kind}/{name}.{ext}").read_text(
        encoding="utf-8")


def circuit_fixture(name: str) -> Circuit:
    return parse_qasm(fixture_text("circuits", name), name=name)


def profile_fixture(name: str) -> NoiseProfile:
    return load_profile(fixture_text("profiles", name))
