"""Hardware noise profiles and the circuit-level success probability model.

A profile carries per-qubit relaxation/coherence times and per-gate error
rates and durations, with global defaults filling any gaps. The scoring
model composes gate errors multiplicatively and adds an exponential
decoherence factor over the scheduled circuit duration:

    success = (1 - p_ge) * exp(-(tau/T1 + tau/T2))

with tau the ASAP makespan and T1, T2 the minimum over touched qubits.
This module owns that arithmetic: ``_log_ok``, a gate's log(1 - e), and
``_decay_exponent``, tau/T1 + tau/T2 over a set of qubits. The estimate
here and the gate-graph weights (``graph.build_graph``) both compose them.
"""
from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field

from .circuit import GATES, Circuit, Gate, asap_schedule

__all__ = [
    "ProfileError",
    "NoiseProfile",
    "ErrorEstimate",
    "load_profile",
    "gate_error_prob",
    "success_probability",
]


class ProfileError(ValueError):
    """Raised on a malformed calibration document."""


@dataclass(frozen=True)
class QubitCal:
    t1_us: float
    t2_us: float


@dataclass(frozen=True)
class GateCal:
    error: float
    duration_ns: float


@dataclass(frozen=True)
class NoiseProfile:
    """Immutable calibration data; all queries fall back to defaults."""

    p1: float = 0.001
    p2: float = 0.01
    d1_ns: float = 50.0
    d2_ns: float = 300.0
    t1_default_us: float = math.inf
    t2_default_us: float = math.inf
    qubits: dict[int, QubitCal] = field(default_factory=dict)
    gates: dict[tuple[str, tuple[int, ...]], GateCal] = field(default_factory=dict)

    def gate_error(self, g: Gate) -> float:
        if g.is_measurement:
            return 0.0
        cal = self.gates.get((g.name, g.qubits))
        if cal is not None:
            return cal.error
        return self.p2 if len(g.qubits) == 2 else self.p1

    def gate_duration(self, g: Gate) -> float:
        if g.is_measurement:
            return 0.0
        cal = self.gates.get((g.name, g.qubits))
        if cal is not None:
            return cal.duration_ns
        return self.d2_ns if len(g.qubits) == 2 else self.d1_ns

    def t1_us(self, q: int) -> float:
        cal = self.qubits.get(q)
        return cal.t1_us if cal is not None else self.t1_default_us

    def t2_us(self, q: int) -> float:
        cal = self.qubits.get(q)
        return cal.t2_us if cal is not None else self.t2_default_us

    def for_subcircuit(self, qubit_map) -> "NoiseProfile":
        """Profile over a sub-circuit's local qubits, ``qubit_map[local] = original``.

        Every qubit and gate record is remapped through the preimages of
        ``qubit_map`` (a wire cut twice has two local qubits), so a local
        query answers what the original query would for any gate: the
        sub-circuit's own and the prep and basis gates of its variants.
        """
        locals_of: dict[int, list[int]] = {}
        for local, orig in enumerate(qubit_map):
            locals_of.setdefault(orig, []).append(local)
        qubits = {
            local: QubitCal(self.t1_us(orig), self.t2_us(orig))
            for local, orig in enumerate(qubit_map)
        }
        gates = {
            (name, local_qs): cal
            for (name, qs), cal in self.gates.items()
            for local_qs in itertools.product(*(locals_of.get(q, ()) for q in qs))
        }
        return NoiseProfile(
            p1=self.p1, p2=self.p2, d1_ns=self.d1_ns, d2_ns=self.d2_ns,
            t1_default_us=self.t1_default_us, t2_default_us=self.t2_default_us,
            qubits=qubits, gates=gates,
        )


@dataclass(frozen=True)
class ErrorEstimate:
    p_ge: float
    p_error: float
    success: float
    tau_ns: float


def _require(cond: bool, msg: str):
    if not cond:
        raise ProfileError(msg)


def _check_prob(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{what} must be a number")
    _require(0.0 <= value <= 1.0, f"{what} must lie in [0, 1], got {value}")
    return float(value)


def _check_time(value, what: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), f"{what} must be a number")
    _require(value > 0, f"{what} must be > 0, got {value}")
    return float(value)


def _check_duration(value, what: str) -> float:
    # an infinite T1 or T2 means no damping, but an infinite duration would
    # make the schedule, and every weight and estimate built on it, NaN
    value = _check_time(value, what)
    _require(math.isfinite(value), f"{what} must be finite, got {value}")
    return value


_TOP_KEYS = ("version", "defaults", "qubits", "gates")
# each ``defaults`` key: the NoiseProfile field it sets, and its check
_DEFAULTS = {
    "p1": ("p1", _check_prob),
    "p2": ("p2", _check_prob),
    "d1_ns": ("d1_ns", _check_duration),
    "d2_ns": ("d2_ns", _check_duration),
    "t1_us": ("t1_default_us", _check_time),
    "t2_us": ("t2_default_us", _check_time),
}
_QUBIT_KEYS = ("id", "t1_us", "t2_us")
_GATE_KEYS = ("name", "qubits", "error", "duration_ns")


def _only_keys(obj: dict, known: tuple[str, ...], what: str):
    unknown = sorted(set(obj) - set(known))
    _require(not unknown, f"unknown key(s) {unknown} in {what}; known: {list(known)}")


def load_profile(text: str) -> NoiseProfile:
    """Parse a calibration document from its JSON text.

    Callers read files themselves; any text that is not a JSON object of
    this schema raises ``ProfileError``.

    Schema::

        {"version": 1,
         "defaults": {"p1": .., "p2": .., "d1_ns": .., "d2_ns": ..,
                      "t1_us": .., "t2_us": ..},          # each optional
         "qubits": [{"id": 0, "t1_us": .., "t2_us": ..}, ...],
         "gates":  [{"name": "cx", "qubits": [0, 1],
                     "error": .., "duration_ns": ..}, ...]}

    These are the only keys: any other key, at any level, is an error, so
    a misspelt key cannot silently leave a default in force. ``readout`` is
    refused by name, because readout error is not modelled. A gate record
    must name a ``GATES`` entry other than ``measure``, on as many distinct
    qubits as its arity, for the same reason: any other record could never
    apply. Unspecified per-gate entries fall back to the defaults.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ProfileError(f"calibration document is not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "calibration document must be a JSON object")
    _require(type(doc.get("version")) is int and doc["version"] == 1, "calibration document must declare version 1")
    _require("readout" not in doc, "readout error is not modelled; remove 'readout'")
    _only_keys(doc, _TOP_KEYS, "calibration document")

    defaults = doc.get("defaults", {})
    _require(isinstance(defaults, dict), "'defaults' must be an object")
    _only_keys(defaults, tuple(_DEFAULTS), "'defaults'")
    kwargs = {name: check(defaults[key], f"defaults.{key}")
              for key, (name, check) in _DEFAULTS.items() if key in defaults}

    qubit_recs = doc.get("qubits", [])
    _require(isinstance(qubit_recs, list), "'qubits' must be a list")
    qubits: dict[int, QubitCal] = {}
    for rec in qubit_recs:
        _require(isinstance(rec, dict), "qubit record must be an object")
        _only_keys(rec, _QUBIT_KEYS, "qubit record")
        _require("id" in rec, "qubit record missing 'id'")
        _require("t1_us" in rec, f"qubit record {rec.get('id')} missing 't1_us'")
        _require("t2_us" in rec, f"qubit record {rec.get('id')} missing 't2_us'")
        q = rec["id"]
        _require(type(q) is int and q >= 0, "qubit id must be a non-negative integer")
        _require(q not in qubits, f"duplicate qubit record for id {q}")
        t1 = _check_time(rec["t1_us"], f"qubit {q} t1_us")
        t2 = _check_time(rec["t2_us"], f"qubit {q} t2_us")
        if t2 > 2.0 * t1:
            warnings.warn(f"qubit {q}: t2={t2}us exceeds 2*t1={2 * t1}us (unphysical)")
        qubits[q] = QubitCal(t1, t2)

    gate_recs = doc.get("gates", [])
    _require(isinstance(gate_recs, list), "'gates' must be a list")
    gates: dict[tuple[str, tuple[int, ...]], GateCal] = {}
    for rec in gate_recs:
        _require(isinstance(rec, dict), "gate record must be an object")
        _only_keys(rec, _GATE_KEYS, "gate record")
        for key in _GATE_KEYS:
            _require(key in rec, f"gate record missing '{key}'")
        name = rec["name"]
        _require(isinstance(name, str), "gate name must be a string")
        _require(name in GATES and name != "measure",
                 f"gate record {name!r} names no gate a circuit can apply")
        _require(isinstance(rec["qubits"], list), "gate qubits must be a list")
        qs = tuple(rec["qubits"])
        _require(all(type(q) is int and q >= 0 for q in qs), "gate qubits must be non-negative integers")
        _require(len(set(qs)) == len(qs) == GATES[name].arity,
                 f"gate {name}{list(qs)} needs {GATES[name].arity} distinct qubit(s)")
        err = _check_prob(rec["error"], f"gate {name}{list(qs)} error")
        dur = _check_duration(rec["duration_ns"], f"gate {name}{list(qs)} duration_ns")
        _require((name, qs) not in gates, f"duplicate gate record for {name}{list(qs)}")
        gates[(name, qs)] = GateCal(err, dur)

    return NoiseProfile(qubits=qubits, gates=gates, **kwargs)


def _log_ok(p: NoiseProfile, g: Gate) -> float:
    """log(1 - e) of the gate's error e; -inf for a gate that always errs."""
    e = p.gate_error(g)
    return -math.inf if e >= 1.0 else math.log1p(-e)


def _decay_exponent(p: NoiseProfile, qubits, tau: float) -> float:
    """tau/T1 + tau/T2, ``tau`` in ns, over the smallest T1 and T2 among
    ``qubits``; an infinite time adds nothing."""
    t1 = min(p.t1_us(q) for q in qubits) * 1000.0
    t2 = min(p.t2_us(q) for q in qubits) * 1000.0
    return (0.0 if math.isinf(t1) else tau / t1) + (0.0 if math.isinf(t2) else tau / t2)


def gate_error_prob(c: Circuit, p: NoiseProfile) -> float:
    """Probability that at least one gate in ``c`` errs: 1 - prod(1 - p_g)."""
    log_ok = 0.0
    for g in c.gates:  # not sum(), which compensates float rounding from Python 3.12 on
        if not g.is_measurement:
            log_ok += _log_ok(p, g)
    return -math.expm1(log_ok)


def success_probability(c: Circuit, p: NoiseProfile) -> ErrorEstimate:
    """Success probability of running ``c`` on hardware described by ``p``.

    Combines the all-gates-succeed probability with decoherence over the
    scheduled duration, using the smallest T1 and T2 among touched qubits
    (a conservative choice when scoring sub-circuits).
    """
    p_ge = gate_error_prob(c, p)
    tau = asap_schedule(c, p)[1]
    decay = math.exp(-_decay_exponent(p, c.touched_qubits(), tau)) if tau > 0 else 1.0
    success = (1.0 - p_ge) * decay
    return ErrorEstimate(p_ge=p_ge, p_error=1.0 - success, success=success, tau_ns=tau)
