"""Gate-level circuit representation and a small OPENQASM 2.0 front end.

The IR is deliberately minimal: a circuit is an ordered list of gates over
indexed qubits, and list position is the temporal order on every wire.
Circuits are immutable after construction and safe to share across threads.

The front end reads one ';'-terminated statement at a time (``_statements``):
line breaks are blanks, ``//`` comments run to the end of their line, and
an error cites the line of its statement's first non-blank character.

``GATES`` is the one gate table: per gate name, its arity, its number of
angle parameters and its unitary as a function of those angles. Every other
module reads it, and ``Gate`` checks every gate against it when the gate is
built, whether from QASM, a plan document or code, and then writes its
slots directly. Only ``Gate.relabelled`` skips the checks: it moves a
checked gate onto other distinct qubits, as the fragmenter does with every
gate it places in a fragment. ``swap`` is not in the table: the parser
expands it into three ``cx``.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "GATES",
    "MAX_CIRCUIT_QUBITS",
    "Gate",
    "Circuit",
    "QasmError",
    "parse_qasm",
    "circuit_to_dict",
    "circuit_from_dict",
    "asap_schedule",
]


# the widest circuit accepted, checked before anything is allocated per qubit
MAX_CIRCUIT_QUBITS = 1 << 16


class GateSpec(NamedTuple):
    """A row of ``GATES``: arity, angle count, unitary from the angles."""

    arity: int
    n_params: int
    unitary: Callable[..., np.ndarray] | None


_SQ2 = 1.0 / math.sqrt(2.0)


def _fixed(arity: int, m: np.ndarray) -> GateSpec:
    m.flags.writeable = False  # every call returns this one array
    return GateSpec(arity, 0, lambda: m)


def _rx(th: float) -> np.ndarray:
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(th: float) -> np.ndarray:
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _u2(phi: float, lam: float) -> np.ndarray:
    return _SQ2 * np.array(
        [[1, -np.exp(1j * lam)], [np.exp(1j * phi), np.exp(1j * (phi + lam))]], dtype=complex
    )


def _u3(th: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(th / 2), math.sin(th / 2)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


GATES: dict[str, GateSpec] = {
    "h": _fixed(1, np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)),
    "x": _fixed(1, np.array([[0, 1], [1, 0]], dtype=complex)),
    "y": _fixed(1, np.array([[0, -1j], [1j, 0]], dtype=complex)),
    "z": _fixed(1, np.diag([1.0, -1.0]).astype(complex)),
    "s": _fixed(1, np.diag([1, 1j]).astype(complex)),
    "sdg": _fixed(1, np.diag([1, -1j]).astype(complex)),
    "t": _fixed(1, np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)),
    "tdg": _fixed(1, np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex)),
    "rx": GateSpec(1, 1, _rx),
    "ry": GateSpec(1, 1, _ry),
    "rz": GateSpec(
        1, 1, lambda th: np.diag([np.exp(-1j * th / 2), np.exp(1j * th / 2)]).astype(complex)
    ),
    "u1": GateSpec(1, 1, lambda lam: np.diag([1, np.exp(1j * lam)]).astype(complex)),
    "u2": GateSpec(1, 2, _u2),
    "u3": GateSpec(1, 3, _u3),
    "cx": _fixed(
        2, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    ),
    "cz": _fixed(2, np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)),
    "measure": GateSpec(1, 0, None),
}


class QasmError(ValueError):
    """Raised on malformed or unsupported circuit source."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"{message} (line {line})")


def _is_finite_real(v) -> bool:
    """An ``int`` or ``float``, not a ``bool``, that a float holds finitely."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """A single gate application: name, operand qubits, optional angles.

    Building one checks it against ``GATES``: a known name, as many distinct
    ``int`` qubits as its arity and as many finite real angles as it takes;
    anything else raises ``QasmError``. ``is_measurement`` follows from the
    name.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...]
    is_measurement: bool = field(repr=False, compare=False)

    def __init__(self, name: str, qubits: tuple[int, ...], params: tuple[float, ...] = ()):
        spec = GATES.get(name) if type(name) is str else None
        if spec is None:
            raise QasmError(f"unsupported gate '{name}'")
        if len(qubits) != spec.arity:
            raise QasmError(f"gate '{name}' expects {spec.arity} qubit(s), got {len(qubits)}")
        if not all(type(q) is int for q in qubits) or len(set(qubits)) != len(qubits):
            raise QasmError(f"gate '{name}' has repeated or non-integer qubits {qubits}")
        if len(params) != spec.n_params or not all(map(_is_finite_real, params)):
            raise QasmError(f"gate '{name}' expects {spec.n_params} finite real "
                            f"parameter(s), got {params}")
        _set_name(self, name)
        _set_qubits(self, qubits)
        _set_params(self, params)
        _set_is_measurement(self, name == "measure")

    def relabelled(self, qubits: tuple[int, ...]) -> "Gate":
        """This gate on ``qubits``, built without the checks above: for a
        caller that maps a checked gate's distinct qubits to distinct ints,
        so that the copy would pass them."""
        copy = object.__new__(Gate)
        _set_name(copy, self.name)
        _set_qubits(copy, qubits)
        _set_params(copy, self.params)
        _set_is_measurement(copy, self.is_measurement)
        return copy

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


# a gate's fields are written once, as it is built, through their slots'
# own setters: the frozen class refuses setattr, and these cost less than
# the object.__setattr__ that a generated __init__ calls
_set_name, _set_qubits, _set_params, _set_is_measurement = (
    Gate.__dict__[f].__set__ for f in ("name", "qubits", "params", "is_measurement"))


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``width`` qubits, at most
    ``MAX_CIRCUIT_QUBITS`` of them."""

    width: int
    gates: tuple[Gate, ...]
    name: str = "circuit"

    def __post_init__(self):
        if type(self.width) is not int or not 1 <= self.width <= MAX_CIRCUIT_QUBITS:
            raise QasmError(f"circuit width {self.width!r} is not an integer in "
                            f"1..{MAX_CIRCUIT_QUBITS}")
        if type(self.name) is not str:
            raise QasmError(f"circuit name {self.name!r} is not a string")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.width:
                    raise QasmError(f"qubit index {q} out of range for width {self.width}")

    def two_qubit_indices(self) -> list[int]:
        """Positions of two-qubit gates, in order."""
        return [i for i, g in enumerate(self.gates) if len(g.qubits) == 2]

    def touched_qubits(self) -> set[int]:
        return {q for g in self.gates for q in g.qubits}


# ---------------------------------------------------------------------------
# OPENQASM 2.0 subset parser
# ---------------------------------------------------------------------------

_CONSTANTS = {"pi": 3.141592653589793}
# a QASM number: decimal digits with an optional fraction and exponent
_NUMBER = re.compile(r"([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?")


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate a QASM angle expression: decimal numbers, pi, + - * / and
    parentheses. Any other literal (``True``, ``0x10``, ``1_000``) or name
    is an unsupported construct.

    The result must be a finite number: division by zero, overflow and
    infinite literals raise ``QasmError``.
    """
    import ast

    expr = expr.strip()
    if not expr:
        raise QasmError("empty parameter expression", line)
    try:
        tree = ast.parse(expr, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError):
        raise QasmError(f"malformed parameter expression '{expr}'", line) from None

    def ev(node) -> float:
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and _NUMBER.fullmatch(ast.get_source_segment(expr, node)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id in _CONSTANTS:
            return _CONSTANTS[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            a, b = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return a + b
            if isinstance(node.op, ast.Sub):
                return a - b
            if isinstance(node.op, ast.Mult):
                return a * b
            return a / b
        raise QasmError(f"unsupported construct in parameter expression '{expr}'", line)

    try:
        value = ev(tree)
    except (ArithmeticError, RecursionError):
        raise QasmError(f"cannot evaluate parameter expression '{expr}'", line) from None
    if not math.isfinite(value):
        raise QasmError(f"parameter expression '{expr}' is not finite", line)
    return value


# ``name[index]``, the index in ASCII decimal digits, blanks allowed around each token
_INDEXED = re.compile(r"\s*(\w+)\s*\[\s*([0-9]+)\s*\]\s*", re.ASCII)


def _indexed(text: str, what: str, line: int) -> tuple[str, int]:
    """The name and index of ``text``, read with ``_INDEXED``."""
    m = _INDEXED.fullmatch(text)
    if m is None:
        raise QasmError(f"expected {what} like q[0], its index in decimal digits, "
                        f"got '{text.strip()}'", line)
    if len(m[2].lstrip("0")) > 9:  # past every width cap; int() refuses 4300 digits
        raise QasmError(f"the index of '{text.strip()}' has more than 9 digits", line)
    return m[1], int(m[2])


def _parse_operand(token: str, register: tuple[str, int], line: int) -> int:
    """The index of ``token``, an element of the (name, size) ``register``."""
    name, size = register
    reg, i = _indexed(token, "an indexed operand", line)
    if reg != name:
        raise QasmError(f"unknown register '{reg}'", line)
    if i >= size:
        raise QasmError(f"index {i} out of range for register '{reg}' of size {size}", line)
    return i


def _statements(text: str) -> Iterator[tuple[int, str]]:
    """Yield (line_number, statement) pairs, one per ';'.

    ``//`` comments are stripped line by line and the rest is split at
    ';'. Every run of whitespace, line breaks included, reads as one blank,
    and a statement gets the line of its first non-blank character. Text
    after the last ';' raises ``QasmError`` at that line.
    """
    pieces = "\n".join(line.split("//", 1)[0] for line in text.splitlines()).split(";")
    line = 1
    for i, raw in enumerate(pieces):
        body = raw.lstrip()
        if body:
            start, stmt = line + raw.count("\n", 0, len(raw) - len(body)), " ".join(body.split())
            if i == len(pieces) - 1:
                raise QasmError(f"statement missing terminating ';': '{stmt}'", start)
            yield start, stmt
        line += raw.count("\n")


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse OPENQASM 2.0 source into a :class:`Circuit`.

    Accepted dialect: one quantum register, optional classical register,
    the gates of ``GATES`` plus ``swap`` and ``barrier``. ``swap`` is
    rewritten as three ``cx``; ``barrier`` is discarded. Measurements must
    be terminal on their wire. Classical control (``if``) and 3+ qubit
    gates are rejected. ``Gate`` checks each gate; its error gets the
    statement's line.
    """
    qreg: tuple[str, int] | None = None
    creg: tuple[str, int] | None = None
    gates: list[Gate] = []
    measured: set[int] = set()
    saw_header = False

    for lineno, stmt in _statements(text):
        head = stmt.partition(" ")[0]
        gate_name = head.partition("(")[0]

        if head == "OPENQASM":
            version = stmt[len(head):].strip()
            if saw_header:
                raise QasmError("a second 'OPENQASM' header", lineno)
            if version != "2.0":
                raise QasmError(f"unsupported OPENQASM version '{version}'", lineno)
            saw_header = True
            continue
        if not saw_header:
            raise QasmError("missing 'OPENQASM 2.0;' header: it must come first", lineno)
        if head == "include":
            continue

        if head == "qreg":
            if qreg is not None:
                raise QasmError("multiple quantum registers are not supported", lineno)
            qreg = _parse_decl(stmt, "qreg", lineno)
            continue
        if head == "creg":
            if creg is not None:
                raise QasmError("multiple classical registers are not supported", lineno)
            creg = _parse_decl(stmt, "creg", lineno)
            continue
        if gate_name == "if":
            raise QasmError("classical control ('if') is not supported", lineno)
        if head == "gate" or head == "opaque":
            raise QasmError("gate definitions are not supported", lineno)
        if head == "reset":
            raise QasmError("'reset' is not supported", lineno)

        if qreg is None:
            raise QasmError("gate statement before qreg declaration", lineno)

        args = stmt[len(gate_name):]
        if gate_name == "barrier":
            continue

        if gate_name == "measure":
            q = _parse_measure(args, qreg, creg, lineno)
            if q in measured:
                raise QasmError(f"qubit {q} measured twice", lineno)
            measured.add(q)
            gates.append(Gate("measure", (q,)))
            continue

        params, operand_str = _split_params(args, lineno)
        qubits = tuple(_parse_operand(t, qreg, lineno) for t in operand_str.split(",") if t.strip())
        for q in qubits:
            if q in measured:
                raise QasmError(f"gate on qubit {q} after its measurement", lineno)
        if gate_name == "swap":  # a macro: three cx
            calls = [("cx", qubits), ("cx", qubits[::-1]), ("cx", qubits)]
        else:
            calls = [(gate_name, qubits)]
        try:
            gates += [Gate(name, qs, tuple(params)) for name, qs in calls]
        except QasmError as exc:
            raise QasmError(f"{exc} in '{stmt}'", lineno) from None

    if qreg is None:
        raise QasmError("source declares no quantum register")
    return Circuit(width=qreg[1], gates=tuple(gates), name=name)


def _parse_decl(stmt: str, kind: str, lineno: int) -> tuple[str, int]:
    reg, n = _indexed(stmt[len(kind):], f"a {kind} declaration", lineno)
    if n < 1:
        raise QasmError(f"{kind} size must be >= 1", lineno)
    return reg, n


def _split_params(args: str, lineno: int) -> tuple[list[float], str]:
    """The angles and the operand text of a gate's ``args``: the parameter
    list runs from a leading '(' to the last ')', as operands hold none."""
    args = args.strip()
    if not args.startswith("("):
        return [], args
    close = args.rfind(")")
    if close < 0:
        raise QasmError("unbalanced parentheses in parameter list", lineno)
    return [_eval_angle(p, lineno) for p in args[1:close].split(",")], args[close + 1:]


def _parse_measure(args: str, qreg, creg, lineno: int) -> int:
    if "->" not in args:
        raise QasmError("measure statement requires '-> c[i]'", lineno)
    qpart, _, cpart = args.partition("->")
    q = _parse_operand(qpart, qreg, lineno)
    if creg is None:
        raise QasmError("measure without classical register", lineno)
    _parse_operand(cpart, creg, lineno)
    return q


def circuit_to_dict(c: Circuit) -> dict:
    return {
        "name": c.name,
        "width": c.width,
        "gates": [
            {"name": g.name, "qubits": list(g.qubits), "params": list(g.params)}
            for g in c.gates
        ],
    }


def circuit_from_dict(doc: dict) -> Circuit:
    gates = tuple(
        Gate(g["name"], tuple(g["qubits"]), tuple(g.get("params", ()))) for g in doc["gates"]
    )
    return Circuit(width=doc["width"], gates=gates, name=doc.get("name", "circuit"))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def asap_schedule(c: Circuit, profile) -> tuple[list[tuple[float, float]], float]:
    """As-soon-as-possible schedule.

    Returns (per-gate (start_ns, end_ns) list, makespan_ns). Each gate starts
    when all its qubits are free, every clock at 0 before the first gate.
    Measurements take zero time and do not advance the wire clock.
    """
    free = [0.0] * c.width
    spans: list[tuple[float, float]] = []
    for g in c.gates:
        if g.is_measurement:
            t = max(free[q] for q in g.qubits)
            spans.append((t, t))
            continue
        start = max(free[q] for q in g.qubits)
        end = start + profile.gate_duration(g)
        spans.append((start, end))
        for q in g.qubits:
            free[q] = end
    return spans, max(free) if free else 0.0
