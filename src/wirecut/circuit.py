"""Gate-level circuit representation and a small OPENQASM 2.0 front end.

The IR is deliberately minimal: a circuit is an ordered list of gates over
indexed qubits, and list position is the temporal order on every wire.
Circuits are immutable after construction and safe to share across threads.

``GATES`` is the one gate table: per gate name, its arity, its number of
angle parameters and its unitary as a function of those angles. Every other
module reads it, and ``Gate`` checks every gate against it when the gate is
built, whether from QASM, a plan document or code. ``swap`` is not in the
table: the parser expands it into three ``cx``.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

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


@dataclass(frozen=True)
class Gate:
    """A single gate application: name, operand qubits, optional angles.

    Building one checks it against ``GATES``: a known name, as many distinct
    ``int`` qubits as its arity and as many finite real angles as it takes;
    anything else raises ``QasmError``. ``is_measurement`` follows from the
    name.
    """

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    is_measurement: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        spec = GATES.get(self.name) if type(self.name) is str else None
        if spec is None:
            raise QasmError(f"unsupported gate '{self.name}'")
        qs = self.qubits
        if len(qs) != spec.arity:
            raise QasmError(f"gate '{self.name}' expects {spec.arity} qubit(s), got {len(qs)}")
        if not all(type(q) is int for q in qs) or len(set(qs)) != len(qs):
            raise QasmError(f"gate '{self.name}' has repeated or non-integer qubits {qs}")
        if len(self.params) != spec.n_params or not all(map(_is_finite_real, self.params)):
            raise QasmError(f"gate '{self.name}' expects {spec.n_params} finite real "
                            f"parameter(s), got {self.params}")
        object.__setattr__(self, "is_measurement", self.name == "measure")

    @property
    def is_two_qubit(self) -> bool:
        return len(self.qubits) == 2


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
        return [i for i, g in enumerate(self.gates) if g.is_two_qubit]

    def touched_qubits(self) -> set[int]:
        return {q for g in self.gates for q in g.qubits}


# ---------------------------------------------------------------------------
# OPENQASM 2.0 subset parser
# ---------------------------------------------------------------------------

_CONSTANTS = {"pi": 3.141592653589793}


def _eval_angle(expr: str, line: int) -> float:
    """Evaluate a QASM angle expression: numbers, pi, + - * / and parentheses.

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
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
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


def _parse_operand(token: str, register: tuple[str, int], line: int) -> int:
    """The index of ``token``, an element of the (name, size) ``register``."""
    token = token.strip()
    if "[" not in token or not token.endswith("]"):
        raise QasmError(f"expected indexed operand like q[0], got '{token}'", line)
    reg, _, idx = token.partition("[")
    reg, size = reg.strip(), register[1]
    if reg != register[0]:
        raise QasmError(f"unknown register '{reg}'", line)
    try:
        i = int(idx[:-1])
    except ValueError:
        raise QasmError(f"bad register index in '{token}'", line) from None
    if not 0 <= i < size:
        raise QasmError(f"index {i} out of range for register '{reg}' of size {size}", line)
    return i


def _statements(text: str) -> Iterable[tuple[int, str]]:
    """Yield (line_number, statement) with comments stripped; statements end at ';'."""
    buf: list[str] = []
    start_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("//", 1)[0]
        for ch in code:
            if ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield start_line, stmt
                buf = []
                start_line = lineno
            else:
                if not buf:
                    start_line = lineno
                buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        raise QasmError(f"statement missing terminating ';': '{tail}'", start_line)


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
        head = stmt.split(None, 1)[0]

        if head == "OPENQASM":
            version = stmt[len(head):].strip()
            if version != "2.0":
                raise QasmError(f"unsupported OPENQASM version '{version}'", lineno)
            saw_header = True
            continue
        if head == "include":
            continue
        if not saw_header:
            raise QasmError("missing 'OPENQASM 2.0;' header", lineno)

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
        if head == "if" or stmt.startswith("if("):
            raise QasmError("classical control ('if') is not supported", lineno)
        if head == "gate" or head == "opaque":
            raise QasmError("gate definitions are not supported", lineno)
        if head == "reset":
            raise QasmError("'reset' is not supported", lineno)

        if qreg is None:
            raise QasmError("gate statement before qreg declaration", lineno)

        gate_name, args = _split_gate_stmt(stmt)
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
    body = stmt[len(kind):].strip()
    if "[" not in body or not body.endswith("]"):
        raise QasmError(f"malformed {kind} declaration '{stmt}'", lineno)
    reg, _, size = body.partition("[")
    try:
        n = int(size[:-1])
    except ValueError:
        raise QasmError(f"bad {kind} size in '{stmt}'", lineno) from None
    if n < 1:
        raise QasmError(f"{kind} size must be >= 1", lineno)
    return reg.strip(), n


def _split_gate_stmt(stmt: str) -> tuple[str, str]:
    for i, ch in enumerate(stmt):
        if ch in " \t(":
            return stmt[:i], stmt[i:]
    return stmt, ""


def _split_params(args: str, lineno: int) -> tuple[list[float], str]:
    args = args.strip()
    params: list[float] = []
    if args.startswith("("):
        depth = 0
        for i, ch in enumerate(args):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    inner = args[1:i]
                    args = args[i + 1:]
                    params = [_eval_angle(p, lineno) for p in inner.split(",")]
                    break
        else:
            raise QasmError("unbalanced parentheses in parameter list", lineno)
    return params, args


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

def asap_schedule(c: Circuit, profile, free=None) -> tuple[list[tuple[float, float]], float]:
    """As-soon-as-possible schedule.

    Returns (per-gate (start_ns, end_ns) list, makespan_ns). Each gate starts
    when all its qubits are free; ``free`` gives each qubit's clock before
    the first gate (all 0 by default). Measurements take zero time and do
    not advance the wire clock.
    """
    free = [0.0] * c.width if free is None else list(free)
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
