"""Gate-level circuit representation and a small OPENQASM 2.0 front end.

The IR is deliberately minimal: a circuit is an ordered list of gates over
indexed qubits, and list position is the temporal order on every wire.
Circuits are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "Gate",
    "Circuit",
    "QasmError",
    "SUPPORTED_GATES",
    "PARAM_COUNTS",
    "parse_qasm",
    "circuit_to_dict",
    "circuit_from_dict",
    "asap_schedule",
]

# name -> number of angle parameters; two-qubit gates listed separately
PARAM_COUNTS = {
    "h": 0, "x": 0, "y": 0, "z": 0, "s": 0, "sdg": 0, "t": 0, "tdg": 0,
    "rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3,
    "cx": 0, "cz": 0, "swap": 0,
    "measure": 0,
}
TWO_QUBIT_GATES = {"cx", "cz", "swap"}
SUPPORTED_GATES = frozenset(PARAM_COUNTS) | {"barrier"}


class QasmError(ValueError):
    """Raised on malformed or unsupported circuit source."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", col {column}" if column is not None else "") + ")"
        super().__init__(message + where)


@dataclass(frozen=True)
class Gate:
    """A single gate application: name, operand qubits, optional angles."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    is_measurement: bool = False

    def __post_init__(self):
        if self.name not in PARAM_COUNTS:
            raise QasmError(f"unsupported gate '{self.name}'")
        if self.is_measurement != (self.name == "measure"):
            raise QasmError("is_measurement flag inconsistent with gate name")
        arity = 2 if self.name in TWO_QUBIT_GATES else 1
        if len(self.qubits) != arity:
            raise QasmError(f"gate '{self.name}' expects {arity} qubit(s), got {len(self.qubits)}")
        if len(set(self.qubits)) != len(self.qubits):
            raise QasmError(f"gate '{self.name}' has repeated qubit operands {self.qubits}")
        if len(self.params) != PARAM_COUNTS[self.name]:
            raise QasmError(
                f"gate '{self.name}' expects {PARAM_COUNTS[self.name]} parameter(s), got {len(self.params)}"
            )

    @property
    def is_two_qubit(self) -> bool:
        return self.name in TWO_QUBIT_GATES


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list over ``width`` qubits."""

    width: int
    gates: tuple[Gate, ...]
    name: str = "circuit"

    def __post_init__(self):
        if self.width < 1:
            raise QasmError("circuit width must be >= 1")
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.width:
                    raise QasmError(f"qubit index {q} out of range for width {self.width}")

    def two_qubit_indices(self) -> list[int]:
        """Positions of non-measurement two-qubit gates, in order."""
        return [i for i, g in enumerate(self.gates) if g.is_two_qubit and not g.is_measurement]

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


def _parse_operand(token: str, registers: dict[str, int], line: int) -> tuple[str, int]:
    token = token.strip()
    if "[" not in token or not token.endswith("]"):
        raise QasmError(f"expected indexed operand like q[0], got '{token}'", line)
    reg, _, idx = token.partition("[")
    reg = reg.strip()
    if reg not in registers:
        raise QasmError(f"unknown register '{reg}'", line)
    try:
        i = int(idx[:-1])
    except ValueError:
        raise QasmError(f"bad register index in '{token}'", line) from None
    if not 0 <= i < registers[reg]:
        raise QasmError(f"index {i} out of range for register '{reg}' of size {registers[reg]}", line)
    return reg, i


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
    gate set ``h x y z s sdg t tdg rx ry rz u1 u2 u3 cx cz swap measure
    barrier``. ``swap`` is rewritten as three ``cx``; ``barrier`` is
    discarded. Measurements must be terminal on their wire. Classical
    control (``if``) and 3+ qubit gates are rejected.
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
            reg, size = _parse_decl(stmt, "qreg", lineno)
            qreg = (reg, size)
            continue
        if head == "creg":
            if creg is not None:
                raise QasmError("multiple classical registers are not supported", lineno)
            reg, size = _parse_decl(stmt, "creg", lineno)
            creg = (reg, size)
            continue
        if head == "if" or stmt.startswith("if("):
            raise QasmError("classical control ('if') is not supported", lineno)
        if head == "gate" or head == "opaque":
            raise QasmError("gate definitions are not supported", lineno)
        if head == "reset":
            raise QasmError("'reset' is not supported", lineno)

        if qreg is None:
            raise QasmError("gate statement before qreg declaration", lineno)

        gate_name, args = _split_gate_stmt(stmt, lineno)
        if gate_name == "barrier":
            continue
        if gate_name not in PARAM_COUNTS:
            raise QasmError(f"unsupported gate '{gate_name}'", lineno)

        if gate_name == "measure":
            q = _parse_measure(args, qreg, creg, lineno)
            if q in measured:
                raise QasmError(f"qubit {q} measured twice", lineno)
            measured.add(q)
            gates.append(Gate("measure", (q,), is_measurement=True))
            continue

        params, operand_str = _split_params(args, gate_name, lineno)
        operands = [tok for tok in operand_str.split(",") if tok.strip()]
        want = 2 if gate_name in TWO_QUBIT_GATES else 1
        if len(operands) != want:
            # a 3+ operand list on a known 1q/2q name is still a gate-arity error;
            # unknown multi-qubit names (ccx, ...) were rejected above
            raise QasmError(
                f"gate '{gate_name}' expects {want} operand(s), got {len(operands)}", lineno
            )
        qubits = []
        for tok in operands:
            reg, i = _parse_operand(tok, {qreg[0]: qreg[1]}, lineno)
            qubits.append(i)
        if len(set(qubits)) != len(qubits):
            raise QasmError(f"repeated qubit operand in '{stmt}'", lineno)
        for q in qubits:
            if q in measured:
                raise QasmError(f"gate on qubit {q} after its measurement", lineno)

        if gate_name == "swap":
            a, b = qubits
            gates.append(Gate("cx", (a, b)))
            gates.append(Gate("cx", (b, a)))
            gates.append(Gate("cx", (a, b)))
        else:
            gates.append(Gate(gate_name, tuple(qubits), tuple(params)))

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


def _split_gate_stmt(stmt: str, lineno: int) -> tuple[str, str]:
    for i, ch in enumerate(stmt):
        if ch in " \t(":
            return stmt[:i], stmt[i:]
    return stmt, ""


def _split_params(args: str, gate_name: str, lineno: int) -> tuple[list[float], str]:
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
    if len(params) != PARAM_COUNTS[gate_name]:
        raise QasmError(
            f"gate '{gate_name}' expects {PARAM_COUNTS[gate_name]} parameter(s), got {len(params)}",
            lineno,
        )
    return params, args


def _parse_measure(args: str, qreg, creg, lineno: int) -> int:
    if "->" not in args:
        raise QasmError("measure statement requires '-> c[i]'", lineno)
    qpart, _, cpart = args.partition("->")
    _, q = _parse_operand(qpart, {qreg[0]: qreg[1]}, lineno)
    if creg is None:
        raise QasmError("measure without classical register", lineno)
    _parse_operand(cpart, {creg[0]: creg[1]}, lineno)
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
        Gate(
            g["name"],
            tuple(g["qubits"]),
            tuple(g.get("params", ())),
            is_measurement=g["name"] == "measure",
        )
        for g in doc["gates"]
    )
    return Circuit(width=doc["width"], gates=gates, name=doc.get("name", "circuit"))


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------

def asap_schedule(c: Circuit, profile) -> tuple[list[tuple[float, float]], float]:
    """As-soon-as-possible schedule.

    Returns (per-gate (start_ns, end_ns) list, makespan_ns). Each gate starts
    when all its qubits are free. Measurements take zero time and do not
    advance the wire clock.
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
