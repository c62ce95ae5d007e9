import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import gate_counts, random_circuit
from wirecut.circuit import (
    GATES,
    Circuit,
    QasmError,
    asap_schedule,
    circuit_from_dict,
    circuit_to_dict,
    parse_qasm,
)
from wirecut.fixtures import CIRCUIT_FIXTURES, fixture_text
from wirecut.noise import NoiseProfile

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_parse_basic():
    c = parse_qasm(HEADER + "qreg q[2];\nh q[0]; cx q[0],q[1];")
    assert c.width == 2
    assert [(g.name, g.qubits) for g in c.gates] == [("h", (0,)), ("cx", (0, 1))]


def test_parse_empty_body():
    c = parse_qasm(HEADER + "qreg q[4];")
    assert c.width == 4
    assert c.gates == ()


def test_parse_rejects_three_qubit_gate():
    with pytest.raises(QasmError, match="ccx"):
        parse_qasm(HEADER + "qreg q[3]; ccx q[0],q[1],q[2];")


def test_parse_rejects_out_of_range_index():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm(HEADER + "qreg q[2]; h q[5];")


def test_parse_rejects_if_and_second_qreg():
    with pytest.raises(QasmError, match="classical control"):
        parse_qasm(HEADER + "qreg q[1]; creg c[1]; if (c==0) x q[0];")
    with pytest.raises(QasmError, match="multiple quantum registers"):
        parse_qasm(HEADER + "qreg q[1]; qreg r[1];")


def test_parse_rejects_mid_circuit_measurement():
    with pytest.raises(QasmError, match="after its measurement"):
        parse_qasm(HEADER + "qreg q[1]; creg c[1]; measure q[0] -> c[0]; x q[0];")


def test_parse_reports_line_numbers():
    src = HEADER + "qreg q[2];\nh q[0];\nbogus q[1];"
    with pytest.raises(QasmError) as err:
        parse_qasm(src)
    assert err.value.line == 5


@pytest.mark.parametrize("broken, one_line", [
    ("OPENQASM 2.0;\nqreg q[1];\nh\nq[0];", "OPENQASM 2.0;\nqreg q[1];\nh q[0];"),
    ("OPENQASM 2.0;\nqreg\nq[2];\nh q[0];", "OPENQASM 2.0;\nqreg q[2];\nh q[0];"),
    ("OPENQASM\n2.0;\nqreg q[1];\nh q[0];", "OPENQASM 2.0;\nqreg q[1];\nh q[0];"),
    ("OPENQASM 2.0;\nqreg q[1]; creg c[1];\nmeasure\nq[0] -> c[0];",
     "OPENQASM 2.0;\nqreg q[1]; creg c[1];\nmeasure q[0] -> c[0];"),
], ids=["gate", "qreg", "header", "measure"])
def test_a_statement_broken_across_lines_parses_as_its_one_line_form(broken, one_line):
    assert circuit_to_dict(parse_qasm(broken)) == circuit_to_dict(parse_qasm(one_line))


@pytest.mark.parametrize("src, line, message", [
    ("OPENQASM 2.0;\nqreg q[2]; \nccx q[0],q[1];", 3, "ccx"),
    ("OPENQASM 2.0;\nqreg q[2]; // c\n\n\nccx q[0],q[1];", 5, "ccx"),
    ("OPENQASM 2.0;\nqreg q[2];\nh q[0]; \ncx q[0],q[1]", 4, "missing terminating ';'"),
], ids=["after-a-blank", "after-a-comment", "unterminated"])
def test_an_error_cites_the_line_of_its_statements_first_character(src, line, message):
    with pytest.raises(QasmError, match=message) as err:
        parse_qasm(src)
    assert err.value.line == line


@pytest.mark.parametrize("body", [
    "qreg q[1_2];", "qreg q[+3];", "qreg q[\u0663];", "qreg q[3]; h q[1_0];",
    "qreg q[3]; h q[+1];", "qreg q[3]; x q[\u0663];", "qreg q[3]; h q[0x1];",
    "qreg q[3]; creg c[3]; measure q[0] -> c[-0];",
])
def test_register_sizes_and_indices_are_ascii_decimal_digits(body):
    with pytest.raises(QasmError, match="decimal digits") as err:
        parse_qasm("OPENQASM 2.0;\n" + body)
    assert err.value.line == 2


def test_register_tokens_may_be_spaced_and_an_index_has_at_most_9_digits():
    spaced = parse_qasm("OPENQASM 2.0;\nqreg q [ 03 ] ;\nh  q [ 2 ] ;")
    compact = parse_qasm("OPENQASM 2.0; qreg q[3]; h q[2];")
    assert circuit_to_dict(spaced) == circuit_to_dict(compact)
    with pytest.raises(QasmError, match="more than 9 digits"):  # int() refuses 4300
        parse_qasm("OPENQASM 2.0;\nqreg q[3]; h q[" + "9" * 5000 + "];")


@pytest.mark.parametrize("src, line, message", [
    ('include "qelib1.inc";\nOPENQASM 2.0;\nqreg q[1];', 1, "missing 'OPENQASM 2.0;' header"),
    ("OPENQASM 2.0;\nqreg q[1];\nOPENQASM 2.0;\nh q[0];", 3, "a second 'OPENQASM' header"),
    ("OPENQASM 2.0;\n\nOPENQASM 3.0;", 3, "a second 'OPENQASM' header"),
])
def test_the_header_comes_first_and_once(src, line, message):
    with pytest.raises(QasmError, match=message) as err:
        parse_qasm(src)
    assert err.value.line == line


def test_swap_rewrites_to_three_cx():
    c = parse_qasm(HEADER + "qreg q[2]; swap q[0],q[1];")
    assert [g.name for g in c.gates] == ["cx", "cx", "cx"]
    assert [g.qubits for g in c.gates] == [(0, 1), (1, 0), (0, 1)]


def test_parse_angle_expressions():
    c = parse_qasm(HEADER + "qreg q[1]; rz(pi/2) q[0]; u3(0.1,-pi,2*pi) q[0];")
    assert c.gates[0].params[0] == pytest.approx(math.pi / 2)
    assert c.gates[1].params == pytest.approx((0.1, -math.pi, 2 * math.pi))


def test_gate_arity_validation():
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[2]; rz q[0];")  # missing parameter
    with pytest.raises(QasmError):
        parse_qasm(HEADER + "qreg q[2]; cx q[0];")  # missing operand
    with pytest.raises(QasmError, match="repeated"):
        parse_qasm(HEADER + "qreg q[2]; cx q[0],q[0];")


def test_roundtrip_preserves_measurements():
    src = HEADER + "qreg q[2]; creg c[2]; h q[0]; measure q[0] -> c[0];"
    c = parse_qasm(src)
    assert c.gates[-1].is_measurement
    assert circuit_from_dict(circuit_to_dict(c)).gates == c.gates


def test_dict_roundtrip():
    rng = random.Random(4)
    c = random_circuit(rng, 4, 12)
    assert circuit_from_dict(circuit_to_dict(c)).gates == c.gates


def test_gate_counts():
    assert gate_counts(parse_qasm(HEADER + "qreg q[2]; h q[0]; cx q[0],q[1];")) == (1, 1)
    assert gate_counts(parse_qasm(HEADER + "qreg q[2];")) == (0, 0)
    fig1 = parse_qasm(HEADER + "qreg q[5]; cx q[0],q[1]; cx q[1],q[2]; cx q[2],q[3]; cx q[3],q[4];")
    assert gate_counts(fig1) == (0, 4)


def test_gate_counts_exclude_measurements():
    c = parse_qasm(HEADER + "qreg q[1]; creg c[1]; x q[0]; measure q[0] -> c[0];")
    assert gate_counts(c) == (1, 0)
    assert sum(gate_counts(c)) == sum(1 for g in c.gates if not g.is_measurement)


def test_makespan_parallel_wires():
    p = NoiseProfile(d1_ns=50.0, d2_ns=300.0)
    c = parse_qasm(HEADER + "qreg q[2]; h q[0]; h q[1];")
    assert asap_schedule(c, p)[1] == 50.0


def test_makespan_chain():
    p = NoiseProfile(d1_ns=50.0, d2_ns=300.0)
    c = parse_qasm(HEADER + "qreg q[2]; h q[0]; cx q[0],q[1];")
    assert asap_schedule(c, p)[1] == 350.0


def test_makespan_empty():
    p = NoiseProfile()
    assert asap_schedule(parse_qasm(HEADER + "qreg q[3];"), p)[1] == 0.0


def test_makespan_monotone_under_append():
    rng = random.Random(9)
    p = NoiseProfile()
    for _ in range(50):
        c = random_circuit(rng, rng.randint(2, 5), rng.randint(0, 15))
        extra = random_circuit(rng, c.width, 1).gates
        longer = Circuit(width=c.width, gates=c.gates + extra)
        assert asap_schedule(longer, p)[1] >= asap_schedule(c, p)[1]


def test_schedule_respects_wire_order():
    p = NoiseProfile(d1_ns=10.0, d2_ns=100.0)
    c = parse_qasm(HEADER + "qreg q[3]; cx q[0],q[1]; h q[2]; cx q[1],q[2];")
    spans, makespan = asap_schedule(c, p)
    assert spans[0] == (0.0, 100.0)
    assert spans[1] == (0.0, 10.0)
    assert spans[2] == (100.0, 200.0)  # waits for the first cx
    assert makespan == 200.0


def test_circuit_immutability():
    c = parse_qasm(HEADER + "qreg q[1]; x q[0];")
    with pytest.raises(Exception):
        c.width = 5
    with pytest.raises(Exception):
        c.gates[0].name = "z"


@pytest.mark.parametrize("expr", ["pi/0", "1/(2-2)", "1e999", "-1e999", "1e200*1e200",
                                  pytest.param("9" * 400, id="400-digit-literal")])
def test_parse_rejects_non_finite_angles(expr):
    with pytest.raises(QasmError, match="line 2"):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1]; rx({expr}) q[0];")


@pytest.mark.parametrize("literal", ["True", "False", "0x10", "1_000"])
def test_angles_are_qasm_numbers_only(literal):
    with pytest.raises(QasmError, match="unsupported construct in parameter expression") as err:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1]; rx({literal}) q[0];")
    assert err.value.line == 2


_QASM_FIXTURES = [fixture_text("circuits", name) for name in CIRCUIT_FIXTURES]
_QASM_CHARS = "qc[]();,.+-*/ \n0123456789epi_xhmrsuOQAM"


@st.composite
def mutated_qasm(draw):
    """A bundled fixture with a few spans deleted, replaced or inserted."""
    text = draw(st.sampled_from(_QASM_FIXTURES))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 12)))
        text = text[:start] + draw(st.text(_QASM_CHARS, max_size=6)) + text[end:]
    return text


@settings(max_examples=200, deadline=None)
@given(mutated_qasm())
@example("OPENQASM;\nqreg q[1];\nh q[0];\n")  # once an IndexError
def test_fuzz_only_qasm_error_escapes_the_parser(text):
    try:
        parse_qasm(text)
    except QasmError:
        pass


_TOKEN = re.compile(r'"[^"]*"|->|\w+(?:\.\w*)?|\S')
_GAP = st.one_of(st.sampled_from(["\n", "\r\n"]), st.text(" \t", min_size=1, max_size=3))
_COMMENT = st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=8)


@st.composite
def reflowed_fixture(draw):
    """A bundled fixture's name and its tokens reflowed: a line break or a
    run of blanks drawn into some gaps between tokens and a ``// comment``
    after some ';'. Also the index of one gate statement's gate token in
    the reflowed pieces."""
    name = draw(st.sampled_from(CIRCUIT_FIXTURES))
    text = fixture_text("circuits", name)
    tokens = list(_TOKEN.finditer(text))
    gaps = draw(st.dictionaries(st.integers(1, len(tokens) - 1), _GAP, min_size=1))
    ends = [i for i, m in enumerate(tokens) if m.group() == ";"]
    comments = draw(st.dictionaries(st.sampled_from(ends), _COMMENT))
    heads = [0] + [i + 1 for i in ends[:-1]]
    renamed = draw(st.sampled_from([i for i in heads
                                    if tokens[i].group() in GATES.keys() - {"measure"}]))
    pieces, at, prev = [], None, 0
    for i, m in enumerate(tokens):
        pieces += [text[prev:m.start()], gaps.get(i, "")]
        if i == renamed:
            at = len(pieces)
        pieces.append(m.group())
        if i in comments:
            pieces.append(f" // {comments[i]}\n")
        prev = m.end()
    return name, pieces + [text[prev:]], at


@settings(max_examples=100, deadline=None)
@given(reflowed_fixture())
def test_line_breaks_blanks_and_comments_between_tokens_change_no_circuit(case):
    name, pieces, at = case
    fixture = circuit_to_dict(parse_qasm(fixture_text("circuits", name)))
    assert circuit_to_dict(parse_qasm("".join(pieces))) == fixture
    with pytest.raises(QasmError, match="unsupported gate 'ccx'") as err:
        parse_qasm("".join(pieces[:at] + ["ccx"] + pieces[at + 1:]))
    assert err.value.line == "".join(pieces[:at]).count("\n") + 1
