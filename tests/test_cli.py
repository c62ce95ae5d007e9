import errno
import hashlib
import importlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from helpers import fragment_rows, packed_rows, single_cut_plan
from wirecut.circuit import MAX_CIRCUIT_QUBITS, Circuit, Gate, circuit_to_dict
from wirecut.cli import _write_text, build_parser, main
from wirecut.fixtures import CIRCUIT_FIXTURES, fixture_text
from wirecut.fragment import Limits, plan_from_dict, plan_to_dict, recursive_fragment
from wirecut.noise import NoiseProfile
from wirecut.simulate import run_ideal


def run(argv):
    return main([str(a) for a in argv])


def test_cut_run_reconstruct_ghz_end_to_end(tmp_path, capsys):
    out = tmp_path / "ghz"
    assert run(["cut", "--qasm", "fixture:ghz_n10", "--profile", "fixture:stress",
                "--threshold", "0.8", "--out", out, "--seed", "3"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["k"] >= 1
    assert run(["run", "--out", out]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fragments.json", "plan.json"]
    assert run(["reconstruct", "--out", out, "--reference"]) == 0
    rec = json.loads((out / "reconstruction.json").read_text())
    assert rec["metrics"]["fidelity_vs_ideal"] == pytest.approx(1.0, abs=1e-9)
    assert rec["metrics"]["tvd_vs_ideal"] < 1e-9
    assert rec["terms"] == 4 ** rec["k"]


def test_cut_reports_k1_for_fig1(tmp_path):
    out = tmp_path / "fig1"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["k"] == 1
    sizes = sorted(len(leaf["circuit"]["gates"]) for leaf in _leaf_docs(plan["tree"]))
    assert sizes == [2, 2]


def _leaf_docs(node):
    if "children" not in node:
        return [node["fragment"]]
    out = []
    for child in node["children"]:
        out.extend(_leaf_docs(child))
    return out


def test_cut_threshold_zero_means_no_cuts(tmp_path):
    out = tmp_path / "zero"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--threshold", "0", "--out", out]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["k"] == 0 and len(plan["leaves"]) == 1


def test_both_solvers_find_cut_size_two_on_clusters(tmp_path):
    out = tmp_path / "clusters"
    assert run(["cut", "--qasm", "fixture:clusters_n8", "--profile", "fixture:uniform",
                "--threshold", "0.999", "--out", out, "--max-depth", "1", "--seed", "1",
                "--solver", "both"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    entry = plan["solver_log"][0]
    assert entry["ga"]["cut_size"] == 2
    assert entry["anneal"]["cut_size"] == 2


def test_run_requires_plan(tmp_path):
    assert run(["run", "--out", tmp_path / "nothing"]) == 5


def test_reconstruct_requires_outputs(tmp_path):
    out = tmp_path / "plan-only"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--threshold", "0", "--out", out]) == 0
    assert run(["reconstruct", "--out", out]) == 5


def test_noisy_run_needs_profile(tmp_path):
    out = tmp_path / "noisy"
    run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
         "--threshold", "0", "--out", out])
    assert run(["run", "--out", out, "--noisy"]) == 2


def test_profile_without_noisy_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "quiet"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    assert run(["run", "--out", out, "--profile", "fixture:stress"]) == 2
    assert "--noisy" in capsys.readouterr().err
    assert not list(out.glob("fragment*.json"))


def test_a_closed_stdout_exits_141_without_a_traceback(tmp_path):
    # stdout is a pipe whose read end is closed before the child starts, so
    # its first write fails; the child exits as SIGPIPE would, and silently
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(pathlib.Path(importlib.import_module("wirecut").__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        child = subprocess.run(
            [sys.executable, "-c", "import sys\nfrom wirecut.cli import main\n"
             "sys.exit(main(sys.argv[1:]))", "cut", "--qasm", "fixture:ghz_n10",
             "--profile", "fixture:stress", "--threshold", "0.8", "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (141, "")
    assert (tmp_path / "plan.json").is_file()


def test_exit_codes_for_bad_inputs(tmp_path):
    bad_qasm = tmp_path / "bad.qasm"
    bad_qasm.write_text("OPENQASM 2.0;\nqreg q[2];\nccx q[0],q[1],q[0];\n")
    assert run(["cut", "--qasm", bad_qasm, "--profile", "fixture:uniform",
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 3
    bad_prof = tmp_path / "bad.json"
    bad_prof.write_text('{"version": 1, "defaults": {"p1": 7}}')
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", bad_prof,
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 4
    assert run(["cut", "--qasm", tmp_path / "absent.qasm", "--profile", "fixture:uniform",
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 2


@pytest.mark.parametrize("flag, kind, fixture, ext", [("--qasm", "circuits", "fig1_n5", "qasm"),
                                                     ("--profile", "profiles", "stress", "json")])
def test_fixture_names_outside_the_bundled_ones_exit_2(tmp_path, capsys, flag, kind, fixture, ext):
    # a fixture name is looked up among the bundled names, never joined into
    # a path: one that climbs out of the package is refused like any other
    # unknown name, even when the file it would reach exists
    (tmp_path / f"evil.{ext}").write_text(fixture_text(kind, fixture))
    name = "../" * 12 + str(tmp_path / "evil").lstrip("/")
    argv = {"--qasm": "fixture:fig1_n5", "--profile": "fixture:stress", flag: f"fixture:{name}"}
    assert run(["cut", *itertools.chain(*argv.items()), "--threshold", "0.9",
                "--out", tmp_path / "out"]) == 2
    assert f"no bundled {kind[:-1]} fixture named '{name}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("OPENQASM 2.0;\nqreg q[1_2];\nh q[0];\n", "decimal digits"),
    ("OPENQASM 2.0;\nqreg q[4];\nx q[\u0663];\n", "decimal digits"),
    ('include "qelib1.inc";\nOPENQASM 2.0;\nqreg q[1];\n', "header"),
    ("OPENQASM 2.0;\nqreg q[1];\nOPENQASM 2.0;\nh q[0];\n", "second 'OPENQASM' header"),
])
def test_malformed_registers_and_headers_exit_3(tmp_path, capsys, text, message):
    qasm = tmp_path / "bad.qasm"
    qasm.write_text(text, encoding="utf-8")
    assert run(["cut", "--qasm", qasm, "--profile", "fixture:uniform", "--threshold", "0.5",
                "--out", tmp_path / "x"]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("text", [
    "[]", "42", '{"version": true}', '{"version": 1.0}', '{"version": 1, "qubits": 7}', '{"version": 1, "gates": null}',
    '{"version": 1, "gates": [{"name": "cx", "qubits": 5, "error": 0.01, "duration_ns": 300}]}',
    '{"version": 1, "gates": [{"name": ["cx"], "qubits": [0, 1], "error": 0.01, '
    '"duration_ns": 300}]}',
    '{"version": 1, "qubits": [{"id": true, "t1_us": 50, "t2_us": 70}]}',
    '{"version": 1, "gates": [{"name": "cx", "qubits": [true, false], "error": 0.01, '
    '"duration_ns": 300}]}',
    '{"version": 1, "defaults": {"d2_ns": Infinity}}',
    '{"version": 1, "gates": [{"name": "cx", "qubits": [0, 1], "error": 0.01, '
    '"duration_ns": Infinity}]}',
])
def test_profile_file_of_non_object_json_exits_4(tmp_path, capsys, text):
    prof = tmp_path / "profile.json"
    prof.write_text(text)
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", prof,
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 4
    assert "profile error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"version": 1, "defualts": {"p2": 0.5}, "gate": [{"name": "cx", "qubits": [0, 1], '
    '"error": 0.5, "duration_ns": 300}]}',
    '{"version": 1, "defaults": {"p_2": 0.5}}',
    '{"version": 1, "readout": []}',
])
def test_profile_with_an_unknown_key_exits_4(tmp_path, capsys, text):
    # a misspelt key would otherwise simulate the default device
    prof = tmp_path / "profile.json"
    prof.write_text(text)
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", prof,
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 4
    assert "profile error" in capsys.readouterr().err
    assert not (tmp_path / "x" / "plan.json").exists()


def test_overflowing_gate_duration_exits_5(tmp_path, capsys):
    # a finite duration whose schedule overflows leaves no finite vertex weight
    prof = tmp_path / "profile.json"
    prof.write_text('{"version": 1, "defaults": {"d2_ns": 1e308, "t1_us": 50, "t2_us": 70}}')
    assert run(["cut", "--qasm", "fixture:ghz_n10", "--profile", prof,
                "--threshold", "0.8", "--out", tmp_path / "x"]) == 5
    assert "non-finite weight" in capsys.readouterr().err


def test_noisy_run_of_an_overflowing_schedule_exits_6(tmp_path, capsys):
    # the gate graph's one vertex is finite, so the plan is made; its noisy
    # leaf's clocks are not, and the run is refused before any row is written
    prof = tmp_path / "profile.json"
    prof.write_text('{"version": 1, "defaults": {"d1_ns": 1e308, "t1_us": 100, "t2_us": 80}}')
    qasm = tmp_path / "overflow.qasm"
    qasm.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n'
                    "qreg q[3]; h q[0]; h q[0]; h q[1]; cx q[1],q[2];")
    out = tmp_path / "x"
    assert run(["cut", "--qasm", qasm, "--profile", prof, "--threshold", "0.5", "--out", out]) == 0
    tree = json.loads((out / "plan.json").read_text())["tree"]
    assert tree["status"] == "unsplittable-gates"
    capsys.readouterr()
    assert run(["run", "--out", out, "--noisy", "--profile", prof]) == 6
    assert "clocks are not all finite" in capsys.readouterr().err
    assert not (out / "fragments.json").exists()
    assert run(["sweep", "--qasm", qasm, "--profile", prof, "--thresholds", "0.5", "--noisy",
                "--out", tmp_path / "sweep"]) == 6
    assert "clocks are not all finite" in capsys.readouterr().err


def test_gate_error_of_one_cuts(tmp_path):
    # an error of 1 is in the schema: the gate's segment weighs 1, no crash
    prof = tmp_path / "profile.json"
    prof.write_text('{"version": 1, "defaults": {"p2": 1.0}}')
    assert run(["cut", "--qasm", "fixture:ghz_n10", "--profile", prof,
                "--threshold", "0.8", "--out", tmp_path / "x"]) == 0
    assert (tmp_path / "x" / "plan.json").is_file()


@pytest.mark.parametrize("command, flags, blocked", [
    ("cut", ["--threshold", "0.9"], "plan.json"),
    ("graph", [], "graph.json"),
    ("sweep", ["--thresholds", "0.9"], "sweep.csv"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, command, flags, blocked):
    out = tmp_path / "out"
    if command == "sweep":
        (out / blocked).mkdir(parents=True)  # sweep.json is written, sweep.csv is not
    else:
        out.write_text("")  # the output directory is a file
    assert run([command, "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress", *flags,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {out / blocked}" in err and "Traceback" not in err


def test_a_shorter_document_over_a_longer_file_leaves_exactly_its_bytes(tmp_path):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    reused.mkdir()
    (reused / "plan.json").write_text('{"stale": "' + "x" * 100_000 + '"}\n')
    for out in (fresh, reused):
        assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                    "--threshold", "0.9", "--out", out]) == 0
    assert (reused / "plan.json").read_bytes() == (fresh / "plan.json").read_bytes()


def test_a_new_output_file_gets_the_bytes_write_text_writes(tmp_path):
    text = '{"name":"caf\u00e9 \u2192 \U0001d70b"}\nsecond line\n'
    (tmp_path / "expected.txt").write_text(text, encoding="utf-8")
    _write_text(tmp_path / "new" / "dir" / "got.txt", text)
    assert ((tmp_path / "new" / "dir" / "got.txt").read_bytes()
            == (tmp_path / "expected.txt").read_bytes())


def test_a_failed_write_exits_2_and_leaves_no_previous_document(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    assert run(["run", "--out", out]) == 0
    path = out / "fragments.json"
    json.loads(path.read_text())
    real_write = os.write

    def fail_part_way(fd, data):
        if fd <= 2:
            return real_write(fd, data)
        real_write(fd, bytes(data[:len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", fail_part_way)
        assert run(["run", "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"cannot write {path}: [Errno {errno.ENOSPC}]" in err and "Traceback" not in err
    assert path.read_bytes() == b""
    assert run(["reconstruct", "--out", out]) == 5


@pytest.mark.parametrize("kind, code", [("qasm", 3), ("profile", 4), ("plan", 5),
                                        ("fragment", 5)])
def test_non_utf8_input_exits_with_its_kinds_code(tmp_path, capsys, kind, code):
    out = tmp_path / "out"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    assert run(["run", "--out", out]) == 0
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("OPENQASM 2.0; // caf\xe9\n".encode("latin-1"))
    argv = {
        "qasm": ["cut", "--qasm", bad, "--profile", "fixture:stress"],
        "profile": ["cut", "--qasm", "fixture:fig1_n5", "--profile", bad],
        "plan": ["run"],
        "fragment": ["reconstruct"],
    }[kind]
    if kind == "plan":
        bad.replace(out / "plan.json")
    elif kind == "fragment":
        bad.replace(out / "fragments.json")
    else:
        argv += ["--threshold", "0.9"]
    capsys.readouterr()
    assert run(argv + ["--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind, code", [("profile", 4), ("plan", 5), ("fragment", 5)])
def test_deeply_nested_json_exits_with_its_kinds_code(tmp_path, capsys, kind, code):
    out = tmp_path / "out"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    assert run(["run", "--out", out]) == 0
    nested = "[" * 200000 + "]" * 200000
    if kind == "profile":
        (tmp_path / "profile.json").write_text(nested)
        argv = ["cut", "--qasm", "fixture:fig1_n5", "--profile", tmp_path / "profile.json",
                "--threshold", "0.9"]
    elif kind == "plan":
        (out / "plan.json").write_text(nested)
        argv = ["run"]
    else:
        (out / "fragments.json").write_text(nested)
        argv = ["reconstruct"]
    capsys.readouterr()
    assert run(argv + ["--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_infinite_angle_exits_3(tmp_path):
    for expr in ("pi/0", "1e999"):
        qasm = tmp_path / "angle.qasm"
        qasm.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrx({expr}) q[0];\n")
        assert run(["cut", "--qasm", qasm, "--profile", "fixture:uniform",
                    "--threshold", "0.5", "--out", tmp_path / "x"]) == 3


@pytest.mark.parametrize("literal", ["True", "False", "0x10", "1_000"])
def test_non_decimal_angle_literal_exits_3(tmp_path, capsys, literal):
    qasm = tmp_path / "angle.qasm"
    qasm.write_text(f"OPENQASM 2.0;\nqreg q[1];\nrx({literal}) q[0];\n")
    assert run(["cut", "--qasm", qasm, "--profile", "fixture:uniform",
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 3
    assert "unsupported construct in parameter expression" in capsys.readouterr().err


def test_graph_dump(tmp_path, capsys):
    out = tmp_path / "g"
    assert run(["graph", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--out", out]) == 0
    doc = json.loads((out / "graph.json").read_text())
    assert len(doc["vertices"]) == 4
    assert len(doc["edges"]) == 3


def test_sweep_rows_and_monotone_leaves(tmp_path):
    out = tmp_path / "sweep"
    assert run(["sweep", "--qasm", "fixture:cat_n8", "--profile", "fixture:stress",
                "--thresholds", "0,0.8,0.9", "--noisy", "--out", out, "--seed", "5"]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    leaves = [row["leaves"] for row in doc["rows"]]
    assert len(doc["rows"]) == 3
    assert leaves == sorted(leaves)
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[0] == "threshold,leaves,k,fidelity,tvd"
    assert len(csv) == 4


def test_sweep_simulates_the_reference_once(tmp_path, monkeypatch):
    calls = []

    def counted(circuit, *args):
        calls.append(circuit.name)
        return run_ideal(circuit, *args)

    monkeypatch.setattr("wirecut.cli.run_ideal", counted)
    assert run(["sweep", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--thresholds", "0,0.9,1", "--out", tmp_path / "sweep"]) == 0
    assert calls == ["fig1_n5"]


def test_sweep_single_threshold_zero(tmp_path):
    out = tmp_path / "sweep0"
    assert run(["sweep", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--thresholds", "0", "--out", out]) == 0
    doc = json.loads((out / "sweep.json").read_text())
    assert doc["rows"][0]["leaves"] == 1
    assert doc["rows"][0]["fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_commands_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["cut", "--qasm", "fixture:ghz_n10", "--profile", "fixture:stress",
                    "--threshold", "0.8", "--out", out, "--seed", "9"]) == 0
        assert run(["run", "--out", out, "--noisy", "--profile", "fixture:stress",
                    "--seed", "9"]) == 0
        assert run(["reconstruct", "--out", out, "--reference"]) == 0
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


BOTH_SOLVERS_GOLDEN_SHA256 = "ca74cf20c792786a34456f572366e85cb2b2f78e2d46d95d3e6b97863fa08c65"


def test_both_solver_plan_documents_match_their_golden_hash(tmp_path):
    # the bytes of every plan the annealer competes for, solver_log included
    digest = hashlib.sha256()
    for name in CIRCUIT_FIXTURES:
        for threshold in ("0.8", "0.95"):
            out = tmp_path / f"{name}_{threshold}"
            assert run(["cut", "--qasm", f"fixture:{name}", "--profile", "fixture:stress",
                        "--threshold", threshold, "--solver", "both", "--sweeps", 200,
                        "--restarts", 2, "--seed", 7, "--out", out]) == 0
            digest.update((out / "plan.json").read_bytes())
    assert digest.hexdigest() == BOTH_SOLVERS_GOLDEN_SHA256


# the message each damaged fragments document is refused with
_LEAF_IDS = "keyed by exactly the plan's leaf ids [1, 2]"
_FRAGMENT_DAMAGE = {
    "truncated": "bad fragments document",
    "no-variants": _LEAF_IDS,
    "short-row": "one row per variant, as one base64 string",
    "list-rows": "one row per variant, as one base64 string",
    "non-base64": "are not the base64 of",
    "nan-entry": "not finite numbers",
    "inf-entry": "not finite numbers",
    "negative-entry": "not a distribution",
    "overflowing-rows": "not a distribution",
    "v1-document": "version None is not supported",
    "v2-document": "version 2 is not supported; expected version 4",
    "version-3": "version 3 is not supported; expected version 4",
    "other-plan": "written for another plan",
    "missing-leaf": _LEAF_IDS,
    "extra-leaf": _LEAF_IDS,
    "unknown-key": "unknown key(s) ['width']",
    "zero-shots": "shots 0 is not an integer >= 1",
    "bool-shots": "shots True is not an integer >= 1",
}


@pytest.mark.parametrize("damage", list(_FRAGMENT_DAMAGE))
def test_malformed_fragment_document_exits_5(tmp_path, capsys, damage):
    out = tmp_path / damage
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    assert run(["run", "--out", out]) == 0
    path = out / "fragments.json"
    doc = json.loads(path.read_text())
    leaf = plan_from_dict(json.loads((out / "plan.json").read_text())).leaf_fragments()[0]
    assert sorted(doc["probs"]) == ["1", "2"] and leaf.id == 1
    rows = fragment_rows(doc["probs"]["1"], leaf.width)
    if damage == "truncated":
        path.write_text(path.read_text()[:40])
    elif damage == "v1-document":  # the bitstring-keyed layout written before version 2
        path.write_text(json.dumps({"fragment": leaf.id, "width": leaf.width,
                                    "variants": {"base": {"width": 1, "probs": {"0": 1.0}}}}))
    elif damage == "version-3":  # leaf 1's valid document of version 3, in its place
        path.write_text(json.dumps({"version": 3, "fragment": leaf.id, "width": leaf.width,
                                    "out_cuts": sorted(leaf.out_cuts),
                                    "in_cuts": sorted(leaf.in_cuts), "probs": doc["probs"]["1"]}))
    else:
        if damage == "no-variants":
            del doc["probs"]
        elif damage == "short-row":  # the last row's last entry is missing
            doc["probs"]["1"] = packed_rows(rows.reshape(-1)[:-1])
        elif damage == "list-rows":  # valid rows, spelt as version 2 spells them
            doc["probs"]["1"] = rows.tolist()
        elif damage == "non-base64":
            doc["probs"]["1"] = doc["probs"]["1"][:-5] + "*" + doc["probs"]["1"][-4:]
        elif damage == "overflowing-rows":  # finite rows that are not distributions
            doc["probs"]["1"] = packed_rows(np.full(rows.shape, 1e308))
        elif damage == "v2-document":  # a valid document of version 2
            doc = {"version": 2, "fragment": leaf.id, "width": leaf.width,
                   "out_cuts": sorted(leaf.out_cuts), "in_cuts": sorted(leaf.in_cuts),
                   "probs": rows.tolist()}
        elif damage == "other-plan":
            doc["plan"] = hashlib.sha256(b"another plan").hexdigest()
        elif damage == "missing-leaf":
            del doc["probs"]["2"]
        elif damage == "extra-leaf":
            doc["probs"]["3"] = doc["probs"]["2"]
        elif damage == "unknown-key":  # a field of the version 3 header
            doc["width"] = leaf.width
        elif damage.endswith("-shots"):
            doc["shots"] = {"zero-shots": 0, "bool-shots": True}[damage]
        else:  # a packed entry that no distribution holds
            rows = rows.copy()
            rows[-1, 0] = {"nan-entry": math.nan, "inf-entry": math.inf,
                           "negative-entry": -0.5}[damage]
            doc["probs"]["1"] = packed_rows(rows)
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "bad fragments document" in err and not (out / "reconstruction.json").exists()
    assert _FRAGMENT_DAMAGE[damage] in err


def test_documents_swapped_between_leaves_exit_5(tmp_path, capsys):
    # two independent halves split without a cut, run in two directories,
    # once as planned and once with the halves' gates exchanged: every leaf
    # has two qubits and no cut ids, so only the plan tells the fragments
    # documents apart
    first = (Gate("h", (0,)), Gate("cx", (0, 1)), Gate("rx", (1,), (0.4,)), Gate("cx", (0, 1)))
    second = (Gate("x", (2,)), Gate("cx", (2, 3)), Gate("ry", (3,), (0.9,)), Gate("cx", (2, 3)))
    swapped = tuple(Gate(g.name, tuple(q ^ 2 for q in g.qubits), g.params) for g in first + second)
    outs = []
    for name, gates in (("halves", first + second), ("swapped", swapped)):
        plan = single_cut_plan(Circuit(width=4, gates=gates), [0, 0, 1, 1])
        assert plan.k == 0 and [f.width for f in plan.leaf_fragments()] == [2, 2]
        out = tmp_path / name
        out.mkdir()
        (out / "plan.json").write_text(json.dumps(plan_to_dict(plan)))
        assert run(["run", "--out", out]) == 0
        assert run(["reconstruct", "--out", out, "--reference"]) == 0
        (out / "reconstruction.json").unlink()
        outs.append(out)
    texts = [(out / "fragments.json").read_bytes() for out in outs]
    for out, text in zip(outs, reversed(texts)):
        (out / "fragments.json").write_bytes(text)
        capsys.readouterr()
        assert run(["reconstruct", "--out", out, "--reference"]) == 5
        assert "written for another plan" in capsys.readouterr().err
        assert not (out / "reconstruction.json").exists()


def _ghz_n10_ending_in(gate: str, path) -> str:
    """``ghz_n10`` with ``gate`` applied to its last qubit, written to ``path``."""
    path.write_text(fixture_text("circuits", "ghz_n10") + f"{gate} q[9];\n")
    return str(path)


def test_outputs_of_a_replaced_plan_exit_5(tmp_path, capsys):
    # ghz_n10 ending in z, cut and run, then ending in x, cut into the same
    # directory: the new leaves have the old leaves' shapes, but the old
    # outputs are of the other plan
    out = tmp_path / "out"
    for gate in ("z", "x"):
        assert run(["cut", "--qasm", _ghz_n10_ending_in(gate, tmp_path / f"{gate}.qasm"),
                    "--profile", "fixture:stress", "--threshold", "0.8", "--out", out]) == 0
        if gate == "z":
            assert run(["run", "--out", out]) == 0
            assert run(["reconstruct", "--out", out, "--reference"]) == 0
            (out / "reconstruction.json").unlink()
    capsys.readouterr()
    assert run(["reconstruct", "--out", out, "--reference"]) == 5
    err = capsys.readouterr().err
    assert "bad fragments document" in err and "written for another plan" in err
    assert not (out / "reconstruction.json").exists()


def test_version_3_fragment_documents_are_not_read(tmp_path, capsys):
    # a valid version 3 document of the plan's one leaf, as the per-leaf
    # files were written before fragments.json
    out = tmp_path / "v3"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--threshold", "0", "--out", out]) == 0
    (out / "fragment_0.json").write_text(json.dumps({
        "version": 3, "fragment": 0, "width": 5, "out_cuts": [], "in_cuts": [],
        "probs": packed_rows([[1.0] + [0.0] * 31]),
    }))
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    assert "run 'run' first" in capsys.readouterr().err


# gates the root circuit of a plan document may not hold: swap is a
# parse-time macro, angles are finite numbers and qubits are integers
_BAD_GATES = {
    "swap-gate": {"name": "swap", "qubits": [0, 1], "params": []},
    "string-param": {"name": "rx", "qubits": [0], "params": ["x"]},
    "nan-param": {"name": "rx", "qubits": [0], "params": [math.nan]},
    "float-qubit": {"name": "h", "qubits": [0.5], "params": []},
    "bool-qubit": {"name": "h", "qubits": [True], "params": []},
}


def _damage_plan(doc: dict, damage: str):
    """``doc``, a fig1_n5 plan split once into two leaves, with ``damage``."""
    root = doc["tree"]
    leaves = [child["fragment"] for child in root["children"]]
    # the leaf that measures the cut
    measuring = next(leaf for leaf in leaves if leaf["out_cuts"])
    if damage == "list":
        return []
    if damage == "tree-not-object":
        doc["tree"] = "root"
    elif damage == "unknown-limit":
        doc["limits"]["max_width"] = 4
    elif damage == "limits-empty":
        doc["limits"] = {}
    elif damage == "solver-log-string":
        doc["solver_log"] = "abc"
    elif damage == "unknown-top-level-key":
        doc["note"] = "x"
    elif damage == "leaf-empty-children":
        root["children"][0]["children"] = []
    elif damage == "split-extra-key":
        root["note"] = "x"
    elif damage == "leaf-partition":
        root["children"][0]["partition"] = [0, 1]
    elif damage == "third-child":
        root["children"].append(json.loads(json.dumps(root["children"][1])))
    elif damage == "split-without-children":
        del root["children"]
    elif damage == "one-child":
        root["children"].pop()
    elif damage == "children-object":
        root["children"] = dict(enumerate(root["children"]))
    elif damage.startswith("width-"):
        doc["width"] = None if damage == "width-null" else 3
    elif damage == "threshold-string":
        doc["threshold"] = "x"
    elif damage == "seed-null":
        doc["seed"] = None
    elif damage.startswith("solver-"):
        doc["solver"] = {"solver-5": 5, "solver-manual": "manual"}[damage]
    elif damage.startswith("version-"):
        doc["version"] = {"version-true": True, "version-float": 2.0}[damage]
    elif damage in _BAD_GATES:
        root["fragment"]["circuit"]["gates"].append(_BAD_GATES[damage])
    elif damage == "moved-root-gate":
        root["fragment"]["circuit"]["gates"][0]["qubits"] = [0, 4]
    elif damage == "bool-partition-bit":
        root["partition"][0] = True
    elif damage == "success-string":
        root["success"] = "x"
    elif damage == "status-5":
        root["children"][0]["status"] = 5
    elif damage == "cut-qubit-99":  # the cut moves to a local qubit the leaf lacks
        measuring["out_cuts"] = {cid: 99 for cid in measuring["out_cuts"]}
    elif damage.endswith("-id"):
        leaves[1]["id"] = {"string-id": "a", "negative-id": -1}.get(damage, leaves[0]["id"])
    elif damage == "short-qubit-map":
        measuring["qubit_map"].pop()
    else:
        assert damage == "string-qubit-map"
        measuring["qubit_map"] = [str(q) for q in measuring["qubit_map"]]
    return doc


@pytest.mark.parametrize("damage", ["list", "tree-not-object", "unknown-limit", "limits-empty",
                                    "solver-log-string", "unknown-top-level-key",
                                    "leaf-empty-children", "split-extra-key", "leaf-partition",
                                    "third-child", "split-without-children", "one-child",
                                    "children-object",
                                    "short-qubit-map", "string-qubit-map", "cut-qubit-99",
                                    "string-id", "negative-id", "duplicate-id",
                                    "width-null", "width-mismatch",
                                    "threshold-string", "seed-null", "solver-5", "solver-manual",
                                    "version-true", "version-float",
                                    "status-5", "success-string", "bool-partition-bit",
                                    "moved-root-gate", *_BAD_GATES])
def test_malformed_plan_document_exits_5(tmp_path, capsys, damage):
    out = tmp_path / damage
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    path = out / "plan.json"
    path.write_text(json.dumps(_damage_plan(json.loads(path.read_text()), damage)))
    capsys.readouterr()
    for argv in (["run"], ["run", "--noisy", "--profile", "fixture:stress"], ["reconstruct"]):
        assert run(argv + ["--out", out]) == 5
        assert "bad plan document" in capsys.readouterr().err
    assert not list(out.glob("fragment*.json"))


def _version_1_fragment(f) -> dict:
    """Fragment ``f`` as version 1 wrote it, on every node."""
    return {"id": f.id, "in_cuts": {str(cid): q for cid, q in sorted(f.in_cuts.items())},
            "out_cuts": {str(cid): q for cid, q in sorted(f.out_cuts.items())},
            "qubit_map": list(f.qubit_map), "circuit": circuit_to_dict(f.circuit)}


def _version_1_cuts(node) -> list:
    """The cuts of split ``node`` as version 1 wrote them."""
    return [{"qubit": cp.qubit, "upstream_gate": cp.upstream_gate,
             "downstream_gate": cp.downstream_gate, "cut_id": cp.cut_id} for cp in node.cut]


@pytest.mark.parametrize("layout", ["version-1", "cuts-on-root", "cuts-on-inner-split",
                                    "cuts-on-leaf", "fragment-on-inner-split"])
def test_plan_document_in_the_version_1_layout_exits_5(tmp_path, capsys, layout):
    # version 1 wrote every node's fragment and every split node's cuts;
    # version 2 writes no cuts and no fragment on a split node below the
    # root, so each of those fields is refused, even as version 1 wrote it
    out = tmp_path / layout
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.95", "--out", out]) == 0
    path = out / "plan.json"
    doc = json.loads(path.read_text())
    plan = plan_from_dict(doc)
    # the root splits into a leaf and a split node of two leaves
    inner = next(i for i, child in enumerate(plan.root.children) if child.children)
    inner_doc, leaf_doc = doc["tree"]["children"][inner], doc["tree"]["children"][1 - inner]
    inner_node = plan.root.children[inner]
    if layout == "version-1":  # the whole document that version 1 wrote
        doc["version"] = 1
        doc["tree"]["cuts"] = _version_1_cuts(plan.root)
        inner_doc["cuts"] = _version_1_cuts(inner_node)
        inner_doc["fragment"] = _version_1_fragment(inner_node)
    elif layout == "cuts-on-root":
        doc["tree"]["cuts"] = _version_1_cuts(plan.root)
    elif layout == "cuts-on-inner-split":
        inner_doc["cuts"] = _version_1_cuts(inner_node)
    elif layout == "cuts-on-leaf":
        leaf_doc["cuts"] = []
    else:
        inner_doc["fragment"] = _version_1_fragment(inner_node)
    path.write_text(json.dumps(doc))
    message = ("unsupported plan document version" if layout == "version-1"
               else "the document is not the one its rebuilt plan writes")
    capsys.readouterr()
    for argv in (["run"], ["reconstruct"]):
        assert run(argv + ["--out", out]) == 5
        err = capsys.readouterr().err
        assert "bad plan document" in err and message in err
    assert not (out / "fragments.json").exists()


def test_circuit_wider_than_the_cap_exits_3_or_5(tmp_path, capsys):
    # 10^8 qubits: both readers refuse the width before allocating per qubit
    wide = tmp_path / "wide.qasm"
    wide.write_text("OPENQASM 2.0;\nqreg q[100000000];\ncx q[0],q[1];\ncx q[1],q[2];\n")
    assert run(["cut", "--qasm", wide, "--profile", "fixture:stress", "--threshold", "0.9",
                "--out", tmp_path / "cut"]) == 3
    assert str(MAX_CIRCUIT_QUBITS) in capsys.readouterr().err
    out = tmp_path / "plan"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    path = out / "plan.json"
    doc = json.loads(path.read_text())
    doc["tree"]["fragment"]["circuit"]["width"] = 100_000_000
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["run", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "bad plan document" in err and str(MAX_CIRCUIT_QUBITS) in err


@pytest.mark.parametrize("doc_width", [30, 1])
def test_documents_wider_than_the_cap_exit_5(tmp_path, capsys, doc_width):
    # synthetic documents: a 30-qubit plan, with a fragments document of that
    # plan whose one row is of width 30 but shorter than the 2^30 entries the
    # leaf needs, or of width 1, which is not the leaf's; both are refused
    # when read, before anything is decoded
    out = tmp_path / "wide"
    wide = Circuit(width=30, gates=(Gate("h", (0,)),))
    plan = recursive_fragment(wide, NoiseProfile(), threshold=0.0)
    out.mkdir()
    (out / "plan.json").write_text(json.dumps(plan_to_dict(plan)))
    row = [1.0] + [0.0] * (1023 if doc_width == 30 else 1)
    (out / "fragments.json").write_text(json.dumps({
        "version": 4, "plan": hashlib.sha256((out / "plan.json").read_bytes()).hexdigest(),
        "probs": {"0": packed_rows([row])},
    }))
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "bad fragments document" in err and f"needs 1 rows of {2 ** 30}" in err


def test_contraction_without_a_pairwise_order_exits_5(tmp_path, capsys, monkeypatch):
    # adder_n8 at 0.8 plans 4 leaves with k=7; with the intermediate limit at
    # its floor of 2^8 entries no pair of label tensors fits, so numpy's
    # greedy path would join the leaves in one step: refused before it runs
    out = tmp_path / "adder"
    assert run(["cut", "--qasm", "fixture:adder_n8", "--profile", "fixture:stress",
                "--threshold", "0.8", "--seed", "7", "--out", out]) == 0
    assert run(["run", "--out", out]) == 0
    assert run(["reconstruct", "--out", out]) == 0
    monkeypatch.setattr(importlib.import_module("wirecut.reconstruct"), "_MAX_INTERMEDIATE", 1)
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "reconstruction error" in err and "within 256 elements" in err


def test_leaf_batch_beyond_the_budget_exits_6(tmp_path, capsys):
    # a 24-qubit chain cut before its last cx: the 23-qubit leaf measures one
    # cut, so its 3 * 2^23 entries exceed the 2^24-entry budget and the run
    # must stop before allocating them: complex128 amplitudes when ideal,
    # float64 probabilities when noisy
    chain = Circuit(width=24, gates=(Gate("h", (0,)),) + tuple(
        Gate("cx", (i, i + 1)) for i in range(23)))
    plan = single_cut_plan(chain, [0] * 22 + [1])
    assert [(f.width, len(f.out_cuts)) for f in plan.leaf_fragments()] == [(23, 1), (2, 0)]
    out = tmp_path / "huge"
    out.mkdir()
    (out / "plan.json").write_text(json.dumps(plan_to_dict(plan)))
    for argv, nbytes in ((["run"], f"{3 * 2 ** 27} bytes of complex128"),
                         (["run", "--noisy", "--profile", "fixture:stress"],
                          f"{3 * 2 ** 26} bytes of float64")):
        capsys.readouterr()
        assert run(argv + ["--out", out]) == 6
        assert f"{3 * 2 ** 23} entries ({nbytes})" in capsys.readouterr().err


@pytest.mark.parametrize("shots", ["0", "-5"])
def test_shots_below_one_is_a_usage_error(tmp_path, capsys, shots):
    out = tmp_path / "shots"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--threshold", "0", "--out", out]) == 0
    for argv in (["run", "--out", out, "--shots", shots],
                 ["sweep", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                  "--thresholds", "0", "--out", out, "--shots", shots]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "--shots: must be at least 1" in capsys.readouterr().err
    assert not list(out.glob("fragment*.json"))


@pytest.mark.parametrize("shots", [str(2 ** 63), str(10 ** 30)])
def test_shots_past_an_int64_are_a_usage_error(tmp_path, capsys, shots):
    out = tmp_path / "shots"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                "--threshold", "0", "--out", out]) == 0
    for argv in (["run", "--out", out, "--shots", shots],
                 ["sweep", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform",
                  "--thresholds", "0", "--out", out, "--shots", shots]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"--shots: must be at most {2 ** 63 - 1}" in capsys.readouterr().err
    assert not list(out.glob("fragment*.json"))
    assert run(["run", "--out", out, "--shots", 2 ** 63 - 1]) == 0


CUT = ["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform", "--threshold", "0.5"]
SWEEP = ["sweep", "--qasm", "fixture:fig1_n5", "--profile", "fixture:uniform"]


@pytest.mark.parametrize("argv, message", [
    (CUT + ["--max-k", "-1"], "--max-k: must be at least 0, got -1"),
    (SWEEP + ["--thresholds", "0", "--max-depth", "-2"], "--max-depth: must be at least 0, got -2"),
    (CUT + ["--sweeps", "0"], "--sweeps: must be at least 1, got 0"),
    (CUT + ["--restarts", "0"], "--restarts: must be at least 1, got 0"),
    (CUT + ["--max-k", "two"], "--max-k: not an integer: 'two'"),
    (SWEEP + ["--thresholds", "0.5,abc"], "--thresholds: not a comma-separated list"),
    (SWEEP + ["--thresholds", ","], "--thresholds: need at least one threshold"),
    (CUT[:-1] + ["1.5"], "--threshold: must lie in [0, 1], got 1.5"),
    (CUT[:-1] + ["nan"], "--threshold: must lie in [0, 1], got nan"),
    (SWEEP + ["--thresholds", "0,2"], "--thresholds: must lie in [0, 1], got 2.0"),
])
def test_bad_numeric_input_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", out])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()  # nothing ran: no plan, fragment or sweep.json


@pytest.mark.parametrize("argv", [CUT, SWEEP + ["--thresholds", "0"]], ids=["cut", "sweep"])
def test_limit_flags_default_to_the_limits_defaults(argv):
    args = build_parser().parse_args(argv + ["--out", "unused"])
    assert Limits(max_depth=args.max_depth, max_k=args.max_k) == Limits()


def test_default_solver_is_the_ga(tmp_path):
    out = tmp_path / "default"
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["solver"] == "ga"
    assert plan["solver_log"]
    for entry in plan["solver_log"]:
        assert entry["chosen"] == "ga" and "ga" in entry and "anneal" not in entry


@pytest.mark.parametrize("solver, columns", [
    ("ga", ["ga cost", "ga k"]),
    ("both", ["ga cost", "ga k", "anneal cost", "anneal k"]),
])
def test_cut_table_shows_only_the_solvers_that_ran(tmp_path, capsys, solver, columns):
    argv = ["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
            "--threshold", "0.9", "--out", tmp_path / solver, "--sweeps", "50"]
    assert run(argv + (["--solver", solver] if solver != "ga" else [])) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[1]
    assert [name for name in ("ga cost", "ga k", "anneal cost", "anneal k")
            if name in header] == columns
    assert header.split()[:2] == ["fragment", "vertices"] and header.split()[-1] == "chosen"
    rows = [line.split() for line in lines[2:]]
    assert rows and all(len(row) == 3 + len(columns) for row in rows)
    assert "-" not in {cell for row in rows for cell in row}
