import json

import pytest

from wirecut.circuit import Circuit, Gate
from wirecut.cli import main
from wirecut.fragment import (
    Fragment,
    FragmentPlan,
    Limits,
    PlanNode,
    plan_to_dict,
    recursive_fragment,
)
from wirecut.noise import NoiseProfile


def run(argv):
    return main([str(a) for a in argv])


def test_cut_run_reconstruct_ghz_end_to_end(tmp_path, capsys):
    out = tmp_path / "ghz"
    assert run(["cut", "--qasm", "fixture:ghz_n10", "--profile", "fixture:stress",
                "--threshold", "0.8", "--out", out, "--seed", "3"]) == 0
    plan = json.loads((out / "plan.json").read_text())
    assert plan["k"] >= 1
    assert run(["run", "--out", out]) == 0
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
    assert not list(out.glob("fragment_*.json"))


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


@pytest.mark.parametrize("text", [
    "[]", "42", '{"version": 1, "qubits": 7}', '{"version": 1, "gates": null}',
    '{"version": 1, "gates": [{"name": "cx", "qubits": 5, "error": 0.01, "duration_ns": 300}]}',
    '{"version": 1, "gates": [{"name": ["cx"], "qubits": [0, 1], "error": 0.01, '
    '"duration_ns": 300}]}',
])
def test_profile_file_of_non_object_json_exits_4(tmp_path, capsys, text):
    prof = tmp_path / "profile.json"
    prof.write_text(text)
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", prof,
                "--threshold", "0.5", "--out", tmp_path / "x"]) == 4
    assert "profile error" in capsys.readouterr().err


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
        bad.replace(sorted(out.glob("fragment_*.json"))[0])
    else:
        argv += ["--threshold", "0.9"]
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


@pytest.mark.parametrize("damage", ["truncated", "no-variants", "short-row", "v1-document"])
def test_malformed_fragment_document_exits_5(tmp_path, capsys, damage):
    out = tmp_path / damage
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    assert run(["run", "--out", out]) == 0
    path = sorted(out.glob("fragment_*.json"))[0]
    doc = json.loads(path.read_text())
    if damage == "truncated":
        path.write_text(path.read_text()[:40])
    elif damage == "no-variants":
        del doc["probs"]
        path.write_text(json.dumps(doc))
    elif damage == "short-row":
        doc["probs"][-1].pop()
        path.write_text(json.dumps(doc))
    else:  # the bitstring-keyed layout written before version 2
        path.write_text(json.dumps({"fragment": doc["fragment"], "width": doc["width"],
                                    "variants": {"base": {"width": 1, "probs": {"0": 1.0}}}}))
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    err = capsys.readouterr().err
    assert "bad fragment document" in err
    assert damage != "v1-document" or "version 1 is not supported" in err


@pytest.mark.parametrize("damage", ["list", "tree-not-object", "unknown-limit",
                                    "short-qubit-map", "cut-qubit-99",
                                    "string-id", "negative-id", "duplicate-id"])
def test_malformed_plan_document_exits_5(tmp_path, capsys, damage):
    out = tmp_path / damage
    assert run(["cut", "--qasm", "fixture:fig1_n5", "--profile", "fixture:stress",
                "--threshold", "0.9", "--out", out]) == 0
    path = out / "plan.json"
    doc = json.loads(path.read_text())
    if damage == "list":
        doc = []
    elif damage == "tree-not-object":
        doc["tree"] = "root"
    elif damage == "unknown-limit":
        doc["limits"]["max_width"] = 4
    elif damage.endswith("-id"):
        first, second = (child["fragment"] for child in doc["tree"]["children"])
        second["id"] = {"string-id": "a", "negative-id": -1}.get(damage, first["id"])
    else:
        # a leaf that measures a cut: its qubit map loses an entry, or the
        # cut moves to a local qubit the leaf does not have
        leaf = next(child["fragment"] for child in doc["tree"]["children"]
                    if child["fragment"]["out_cuts"])
        if damage == "short-qubit-map":
            leaf["qubit_map"].pop()
        else:
            leaf["out_cuts"] = {cid: 99 for cid in leaf["out_cuts"]}
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    for argv in (["run"], ["run", "--noisy", "--profile", "fixture:stress"], ["reconstruct"]):
        assert run(argv + ["--out", out]) == 5
        assert "bad plan document" in capsys.readouterr().err


@pytest.mark.parametrize("doc_width", [30, 1])
def test_documents_wider_than_the_cap_exit_5(tmp_path, capsys, doc_width):
    # synthetic documents: a 30-qubit plan, with a fragment document of width
    # 30 (rejected when read) or 1 (read, then the plan's width is rejected)
    out = tmp_path / "wide"
    wide = Circuit(width=30, gates=(Gate("h", (0,)),))
    plan = recursive_fragment(wide, NoiseProfile(), threshold=0.0)
    out.mkdir()
    (out / "plan.json").write_text(json.dumps(plan_to_dict(plan)))
    (out / "fragment_0.json").write_text(json.dumps({
        "version": 2, "fragment": 0, "width": doc_width, "out_cuts": [], "in_cuts": [],
        "probs": [[1.0, 0.0]],
    }))
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    assert "24" in capsys.readouterr().err


def test_leaf_batch_beyond_the_budget_exits_6(tmp_path, capsys):
    # a synthetic 24-qubit leaf with 10 in-cuts: its 4^10 * 2^24 amplitudes
    # would take 256 TiB, so the run must stop before allocating them
    out = tmp_path / "huge"
    leaf = Fragment(id=0, circuit=Circuit(width=24, gates=()),
                    in_cuts={cid: cid for cid in range(10)}, qubit_map=tuple(range(24)))
    plan = FragmentPlan(width=24, threshold=0.0, root=PlanNode(leaf, 1.0, "ok"),
                        limits=Limits(), seed=0, solver="ga")
    out.mkdir()
    (out / "plan.json").write_text(json.dumps(plan_to_dict(plan)))
    for argv in (["run"], ["run", "--noisy", "--profile", "fixture:stress"]):
        capsys.readouterr()
        assert run(argv + ["--out", out]) == 6
        assert f"{2 ** 44} entries ({2 ** 48} bytes" in capsys.readouterr().err


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
    assert not list(out.glob("fragment_*.json"))


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
