import json

import pytest

from wirecut.cli import main


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
                "--threshold", "0.999", "--out", out, "--max-depth", "1", "--seed", "1"]) == 0
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


@pytest.mark.parametrize("damage", ["truncated", "no-variants", "long-bitstring"])
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
        del doc["variants"]
        path.write_text(json.dumps(doc))
    else:
        variant = next(iter(doc["variants"].values()))
        variant["probs"] = {"0" + bits: p for bits, p in variant["probs"].items()}
        path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["reconstruct", "--out", out]) == 5
    assert "bad fragment document" in capsys.readouterr().err


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
