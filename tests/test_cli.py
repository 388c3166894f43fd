from __future__ import annotations

import json

import pytest

from treeconn import parse_certificate, parse_graph, serialize_graph, complete_graph, path_graph
from treeconn.cli import main
from treeconn.reductions import parse_reduced


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(serialize_graph(complete_graph(4)))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(serialize_graph(path_graph(3)))
    return str(path)


def test_kappa_command(k4_file, capsys):
    assert main(["kappa", "--graph", k4_file, "--terminals", "0,1,2,3"]) == 0
    out = capsys.readouterr().out
    assert "kappa = 2 (exact)" in out


def test_kappa_json_and_certificate(k4_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(
        ["kappa", "--graph", k4_file, "--terminals", "0,1,2,3", "--json", "--out", str(cert_path)]
    )
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["value"] == 2 and obj["status"] == "exact"
    cert = parse_certificate(cert_path.read_text())
    assert len(cert) == 2
    # the written certificate re-verifies through the verify command
    assert (
        main(
            ["verify", "--graph", k4_file, "--terminals", "0,1,2,3", "--cert", str(cert_path)]
        )
        == 0
    )


def test_kappa_budget_exit_code(k4_file):
    assert main(["kappa", "--graph", k4_file, "--terminals", "0,1,2,3", "--budget", "2"]) == 2


def test_kappa_disconnected_zero(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"order":4,"edges":[[0,1],[2,3]]}')
    assert main(["kappa", "--graph", str(path), "--terminals", "0,3"]) == 0
    assert "kappa = 0 (exact)" in capsys.readouterr().out


def test_decide_and_exit_codes(p3_file, capsys):
    assert main(["decide", "--graph", p3_file, "--terminals", "0,2", "--k", "1"]) == 0
    assert "decision: certificate" in capsys.readouterr().out
    assert main(["decide", "--graph", p3_file, "--terminals", "0,2", "--k", "2"]) == 0
    assert "decision: refuted" in capsys.readouterr().out


def test_verify_invalid_exits_one(k4_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "trees": [
                    {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3]]},
                    {"vertices": [0, 1, 2, 3], "edges": [[0, 1], [1, 3], [0, 2]]},
                ]
            }
        )
    )
    assert main(["verify", "--graph", k4_file, "--terminals", "0,1,2,3", "--cert", str(bad)]) == 1


def test_usage_error_exits_one(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["kappa", "--graph", missing, "--terminals", "0,1"]) == 1


def test_reduce_3dm_summary(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"n":2,"triples":[[0,0,0],[1,1,1],[0,1,0]]}')
    out = tmp_path / "red.json"
    dot = tmp_path / "red.dot"
    code = main(["reduce", "3dm", "--in", str(inst), "--out", str(out), "--dot", str(dot)])
    assert code == 0
    assert "vertices=14" in capsys.readouterr().out
    red = parse_reduced(out.read_text())
    assert red.threshold == 3
    assert dot.read_text().startswith("graph {")


def test_reduce_3dm_rejects_m_below_n(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text('{"n":2,"triples":[[0,0,0]]}')
    assert main(["reduce", "3dm", "--in", str(inst)]) == 1


def test_reduce_3sat_summary(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    out = tmp_path / "red.json"
    assert main(["reduce", "3sat", "--in", str(cnf), "--out", str(out)]) == 0
    assert "vertices=12" in capsys.readouterr().out


def test_oracle_commands(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"n":2,"triples":[[0,0,0],[1,1,1]]}')
    assert main(["oracle", "3dm", "--in", str(inst)]) == 0
    assert "matching: 0,1" in capsys.readouterr().out
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    assert main(["oracle", "sat", "--in", str(cnf)]) == 0
    assert "satisfiable" in capsys.readouterr().out


def test_lift_and_pad_commands(k4_file, tmp_path, capsys):
    out = tmp_path / "red.json"
    assert (
        main(["lift", "--graph", k4_file, "--terminals", "0,1,2,3", "--k1", "5", "--k2", "2", "--out", str(out)])
        == 0
    )
    assert "vertices=7" in capsys.readouterr().out
    assert parse_reduced(out.read_text()).threshold == 2
    assert (
        main(["pad", "--graph", k4_file, "--terminals", "0,1", "--k", "3", "--out", str(out)])
        == 0
    )
    assert parse_reduced(out.read_text()).graph.order == 5


def test_gen_graph_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        assert (
            main(["gen", "graph", "--order", "8", "--prob", "0.4", "--seed", "1", "--out", str(target)])
            == 0
        )
    assert a.read_text() == b.read_text()
    parse_graph(a.read_text())


def test_gen_3dm_infeasible(tmp_path):
    assert main(["gen", "3dm", "--n", "2", "--m", "9", "--out", str(tmp_path / "x.json")]) == 1


def test_gen_cnf(tmp_path):
    out = tmp_path / "f.cnf"
    assert main(["gen", "cnf", "--vars", "4", "--clauses", "6", "--seed", "2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("p cnf 4 6")


def test_roundtrip_3sat(capsys):
    code = main(["roundtrip", "3sat", "--vars", "3", "--clauses", "5", "--count", "12", "--seed", "7", "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["agree"] == 12 and obj["disagree"] == 0 and obj["unknown"] == 0


def test_roundtrip_3dm(capsys):
    code = main(["roundtrip", "3dm", "--n", "2", "--m", "4", "--count", "12", "--seed", "7"])
    assert code == 0
    assert "agree=12 disagree=0 unknown=0" in capsys.readouterr().out


def test_roundtrip_tiny_budget_counts_unknown(capsys):
    code = main(
        ["roundtrip", "3dm", "--n", "2", "--m", "4", "--count", "4", "--seed", "7", "--budget", "2"]
    )
    assert code == 2
    out = capsys.readouterr().out
    assert "disagree=0" in out and "unknown=4" in out


def test_budget_env_var(k4_file, monkeypatch):
    monkeypatch.setenv("KAPPA_BUDGET", "2")
    assert main(["kappa", "--graph", k4_file, "--terminals", "0,1,2,3"]) == 2
    monkeypatch.setenv("KAPPA_BUDGET", "nope")
    assert main(["kappa", "--graph", k4_file, "--terminals", "0,1,2,3"]) == 1


def test_classify_command(k4_file, capsys):
    assert main(["classify", "--graph", k4_file, "--terminals", "0,1,2,3", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    # all 16 spanning trees, falling into the star and path shapes
    assert obj["distinct"] == 2
    assert obj["trees"] == 16
    assert obj["classes"] == {"T(T(),T(),T())": 4, "T(T(),T(T()))": 12}


def test_kappa_k_command(k4_file, capsys):
    assert main(["kappa-k", "--graph", k4_file, "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "kappa_4 = 2 (exact)" in out
    assert "subset = 0,1,2,3" in out


def test_kappa_k_json(k4_file, capsys):
    assert main(["kappa-k", "--graph", k4_file, "--k", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert out == '{"expansions": 9, "status": "exact", "subset": [0, 1, 2, 3], "value": 2}\n'
    assert main(["kappa-k", "--graph", k4_file, "--k", "4", "--json", "--budget", "1"]) == 2
    out = capsys.readouterr().out
    assert out == '{"expansions": 2, "status": "upper-bound", "subset": null, "value": null}\n'


def test_deep_recursion_is_an_error_not_a_traceback(tmp_path, capsys):
    path = tmp_path / "p1200.json"
    path.write_text(serialize_graph(path_graph(1200)))
    assert main(["classify", "--graph", str(path), "--terminals", "0,1199"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
