"""End-to-end command-line behavior: routing, output formats, exit codes,
and determinism, all through in-process main(argv) calls."""

import json
import types

import pytest

import farfirst.oracles
from farfirst.cli import main

PATH4 = "4 3\n0 1 1\n1 2 1\n2 3 1\n"
PATH5 = "5 4\n0 1 1\n1 2 1\n2 3 1\n3 4 1\n"
K3 = "3 3\n0 1 1\n1 2 1\n0 2 1\n"
PATH4_GR = "c four-vertex path\np sp 4 3\na 1 2 1\na 2 3 1\na 3 4 1\n"
PATH4_TD = "3 1\n0 1\n1 2\n2 3\n0 1\n1 2\n"
POINTS5 = "5 2\n0 0\n3 0\n0 4\n7 1\n2 9\n"


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, text in (("path4.edg", PATH4), ("path5.edg", PATH5),
                       ("k3.edg", K3), ("path4.gr", PATH4_GR),
                       ("path4.td", PATH4_TD), ("pts.xy", POINTS5)):
        p = tmp_path / name
        p.write_text(text)
        out[name] = str(p)
    return out


# --- greedy ---


def test_greedy_exact_path4(files, capsys):
    assert main(["greedy", "--graph", files["path4.edg"], "--exact",
                 "--first", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0 0 inf", "1 3 3.0", "2 1 1.0", "3 2 1.0"]


def test_greedy_gr_format_same_permutation(files, capsys):
    assert main(["greedy", "--graph", files["path4.gr"], "--exact"]) == 0
    gr_out = capsys.readouterr().out
    assert main(["greedy", "--graph", files["path4.edg"], "--exact"]) == 0
    assert capsys.readouterr().out == gr_out


def test_greedy_verify_emits_certificate(files, capsys):
    assert main(["greedy", "--graph", files["path4.edg"], "--eps", "0.5",
                 "--seed", "1", "--verify"]) == 0
    captured = capsys.readouterr()
    record = json.loads(captured.err.splitlines()[-1])
    assert record["status"] == "pass"
    assert record["witness"] is None
    assert len(record["radii"]) == 4
    assert len(captured.out.splitlines()) == 4


def test_greedy_points_exact_verify(files, capsys):
    assert main(["greedy", "--points", files["pts.xy"], "--exact",
                 "--verify"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.err.splitlines()[-1])["status"] == "pass"
    ranks = [int(ln.split()[0]) for ln in captured.out.splitlines()]
    assert ranks == [0, 1, 2, 3, 4]


def test_greedy_points_approx_verify(files, capsys):
    assert main(["greedy", "--points", files["pts.xy"], "--eps", "0.5",
                 "--seed", "3", "--verify"]) == 0
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["status"] == "pass"


def test_greedy_td_routes_to_treewidth_algorithm(files, capsys):
    assert main(["greedy", "--graph", files["path4.edg"], "--td",
                 files["path4.td"]]) == 0
    td_out = capsys.readouterr().out
    assert main(["greedy", "--graph", files["path4.edg"], "--exact"]) == 0
    assert td_out == capsys.readouterr().out


def test_greedy_td_rejected_for_points(files, capsys):
    assert main(["greedy", "--points", files["pts.xy"], "--td",
                 files["path4.td"]]) == 2
    assert "graph inputs only" in capsys.readouterr().err


def test_greedy_verification_failure_exits_1(files, capsys, monkeypatch):
    stub = types.SimpleNamespace(ok=False, witness=2, radii=[])
    monkeypatch.setattr(farfirst.oracles, "verify_eps_greedy",
                        lambda dm, perm, eps: stub)
    assert main(["greedy", "--graph", files["path4.edg"], "--exact",
                 "--verify"]) == 1
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["status"] == "fail"


# --- net ---


def test_net_graph_lines_and_verify(files, capsys):
    assert main(["net", "--graph", files["path4.edg"], "-r", "1.5",
                 "--seed", "2", "--verify"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0].split()[1] == "inf"
    for ln in lines[1:]:
        assert float(ln.split()[1]) > 1.5
    record = json.loads(captured.err.splitlines()[-1])
    assert record == {"status": "pass", "packing_ok": True, "covering_ok": True}


def test_net_points_verify(files, capsys):
    assert main(["net", "--points", files["pts.xy"], "-r", "2.0",
                 "--eps", "0.5", "--seed", "5", "--verify"]) == 0
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["status"] == "pass"


# --- kcenter ---


def test_kcenter_path5(files, capsys):
    assert main(["kcenter", "--graph", files["path5.edg"], "-k", "2",
                 "--seed", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    centers = [int(v) for v in lines[:-1]]
    tag, radius = lines[-1].split()
    assert tag == "radius"
    assert len(centers) <= 2
    assert float(radius) <= 2.0


# --- count / select ---


def test_count_k3(files, capsys):
    assert main(["count", "--graph", files["k3.edg"], "--planar",
                 "-r", "1", "--eps", "0.1"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_count_requires_planar_flag(files, capsys):
    assert main(["count", "--graph", files["k3.edg"], "-r", "1"]) == 2
    assert "--planar" in capsys.readouterr().err


def test_count_witness_brackets(files, capsys):
    assert main(["count", "--graph", files["path4.edg"], "--planar",
                 "-r", "1", "--eps", "0.1", "--witness"]) == 0
    alpha, lo, hi = (int(x) for x in capsys.readouterr().out.split())
    assert (lo, hi) == (3, 6)
    assert lo <= alpha <= hi


def test_select_path4(files, capsys):
    assert main(["select", "--graph", files["path4.edg"], "--planar",
                 "-k", "4", "--eps", "0.1", "--witness"]) == 0
    alpha, factor, exact = (float(x) for x in capsys.readouterr().out.split())
    assert exact == 2.0
    assert alpha <= exact <= factor * alpha
    assert factor == pytest.approx(3.1 * 1.1)


# --- bench ---


def test_bench_csv(files, capsys):
    assert main(["bench", "--graph", files["path4.edg"], "-r", "1",
                 "--algorithms", "exact,approx,net"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "n,m,algorithm,seed,millis"
    assert len(rows) == 4
    names = []
    for row in rows[1:]:
        n, m, name, seed, millis = row.split(",")
        assert (n, m) == ("4", "3")
        names.append(name)
        assert float(millis) >= 0.0
    assert names == ["exact", "approx", "net"]


def test_bench_tw_needs_td(files, capsys):
    assert main(["bench", "--graph", files["path4.edg"],
                 "--algorithms", "tw"]) == 2
    assert "--td" in capsys.readouterr().err


def test_bench_unknown_algorithm(files, capsys):
    assert main(["bench", "--graph", files["path4.edg"],
                 "--algorithms", "quantum"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


# --- plumbing ---


def test_missing_input_is_usage_error(capsys):
    assert main(["greedy", "--exact"]) == 2
    assert "input file is required" in capsys.readouterr().err


def test_unreadable_graph_is_exit_2(tmp_path, capsys):
    assert main(["greedy", "--graph", str(tmp_path / "nope.edg"),
                 "--exact"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["greedy", "--eps", "nan"],
    ["greedy", "--eps", "inf", "--bounded-spread"],
    ["net", "-r", "nan"],
    ["net", "-r", "inf"],
])
def test_non_finite_parameters_are_exit_2(files, capsys, argv):
    assert main(argv + ["--graph", files["path4.edg"]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "finite and positive" in err[0]


@pytest.mark.parametrize("argv", [
    ["count", "-r", "nan", "--planar", "--graph", "k3.edg"],
    ["count", "-r", "inf", "--planar", "--graph", "k3.edg"],
    ["select", "-k", "2", "--eps", "nan", "--planar", "--graph", "k3.edg"],
    ["greedy", "--eps", "nan", "--points", "pts.xy"],
    ["greedy", "--eps", "nan", "--bounded-spread", "--points", "pts.xy"],
    ["net", "-r", "1", "--eps", "inf", "--points", "pts.xy"],
    ["net", "-r", "nan", "--points", "pts.xy"],
])
def test_non_finite_parameters_on_planar_and_points_are_exit_2(files, capsys, argv):
    assert main(argv[:-1] + [files[argv[-1]]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "finite and positive" in err[0]


def test_nan_edge_weight_is_exit_2(tmp_path, capsys):
    p = tmp_path / "nan.edg"
    p.write_text("3 2\n0 1 1\n1 2 nan\n")
    assert main(["greedy", "--graph", str(p), "--exact"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "non-finite weight" in err[0]


def test_output_file_and_byte_determinism(files, tmp_path, capsys):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for out in (a, b):
        assert main(["greedy", "--graph", files["path5.edg"], "--eps", "0.5",
                     "--seed", "9", "--output", out]) == 0
    assert capsys.readouterr().out == ""
    blob = open(a, "rb").read()
    assert blob == open(b, "rb").read()
    assert blob


def test_net_determinism_across_runs(files, capsys):
    outs = []
    for _ in range(2):
        assert main(["net", "--points", files["pts.xy"], "-r", "2.5",
                     "--eps", "0.5", "--seed", "11"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_threads_flag_warns_and_runs(files, capsys):
    assert main(["greedy", "--graph", files["path4.edg"], "--exact",
                 "--threads", "4"]) == 0
    assert "sequentially" in capsys.readouterr().err
