"""End-to-end command-line behavior: routing, output formats, exit codes,
and determinism, all through in-process main(argv) calls."""

import json
import tracemalloc
import types

import numpy as np
import pytest

import farfirst.cli
import farfirst.greedy
import farfirst.oracles
import farfirst.points
from farfirst.cli import _point_matrix, main

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


@pytest.mark.parametrize("argv", [
    ["greedy", "--eps", "1e-17", "--bounded-spread", "--graph", "path4.edg"],
    ["greedy", "--eps", "1e-16", "--graph", "path4.edg"],
    ["select", "-k", "2", "--eps", "1e-17", "--planar", "--graph", "k3.edg"],
    ["greedy", "--eps", "1e-17", "--points", "pts.xy"],
    ["greedy", "--eps", "1e-17", "--bounded-spread", "--points", "pts.xy"],
    ["net", "-r", "1", "--eps", "1e-17", "--points", "pts.xy"],
])
def test_eps_whose_level_ratio_rounds_to_one_is_exit_2(files, capsys, argv):
    assert main(argv[:-1] + [files[argv[-1]]]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "eps 1e-1" in err[0] and "too small" in err[0]


@pytest.mark.parametrize("argv", [
    ["greedy", "--eps", "1e-15", "--bounded-spread"],
    ["greedy", "--eps", "1e-15"],
    ["select", "-k", "2", "--eps", "1e-15", "--planar"],
])
def test_eps_whose_schedule_exceeds_the_level_cap_is_exit_2(tmp_path, capsys, argv):
    p = tmp_path / "wide.edg"
    p.write_text("3 2\n0 1 1\n1 2 1e6\n")
    assert main(argv + ["--graph", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eps 1e-15 is too small: ")


def test_ann_ladder_over_the_level_cap_is_exit_2(tmp_path, capsys):
    p = tmp_path / "wide.xy"
    p.write_text("8 1\n0\n1\n2.5\n7\n1e6\n2000003\n3000011\n5000001\n")
    assert main(["greedy", "--eps", "4e-15", "--points", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: c 1.000000000000004 is too close to 1: ")


def test_points_greedy_over_the_level_budget_is_exit_2(tmp_path, capsys, monkeypatch):
    """The bounded greedy passes the empty levels of eps 1e-15 at once; the
    spread-free one runs its levels, so a small budget stands in for a
    small eps."""
    p = tmp_path / "line.xy"
    p.write_text("3 1\n0\n1\n1e6\n")
    assert main(["greedy", "--bounded-spread", "--eps", "1e-15", "--points", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eps 1e-15 is too small: ")
    monkeypatch.setattr(farfirst.points, "MAX_LEVELS", 10)
    assert main(["greedy", "--eps", "0.5", "--points", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: eps 0.5 is too small: ")


@pytest.mark.parametrize("flags", [[], ["--bounded-spread"]])
@pytest.mark.parametrize("eps", ["0.5", "1e-3"])
def test_points_at_computed_distance_zero_are_exit_2(tmp_path, capsys, eps, flags):
    p = tmp_path / "twins.xy"
    p.write_text("3 1\n0\n1e-200\n1\n")
    assert main(["greedy", "--points", str(p), "--eps", eps] + flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: duplicate points (infinite spread)"]


@pytest.mark.parametrize("flags", [["greedy"], ["greedy", "--bounded-spread"],
                                   ["net", "-r", "1e199"]])
def test_points_at_overflowing_distance_are_exit_2(tmp_path, capsys, flags):
    p = tmp_path / "far.xy"
    p.write_text("2 1\n0\n1e200\n")
    assert main(flags[:1] + ["--points", str(p), "--eps", "0.5"] + flags[1:]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: point distances overflow float64"]


def test_point_matrix_is_built_row_by_row():
    """Equal, bit for bit, to the 1-D norm of each pair's difference, and
    never holding an n x n x d difference tensor: the heap peak stays under
    four n x n matrices."""
    rng = np.random.default_rng(31)
    for d in (1, 2, 7, 20, 64):
        coords = rng.uniform(-1.0, 1.0, size=(50, d)) * 10.0 ** float(rng.integers(-6, 7))
        want = np.array([[np.linalg.norm(x - y) for y in coords] for x in coords])
        assert _point_matrix(coords).tobytes() == want.tobytes()
    n = 300
    coords = rng.uniform(size=(n, 64))
    tracemalloc.start()
    try:
        _point_matrix(coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * n * 8


def test_exact_verify_on_points_builds_the_matrix_once(files, capsys, monkeypatch):
    calls = []

    def counting(coords):
        calls.append(coords.shape)
        return _point_matrix(coords)

    monkeypatch.setattr(farfirst.cli, "_point_matrix", counting)
    assert main(["greedy", "--points", files["pts.xy"], "--exact", "--verify"]) == 0
    assert calls == [(5, 2)]
    capsys.readouterr()


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


def test_internal_invariant_failure_is_exit_3(files, capsys, monkeypatch):
    def broken(g, first):
        raise AssertionError("vertex 1 left unselected")

    monkeypatch.setattr(farfirst.greedy, "exact_greedy", broken)
    assert main(["greedy", "--graph", files["path4.edg"], "--exact"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: vertex 1 left unselected\n"


@pytest.mark.parametrize("argv, name", [
    (["greedy", "--exact", "--graph"], "path4.edg"),
    (["greedy", "--exact", "--points"], "pts.xy"),
])
def test_out_of_memory_is_exit_2_naming_the_input(files, capsys, monkeypatch, argv, name):
    """Exit 1 means a failed verification, so running out of memory must
    not reach it through an uncaught traceback."""
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(farfirst.greedy, "exact_greedy", exhausted)
    monkeypatch.setattr(farfirst.oracles, "brute_greedy", exhausted)
    assert main(argv + [files[name]]) == 2
    err = capsys.readouterr().err
    assert err == f"error: out of memory on {files[name]}\n"
