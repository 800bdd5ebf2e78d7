"""Tree-decomposition ingestion, restricted partitions, L-inf search, and
the decomposition-driven exact greedy."""

import math

import numpy as np
import pytest

from farfirst.generators import (format_tree_decomposition, random_ktree,
                                 random_series_parallel, random_tree)
from farfirst.graphs import make_graph
from farfirst.greedy import exact_greedy
from farfirst.oracles import apsp_exact
from farfirst.treewidth import (exact_greedy_treewidth, linf_build, linf_query,
                                parse_tree_decomposition, restricted_partition)

from conftest import complete_graph, path_graph, star_graph


def path_td_text(n: int) -> str:
    bags = [f"{i} {i + 1}" for i in range(n - 1)]
    edges = [f"{i} {i + 1}" for i in range(n - 2)]
    return "\n".join([f"{n - 1} 1"] + bags + edges)


# --- parsing ---


def test_parse_path_decomposition():
    td = parse_tree_decomposition(path_td_text(3), path_graph(3))
    assert td.width == 1
    assert td.bags == [(0, 1), (1, 2)]
    assert td.edges == [(0, 1)]


def test_parse_uncovered_edge_rejected(k3):
    text = "2 1\n0 1\n1 2\n0 1"
    with pytest.raises(ValueError, match=r"edge \(0, 2\) not covered"):
        parse_tree_decomposition(text, k3)


def test_parse_tree_natural_bags():
    rng = np.random.default_rng(0)
    g, doc = random_tree(12, rng)
    td = parse_tree_decomposition(doc, g)
    assert td.width == 1


@pytest.mark.parametrize("text,fragment", [
    ("2 2\n0 1\n1 2\n0 1", "header claims width 2"),
    ("3 1\n0 1\n1 2\n0 1", "expected 3 bags"),
    ("3 1\n0 1\n1 2\n1 2\n0 1\n0 1", "cycle"),
    ("2 1\n0 1\n1 5\n0 1", "out of range"),
    ("2 1\n0 1\n1 1\n0 1", "repeated vertex"),
    ("", "empty"),
    ("x 1\n0 1\n1 2\n0 1", "<string>:1: .*'x'"),
    ("2 1\n0 y\n1 2\n0 1", "<string>:2: .*'y'"),
    ("2 1\n0 1\n1 2\n0 1.0", "<string>:4: .*'1.0'"),
])
def test_parse_td_errors(text, fragment):
    g = path_graph(3)
    with pytest.raises(ValueError, match=fragment):
        parse_tree_decomposition(text, g)


def test_parse_td_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read decomposition"):
        parse_tree_decomposition(str(tmp_path / "g.td"), path_graph(3))


def test_parse_disconnected_vertex_subtree():
    # vertex 1 appears in bags 0 and 2, which are not adjacent in the tree
    g = path_graph(4)
    text = "3 1\n0 1\n2 3\n1 2\n0 1\n1 2"
    with pytest.raises(ValueError, match="subtree|connected"):
        parse_tree_decomposition(text, g)


# --- restricted partition ---


def _check_partition(g, part, k, w):
    seen: list[int] = []
    for sub in part.subgraphs:
        assert 1 <= len(sub.edge_ids) <= k
        assert len(sub.boundary) <= 2 * w + 2
        assert set(sub.boundary) | set(sub.interior) == set(sub.vertices)
        assert not set(sub.boundary) & set(sub.interior)
        seen.extend(sub.edge_ids)
    assert sorted(seen) == list(range(g.m))  # exact edge partition
    assert len(part.subgraphs) <= max(1, math.ceil(4 * g.n / k))


def test_partition_path_nine_edges():
    g = path_graph(10)
    td = parse_tree_decomposition(path_td_text(10), g)
    part = restricted_partition(g, td, 3)
    _check_partition(g, part, 3, 1)
    assert all(len(s.boundary) <= 4 for s in part.subgraphs)


def test_partition_whole_graph_when_k_at_least_m():
    g = path_graph(6)
    td = parse_tree_decomposition(path_td_text(6), g)
    part = restricted_partition(g, td, g.m)
    assert len(part.subgraphs) == 1
    assert part.subgraphs[0].boundary == []


def test_partition_star_k2():
    g = star_graph(7)
    bags = [(0, i) for i in range(1, 7)]
    text = "\n".join(["6 1"] + [f"{u} {v}" for u, v in bags]
                     + [f"0 {i}" for i in range(1, 6)])
    td = parse_tree_decomposition(text, g)
    part = restricted_partition(g, td, 2)
    _check_partition(g, part, 2, 1)
    for sub in part.subgraphs:
        if len(part.subgraphs) > 1:
            assert 0 in sub.boundary  # the hub borders every subgraph


def test_partition_random_instances():
    rng = np.random.default_rng(1)
    for make in (random_tree, random_series_parallel):
        g, doc = make(40, rng)
        td = parse_tree_decomposition(doc, g)
        w = td.width
        for k in (max(1, math.comb(w + 1, 2)), 5, 10):
            part = restricted_partition(g, td, k)
            _check_partition(g, part, k, w)


def test_partition_ktree():
    rng = np.random.default_rng(2)
    g, doc = random_ktree(30, 3, rng)
    td = parse_tree_decomposition(doc, g)
    k = 12
    part = restricted_partition(g, td, k)
    _check_partition(g, part, k, td.width)


# --- L-infinity nearest neighbor ---


def test_linf_single_point():
    idx = linf_build([[1.0, 2.0]])
    pid, dist = linf_query(idx, [4.0, 0.0])
    assert pid == 0
    assert dist == 3.0


def test_linf_two_points():
    idx = linf_build([[0.0, 0.0], [10.0, 0.0]])
    pid, dist = linf_query(idx, [4.0, 0.0])
    assert (pid, dist) == (0, 4.0)


def test_linf_empty_index():
    idx = linf_build([])
    pid, dist = linf_query(idx, [])
    assert pid is None and dist == math.inf


def test_linf_tie_breaks_to_smallest_id():
    idx = linf_build([[0.0], [2.0]])
    pid, dist = linf_query(idx, [1.0])
    assert (pid, dist) == (0, 1.0)


def test_linf_farthest_query_trick():
    """Embedding distances as 2Z - d turns a farthest-vertex search into a
    nearest-neighbor query: the returned gap is 2Z - (true farthest value)."""
    Z = 100.0
    # interior vertex rows: (dist to selected interior, dist to boundary b)
    rows = np.array([[Z, 3.0], [Z, 7.0], [9.0, 5.0]])
    d_b = 2.0  # current distance-to-selected of boundary vertex b
    q = np.array([2 * Z, 2 * Z - d_b])
    pid, gap = linf_query(linf_build(rows), q)
    # true distance of interior v to the selected set via this subgraph:
    # min(row[0], d_b + row[1]); the farthest is row 1 at min(Z, 9) = 9
    truth = [min(r[0], d_b + r[1]) for r in rows]
    far = int(np.argmax(truth))
    assert pid == far == 1
    assert gap == 2 * Z - truth[far]


# --- decomposition-driven exact greedy ---


def test_tw_greedy_path_matches_naive(path4):
    td = parse_tree_decomposition(path_td_text(4), path4)
    mine = exact_greedy_treewidth(path4, td)
    ref = exact_greedy(path4, 0)
    assert mine.order == ref.order
    assert mine.radii == ref.radii


def test_tw_greedy_single_vertex():
    g = make_graph(1, [])
    td = parse_tree_decomposition("1 0\n0", g)
    perm = exact_greedy_treewidth(g, td)
    assert perm.order == [0]
    assert perm.radii == [math.inf]


def test_tw_greedy_random_trees_lockstep():
    rng = np.random.default_rng(4)
    for n in (2, 7, 40, 120):
        g, doc = random_tree(n, rng, w_hi=3)
        td = parse_tree_decomposition(doc, g)
        mine = exact_greedy_treewidth(g, td)
        ref = exact_greedy(g, 0)
        assert mine.order == ref.order
        assert mine.radii == pytest.approx(ref.radii)


def test_tw_greedy_series_parallel_and_ktree_lockstep():
    rng = np.random.default_rng(5)
    for make, kwargs in ((random_series_parallel, {}), (random_ktree, {"k": 2})):
        g, doc = make(35, rng=rng, w_hi=3, **kwargs)
        td = parse_tree_decomposition(doc, g)
        mine = exact_greedy_treewidth(g, td)
        ref = exact_greedy(g, 0)
        assert mine.order == ref.order
        assert mine.radii == pytest.approx(ref.radii)


def test_tw_greedy_subgraph_without_interior():
    """This partial 3-tree's partition has a subgraph of boundary vertices
    only, with more of them than any subgraph that has interior vertices."""
    g, doc = random_ktree(40, 3, np.random.default_rng(4), w_hi=3)
    mine = exact_greedy_treewidth(g, parse_tree_decomposition(doc, g))
    ref = exact_greedy(g, 0)
    assert mine.order == ref.order
    assert mine.radii == ref.radii


def test_tw_greedy_radii_are_true_eccentricities():
    rng = np.random.default_rng(6)
    g, doc = random_tree(25, rng, w_hi=3)
    td = parse_tree_decomposition(doc, g)
    perm = exact_greedy_treewidth(g, td)
    dm = apsp_exact(g)
    for i in range(1, g.n):
        ecc = dm[perm.order[:i]].min(axis=0).max()
        assert perm.radii[i] == pytest.approx(ecc)


def test_tw_greedy_real_weights_match_naive():
    """Weights 10^U(0,6): the radii are exact sums, not recovered through a
    2Z - d embedding, so they agree with the naive greedy to rounding."""
    rng = np.random.default_rng(7)
    for _ in range(3):
        g, doc = random_ktree(200, 3, rng)
        g = make_graph(g.n, [(u, v, float(10.0 ** rng.uniform(0.0, 6.0)))
                             for u, v, _ in g.edges])
        mine = exact_greedy_treewidth(g, parse_tree_decomposition(doc, g))
        ref = exact_greedy(g, 0)
        assert mine.order == ref.order
        rel = np.abs(np.subtract(mine.radii[1:], ref.radii[1:])) / np.asarray(ref.radii[1:])
        assert rel.max() <= 1e-12


def test_tw_greedy_zero_weights_select_each_vertex_once():
    rng = np.random.default_rng(8)
    g, doc = random_ktree(40, 2, rng, w_hi=3)
    g = make_graph(g.n, [(u, v, float(int(w) % 3)) for u, v, w in g.edges])
    mine = exact_greedy_treewidth(g, parse_tree_decomposition(doc, g))
    ref = exact_greedy(g, 0)
    assert sorted(mine.order) == list(range(g.n))
    assert mine.order == ref.order
    assert mine.radii == ref.radii
