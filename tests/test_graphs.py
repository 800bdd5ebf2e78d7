"""Graph parsing, shortest paths, and the pruned relaxation primitive."""

import gc
import math

import numpy as np
import pytest
import scipy.sparse.csgraph as csg

from farfirst.generators import random_connected_graph
from farfirst.graphs import (INF, DisjointSets, KruskalTree, approx_diameter,
                             contract_graph, dijkstra, dijkstra_truncated, is_connected,
                             make_graph, parse_graph, pruned_dijkstra_relax, write_graph)
from farfirst.oracles import bellman_ford

from conftest import complete_graph, path_graph


# --- parsing ---


def test_parse_triangle():
    g = parse_graph("3 3\n0 1 1.0\n1 2 1.0\n0 2 1.0")
    assert g.n == 3 and g.m == 3
    assert sorted((min(u, v), max(u, v)) for u, v, _ in g.edges) == [(0, 1), (0, 2), (1, 2)]
    assert all(w == 1.0 for _, _, w in g.edges)


def test_parse_single_edge():
    g = parse_graph("2 1\n0 1 5.0")
    assert g.n == 2 and g.edges == [(0, 1, 5.0)]


def test_parse_negative_weight_rejected():
    with pytest.raises(ValueError, match="negative weight"):
        parse_graph("2 1\n0 1 -1")


@pytest.mark.parametrize("w", ["nan", "inf", "-inf"])
def test_parse_non_finite_weight_rejected(w):
    kind = "negative" if w == "-inf" else "non-finite"
    with pytest.raises(ValueError, match=f"{kind} weight"):
        parse_graph(f"2 1\n0 1 {w}")


@pytest.mark.parametrize("text,fragment", [
    ("2 1\n0 1", "expected 'u v w'"),
    ("2 1\n0 1 x", ":2:"),
    ("2 2\n0 1 1.0", "promises 2 edges"),
    ("2 1\n0 5 1.0", "out of range"),
    ("2 1\n1 1 1.0", "self-loop"),
    ("", "empty"),
    ("x y\n", "header"),
])
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_graph(text)


def test_parse_error_line_numbers():
    # the bad row is physical line 3
    with pytest.raises(ValueError, match=":3:"):
        parse_graph("3 2\n0 1 1.0\n1 2 oops")


def test_write_read_round_trip(tmp_path):
    g = make_graph(4, [(0, 1, 0.1), (1, 2, 1 / 3), (2, 3, 7.25)])
    p = tmp_path / "g.edges"
    write_graph(g, p)
    back = parse_graph(p)
    assert back.n == g.n
    assert back.edges == g.edges  # repr round-trips floats bit-exactly


def test_adjacency_matches_per_edge_appends():
    """Graph.adjacency against appending each edge to both endpoints' lists,
    on multigraphs with parallel edges, zero weights and isolated vertices.
    The collector stops tracking a tuple whose items it no longer tracks, one
    level of nesting per pass, so after two passes no per-vertex tuple is
    left for a full collection to walk."""
    rng = np.random.default_rng(28)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        edges = [(int(a), int(b), float(rng.choice([0.0, 1.0, 2.5])))
                 for a, b in rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2)) if a != b]
        g = make_graph(n, edges)
        ref = [[] for _ in range(n)]
        for u, v, w in g.edges:
            ref[u].append((v, w))
            ref[v].append((u, w))
        assert [list(pairs) for pairs in g.adjacency()] == ref
    gc.collect()
    gc.collect()
    assert not any(gc.is_tracked(pairs) for pairs in g.adjacency())


def test_parse_gr_format(tmp_path):
    text = "c comment\np sp 3 2\na 1 2 1.5\na 2 3 2.5\n"
    p = tmp_path / "g.gr"
    p.write_text(text)
    g = parse_graph(p)
    assert g.n == 3
    assert g.edges == [(0, 1, 1.5), (1, 2, 2.5)]  # ids shifted to 0-based


@pytest.mark.parametrize("text,fragment", [
    ("a 1 2 1.0\n", "edge before p-line"),
    ("p sp 2 1\np sp 2 1\n", "duplicate p-line"),
    ("p sp 2 1\nq 1 2 1\n", "unknown line kind"),
    ("p sp 2 2\na 1 2 1\n", "promises 2 edges"),
])
def test_parse_gr_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_graph(text, fmt="gr")


def test_parse_missing_file():
    with pytest.raises(ValueError, match="cannot read graph file"):
        parse_graph("/nonexistent/path/graph.edges")


# --- dijkstra ---


def test_dijkstra_path_single_source():
    f = dijkstra(path_graph(3), [0])
    np.testing.assert_array_equal(f, [0.0, 1.0, 2.0])


def test_dijkstra_two_sources():
    f = dijkstra(path_graph(3), [0, 2])
    np.testing.assert_array_equal(f, [0.0, 1.0, 0.0])


def test_dijkstra_empty_sources_rejected():
    with pytest.raises(ValueError, match="empty source set"):
        dijkstra(path_graph(3), [])


def test_dijkstra_matches_bellman_ford_bit_exact():
    """Same additions, so equality is exact, not approximate."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        m = int(rng.integers(n - 1, 3 * n))
        g = random_connected_graph(n, m, rng)
        s = int(rng.integers(n))
        np.testing.assert_array_equal(dijkstra(g, [s]), bellman_ford(g, s))


def test_dijkstra_truncated_never_exceeds_cutoff():
    g = path_graph(6)
    dist = dijkstra_truncated(g, [0], cutoff=2.5)
    assert dist == {0: 0.0, 1: 1.0, 2: 2.0}


def test_dijkstra_truncated_keeps_vertex_at_cutoff():
    dist = dijkstra_truncated(path_graph(6), [0, 5], cutoff=2.0)
    assert dist == {0: 0.0, 1: 1.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 0.0}


def test_zero_weight_edges_connect():
    """Explicit zeros in the CSR matrix are edges: vertex 2 hangs on 0 by
    zero-weight edges only."""
    g = make_graph(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 3.0)])
    assert is_connected(g)
    assert approx_diameter(g) == 6.0
    assert not is_connected(make_graph(3, [(0, 1, 0.0)]))


# --- pruned relaxation ---


def test_pruned_relax_unpruned_case():
    g = path_graph(4)
    field = np.full(4, INF)
    updates = pruned_dijkstra_relax(g.adjacency(), [0], field)
    np.testing.assert_array_equal(field, [0.0, 1.0, 2.0, 3.0])
    assert updates == 3  # source assignment itself is not a decrease-key


def test_pruned_relax_second_source_takes_pointwise_min():
    g = path_graph(4)
    field = np.full(4, INF)
    pruned_dijkstra_relax(g.adjacency(), [0], field)
    updates = pruned_dijkstra_relax(g.adjacency(), [3], field)
    # vertex 2 improves to 1; vertex 1's tentative 2 never beats its value 1
    np.testing.assert_array_equal(field, [0.0, 1.0, 1.0, 0.0])
    assert updates == 1


def test_pruned_relax_fully_pruned():
    g = path_graph(4)
    field = np.zeros(4)
    for s in range(4):
        assert pruned_dijkstra_relax(g.adjacency(), [s], field) == 0
    np.testing.assert_array_equal(field, np.zeros(4))


def test_pruned_relax_equals_min_of_field_and_fresh_run():
    rng = np.random.default_rng(40)
    for _ in range(10):
        g = random_connected_graph(30, 70, rng)
        field = np.full(g.n, INF)
        for s in rng.permutation(g.n)[:8]:
            before = field.copy()
            fresh = dijkstra(g, [int(s)])
            pruned_dijkstra_relax(g.adjacency(), [int(s)], field)
            np.testing.assert_array_equal(field, np.minimum(before, fresh))


def test_pruned_relax_monotone_decreasing():
    rng = np.random.default_rng(41)
    g = random_connected_graph(40, 90, rng)
    field = np.full(g.n, INF)
    prev = field.copy()
    for s in rng.permutation(g.n):
        pruned_dijkstra_relax(g.adjacency(), [int(s)], field)
        assert np.all(field <= prev)
        prev = field.copy()


def test_decrease_key_counts_logarithmic_on_average():
    """Driving the relaxation over a random vertex permutation keeps the
    per-vertex decrease-key average at most 4 ln n (statistical, 20 seeds)."""
    failures = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(200, 2001))
        m = int(rng.integers(2 * n, 4 * n))
        g = random_connected_graph(n, m, rng)
        field = np.full(n, INF)
        adj = g.adjacency()
        total = sum(pruned_dijkstra_relax(adj, [int(v)], field) for v in rng.permutation(n))
        if total / n > 4.0 * math.log(n):
            failures += 1
    assert failures == 0


def _scipy_truncated(csr, sources, cutoff: float) -> np.ndarray:
    dist = csg.dijkstra(csr, indices=list(sources), min_only=True, limit=cutoff)
    return np.where(dist <= cutoff, dist, INF)


def test_pruned_relax_cutoff_equals_scipy_limit():
    """On a fresh list, the cutoff run equals scipy's limited search masked
    to <= cutoff; a vertex at exactly the cutoff is kept."""
    rng = np.random.default_rng(42)
    for trial in range(12):
        g = random_connected_graph(40, 100, rng, w_hi=20 if trial % 2 else 100)
        if trial >= 8:  # real weights
            g = make_graph(g.n, [(u, v, w * float(rng.uniform(0.1, 3.0))) for u, v, w in g.edges])
        sources = rng.choice(g.n, size=int(rng.integers(1, 4)), replace=False).tolist()
        full = dijkstra(g, sources)
        cutoff = float(np.sort(full)[g.n // 3])  # the distance of some vertex
        delta = [INF] * g.n
        pruned_dijkstra_relax(g.adjacency(), sources, delta, cutoff=cutoff)
        want = _scipy_truncated(g.csr(), sources, cutoff)
        np.testing.assert_array_equal(delta, want)
        assert cutoff in delta


def test_pruned_relax_dict_adjacency_with_cutoff():
    """The spread-free greedy's call: a dict adjacency over the vertices that
    touch a kept edge, a list field carried across calls, and a cutoff."""
    rng = np.random.default_rng(43)
    for _ in range(8):
        g = random_connected_graph(50, 120, rng)
        kept = [(u, v, w) for u, v, w in g.edges if w <= 60]
        adj: dict[int, list[tuple[int, float]]] = {}
        for u, v, w in kept:
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        csr = make_graph(g.n, kept).csr()
        touched = sorted(adj)
        cutoff = 90.0
        sources = rng.choice(touched, size=3, replace=False).tolist()
        wd = [INF] * g.n
        pruned_dijkstra_relax(adj, sources, wd, cutoff=cutoff)
        np.testing.assert_array_equal(wd, _scipy_truncated(csr, sources, cutoff))
        s = int(rng.choice(touched))
        before = np.array(wd)
        updates = pruned_dijkstra_relax(adj, (s,), wd, cutoff=cutoff)
        want = np.minimum(before, _scipy_truncated(csr, [s], cutoff))
        np.testing.assert_array_equal(wd, want)
        lowered = np.flatnonzero(want < before)
        assert updates >= np.count_nonzero(lowered != s)  # the source's zero is no relaxation


# --- diameter, connectivity ---


def test_approx_diameter_examples():
    assert approx_diameter(path_graph(3)) == 4.0
    assert approx_diameter(parse_graph("2 1\n0 1 5.0")) == 10.0
    assert approx_diameter(complete_graph(3)) == 2.0


def test_approx_diameter_brackets_true_diameter():
    rng = np.random.default_rng(8)
    from farfirst.oracles import apsp_exact
    for _ in range(10):
        g = random_connected_graph(25, 50, rng)
        diam = apsp_exact(g).max()
        assert diam <= approx_diameter(g) <= 2.0 * diam + 1e-9


def test_approx_diameter_disconnected():
    with pytest.raises(ValueError):
        approx_diameter(make_graph(3, [(0, 1, 1.0)]))


def test_is_connected():
    assert is_connected(path_graph(5))
    assert not is_connected(make_graph(4, [(0, 1, 1.0), (2, 3, 1.0)]))
    assert is_connected(make_graph(1, []))


# --- contraction ---


def test_contract_graph_merges_and_remaps():
    g = make_graph(4, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 0.5), (0, 3, 9.0)])
    cg = contract_graph(g, contracted_idx=[0, 2], active_idx=[1, 3])
    assert list(cg.rep) == [0, 0, 2, 2]  # classes keep their smallest id
    assert [(u, v, w) for u, v, w, _ in cg.edges] == [(0, 2, 2.0), (0, 2, 9.0)]


def test_contract_graph_drops_internal_edges():
    g = path_graph(3)
    cg = contract_graph(g, contracted_idx=[0, 1], active_idx=[0, 1])
    assert cg.edges == []  # everything collapsed into one class
    assert list(cg.rep) == [0, 0, 0]


def test_kruskal_tree_matches_union_find_on_every_prefix():
    """Lowering the prefix, from m down to 0, one edge at a time or in random
    jumps, must give the min-id classes of a union-find built from scratch
    over edges[:lo]."""
    rng = np.random.default_rng(31)
    for trial in range(60):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(0, 3 * n))
        us = rng.integers(0, n, m)
        vs = rng.integers(0, n, m)  # self-loops and parallel edges included
        tree = KruskalTree(n, us, vs)
        if trial % 2:
            los = range(m, -1, -1)
        else:
            los = sorted({m, 0, *rng.integers(0, m + 1, 4).tolist()}, reverse=True)
        for lo in los:
            dsu = DisjointSets(n)
            for u, v in zip(us[:lo], vs[:lo]):
                dsu.union(int(u), int(v))
            want = [dsu.find(v) for v in range(n)]
            assert tree.lower_to(lo).tolist() == want, (n, m, lo)


def test_kruskal_tree_skips_and_refuses_to_raise():
    us, vs = [0, 2, 0, 1], [1, 3, 2, 3]
    tree = KruskalTree(4, us, vs)
    assert tree.lower_to(4).tolist() == [0, 0, 0, 0]
    assert tree.lower_to(2).tolist() == [0, 0, 2, 2]  # two prefixes at once
    assert tree.lower_to(0).tolist() == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="raise"):
        tree.lower_to(1)
