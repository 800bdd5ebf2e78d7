"""Hierarchical decomposition, bicriteria pair counting, and k-th distance
selection for declared-planar inputs."""

import math

import numpy as np
import pytest

from farfirst.generators import delaunay_graph, grid_graph
from farfirst.graphs import make_graph
from farfirst.oracles import apsp_exact, exact_count, exact_select
from farfirst.planar import (DistanceOracle, _pair_tables, build_hd, count_short_pairs,
                             exact_oracle, select_kth_distance)

from conftest import complete_graph, path_graph


# --- hierarchical decomposition ---


def _check_hd(g, hd):
    nodes = hd.nodes
    assert sorted(nodes[0].patch) == list(range(g.n))
    adj = [set() for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    leaf_count = 0
    for nd in nodes:
        patch = set(nd.patch)
        # boundary = members with a neighbor outside the patch
        expected = sorted(v for v in patch if adj[v] - patch)
        assert sorted(nd.boundary) == expected
        if nd.children is None:
            leaf_count += 1
            assert len(nd.patch) == 1
        else:
            a, b = nd.children
            left, right = nodes[a], nodes[b]
            assert sorted(left.patch + right.patch) == sorted(nd.patch)
            limit = math.ceil(2 * len(nd.patch) / 3)
            assert len(left.patch) <= limit
            assert len(right.patch) <= limit
    assert leaf_count == g.n


def test_hd_path_boundaries_small():
    g = path_graph(17)
    hd = build_hd(g)
    _check_hd(g, hd)
    assert max(hd.boundary_sizes()) <= 2


def test_hd_single_vertex():
    g = make_graph(1, [])
    hd = build_hd(g)
    assert len(hd.nodes) == 1
    assert hd.nodes[0].children is None
    assert hd.nodes[0].patch == [0]


def test_hd_grid_valid_with_small_boundaries():
    g = grid_graph(9, 9)
    hd = build_hd(g)
    _check_hd(g, hd)
    # boundary growth should track sqrt(patch size) on grids; generous c
    for nd in hd.nodes:
        if nd.children is not None and len(nd.patch) >= 9:
            assert len(nd.boundary) <= 6.0 * math.sqrt(len(nd.patch))


def test_hd_rejects_too_many_edges():
    with pytest.raises(ValueError, match="planar"):
        build_hd(complete_graph(6))


def test_hd_delaunay_valid():
    rng = np.random.default_rng(0)
    g = delaunay_graph(80, rng)
    _check_hd(g, build_hd(g))


# --- exact oracle ---


def test_exact_oracle_basics():
    g = make_graph(2, [(0, 1, 7.5)])
    orc = exact_oracle(g)
    assert orc.query(0, 0) == 0.0
    assert orc.query(0, 1) == 7.5
    assert orc.eps == 0.0


def test_exact_oracle_matches_apsp():
    rng = np.random.default_rng(1)
    g = delaunay_graph(60, rng)
    dm = apsp_exact(g)
    orc = exact_oracle(g)
    for _ in range(100):
        u, v = rng.integers(g.n, size=2)
        assert orc.query(int(u), int(v)) == dm[u, v]


def test_exact_oracle_block_matches_apsp_and_default_block():
    rng = np.random.default_rng(4)
    g = delaunay_graph(40, rng)
    dm = apsp_exact(g)
    orc = exact_oracle(g)
    us, vs = [5, 0, 5, 17], [3, 3, 39, 0, 12]
    assert np.array_equal(orc.block(us, vs), dm[np.ix_(us, vs)])
    assert orc.block([], vs).shape == (0, 5)

    class ByQuery(DistanceOracle):
        def query(self, u, v):
            return float(dm[u, v])

    assert np.array_equal(ByQuery().block(us, vs), dm[np.ix_(us, vs)])


# --- counting ---


def _count_per_pair(g, hd, r, eps, oracle):
    """Reference count: one oracle query and one searchsorted per
    (side-1 owner, side-2 owner) pair of every patch."""
    scale = 1.0 + oracle.eps
    alpha = 0
    for p in _pair_tables(g, hd).patches:
        for (side1, a), g1 in p.groups.items():
            for (side2, b), g2 in p.groups.items():
                if (side1, side2) != (1, 2):
                    continue
                cap = 3.0 * r - oracle.query(a, b) / scale
                if cap < 0.0:
                    continue
                alpha += int(np.searchsorted(g2, cap - g1, side="right").sum())
    return alpha


def test_count_equals_per_pair_reference():
    rng = np.random.default_rng(5)
    graphs = (delaunay_graph(90, rng), grid_graph(8, 9, rng=rng, w_hi=6),
              path_graph(13), complete_graph(3),
              make_graph(20, [(i, i + 1, float(rng.uniform(0.5, 3.0))) for i in range(19)]))
    for g in graphs:
        hd = build_hd(g)
        orc = exact_oracle(g)
        top = apsp_exact(g).max()
        # whole radii make ties between a cap and a distance on integer weights
        radii = [frac * top for frac in (0.0001, 0.05, 0.3, 0.7, 1.5)] + [1.0, 2.0, 3.0, 5.0]
        for eps in (0.1, 0.5):
            for r in radii:
                assert count_short_pairs(g, hd, r, eps, orc) == \
                    _count_per_pair(g, hd, r, eps, orc), (g.n, r, eps)


def test_count_triangle_degenerate_sandwich():
    g = complete_graph(3)
    alpha = count_short_pairs(g, build_hd(g), 1.0, 0.1, exact_oracle(g))
    assert alpha == 3


def test_count_path4_bracket():
    g = path_graph(4)
    dm = apsp_exact(g)
    alpha = count_short_pairs(g, build_hd(g), 1.0, 0.1, exact_oracle(g))
    assert exact_count(dm, 1.0) <= alpha <= exact_count(dm, 3.1)
    assert 3 <= alpha <= 6


def test_count_tiny_radius():
    g = path_graph(4)
    dm = apsp_exact(g)
    eps = 0.5
    r = 0.2
    alpha = count_short_pairs(g, build_hd(g), r, eps, exact_oracle(g))
    assert 0 <= alpha <= exact_count(dm, (3 + eps) * r)
    assert alpha == 0  # (3+eps) * 0.2 is still below the shortest distance


def test_count_sandwich_on_planar_instances():
    rng = np.random.default_rng(2)
    for g in (grid_graph(7, 8, rng=rng, w_hi=5), delaunay_graph(70, rng)):
        dm = apsp_exact(g)
        hd = build_hd(g)
        orc = exact_oracle(g)
        diam = dm.max()
        for eps in (0.1, 0.5):
            for frac in (0.05, 0.2, 0.5, 0.9, 1.2):
                r = frac * diam
                alpha = count_short_pairs(g, hd, r, eps, orc)
                lo = exact_count(dm, r)
                hi = exact_count(dm, (3.0 + eps) * r)
                assert lo <= alpha <= hi, (r, eps, lo, alpha, hi)


def test_count_exact_when_no_slack_band():
    """If no pair lands in (r, (3+eps)r] the sandwich pins alpha exactly."""
    g = make_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                       (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0), (2, 3, 100.0)])
    dm = apsp_exact(g)
    hd = build_hd(g)
    orc = exact_oracle(g)
    r = 2.0
    eps = 0.5
    assert exact_count(dm, r) == exact_count(dm, (3 + eps) * r) == 6
    assert count_short_pairs(g, hd, r, eps, orc) == 6
    # whole-graph radius: every pair is short, no room above either
    big = dm.max()
    assert count_short_pairs(g, hd, big, eps, orc) == 15


def test_count_guards():
    g = path_graph(4)
    hd = build_hd(g)
    orc = exact_oracle(g)
    with pytest.raises(ValueError):
        count_short_pairs(g, hd, 0.0, 0.5, orc)
    with pytest.raises(ValueError):
        count_short_pairs(g, hd, 1.0, 0.0, orc)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            count_short_pairs(g, hd, bad, 0.5, orc)
        with pytest.raises(ValueError, match="finite and positive"):
            count_short_pairs(g, hd, 1.0, bad, orc)
    wrong = build_hd(path_graph(3))
    with pytest.raises(ValueError, match="match"):
        count_short_pairs(g, wrong, 1.0, 0.5, orc)


def test_count_rejects_too_loose_oracle():
    g = path_graph(4)
    hd = build_hd(g)

    class Loose:
        eps = 1.0

        def query(self, u, v):
            return 1.0

    with pytest.raises(ValueError, match="oracle eps"):
        count_short_pairs(g, hd, 1.0, 0.5, Loose())


# --- selection ---


def test_select_path4_k4():
    g = path_graph(4)
    alpha, factor = select_kth_distance(g, 4, 0.25)
    assert alpha <= 2.0 <= factor * alpha
    assert factor == pytest.approx(3.25 * 1.25)


def test_select_extremes():
    g = path_graph(5)
    dm = apsp_exact(g)
    total = 5 * 4 // 2
    for k in (1, total):
        alpha, factor = select_kth_distance(g, k, 0.5)
        true = exact_select(dm, k)
        assert alpha <= true <= factor * alpha


def test_select_all_k_bracketed():
    rng = np.random.default_rng(3)
    g = grid_graph(5, 6, rng=rng, w_hi=7)
    dm = apsp_exact(g)
    total = g.n * (g.n - 1) // 2
    hd = build_hd(g)
    orc = exact_oracle(g)
    for k in range(1, total + 1, 29):
        alpha, factor = select_kth_distance(g, k, 0.5, hd=hd, oracle=orc)
        true = exact_select(dm, k)
        assert alpha <= true <= factor * alpha, (k, alpha, true)


def test_select_k_out_of_range():
    g = path_graph(4)
    with pytest.raises(ValueError):
        select_kth_distance(g, 0, 0.5)
    with pytest.raises(ValueError):
        select_kth_distance(g, 7, 0.5)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            select_kth_distance(g, 2, bad)
