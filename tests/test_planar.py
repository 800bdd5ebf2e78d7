"""Hierarchical decomposition, bicriteria pair counting, and k-th distance
selection for declared-planar inputs."""

import math
import tracemalloc

import numpy as np
import pytest

from farfirst.generators import (delaunay_graph, grid_graph, random_series_parallel,
                                 random_tree)
from farfirst.graphs import make_graph
from farfirst.oracles import apsp_exact, exact_count, exact_select
from farfirst.planar import (DistanceOracle, HDNode, HierarchicalDecomposition, _patches,
                             build_hd, count_short_pairs, exact_oracle, select_kth_distance)

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


def test_hd_counts_distinct_pairs_so_parallel_edges_pass():
    # a triangle with one doubled edge: 4 edges, but 3 = 3n-6 distinct pairs
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (1, 0, 2.0)])
    hd = build_hd(g)
    _check_hd(g, hd)
    assert count_short_pairs(g, hd, 1.0, 0.5, exact_oracle(g)) == 3
    # K6 with every edge doubled is still 15 distinct pairs > 12
    k6 = complete_graph(6)
    with pytest.raises(ValueError, match="declared-planar violation: 15 distinct edges"):
        build_hd(make_graph(6, k6.edges + [(v, u, w) for u, v, w in k6.edges]))


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


def test_exact_oracle_pairs_match_apsp_and_default_pairs():
    rng = np.random.default_rng(6)
    g = delaunay_graph(40, rng)
    dm = apsp_exact(g)
    orc = exact_oracle(g)
    us, vs = np.array([5, 0, 5, 17, 39]), np.array([3, 3, 39, 0, 5])
    assert np.array_equal(orc.pairs(us, vs), dm[us, vs])
    assert orc.pairs([], []).shape == (0,)
    # cached and new sources mixed, one new source twice
    us, vs = np.array([2, 17, 2, 30, 5]), np.array([12, 0, 39, 2, 3])
    assert np.array_equal(orc.pairs(us, vs), dm[us, vs])

    class ByQuery(DistanceOracle):
        def query(self, u, v):
            return float(dm[u, v])

    assert np.array_equal(ByQuery().pairs(us, vs), dm[us, vs])
    assert ByQuery().pairs([], []).dtype == np.float64


# --- counting ---


def _count_per_pair(g, hd, r, eps, oracle):
    """Reference count: one oracle query and one searchsorted per
    (side-1 owner, side-2 owner) pair of every patch."""
    scale = 1.0 + oracle.eps
    alpha = 0
    for p in _patches(g, hd):
        for (side1, a), g1 in p.groups.items():
            for (side2, b), g2 in p.groups.items():
                if (side1, side2) != (1, 2):
                    continue
                cap = 3.0 * r - oracle.query(a, b) / scale
                if cap < 0.0:
                    continue
                alpha += int(np.searchsorted(g2, cap - g1, side="right").sum())
    return alpha


def _queries(oracle, us, vs):
    """The len(us) x len(vs) matrix of oracle queries, one at a time."""
    return np.array([[oracle.query(u, v) for v in vs] for u in us], dtype=np.float64)


def _owner_thresholds(g, hd, r, oracle):
    """(side-2 group, threshold of every side-1 vertex) per patch and side-2
    owner, computed as the per-patch loop of count_short_pairs did before its
    flat layout: one cap = 3r - query / (1 + eps_o) per (side-1 owner,
    side-2 owner) pair of a patch, and the thresholds cap[own, j] - x1."""
    scale = 1.0 + oracle.eps
    for p in _patches(g, hd):
        x1 = np.concatenate([p.groups[(1, b)] for b in p.b1])
        own = np.repeat(np.arange(len(p.b1)), [len(p.groups[(1, b)]) for b in p.b1])
        cap = 3.0 * r - _queries(oracle, p.b1, p.b2) / scale
        for j, b in enumerate(p.b2):
            yield p.groups[(2, b)], cap[own, j] - x1


def _count_per_patch(g, hd, r, oracle):
    """Reference count: the per-patch loop, one searchsorted per side-2 owner."""
    return sum(int(np.searchsorted(y, thr, side="right").sum())
               for y, thr in _owner_thresholds(g, hd, r, oracle))


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


def _with_weights(g, weight):
    return make_graph(g.n, [(u, v, weight(w)) for u, v, w in g.edges])


class _StretchedByQuery(DistanceOracle):
    """Query-only oracle with eps > 0: every answer is within 1 + eps of the
    exact distance, so counts go through the default pairs lookup and a
    scale other than 1."""

    eps = 0.1

    def __init__(self, g):
        self.dm = apsp_exact(g)

    def query(self, u, v):
        return float(self.dm[u, v]) * (1.0 + self.eps * ((u + 2 * v) % 5) / 4.0)


def _equivalence_instances():
    rng = np.random.default_rng(12)
    zero_some = lambda w: w if rng.random() < 0.6 else 0.0  # noqa: E731
    return [("delaunay60", delaunay_graph(60, rng)),
            ("delaunay150", delaunay_graph(150, rng)),
            ("real_grid", _with_weights(grid_graph(7, 9), lambda w: float(rng.uniform(0.1, 3.0)))),
            ("zero_tree", _with_weights(random_tree(50, rng)[0], zero_some)),
            ("zero_sp", _with_weights(random_series_parallel(50, rng)[0], zero_some))]


EQUIVALENCE = _equivalence_instances()


@pytest.mark.parametrize("name, g", EQUIVALENCE, ids=[name for name, _ in EQUIVALENCE])
def test_count_equals_the_per_patch_loop(name, g):
    hd = build_hd(g)
    top = apsp_exact(g).max()
    integer = all(w == int(w) for _, _, w in g.edges)
    # on integer weights, whole radii put caps exactly on side-2 distances
    radii = [round(frac * top) if integer else frac * top
             for frac in (0.001, 0.01, 0.05, 0.13, 0.3, 0.7, 1.5)]
    radii = [r for r in radii if r > 0]
    ties = 0
    for oracle, eps in ((exact_oracle(g), 0.1), (exact_oracle(g), 1.0),
                        (_StretchedByQuery(g), 0.5)):
        for r in radii:
            assert count_short_pairs(g, hd, r, eps, oracle) == \
                _count_per_patch(g, hd, r, oracle), (name, r, eps)
            ties += sum(int(np.isin(thr, y).sum())
                        for y, thr in _owner_thresholds(g, hd, r, oracle))
    if integer:
        assert ties > 0  # the side="right" tie is exercised


def test_count_is_zero_when_every_cap_is_negative():
    g = delaunay_graph(80, np.random.default_rng(13))
    hd = build_hd(g)
    r = g.min_weight() / 10.0  # 3r is below every distance between two vertices
    for oracle, eps in ((exact_oracle(g), 0.5), (_StretchedByQuery(g), 0.5)):
        scale = 1.0 + oracle.eps
        for p in _patches(g, hd):
            assert (3.0 * r - _queries(oracle, p.b1, p.b2) / scale < 0.0).all()
        assert count_short_pairs(g, hd, r, eps, oracle) == _count_per_patch(g, hd, r, oracle) == 0


def test_count_without_a_two_sided_patch_is_zero():
    one = make_graph(1, [])
    assert count_short_pairs(one, build_hd(one), 1.0, 0.5, exact_oracle(one)) == 0
    # a hand-made decomposition whose children record no boundary: no patch
    # has a group on either side, so the tables are empty
    g = path_graph(3)
    hd = HierarchicalDecomposition(nodes=[
        HDNode(patch=[0, 1, 2], boundary=[], children=(1, 2)),
        HDNode(patch=[0], boundary=[], children=None),
        HDNode(patch=[1, 2], boundary=[], children=(3, 4)),
        HDNode(patch=[1], boundary=[], children=None),
        HDNode(patch=[2], boundary=[], children=None)])
    assert _patches(g, hd) == []
    for oracle in (exact_oracle(g), _StretchedByQuery(g)):
        assert count_short_pairs(g, hd, 5.0, 0.5, oracle) == 0


def test_count_rejects_an_oracle_that_returns_nan():
    g = delaunay_graph(40, np.random.default_rng(3))
    dm = apsp_exact(g)

    class NanSome(DistanceOracle):
        def query(self, u, v):
            return math.nan if (u + v) % 7 == 0 else float(dm[u, v])

    with pytest.raises(ValueError, match="returned NaN"):
        count_short_pairs(g, build_hd(g), 100.0, 0.5, NanSome())


def test_count_memory_is_bounded_by_the_chunk_not_the_queries():
    g = delaunay_graph(1000, np.random.default_rng(1507))
    hd = build_hd(g)
    oracle = exact_oracle(g)
    count_short_pairs(g, hd, 200.0, 0.5, oracle)  # builds the tables and the oracle rows
    tables = hd._pair_cache
    queries = int(tables.qend[-1])
    assert queries > 150_000
    tracemalloc.start()
    try:
        count_short_pairs(g, hd, 200.0, 0.5, oracle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunked count peaks near 1.2 MiB here, most of it the cells' caps; one
    # complex128 array of every query alone is 2.7 MiB, and a count that
    # expands all queries at once peaks near 9 MiB
    assert peak < 3 * 2**20, peak
    # the cached tables are the size of the cells or of the patches, not of
    # the queries
    cells = tables.cell_u.size
    patch_total = sum(len(nd.patch) for nd in hd.nodes)
    sizes = [a.size for a in vars(tables).values() if isinstance(a, np.ndarray)]
    assert sizes and all(size == cells or size <= patch_total for size in sizes)
    assert max(cells, patch_total) < queries / 2


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


def test_select_kth_distance_zero():
    # 0-1 at weight 0, 1-2 at weight 5: distances 0, 5, 5
    g = make_graph(3, [(0, 1, 0.0), (1, 2, 5.0)])
    assert select_kth_distance(g, 1, 0.5) == (0.0, 3.5 * 1.5)
    alpha, factor = select_kth_distance(g, 2, 0.5)
    assert 0.0 < alpha <= 5.0 <= factor * alpha
    # every weight 0: every distance is 0, and no positive weight is needed
    zeros = make_graph(4, [(0, 1, 0.0), (1, 2, 0.0), (2, 3, 0.0), (3, 0, 0.0)])
    for k in range(1, 7):
        assert select_kth_distance(zeros, k, 0.5) == (0.0, 3.5 * 1.5)
    # the zero answer still needs a connected graph
    with pytest.raises(ValueError, match="connected"):
        select_kth_distance(make_graph(4, [(0, 1, 0.0), (2, 3, 0.0)]), 1, 0.5)


def test_select_all_k_bracketed_with_zero_weight_classes():
    rng = np.random.default_rng(27)
    for g in (random_tree(25, rng)[0], random_series_parallel(25, rng)[0]):
        g = make_graph(g.n, [(u, v, w if rng.random() < 0.5 else 0.0) for u, v, w in g.edges])
        dm = apsp_exact(g)
        hd, orc = build_hd(g), exact_oracle(g)
        for k in range(1, g.n * (g.n - 1) // 2 + 1, 7):
            alpha, factor = select_kth_distance(g, k, 0.5, hd=hd, oracle=orc)
            true = exact_select(dm, k)
            assert alpha <= true <= factor * alpha, (k, alpha, true)
            assert (alpha == 0.0) == (true == 0.0)


def test_select_rejects_an_eps_whose_level_ratio_rounds_to_one():
    with pytest.raises(ValueError, match="eps 1e-17 is too small"):
        select_kth_distance(path_graph(4), 2, 1e-17)


def test_select_k_out_of_range():
    g = path_graph(4)
    with pytest.raises(ValueError):
        select_kth_distance(g, 0, 0.5)
    with pytest.raises(ValueError):
        select_kth_distance(g, 7, 0.5)
    for bad in (math.nan, math.inf, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            select_kth_distance(g, 2, bad)
