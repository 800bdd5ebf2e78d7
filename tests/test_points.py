"""High-dimensional Euclidean pipeline: hashing, nets, trees, and the two
approximate greedy permutations."""

import math
import warnings

import numpy as np
import pytest

from farfirst import points
from farfirst.graphs import Graph, is_connected
from farfirst.oracles import verify_eps_greedy, verify_net
from farfirst.points import (HashFamily, PointSet, ann_build, ann_query, ann_query_many,
                             approx_greedy_points, approx_greedy_points_bounded_spread,
                             approx_minmax_tree, approx_r_net_points,
                             gaussian_bucket_collision, parse_points, write_points)

from conftest import mst_bottleneck_matrix, point_distances

INF = float("inf")


# --- parsing ---


def test_parse_points_round_trip(tmp_path):
    pts = PointSet(np.array([[0.1, 2.0], [1 / 3, -4.5], [7.0, 0.0]]))
    p = tmp_path / "pts.txt"
    write_points(pts, p)
    back = parse_points(p)
    np.testing.assert_array_equal(back.coords, pts.coords)


def test_parse_points_text():
    pts = parse_points("2 3\n0 0 0\n1.5 2.5 3.5")
    assert pts.n == 2 and pts.d == 3
    np.testing.assert_array_equal(pts.coords[1], [1.5, 2.5, 3.5])


@pytest.mark.parametrize("text,fragment", [
    ("", "empty"),
    ("2\n0 0\n1 1", "header"),
    ("2 2\n0 0", "promises 2"),
    ("2 2\n0 0\n1 x", ":3:"),
    ("1 2\n0 0 0", ":2:"),
    ("x 2\n0 0", "<string>:1: .*'x'"),
    ("1 2.5\n0 0", "<string>:1: .*'2.5'"),
    ("0 2\n", "<string>:1: need n >= 1"),
    ("1 0\n0", "<string>:1: need n >= 1 and d >= 1"),
])
def test_parse_points_errors(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_points(text)


def test_parse_points_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read point file"):
        parse_points(tmp_path / "pts.xy")


# --- hashing ---


def test_gaussian_bucket_collision_endpoints():
    w = 4.0
    assert gaussian_bucket_collision(0.0, w) == pytest.approx(1.0)
    assert gaussian_bucket_collision(1e9, w) == pytest.approx(0.0, abs=1e-6)
    # monotone decreasing in the distance
    vals = [gaussian_bucket_collision(d, w) for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_gaussian_bucket_collision_matches_monte_carlo():
    rng = np.random.default_rng(5)
    w = 4.0
    for dist in (1.0, 3.0):
        trials = 40000
        a = rng.normal(size=trials)
        b = rng.uniform(0, w, size=trials)
        hits = np.floor(b / w) == np.floor((a * dist + b) / w)
        assert gaussian_bucket_collision(dist, w) == pytest.approx(hits.mean(), abs=0.01)


def test_hash_family_contract_fields():
    rng = np.random.default_rng(6)
    pts = PointSet(rng.random((64, 6)))
    fam = HashFamily.build(pts.d, pts.n, delta=0.5, c=2.0, rng=np.random.default_rng(7))
    assert fam.p1 > fam.p2 > 0.0
    assert fam.k >= 1
    keys = fam.hash_points(pts.coords)
    assert keys.shape == (pts.n, fam.k, fam.group)


def test_hash_family_sensitivity_statistical():
    """Planted pairs at delta collide per function at >= p1 rate and pairs
    at c*delta at <= p2 rate, within 25% slack at reduced trial count."""
    rng = np.random.default_rng(8)
    d, delta, c, n = 8, 1.0, 2.0, 64
    fam = HashFamily.build(d, n, delta=delta, c=c, rng=np.random.default_rng(9))
    trials = 2000
    x = rng.normal(size=(trials, d))
    step = rng.normal(size=(trials, d))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    near = x + delta * step
    far = x + c * delta * step
    kx, kn, kf = (fam.hash_points(v) for v in (x, near, far))
    # a concatenated function collides only when every group slot matches
    near_rate = (kx == kn).all(axis=2).mean()
    far_rate = (kx == kf).all(axis=2).mean()
    assert near_rate >= 0.75 * fam.p1
    assert far_rate <= 1.25 * fam.p2


# --- approximate r-net ---


def test_points_net_coincident_pair():
    pts = PointSet(np.array([[1.0, 1.0], [1.0, 1.0]]))
    net = approx_r_net_points(pts, 0.5, eps=0.5, seed=0)
    assert net.points == [0]


def test_points_net_spread_line_keeps_everything():
    pts = PointSet(np.array([[0.0], [10.0], [20.0]]))
    net = approx_r_net_points(pts, 1.0, eps=0.5, seed=0)
    assert sorted(net.points) == [0, 1, 2]


def test_points_net_covering_deterministic_packing_usual():
    rng = np.random.default_rng(10)
    pts = PointSet(rng.random((120, 12)))
    dm = point_distances(pts.coords)
    r, eps = 0.4, 0.5
    packing_ok = 0
    for seed in range(10):
        net = approx_r_net_points(pts, r, eps, seed=seed)
        check = verify_net(dm, net.points, r, cover_factor=1.0 + eps)
        assert check.covering_ok, check.covering_witness  # never allowed to fail
        packing_ok += check.packing_ok
    assert packing_ok >= 8


def test_points_net_guards():
    pts = PointSet(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        approx_r_net_points(pts, 0.0, 0.5, seed=0)
    with pytest.raises(ValueError):
        approx_r_net_points(pts, 1.0, 0.0, seed=0)


# --- bucket tables ---


def _dict_tables(keys):
    """Reference: one dict per table from a key row's bytes to its rows."""
    tables = []
    for j in range(keys.shape[1]):
        table = {}
        for row in range(keys.shape[0]):
            table.setdefault(keys[row, j].tobytes(), []).append(row)
        tables.append(table)
    return tables


def _reference_mates(tables, qkeys):
    return [sorted({row for j, table in enumerate(tables)
                    for row in table.get(qkeys[i, j].tobytes(), ())})
            for i in range(qkeys.shape[0])]


def _array_mates(keys, qkeys):
    found = [set() for _ in range(qkeys.shape[0])]
    tables = points._BucketTables(keys)
    for q, rows in tables.mates(*tables.probe(qkeys)):
        assert np.all(np.diff(q * keys.shape[0] + rows) > 0)  # distinct, sorted
        for i, row in zip(q.tolist(), rows.tolist()):
            found[i].add(row)
    return [sorted(f) for f in found]


def _random_keys(rng, n, m, k, group, spread):
    keys = rng.integers(-spread, spread + 1, size=(n, k, group))
    qkeys = np.concatenate([keys[rng.integers(0, n, m // 2)],
                            rng.integers(-spread, spread + 1, size=(m - m // 2, k, group))])
    return keys, qkeys


@pytest.mark.parametrize("chunk", [points._PAIR_CHUNK, 5])
def test_bucket_tables_match_dict_reference(monkeypatch, chunk):
    monkeypatch.setattr(points, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(71)
    # int16 keys in groups of 5 pack into two words
    for n, m, k, group, spread in [(40, 12, 6, 3, 1), (25, 9, 1, 1, 2), (60, 20, 9, 4, 300),
                                   (40, 12, 5, 5, 300), (30, 10, 4, 2, 40000),
                                   (20, 8, 3, 2, 2**40)]:
        keys, qkeys = _random_keys(rng, n, m, k, group, spread)
        assert _array_mates(keys, qkeys) == _reference_mates(_dict_tables(keys), qkeys)


def test_bucket_tables_fold_collisions_add_no_mates(monkeypatch):
    # every key group folds to 0, so each table is one run of equal tags and
    # only the exact key check tells bucket mates apart
    monkeypatch.setattr(points, "_FOLD", np.zeros_like(points._FOLD))
    rng = np.random.default_rng(72)
    keys, qkeys = _random_keys(rng, 50, 16, 5, 3, 1)
    expected = _reference_mates(_dict_tables(keys), qkeys)
    assert _array_mates(keys, qkeys) == expected
    assert sum(map(len, expected)) < 16 * 50 / 2  # the check did reject entries


def test_bucket_tables_query_key_outside_dtype_matches_nothing(monkeypatch):
    # one run of equal tags per table, so only the key check can reject
    monkeypatch.setattr(points, "_FOLD", np.zeros_like(points._FOLD))
    keys = np.array([[[1, 2]], [[3, 4]]])
    # 257 and 1 share their low byte, but 257 is no int8
    qkeys = np.array([[[1, 2]], [[257, 2]], [[1, 2 - 512]]])
    assert _array_mates(keys, qkeys) == [[0], [], []]


def test_bucket_tables_keep_narrow_exact_keys():
    keys = np.array([[[-128, 127]], [[3, 4]]])
    assert points._BucketTables(keys).keys.dtype == np.int8
    wide = keys * 2**33
    tables = points._BucketTables(wide)
    assert tables.keys.dtype == np.int64 and np.array_equal(tables.keys, wide)


# --- approximate nearest neighbor ---


def test_ann_single_point_index():
    pts = PointSet(np.array([[3.0, 4.0]]))
    idx = ann_build(pts, c=1.5, seed=0)
    for q in (np.zeros(2), np.array([100.0, -7.0])):
        assert ann_query(idx, q) == 0


def test_ann_self_query_hits_exactly():
    rng = np.random.default_rng(11)
    pts = PointSet(rng.random((30, 5)))
    idx = ann_build(pts, c=1.5, seed=1)
    for i in (0, 7, 29):
        j = ann_query(idx, pts.coords[i])
        assert np.linalg.norm(pts.coords[j] - pts.coords[i]) == 0.0


def test_ann_statistical_quality():
    rng = np.random.default_rng(12)
    pts = PointSet(rng.random((100, 10)))
    idx = ann_build(pts, c=1.5, seed=13)
    good = 0
    for _ in range(100):
        q = rng.random(10)
        j = ann_query(idx, q)
        found = np.linalg.norm(pts.coords[j] - q)
        exact = np.linalg.norm(pts.coords - q, axis=1).min()
        good += found <= 1.5 * exact + 1e-12
    assert good >= 95


@pytest.mark.parametrize("small_blocks", [False, True])
def test_ann_query_many_equals_one_at_a_time(monkeypatch, small_blocks):
    if small_blocks:
        monkeypatch.setattr(points, "_KEY_BLOCK", 1)
        monkeypatch.setattr(points, "_PAIR_CHUNK", 7)
    rng = np.random.default_rng(14)
    pts = PointSet(rng.random((80, 6)))
    idx = ann_build(pts, c=1.5, seed=15, ids=range(0, 80, 2))
    far = np.full(6, 50.0)  # beyond every rung's acceptance radius
    qs = np.vstack([rng.random((25, 6)), pts.coords[:5], far])
    top = idx.rungs[-1][0]
    assert np.min(np.linalg.norm(pts.coords[idx.ids] - far, axis=1)) > 2 * 1.5 / 2.5 * top
    got = ann_query_many(idx, qs)
    assert got.tolist() == [ann_query(idx, q) for q in qs]
    assert got[-1] == idx.ids[int(np.argmin(np.linalg.norm(pts.coords[idx.ids] - far, axis=1)))]


def test_ann_ladder_builds_rungs_on_demand():
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(22)
    pts = PointSet(rng.random((40, 5)))
    idx = ann_build(pts, c=1.5, seed=23)
    assert ann_query(idx, pts.coords[3] + 1e-9) == 3
    assert 0 < len(idx.rungs._built) < len(idx.rungs)
    # the eager ladder: every rung built in order from one rng stream
    eager_rng = np.random.default_rng(23)
    dists = pdist(pts.coords)
    delta, eager = float(dists.min()), []
    while True:
        eager.append((delta, HashFamily.build(pts.d, pts.n, delta, 1.5, eager_rng)))
        if delta >= dists.max():
            break
        delta *= 1.25
    for index in (idx, ann_build(pts, c=1.5, seed=23)):
        top = index.rungs[-1]  # built first on the fresh index
        rungs = list(index.rungs)
        assert rungs[-1] is top
        assert [r[0] for r in rungs] == [e[0] for e in eager]
        for (_, fam, _), (_, ref) in zip(rungs, eager):
            assert np.array_equal(fam.a, ref.a) and np.array_equal(fam.b, ref.b)


def test_ann_query_many_ties_go_to_smallest_id():
    rng = np.random.default_rng(24)
    coords = rng.random((12, 4))
    coords[[2, 5, 9]] = coords[7]  # four copies of one point
    idx = ann_build(coords, c=1.5, seed=25, ids=range(11, -1, -1))
    qs = np.vstack([coords[7], coords[7] + 1e-6, coords[0]])
    assert ann_query_many(idx, qs).tolist() == [2, 2, 0]


@pytest.mark.parametrize("ids", [[1, 0], [0, 1]])
@pytest.mark.parametrize("seed", range(5))
def test_ann_scan_ties_go_to_smallest_id(ids, seed):
    """A query far from both points exhausts the ladder; the scan then
    breaks the tie toward the smaller id, whatever the order of ids."""
    idx = ann_build(np.array([[-1.0, 0.0], [1.0, 0.0]]), c=1.5, seed=seed, ids=ids)
    assert ann_query(idx, np.array([0.0, 100.0])) == 0


def _watch_ann(monkeypatch):
    """Wrap the probe expansion and the scan: every query that mates expands
    must have fewer raw bucket entries than the index has points.  Returns
    the lists of expanded probe sizes and of scanned query rows."""
    expanded, scanned = [], []
    mates, nearest = points._BucketTables.mates, points._nearest

    def checked_mates(self, lo, cnt, qpacked):
        size = cnt.sum(axis=1)
        assert np.all(size < self.keys.shape[0])
        expanded.extend(size[size > 0].tolist())
        return mates(self, lo, cnt, qpacked)

    def recorded_nearest(coords, ids, qs):
        scanned.extend(map(bytes, qs))
        return nearest(coords, ids, qs)

    monkeypatch.setattr(points._BucketTables, "mates", checked_mates)
    monkeypatch.setattr(points, "_nearest", recorded_nearest)
    return expanded, scanned


@pytest.mark.parametrize("small_blocks", [False, True])
@pytest.mark.parametrize("shuffle", [False, True])
def test_ann_scanned_answers_are_the_least_distance_then_id(monkeypatch, small_blocks, shuffle):
    """On 120 points in 20 dimensions most probes would examine the whole
    class, so those queries are scanned; their answers are the brute-force
    least (distance, id), ties from duplicate points included, whether the
    scan runs in one block or one query at a time."""
    if small_blocks:
        monkeypatch.setattr(points, "_KEY_BLOCK", 1)
        monkeypatch.setattr(points, "_PAIR_CHUNK", 7)
    _, scanned = _watch_ann(monkeypatch)
    rng = np.random.default_rng(33)
    coords = rng.random((120, 20))
    coords[[5, 40, 77]] = coords[[90, 12, 3]]  # three exact ties
    ids = rng.permutation(120) if shuffle else np.arange(120)
    idx = ann_build(coords, c=1.5, seed=34, ids=ids)
    qs = np.vstack([rng.random((60, 20)), coords[[90, 12, 3]] + 1e-9, np.full((1, 20), 40.0)])
    got = ann_query_many(idx, qs)
    scanned = set(scanned)
    assert len(scanned) >= 50
    for q, answer in zip(qs, got.tolist()):
        if bytes(q) in scanned:
            assert answer == min((float(np.linalg.norm(coords[i] - q)), i) for i in ids)[1]
    assert got[60:63].tolist() == [5, 12, 3]


def test_ann_probe_path_still_answers_within_c(monkeypatch):
    """In 3 dimensions buckets are small, so queries are answered by their
    probes, not scanned, and every answer keeps the c bound."""
    expanded, scanned = _watch_ann(monkeypatch)
    rng = np.random.default_rng(31)
    coords, qs = rng.random((300, 3)), rng.random((100, 3))
    got = ann_query_many(ann_build(coords, c=1.5, seed=32), qs)
    assert len(expanded) >= 100 and not scanned
    exact = np.array([np.linalg.norm(coords - q, axis=1).min() for q in qs])
    assert np.all(np.linalg.norm(coords[got] - qs, axis=1) <= 1.5 * exact)


def test_ann_requires_c_above_one():
    pts = PointSet(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        ann_build(pts, c=1.0, seed=0)


# --- min-max spanning tree ---


def test_minmax_two_points():
    pts = PointSet(np.array([[0.0], [5.0]]))
    tree = approx_minmax_tree(pts, 0.5, seed=0)
    assert len(tree.edges) == 1
    u, v, w = tree.edges[0]
    assert {u, v} == {0, 1} and w == 5.0


def test_minmax_three_collinear():
    pts = PointSet(np.array([[0.0], [1.0], [10.0]]))
    eps = 0.5
    tree = approx_minmax_tree(pts, eps, seed=0)
    assert len(tree.edges) == 2
    assert tree.bottleneck(0, 2) <= (1.0 + eps) * 9.0
    assert tree.bottleneck(0, 1) <= (1.0 + eps) * 1.0


def test_minmax_is_spanning_tree():
    rng = np.random.default_rng(14)
    pts = PointSet(rng.random((50, 6)))
    tree = approx_minmax_tree(pts, 0.5, seed=15)
    assert len(tree.edges) == 49
    parent = list(range(50))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in tree.edges:
        ru, rv = find(u), find(v)
        assert ru != rv  # acyclic
        parent[ru] = rv


def test_minmax_tree_is_a_graph():
    """The tree is a Graph over the point ids, so graph code reads it, and
    its adjacency lists follow the edge order."""
    pts = PointSet(np.random.default_rng(14).random((30, 4)))
    tree = approx_minmax_tree(pts, 0.5, seed=15)
    assert isinstance(tree, Graph) and tree.n == 30 and tree.m == 29
    assert is_connected(tree)
    adj = [[] for _ in range(30)]
    for u, v, w in tree.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    assert tree.adjacency() == adj


def test_minmax_all_pairs_bottleneck_bound():
    rng = np.random.default_rng(16)
    pts = PointSet(rng.random((60, 8)))
    eps = 0.5
    tree = approx_minmax_tree(pts, eps, seed=17)
    exact = mst_bottleneck_matrix(point_distances(pts.coords))
    for u in range(0, 60, 7):
        for v in range(u + 1, 60, 5):
            assert tree.bottleneck(u, v) <= (1.0 + eps) * exact[u, v] + 1e-12


def _boruvka_pair_by_pair(coords):
    """Boruvka over exact distances, one pair at a time: in each stage, each
    component keeps its least (length, lower id, higher id) outgoing edge in
    a dict, and the stage joins the kept edges in sorted order."""
    n = len(coords)
    label = list(range(n))
    edges = []
    while len(set(label)) > 1:
        best = {}
        for p in range(n):
            for q in range(n):
                if label[p] != label[q]:
                    cand = (float(np.linalg.norm(coords[p] - coords[q])), min(p, q), max(p, q))
                    if label[p] not in best or cand < best[label[p]]:
                        best[label[p]] = cand
        for d, u, v in sorted(best.values()):
            if label[u] != label[v]:
                old = label[v]
                label = [label[u] if x == old else x for x in label]
                edges.append((u, v, d))
    return edges


@pytest.mark.parametrize("seed", range(8))
def test_minmax_tree_stage_keeps_the_least_edge_and_joins_in_order(monkeypatch, seed):
    """With an exact nearest neighbour that breaks ties toward the smallest
    id, the tree is exactly the pair-by-pair Boruvka's, edge order included.
    Lattice points tie on many lengths, and one edge is found from both of
    its sides, so the tie rule (length, lower id, higher id) decides."""
    calls = []

    def exact(index, qs):
        calls.append(len(qs))
        return np.array([min((float(np.linalg.norm(index.coords[i] - q)), i) for i in index.ids)[1]
                         for q in qs])

    monkeypatch.setattr(points, "ann_query_many", exact)
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    lattice = np.stack(np.meshgrid(*[np.arange(3.0)] * d), axis=-1).reshape(-1, d)
    coords = rng.permutation(lattice)[:rng.integers(6, len(lattice) + 1)]
    tree = approx_minmax_tree(PointSet(coords), 0.5, seed=seed)
    assert calls
    assert tree.edges == _boruvka_pair_by_pair(coords)


def test_minmax_guards():
    with pytest.raises(ValueError):
        approx_minmax_tree(PointSet(np.zeros((1, 2))), 0.5, seed=0)
    dup = PointSet(np.array([[1.0, 2.0], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="duplicate"):
        approx_minmax_tree(dup, 0.5, seed=0)


# --- greedy permutations ---


def test_points_greedy_two_points_exact_radius():
    pts = PointSet(np.array([[0.0, 0.0], [3.0, 0.0]]))
    perm = approx_greedy_points_bounded_spread(pts, 0.5, seed=0)
    assert sorted(perm.order) == [0, 1]
    assert perm.radii == [INF, 3.0]


def test_points_greedy_equilateral_triangle():
    pts = PointSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]))
    dm = point_distances(pts.coords)
    for seed in range(5):
        perm = approx_greedy_points_bounded_spread(pts, 0.5, seed=seed)
        assert verify_eps_greedy(dm, perm, 0.5).ok


def test_points_greedy_bounded_statistical():
    rng = np.random.default_rng(18)
    pts = PointSet(rng.random((50, 10)))
    dm = point_distances(pts.coords)
    passes = sum(verify_eps_greedy(
        dm, approx_greedy_points_bounded_spread(pts, 1.0, seed=s), 1.0).ok
        for s in range(20))
    assert passes >= 18


def test_points_greedy_spread_free_cross_check():
    rng = np.random.default_rng(19)
    pts = PointSet(rng.random((40, 6)))
    dm = point_distances(pts.coords)
    for seed in (0, 1, 2):
        a = approx_greedy_points_bounded_spread(pts, 1.0, seed=seed)
        b = approx_greedy_points(pts, 1.0, seed=seed)
        assert verify_eps_greedy(dm, a, 1.0).ok
        assert verify_eps_greedy(dm, b, 1.0).ok
        assert sorted(b.order) == list(range(40))


def test_points_greedy_spread_free_single_point_counts_no_levels():
    perm = approx_greedy_points(PointSet(np.array([[2.5, -1.0]])), 0.5, seed=1)
    assert (perm.order, perm.radii) == ([0], [math.inf])
    assert (perm.levels_run, perm.level_jumps) == (0, 0)


def test_points_greedy_spread_free_extreme_line():
    pts = PointSet(np.array([[0.0], [1.0], [1e12]]))
    perm = approx_greedy_points(pts, 0.5, seed=3)
    dm = point_distances(pts.coords)
    assert verify_eps_greedy(dm, perm, 0.5).ok
    # the run must jump over the dead band between 1e12 and 1 scales
    # instead of walking every level
    assert perm.level_jumps >= 1
    assert perm.levels_run < 200


def test_points_greedy_spread_free_two_points():
    pts = PointSet(np.array([[2.0], [7.0]]))
    perm = approx_greedy_points(pts, 1.0, seed=0)
    assert sorted(perm.order) == [0, 1]
    assert perm.radii[0] == INF


def test_points_greedy_rejects_duplicates():
    dup = PointSet(np.array([[0.0, 1.0], [0.0, 1.0], [2.0, 2.0]]))
    with pytest.raises(ValueError, match="duplicate"):
        approx_greedy_points_bounded_spread(dup, 0.5, seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        approx_greedy_points(dup, 0.5, seed=0)


@pytest.mark.parametrize("eps", [0.5, 1e-3])
def test_points_greedy_rejects_points_at_computed_distance_zero(eps):
    """Distinct points whose difference's norm underflows to 0.0 are
    duplicates to every distance the greedy computes (with a third point,
    and alone, where the diameter bound itself is 0).  No step on the way
    warns: an ANN class of such twins builds no rung."""
    for coords in ([[0.0], [1e-200], [1.0]], [[0.0], [1e-200]]):
        pts = PointSet(np.array(coords))
        assert np.linalg.norm(pts.coords[1:2] - pts.coords[0], axis=1)[0] == 0.0
        for greedy in (approx_greedy_points_bounded_spread, approx_greedy_points):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="duplicate points"):
                    greedy(pts, eps, seed=0)


def test_ann_on_points_at_computed_distance_zero_scans_linearly():
    twins = np.array([[0.0], [1e-200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = ann_build(twins, 1.5, seed=0)
        assert len(index.rungs) == 0
        got = ann_query_many(index, np.array([[1e-200], [5.0], [-3.0]]))
    # every query is equally far from both twins: the smaller id answers
    assert got.tolist() == [0, 0, 0]


@pytest.mark.parametrize("greedy", [approx_greedy_points_bounded_spread, approx_greedy_points,
                                    approx_minmax_tree, approx_r_net_points],
                         ids=lambda f: f.__name__)
def test_points_greedy_rejects_overflowing_distances(greedy):
    """The greedies, and the tree and net they build on, reject points whose
    distances overflow float64, without a RuntimeWarning."""
    args = (1e199, 0.5) if greedy is approx_r_net_points else (0.5,)
    for coords in ([[0.0], [1e200]], [[0.0], [1e200], [3e200]]):
        pts = PointSet(np.array(coords))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="point distances overflow float64"):
                greedy(pts, *args, seed=0)


@pytest.mark.parametrize("fn, eps", [
    (approx_greedy_points, 1e-17),
    (approx_greedy_points, 8e-16),  # 1 + eps > 1, but 1 + eps/8 rounds to 1
    (approx_greedy_points_bounded_spread, 1e-17),
    (approx_greedy_points_bounded_spread, 3e-16),  # sqrt(1 + eps) rounds to 1
    (approx_minmax_tree, 1e-17),
    (approx_r_net_points, 1e-17),
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_points_reject_an_eps_whose_level_ratio_rounds_to_one(fn, eps):
    pts = PointSet(np.array([[0.0], [1.0], [3.0]]))
    args = (1.0, eps) if fn is approx_r_net_points else (eps,)
    with pytest.raises(ValueError, match=f"eps {eps!r} is too small"):
        fn(pts, *args, seed=0)


# eight points on a line whose distances span 1 to 5e6
WIDE_LINE = "8 1\n0\n1\n2.5\n7\n1e6\n2000003\n3000011\n5000001\n"


def test_ann_ladder_over_the_level_cap_is_rejected_before_it_is_built():
    """At eps 1e-15 the ladder ratio (1 + c) / 2 = 1 + eps/2 needs about 3e16
    rungs to span these points; ann_build counts them first and raises."""
    pts = parse_points(WIDE_LINE)
    with pytest.raises(ValueError, match=r"^c 1\.0+1 is too close to 1: the ANN ladder "
                                         r"from .* needs about .* rungs, over 1000000$"):
        approx_minmax_tree(pts, 1e-15, seed=0)
    with pytest.raises(ValueError, match="too close to 1"):
        ann_build(pts, 1.0 + 1e-15, seed=0)
    with pytest.raises(ValueError, match="too close to 1"):
        ann_build(pts, 1.0 + 2.0**-52, seed=0)  # (1 + c) / 2 rounds to 1
    assert len(ann_build(pts, 1.0 + 1e-4, seed=0).rungs) > 100_000  # under the cap


def test_bounded_points_greedy_passes_empty_levels_within_the_level_budget():
    """At eps 1e-15 the bounded greedy's ratio is 1 + 4.4e-16: it would walk
    about 3e16 levels from 2e6 down to 1, none with a candidate.  It passes
    them in a scalar loop that stops at MAX_LEVELS and raises."""
    pts = PointSet(np.array([[0.0], [1.0], [1e6]]))
    with pytest.raises(ValueError, match=r"^eps 1e-15 is too small: its levels from "
                                         r"2000000\.0 down pass 1000000 before"):
        approx_greedy_points_bounded_spread(pts, 1e-15, seed=1)


def test_bounded_points_greedy_budget_counts_every_level(monkeypatch):
    """Passed levels count as well as run ones: on the line 0, 1, 1e6 the
    ratio sqrt(1.5) takes 74 levels from 2e6 down below 1/c, and only three
    of them have a candidate."""
    pts = PointSet(np.array([[0.0], [1.0], [1e6]]))
    c = math.sqrt(1.5)
    free = approx_greedy_points_bounded_spread(pts, 0.5, seed=1)
    # the last level is the first below 1/c: below it, 0 and 1 are not marked
    levels = 1 + math.ceil(math.log(2e6 * c) / math.log(c))
    monkeypatch.setattr(points, "MAX_LEVELS", levels)
    perm = approx_greedy_points_bounded_spread(pts, 0.5, seed=1)
    assert (perm.order, perm.radii) == (free.order, free.radii)
    monkeypatch.setattr(points, "MAX_LEVELS", levels - 1)
    with pytest.raises(ValueError, match="eps 0.5 is too small"):
        approx_greedy_points_bounded_spread(pts, 0.5, seed=1)


@pytest.mark.parametrize("coords, eps", [([[0.0], [1.0], [1e12]], 0.5),
                                         (np.random.default_rng(1).random((12, 2)), 0.02)],
                         ids=["jumps", "no_jumps"])
def test_spread_free_points_greedy_budget_counts_run_levels_and_jumps(monkeypatch, coords, eps):
    """The spread-free greedy visits levels_run + level_jumps + 1 levels
    (the last one selects the last point).  That many fit MAX_LEVELS; one
    fewer raises a ValueError naming eps, which the CLI reports as exit 2."""
    pts = PointSet(np.array(coords))
    free = approx_greedy_points(pts, eps, seed=1)
    visited = free.levels_run + free.level_jumps + 1
    monkeypatch.setattr(points, "MAX_LEVELS", visited)
    perm = approx_greedy_points(pts, eps, seed=1)
    assert (perm.order, perm.radii, perm.levels_run, perm.level_jumps) == (
        free.order, free.radii, free.levels_run, free.level_jumps)
    monkeypatch.setattr(points, "MAX_LEVELS", visited - 1)
    with pytest.raises(ValueError, match=f"^eps {eps!r} is too small: "):
        approx_greedy_points(pts, eps, seed=1)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_bounded_greedy_mask_equals_marking_by_each_selection(scale):
    """The bounded variant marks a level's candidates with to_sel <= c*r.
    That is the mask the sweep built by marking around every prior
    selection one at a time, bit for bit: both take their row lengths from
    points._norms."""
    rng = np.random.default_rng(23)
    coords = rng.uniform(size=(400, 20)) * scale
    selected = rng.choice(400, size=60, replace=False)
    to_sel = np.full(400, INF)
    for v in selected:
        to_sel = np.minimum(to_sel, points._norms(coords - coords[v]))
    cand = np.setdiff1d(np.arange(400), selected)
    sub = coords[cand]
    c = math.sqrt(1.5)
    # thresholds at quantiles of to_sel, so some land on a distance exactly
    for r in np.quantile(to_sel[cand], [0.0, 0.1, 0.5, 0.9, 1.0], method="lower") / c:
        ref = np.zeros(cand.size, dtype=bool)
        for m in selected:
            ref |= points._norms(sub - coords[m]) <= c * r
        np.testing.assert_array_equal(to_sel[cand] <= c * r, ref)
        assert 0 < ref.sum() <= cand.size


def test_points_greedy_guards():
    pts = PointSet(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        approx_greedy_points_bounded_spread(pts, 0.0, seed=0)
    with pytest.raises(ValueError):
        approx_greedy_points(pts, -0.5, seed=0)
