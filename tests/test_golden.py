"""Byte-identity pins for the graph greedy variants and the specialised
lanes.

Each greedy digest is the sha256 of the (order, radii, active_level_counts)
that approx_greedy or approx_greedy_bounded_spread returns on one fixed,
seeded instance, over three eps values.  The digests were recorded from the
straightforward per-level implementation (a full contraction and a fresh
truncated search at every level), so a refactor of either level loop that
changes any output byte fails here.  The approx/n1 digest was re-recorded
when a one-vertex graph gained its (empty) active_level_counts.

The planar digests pin count_short_pairs at several radii and
select_kth_distance at several k; the treewidth digests pin the order and
radii of exact_greedy_treewidth.  They were recorded from the per-pair
counting loop over heapq oracle rows and from the per-subgraph L-inf index
search, all on integer weights.

The points digests pin the Euclidean lane: approx_greedy_points (order,
radii, levels_run, level_jumps), approx_greedy_points_bounded_spread (order,
radii), approx_r_net_points (points, selection deltas) at two radii and the
approx_minmax_tree edges, on three seeded point sets over three eps values.
They were recorded from the dict-of-bytes bucket tables and the one query at
a time min-max tree.

The net digests pin the graph r_net (points, selection deltas, update count
and the cover field's bytes) at three radii over a seeded order, each on a
fresh field and as one chain of net sweeps sharing a carried field (the
bounded greedy's level loop, with the covered vertices as its used set), on
every graph instance; the k-center digests pin k_center_integer's centers
and radius on the integer-weight instances at several k.  They were recorded from the
per-element numpy field and the separate truncated relaxation of the
spread-free greedy.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only for a
change meant to alter outputs, and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from farfirst.generators import (delaunay_graph, grid_graph, random_ktree,
                                 random_series_parallel, random_tree)
from farfirst.graphs import approx_diameter, make_graph
from farfirst import greedy
from farfirst.greedy import (approx_greedy, approx_greedy_bounded_spread, k_center_integer,
                             r_net)
from farfirst.planar import build_hd, count_short_pairs, exact_oracle, select_kth_distance
from farfirst.points import (PointSet, approx_greedy_points,
                             approx_greedy_points_bounded_spread, approx_minmax_tree,
                             approx_r_net_points)
from farfirst.treewidth import exact_greedy_treewidth, parse_tree_decomposition

EPS = (0.1, 0.5, 1.0)


def _random_graph(seed: int, n: int, weights) -> object:
    """Random spanning tree plus about n extra edges; weights(rng, k) draws k."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    pairs = [(int(perm[i]), int(perm[rng.integers(0, i)])) for i in range(1, n)]
    for _ in range(n):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u != v:
            pairs.append((u, v))
    ws = weights(rng, len(pairs))
    return make_graph(n, [(u, v, float(w)) for (u, v), w in zip(pairs, ws)])


def _zero_weights():
    def draw(rng, k):
        ws = rng.integers(0, 4, k).astype(float)
        ws[0] = 1.0  # at least one positive weight
        return ws
    return _random_graph(11, 60, draw)


def _parallel_edges():
    g = _random_graph(12, 50, lambda rng, k: rng.integers(1, 20, k))
    rng = np.random.default_rng(13)
    extra = [(v, u, w * float(rng.uniform(0.5, 2.0)))
             for u, v, w in (g.edges[int(i)] for i in rng.integers(0, g.m, 15))]
    return make_graph(g.n, g.edges + extra)


def _wide_spread():
    return _random_graph(14, 80, lambda rng, k: 10.0 ** rng.uniform(0.0, 200.0, k))


def _unit_grid():
    side = 12
    edges = [(r * side + c, r * side + c + 1, 1.0) for r in range(side) for c in range(side - 1)]
    edges += [(r * side + c, (r + 1) * side + c, 1.0) for r in range(side - 1) for c in range(side)]
    return make_graph(side * side, edges)


INSTANCES = {
    "zero_weights": _zero_weights,
    "parallel_edges": _parallel_edges,
    "wide_spread": _wide_spread,
    "unit_grid": _unit_grid,
    "n1": lambda: make_graph(1, []),
    "n2": lambda: make_graph(2, [(0, 1, 2.5)]),
}
VARIANTS = {"approx": approx_greedy, "bounded": approx_greedy_bounded_spread}

GOLDEN = {
    "approx/zero_weights": "28a4339818dc0c0936e897e52381fa5691169d088c47a0afcc2a9246fb4e3b5e",
    "approx/parallel_edges": "f692843607be4d5589d438d352beccc6cde4695ba214dcfcab013699274a21ae",
    "approx/wide_spread": "285cea1501b827d6bf73ad9e5f646d17b8f7af833db31f8b1767065352c8e0cf",
    "approx/unit_grid": "de731177503ababaeae088660e5b73e0695a35f9e83f206d4130ec60ab4226dc",
    "approx/n1": "39fc83f80160f68edad71b44829d3381aac4cdc46d117bf489bd3b52ac898bb0",
    "approx/n2": "444770c73020d8b032047e3acc014e5b4f067af7f6d95bf4e69ab4a0042d575c",
    "bounded/zero_weights": "85eb51391b67325a68cc1a8a031c892f3f1f9a602d7cc1c415fc92f5c3f6612d",
    "bounded/parallel_edges": "c01872a8c21c1e69999c59e2fcf50707f61465949ba2594d4503cc3a4fcfa154",
    "bounded/wide_spread": "5e3a3892b49de3eb96c048a852acdff575e53f0ac89e931a3ccef8252b73de51",
    "bounded/unit_grid": "7bb28d1540733200c0c94c554ea29cd6a304b6d3f597ca3437c8eaa9ebe0de0b",
    "bounded/n1": "cf9d1922f9e958f794695be68d5bba6891b58f15919d1eb6c61b6800a22fcb0c",
    "bounded/n2": "5443328d9d6168c51c907fd3c3c6a6d88a18e59bd75cbdb5454b7ab49dfa4a7e",
}


def _sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def digest(variant: str, instance: str) -> str:
    g = INSTANCES[instance]()
    runs = []
    for k, eps in enumerate(EPS):
        perm = VARIANTS[variant](g, eps, seed=100 + k)
        counts = getattr(perm, "active_level_counts", None)
        runs.append({"order": [int(v) for v in perm.order],
                     "radii": [float(r).hex() for r in perm.radii],
                     "counts": None if counts is None else [int(c) for c in counts]})
    return _sha(runs)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_outputs(key):
    variant, instance = key.split("/")
    assert digest(variant, instance) == GOLDEN[key]


# --- graph r-nets and k-center ---

NET_GOLDEN = {
    "zero_weights": "bdd55cff0f5203929288fe2468004eb5e24ee8e55dbdc13ee3a8a73d67a997fc",
    "parallel_edges": "5c855b74a8728dde3d34c80667762f936d984db9112f8bdd6c010ea6cb1dd492",
    "wide_spread": "5aeaf143071c44fc2ea8ec59112eca4b7795e43cc8b99610cd316ce64d90ba58",
    "unit_grid": "e9c4aea9f9e1cf62bc3b5ade8a9d828cece0e84104c517058a4c6ea30bdd2636",
    "n1": "27282c5bf5356384874428be95c7606f3b0b319969e3d3f2585491a0903eedfc",
    "n2": "3ec418dbe95af7020fe22ff4abc261bb457154211abe6a2c6337b876b8575b64",
}
KCENTER = ("unit_grid", "n1", "integer_weights")
KCENTER_GOLDEN = {
    "unit_grid": "ce2d246bf560caa5ed646b314cb5738dc6ef1b882c510f6abbbbe8be37fb5446",
    "n1": "7478a11e4829bf3a4b4146600e4e0d3f556893846f0627073e2ae0faca8d7b9c",
    "integer_weights": "f7deb951073ca149bba63ecc5f02995de5e54eacc3275c085859d32e1bd2e926",
}


def _integer_weights():
    return _random_graph(15, 70, lambda rng, k: rng.integers(1, 9, k))


def _net_record(net) -> dict:
    return {"points": [int(v) for v in net.points],
            "deltas": [float(x).hex() for x in net.selection_deltas],
            "updates": int(net.updates),
            "field": hashlib.sha256(np.ascontiguousarray(
                net.cover_field, dtype=np.float64).tobytes()).hexdigest()}


def net_digest(instance: str) -> str:
    g = INSTANCES[instance]()
    top = max(approx_diameter(g), 1.0)
    radii = [frac * top for frac in (0.3, 0.1, 0.02)]
    order = np.random.default_rng(300).permutation(g.n).tolist()
    fresh = [_net_record(r_net(g, r, order=order)) for r in radii]
    fld, carried = np.full(g.n, np.inf), []
    for r in radii:
        net = greedy._net_sweep(g, r, np.asarray(order), fld <= r, fld)
        carried.append(_net_record(net))
    return _sha({"fresh": fresh, "carried": carried})


def kcenter_digest(instance: str) -> str:
    g = _integer_weights() if instance == "integer_weights" else INSTANCES[instance]()
    runs = []
    for k in sorted({1, 2, 5, 17, g.n}):
        if k <= g.n:
            centers, radius = k_center_integer(g, k, seed=400 + k)
            runs.append({"k": k, "centers": [int(v) for v in centers],
                         "radius": float(radius).hex()})
    return _sha(runs)


@pytest.mark.parametrize("instance", sorted(NET_GOLDEN))
def test_golden_net(instance):
    assert net_digest(instance) == NET_GOLDEN[instance]


@pytest.mark.parametrize("instance", sorted(KCENTER_GOLDEN))
def test_golden_k_center(instance):
    assert kcenter_digest(instance) == KCENTER_GOLDEN[instance]


# --- planar counting and selection ---

PLANAR = {
    "delaunay": lambda: delaunay_graph(70, np.random.default_rng(21)),
    "weighted_grid": lambda: grid_graph(7, 9, rng=np.random.default_rng(22), w_hi=9),
}
PLANAR_GOLDEN = {
    "delaunay": "3c2ea6226abb3a8c184fd2392635fedcfa3dfce443570f45a92f9a2135732b37",
    "weighted_grid": "4314e3aa22147df73b21b6736b1f2cd21db0f4b983fcaed9541f1a790d500472",
}


def planar_digest(instance: str) -> str:
    g = PLANAR[instance]()
    hd, oracle = build_hd(g), exact_oracle(g)
    top, npairs = g.max_weight(), g.n * (g.n - 1) // 2
    counts = [count_short_pairs(g, hd, frac * top, eps, oracle)
              for eps in (0.1, 0.5) for frac in (0.3, 1.0, 2.5, 6.0, 20.0)]
    selects = [[x.hex() for x in select_kth_distance(g, k, eps)]
               for eps in (0.25, 0.5) for k in (1, g.n, npairs // 7, npairs)]
    return _sha({"counts": counts, "selects": selects})


@pytest.mark.parametrize("instance", sorted(PLANAR_GOLDEN))
def test_golden_planar(instance):
    assert planar_digest(instance) == PLANAR_GOLDEN[instance]


# --- treewidth exact greedy ---

TREEWIDTH = {
    "tree": lambda: random_tree(90, np.random.default_rng(31), w_hi=20),
    "series_parallel": lambda: random_series_parallel(80, np.random.default_rng(32), w_hi=20),
    "ktree3": lambda: random_ktree(100, 3, np.random.default_rng(33), w_hi=50),
}
TREEWIDTH_GOLDEN = {
    "tree": "1b507b6bc8161cb6e741f46d74ac8bf99fd1cb895787dda3bfff3280c9265cc4",
    "series_parallel": "19d7b7d05e0db1b3a468f058106bd5b7d296ec9453188376198e2ceba4061cba",
    "ktree3": "163b6add3a229a60f0d73881f138153a3f0d53ad97d104a3fdbee9f6c16285c8",
}


def treewidth_digest(instance: str) -> str:
    g, doc = TREEWIDTH[instance]()
    perm = exact_greedy_treewidth(g, parse_tree_decomposition(doc, g))
    return _sha({"order": [int(v) for v in perm.order],
                 "radii": [float(r).hex() for r in perm.radii]})


@pytest.mark.parametrize("instance", sorted(TREEWIDTH_GOLDEN))
def test_golden_treewidth(instance):
    assert treewidth_digest(instance) == TREEWIDTH_GOLDEN[instance]


# --- Euclidean lane ---


def _clusters():
    """Eight tight clusters of six near-duplicates each in [0,1]^5."""
    rng = np.random.default_rng(43)
    centers = rng.uniform(0.0, 1.0, size=(8, 5))
    return np.repeat(centers, 6, axis=0) + rng.normal(scale=1e-6, size=(48, 5))


POINTS = {
    "uniform20": lambda: np.random.default_rng(41).uniform(0.0, 1.0, size=(60, 20)),
    "line": lambda: np.random.default_rng(42).uniform(0.0, 100.0, size=(40, 1)),
    "clusters": _clusters,
}
POINTS_GOLDEN = {
    "uniform20": "dee9b2e19bb99ff9c574ee0dd50cb38d09f2754a4953d1ac49a31d523e834e9b",
    "line": "a89c77a18faa68e85a9bd39ca7ec868127d615a8dea5f0a91285dcf3c96f74fc",
    "clusters": "243a2f1b6722f6dfafb1de2eb45b155aabb1b36d436352ef135ec93cac3448f3",
}


def points_digest(instance: str) -> str:
    pts = PointSet(POINTS[instance]())
    reach = float(np.max(np.linalg.norm(pts.coords - pts.coords[0], axis=1)))
    runs = []
    for k, eps in enumerate(EPS):
        seed = 200 + k
        perm = approx_greedy_points(pts, eps, seed)
        bounded = approx_greedy_points_bounded_spread(pts, eps, seed)
        nets = [approx_r_net_points(pts, frac * reach, eps, seed) for frac in (0.1, 0.4)]
        tree = approx_minmax_tree(pts, eps, seed)
        runs.append({
            "greedy": {"order": [int(v) for v in perm.order],
                       "radii": [float(r).hex() for r in perm.radii],
                       "levels_run": int(perm.levels_run),
                       "level_jumps": int(perm.level_jumps)},
            "bounded": {"order": [int(v) for v in bounded.order],
                        "radii": [float(r).hex() for r in bounded.radii]},
            "nets": [{"points": [int(v) for v in net.points],
                      "deltas": [float(x).hex() for x in net.selection_deltas]}
                     for net in nets],
            "tree": [[int(u), int(v), float(w).hex()] for u, v, w in tree.edges],
        })
    return _sha(runs)


@pytest.mark.parametrize("instance", sorted(POINTS_GOLDEN))
def test_golden_points(instance):
    assert points_digest(instance) == POINTS_GOLDEN[instance]


if __name__ == "__main__":
    for v in VARIANTS:
        for i in INSTANCES:
            print(f'    "{v}/{i}": "{digest(v, i)}",')
    for i in INSTANCES:
        print(f'    "{i}": "{net_digest(i)}",')
    for i in KCENTER:
        print(f'    "{i}": "{kcenter_digest(i)}",')
    for i in PLANAR:
        print(f'    "{i}": "{planar_digest(i)}",')
    for i in TREEWIDTH:
        print(f'    "{i}": "{treewidth_digest(i)}",')
    for i in POINTS:
        print(f'    "{i}": "{points_digest(i)}",')
