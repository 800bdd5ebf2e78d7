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

Regenerate with ``PYTHONPATH=src python tests/test_golden.py`` only for a
change meant to alter outputs, and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from farfirst.generators import (delaunay_graph, grid_graph, random_ktree,
                                 random_series_parallel, random_tree)
from farfirst.graphs import make_graph
from farfirst.greedy import approx_greedy, approx_greedy_bounded_spread
from farfirst.planar import build_hd, count_short_pairs, exact_oracle, select_kth_distance
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


if __name__ == "__main__":
    for v in VARIANTS:
        for i in INSTANCES:
            print(f'    "{v}/{i}": "{digest(v, i)}",')
    for i in PLANAR:
        print(f'    "{i}": "{planar_digest(i)}",')
    for i in TREEWIDTH:
        print(f'    "{i}": "{treewidth_digest(i)}",')
