"""Byte-identity pins for the graph greedy variants.

Each digest is the sha256 of the (order, radii, active_level_counts) that
approx_greedy or approx_greedy_bounded_spread returns on one fixed, seeded
instance, over three eps values.  The digests were recorded from the
straightforward per-level implementation (a full contraction and a fresh
truncated search at every level), so a refactor of either level loop that
changes any output byte fails here.  Regenerate with
``PYTHONPATH=src python tests/test_golden.py`` only for a change meant to
alter outputs, and say why.
"""

import hashlib
import json

import numpy as np
import pytest

from farfirst.graphs import make_graph
from farfirst.greedy import approx_greedy, approx_greedy_bounded_spread

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
    "approx/n1": "cf9d1922f9e958f794695be68d5bba6891b58f15919d1eb6c61b6800a22fcb0c",
    "approx/n2": "444770c73020d8b032047e3acc014e5b4f067af7f6d95bf4e69ab4a0042d575c",
    "bounded/zero_weights": "85eb51391b67325a68cc1a8a031c892f3f1f9a602d7cc1c415fc92f5c3f6612d",
    "bounded/parallel_edges": "c01872a8c21c1e69999c59e2fcf50707f61465949ba2594d4503cc3a4fcfa154",
    "bounded/wide_spread": "5e3a3892b49de3eb96c048a852acdff575e53f0ac89e931a3ccef8252b73de51",
    "bounded/unit_grid": "7bb28d1540733200c0c94c554ea29cd6a304b6d3f597ca3437c8eaa9ebe0de0b",
    "bounded/n1": "cf9d1922f9e958f794695be68d5bba6891b58f15919d1eb6c61b6800a22fcb0c",
    "bounded/n2": "5443328d9d6168c51c907fd3c3c6a6d88a18e59bd75cbdb5454b7ab49dfa4a7e",
}


def digest(variant: str, instance: str) -> str:
    g = INSTANCES[instance]()
    runs = []
    for k, eps in enumerate(EPS):
        perm = VARIANTS[variant](g, eps, seed=100 + k)
        counts = getattr(perm, "active_level_counts", None)
        runs.append({"order": [int(v) for v in perm.order],
                     "radii": [float(r).hex() for r in perm.radii],
                     "counts": None if counts is None else [int(c) for c in counts]})
    return hashlib.sha256(json.dumps(runs).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_outputs(key):
    variant, instance = key.split("/")
    assert digest(variant, instance) == GOLDEN[key]


if __name__ == "__main__":
    for v in VARIANTS:
        for i in INSTANCES:
            print(f'    "{v}/{i}": "{digest(v, i)}",')
