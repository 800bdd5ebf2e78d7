"""Seeded instance generators for tests, benchmarks and the CLI.

Decomposed families (trees, series-parallel, k-trees) return the graph
together with a decomposition document in the text format the parser
ingests, so round-tripping is exercised for free.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, _from_columns, make_graph

_DELAUNAY_SCALE = 1000  # Delaunay edge weight: Euclidean length times this, rounded
_DROP = 0.3  # chance that a partial 2-tree or k-tree omits an optional edge


def random_connected_graph(n: int, m: int, rng: np.random.Generator,
                           w_hi: int = 100) -> Graph:
    """Random spanning tree plus extra edges; integer weights in [1, w_hi]."""
    if m < n - 1:
        raise ValueError(f"need m >= n-1 for connectivity, got m={m}, n={n}")
    perm = rng.permutation(n)
    edges: list[tuple[int, int, float]] = []
    present = set()
    for i in range(1, n):
        u, v = int(perm[i]), int(perm[rng.integers(0, i)])
        edges.append((u, v, float(rng.integers(1, w_hi + 1))))
        present.add((min(u, v), max(u, v)))
    tries = 0
    while len(edges) < m and tries < 20 * m:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        tries += 1
        if u == v or (min(u, v), max(u, v)) in present:
            continue
        present.add((min(u, v), max(u, v)))
        edges.append((u, v, float(rng.integers(1, w_hi + 1))))
    return make_graph(n, edges)


def grid_graph(rows: int, cols: int, rng: np.random.Generator | None = None,
               w_hi: int = 1) -> Graph:
    """rows x cols grid, unit weights by default (planar).

    Vertex r * cols + c is the cell (r, c).  Cell by cell, in row-major
    order, come its edge to the right and then its edge down, each with the
    next weight drawn from rng.
    """
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    keep = np.stack([ids % cols < cols - 1, ids < (rows - 1) * cols], axis=2)
    u = np.stack([ids, ids], axis=2)[keep]
    v = np.stack([ids + 1, ids + cols], axis=2)[keep]
    if rng is not None and w_hi > 1:
        w = np.array([float(rng.integers(1, w_hi + 1)) for _ in range(u.size)])
    else:
        w = np.ones(u.size)
    return _from_columns(rows * cols, u, v, w)


def delaunay_graph(n: int, rng: np.random.Generator) -> Graph:
    """Delaunay triangulation of n random points; integer edge weights."""
    from scipy.spatial import Delaunay

    if n < 4:
        raise ValueError("delaunay_graph needs n >= 4")
    pts = rng.random((n, 2))
    tri = Delaunay(pts)
    pairs = set()
    for simplex in tri.simplices:
        for a in range(3):
            u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
            pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(pairs):
        w = float(max(1, round(np.linalg.norm(pts[u] - pts[v]) * _DELAUNAY_SCALE)))
        edges.append((u, v, w))
    return make_graph(n, edges)


# --- decomposed families ---


def format_tree_decomposition(bags: list[list[int]], tree_edges: list[tuple[int, int]]) -> str:
    width = max(len(b) for b in bags) - 1
    lines = [f"{len(bags)} {width}"]
    lines += [" ".join(str(v) for v in bag) for bag in bags]
    lines += [f"{i} {j}" for i, j in tree_edges]
    return "\n".join(lines) + "\n"


def random_tree(n: int, rng: np.random.Generator, w_hi: int = 100):
    """Random tree with its natural edge-bag decomposition (width 1)."""
    if n == 1:
        return make_graph(1, []), format_tree_decomposition([[0]], [])
    perm = rng.permutation(n)
    edges = []
    parent_bag = {}  # perm position -> bag index of the edge above it
    bags, tree_edges = [], []
    root_bag = None
    for i in range(1, n):
        j = int(rng.integers(0, i))
        u, v = int(perm[i]), int(perm[j])
        edges.append((u, v, float(rng.integers(1, w_hi + 1))))
        bags.append([u, v])
        node = len(bags) - 1
        parent_bag[i] = node
        if j > 0:
            tree_edges.append((node, parent_bag[j]))
        elif root_bag is None:
            root_bag = node  # first edge at the root anchors its siblings
        else:
            tree_edges.append((node, root_bag))
    return make_graph(n, edges), format_tree_decomposition(bags, tree_edges)


def random_series_parallel(n: int, rng: np.random.Generator, w_hi: int = 100):
    """Random partial 2-tree (treewidth <= 2, the series-parallel family)."""
    if n < 2:
        raise ValueError("need n >= 2")
    w = lambda: float(rng.integers(1, w_hi + 1))
    edges = [(0, 1, w())]
    growable = [(0, 1)]  # edges a new vertex may attach to
    edge_node = {(0, 1): 0}
    bags = [[0, 1]]
    tree_edges = []
    for i in range(2, n):
        u, v = growable[int(rng.integers(0, len(growable)))]
        bags.append([u, v, i])
        node = len(bags) - 1
        tree_edges.append((node, edge_node[(u, v)]))
        edges.append((u, i, w()))  # kept: guarantees connectivity
        if rng.random() >= _DROP:
            edges.append((v, i, w()))
        growable += [(u, i), (v, i)]
        edge_node[(u, i)] = edge_node[(v, i)] = node
    return make_graph(n, edges), format_tree_decomposition(bags, tree_edges)


def random_ktree(n: int, k: int, rng: np.random.Generator, w_hi: int = 100):
    """Random partial k-tree of treewidth <= k with its decomposition."""
    if n < k + 1:
        raise ValueError(f"need n >= k+1 = {k + 1}")
    w = lambda: float(rng.integers(1, w_hi + 1))
    base = list(range(k + 1))
    edges = [(u, v, w()) for ui, u in enumerate(base) for v in base[ui + 1:]]
    bags = [base[:]]
    tree_edges = []
    for i in range(k + 1, n):
        node = int(rng.integers(0, len(bags)))
        members = list(bags[node])
        rng.shuffle(members)
        clique = sorted(members[:k])
        bags.append(clique + [i])
        tree_edges.append((len(bags) - 1, node))
        edges.append((clique[0], i, w()))  # kept for connectivity
        for v in clique[1:]:
            if rng.random() >= _DROP:
                edges.append((v, i, w()))
    return make_graph(n, edges), format_tree_decomposition(bags, tree_edges)


def random_points(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    return rng.random((n, d))
