"""Exact greedy permutations for graphs of small treewidth.

The farthest-point search of the naive quadratic algorithm is replaced by a
restricted partition of the edge set into O(n/k) subgraphs with at most 2w+2
boundary vertices each.  Boundary vertices keep exact distances to the
selected set through Dijkstra runs on a boundary graph whose clique edges
carry within-subgraph shortest paths; the farthest interior vertex comes
from one vectorised scan of a matrix of static within-subgraph distances to
the boundary, at most n x (2w + 2) entries.

The L-inf nearest-neighbor index (linf_build, linf_query) no longer serves
the greedy; it stays public and tested, and perfbench/spans.py traces it
under these names.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import INF, Graph, is_connected
from .greedy import GreedyPermutation

__all__ = [
    "TreeDecomposition",
    "parse_tree_decomposition",
    "Subgraph",
    "RestrictedPartition",
    "restricted_partition",
    "LinfIndex",
    "linf_build",
    "linf_query",
    "exact_greedy_treewidth",
]


@dataclass
class TreeDecomposition:
    bags: list[tuple[int, ...]]
    edges: list[tuple[int, int]]
    width: int

    @property
    def b(self) -> int:
        return len(self.bags)


def parse_tree_decomposition(source, g: Graph) -> TreeDecomposition:
    """Read and validate a decomposition: header "b w", b bag lines of
    space-separated members, then b-1 tree-edge lines "i j".
    """
    from pathlib import Path

    name = "<string>"
    # a newline-free non-blank string is a path; anything else is file text
    if isinstance(source, (str, Path)) and (
            isinstance(source, Path) or ("\n" not in source and source.strip())):
        name = str(source)
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ValueError(f"{name}: cannot read decomposition: {exc}") from exc
    else:
        text = str(source)
    rows = [(i + 1, ln.split()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not rows:
        raise ValueError(f"{name}: empty decomposition")
    lineno, head = rows[0]
    if len(head) != 2:
        raise ValueError(f"{name}:{lineno}: expected header 'b w'")
    b, w = int(head[0]), int(head[1])
    if b < 1:
        raise ValueError(f"{name}:{lineno}: need at least one bag")
    if len(rows) != 1 + b + (b - 1):
        raise ValueError(f"{name}: expected {b} bags and {b - 1} tree edges, "
                         f"found {len(rows) - 1} lines")
    bags: list[tuple[int, ...]] = []
    for lineno, parts in rows[1:1 + b]:
        members = [int(p) for p in parts]
        if not members:
            raise ValueError(f"{name}:{lineno}: empty bag")
        if len(set(members)) != len(members):
            raise ValueError(f"{name}:{lineno}: repeated vertex in bag")
        for v in members:
            if not 0 <= v < g.n:
                raise ValueError(f"{name}:{lineno}: vertex {v} out of range")
        bags.append(tuple(sorted(members)))
    width = max(len(bag) for bag in bags) - 1
    if width != w:
        raise ValueError(f"{name}: header claims width {w}, bags have width {width}")
    from .graphs import DisjointSets

    dsu = DisjointSets(b)
    tree_edges: list[tuple[int, int]] = []
    for lineno, parts in rows[1 + b:]:
        if len(parts) != 2:
            raise ValueError(f"{name}:{lineno}: expected tree edge 'i j'")
        i, j = int(parts[0]), int(parts[1])
        if not (0 <= i < b and 0 <= j < b) or i == j:
            raise ValueError(f"{name}:{lineno}: bad tree edge ({i}, {j})")
        if not dsu.union(i, j):
            raise ValueError(f"{name}:{lineno}: decomposition edges contain a cycle")
        tree_edges.append((i, j))
    bags_of: list[set[int]] = [set() for _ in range(g.n)]
    for idx, bag in enumerate(bags):
        for v in bag:
            bags_of[v].add(idx)
    for u, v, _ in g.edges:
        if not (bags_of[u] & bags_of[v]):
            raise ValueError(f"{name}: edge ({u}, {v}) not covered by any bag")
    node_adj: list[list[int]] = [[] for _ in range(b)]
    for i, j in tree_edges:
        node_adj[i].append(j)
        node_adj[j].append(i)
    for v in range(g.n):
        nodes = bags_of[v]
        if not nodes:
            continue
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            for nb in node_adj[stack.pop()]:
                if nb in nodes and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != nodes:
            raise ValueError(
                f"{name}: bags containing vertex {v} do not form a connected subtree")
    return TreeDecomposition(bags=bags, edges=tree_edges, width=width)


# --- restricted partition ---


def _normalize_binary(td: TreeDecomposition):
    """Root at node 0 and split high-degree nodes into chains of clones so
    every node has at most two children.  Returns (bags, children, depth).
    """
    b = td.b
    adj: list[list[int]] = [[] for _ in range(b)]
    for i, j in td.edges:
        adj[i].append(j)
        adj[j].append(i)
    parent = [-2] * b
    order = [0]
    parent[0] = -1
    for u in order:
        for nb in adj[u]:
            if parent[nb] == -2:
                parent[nb] = u
                order.append(nb)
    children: list[list[int]] = [[] for _ in range(b)]
    for u in order[1:]:
        children[parent[u]].append(u)
    nbags: list[tuple[int, ...]] = []
    nchildren: list[list[int]] = []
    ndepth: list[int] = []

    def new_node(bag: tuple[int, ...], depth: int) -> int:
        nbags.append(bag)
        nchildren.append([])
        ndepth.append(depth)
        return len(nbags) - 1

    root = new_node(td.bags[0], 0)
    stack = [(0, root)]
    while stack:
        u, nu = stack.pop()
        cs = children[u]
        cur = nu
        for idx, c in enumerate(cs):
            if idx >= 1 and len(cs) - idx >= 2:
                clone = new_node(nbags[cur], ndepth[cur] + 1)
                nchildren[cur].append(clone)
                cur = clone
            nc = new_node(td.bags[c], ndepth[cur] + 1)
            nchildren[cur].append(nc)
            stack.append((c, nc))
    return nbags, nchildren, ndepth


@dataclass
class Subgraph:
    edge_ids: list[int]
    vertices: list[int]
    boundary: list[int]
    interior: list[int]


@dataclass
class RestrictedPartition:
    subgraphs: list[Subgraph]
    k: int
    cut_counts: list[int]  # tree-edge cuts per emitted subset, diagnostics


def restricted_partition(g: Graph, td: TreeDecomposition, k: int) -> RestrictedPartition:
    """Partition the edges into connected bag-tree clusters of at most k edges.

    Bottom-up greedy: each node tries to absorb its children's open clusters;
    a merge is allowed while the combined edge count stays within k and the
    two sides carry at most one prior cut between them, which caps multi-node
    clusters at two cut tree edges and hence at 2w+2 boundary vertices.
    Every edge is associated with its deepest covering bag (smallest node id
    on depth ties), so each edge lands in exactly one cluster.
    """
    if k < 1:
        raise ValueError("k must be positive")
    nbags, nchildren, ndepth = _normalize_binary(td)
    nn = len(nbags)
    bag_sets = [set(bag) for bag in nbags]
    nodes_with: dict[int, list[int]] = {}
    for idx, bag in enumerate(nbags):
        for v in bag:
            nodes_with.setdefault(v, []).append(idx)
    node_edges: list[list[int]] = [[] for _ in range(nn)]
    for eid, (u, v, _) in enumerate(g.edges):
        hosts = [idx for idx in nodes_with.get(u, ()) if v in bag_sets[idx]]
        if not hosts:
            raise ValueError(f"edge ({u}, {v}) not covered by any bag")
        best = max(hosts, key=lambda idx: (ndepth[idx], -idx))
        node_edges[best].append(eid)
    for idx in range(nn):
        if len(node_edges[idx]) > k:
            raise ValueError(
                f"k too small: a single bag carries {len(node_edges[idx])} edges > k = {k}")

    postorder: list[int] = []
    stack = [(0, False)]
    while stack:
        u, expanded = stack.pop()
        if expanded:
            postorder.append(u)
        else:
            stack.append((u, True))
            for c in reversed(nchildren[u]):
                stack.append((c, False))

    clusters: list[dict] = []  # open clusters, indexed
    cluster_of = [-1] * nn
    emitted_nodes: list[list[int]] = []
    cut_counts: list[int] = []

    def close(cid: int, extra_cut: int) -> None:
        cl = clusters[cid]
        emitted_nodes.append(cl["nodes"])
        cut_counts.append(cl["bc"] + extra_cut)

    for u in postorder:
        cid = len(clusters)
        clusters.append({"nodes": [u], "edges": len(node_edges[u]), "bc": 0})
        cluster_of[u] = cid
        me = clusters[cid]
        for c in nchildren[u]:
            child = clusters[cluster_of[c]]
            if me["edges"] + child["edges"] <= k and me["bc"] + child["bc"] <= 1:
                me["nodes"].extend(child["nodes"])
                me["edges"] += child["edges"]
                me["bc"] += child["bc"]
                for x in child["nodes"]:
                    cluster_of[x] = cid
            else:
                close(cluster_of[c], extra_cut=1)
                me["bc"] += 1
    close(cluster_of[postorder[-1]], extra_cut=0)

    edge_owner = [-1] * g.m
    kept: list[list[int]] = []
    kept_cuts: list[int] = []
    for nodes, cuts in zip(emitted_nodes, cut_counts):
        eids = sorted(eid for node in nodes for eid in node_edges[node])
        if not eids:
            continue
        for eid in eids:
            edge_owner[eid] = len(kept)
        kept.append(eids)
        kept_cuts.append(cuts)

    incident: list[list[int]] = [[] for _ in range(g.n)]
    for eid, (u, v, _) in enumerate(g.edges):
        incident[u].append(eid)
        incident[v].append(eid)
    subgraphs: list[Subgraph] = []
    for si, eids in enumerate(kept):
        verts = sorted({x for eid in eids for x in g.edges[eid][:2]})
        boundary = [v for v in verts
                    if any(edge_owner[eid] != si for eid in incident[v])]
        bset = set(boundary)
        subgraphs.append(Subgraph(edge_ids=eids, vertices=verts,
                                  boundary=boundary,
                                  interior=[v for v in verts if v not in bset]))
    return RestrictedPartition(subgraphs=subgraphs, k=k, cut_counts=kept_cuts)


# --- L-infinity nearest neighbor ---


@dataclass
class LinfIndex:
    points: np.ndarray
    backend: str
    _tree: object = field(default=None, repr=False)


def linf_build(points, backend: str = "tree") -> LinfIndex:
    """Index a list of equal-dimension vectors for exact L-inf queries.

    backend "scan" is the linear reference; "tree" answers through a kd-tree
    in the Chebyshev metric.  Both return identical (id, distance) pairs,
    breaking distance ties toward the smallest point id.
    """
    if backend not in ("scan", "tree"):
        raise ValueError(f"unknown backend {backend!r}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 0)
    if pts.ndim != 2:
        raise ValueError("points must share one dimension")
    index = LinfIndex(points=pts, backend=backend)
    if backend == "tree" and pts.shape[0] > 0:
        from scipy.spatial import cKDTree

        index._tree = cKDTree(pts)
    return index


def linf_query(index: LinfIndex, q) -> tuple[int | None, float]:
    pts = index.points
    if pts.shape[0] == 0:
        return None, INF
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (pts.shape[1],):
        raise ValueError(f"query dimension {q.shape} does not match index {pts.shape[1]}")
    if index.backend == "scan":
        dist = np.max(np.abs(pts - q), axis=1)
        pid = int(np.argmin(dist))
        return pid, float(dist[pid])
    d, _ = index._tree.query(q, k=1, p=np.inf)
    ball = index._tree.query_ball_point(q, r=float(d), p=np.inf)
    return int(min(ball)), float(d)


# --- the main algorithm ---


def _sp_dict(adj: dict[int, list[tuple[int, float]]], source: int,
             extra: dict[int, list[tuple[int, float]]] | None = None) -> dict[int, float]:
    """Dijkstra over a dict adjacency (optionally merged with a second one)."""
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist.get(u, INF):
            continue
        rows = adj.get(u, ())
        if extra is not None:
            rows = list(rows) + list(extra.get(u, ()))
        for v, w in rows:
            alt = du + w
            if alt < dist.get(v, INF):
                dist[v] = alt
                heapq.heappush(heap, (alt, v))
    return dist


def exact_greedy_treewidth(g: Graph, td: TreeDecomposition) -> GreedyPermutation:
    """Exact greedy permutation, identical to the naive quadratic algorithm
    started at vertex 0 (every round breaks farthest-distance ties toward the
    smallest vertex id; the all-equal first round therefore picks 0).

    An interior vertex x of subgraph s is at distance
    min(w0[x], min_b F[x, b] + d[b]) from the selection, with w0 its
    distance to the selections inside s, F its within-s distances to the
    boundary vertices b of s, and d the boundary vertices' distances to the
    selection.  F is one matrix over all interior vertices with +inf in the
    slots a small boundary leaves unused, so a round is one vectorised scan
    of at most n x (2w + 2) entries.
    """
    n = g.n
    if n == 1:
        return GreedyPermutation(order=[0], radii=[INF], eps=0.0)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    w = td.width
    k = max(math.isqrt(n - 1) + 1, (w + 1) * w // 2, 1)
    part = restricted_partition(g, td, k)
    subs = part.subgraphs

    sub_adj: list[dict[int, list[tuple[int, float]]]] = []
    for sub in subs:
        adj: dict[int, list[tuple[int, float]]] = {v: [] for v in sub.vertices}
        for eid in sub.edge_ids:
            u, v, wt = g.edges[eid]
            adj[u].append((v, wt))
            adj[v].append((u, wt))
        sub_adj.append(adj)

    bverts = sorted({b for sub in subs for b in sub.boundary})
    bidx = {b: i for i, b in enumerate(bverts)}
    interior = sorted(x for sub in subs for x in sub.interior)
    row_of = {x: i for i, x in enumerate(interior)}
    slots = max([len(sub.boundary) for sub in subs if sub.interior], default=0)
    # F[row, slot] + d[B[row, slot]]; unused slots read the +inf pad d[-1]
    F = np.full((len(interior), max(slots, 1)), INF)
    B = np.full(F.shape, len(bverts), dtype=np.int64)
    home = [-1] * n
    home_rows: list[np.ndarray] = []
    h_adj: dict[int, list[tuple[int, float]]] = {}
    for si, sub in enumerate(subs):
        from_boundary = [_sp_dict(sub_adj[si], b) for b in sub.boundary]
        for j, b in enumerate(sub.boundary):
            for l in range(j + 1, len(sub.boundary)):
                through = from_boundary[j].get(sub.boundary[l])
                if through is not None:
                    h_adj.setdefault(b, []).append((sub.boundary[l], through))
                    h_adj.setdefault(sub.boundary[l], []).append((b, through))
        for x in sub.interior:
            home[x] = si
            row = row_of[x]
            for j, b in enumerate(sub.boundary):
                F[row, j] = from_boundary[j].get(x, INF)
                B[row, j] = bidx[b]
        home_rows.append(np.asarray([row_of[x] for x in sub.interior], dtype=np.int64))

    d = np.full(len(bverts) + 1, INF)
    w0 = np.full(len(interior), INF)
    taken = np.zeros(len(bverts), dtype=bool)
    order: list[int] = []
    radii: list[float] = []
    for rnd in range(n):
        # selected vertices are parked at -1, below every distance
        best_val, best_v = -1.0, -1
        if interior:
            val = np.minimum(w0, (F + d[B]).min(axis=1))
            i = int(np.argmax(val))  # rows run in vertex order: smallest-id ties
            best_val, best_v = float(val[i]), interior[i]
        if bverts:
            db = np.where(taken, -1.0, d[:-1])
            j = int(np.argmax(db))
            if db[j] > best_val or (db[j] == best_val and bverts[j] < best_v):
                best_val, best_v = float(db[j]), bverts[j]
        order.append(best_v)
        radii.append(INF if rnd == 0 else best_val)
        si = home[best_v]
        if si >= 0:
            within = _sp_dict(sub_adj[si], best_v)
            rows = home_rows[si]
            w0[rows] = np.minimum(w0[rows], [within.get(x, INF) for x in subs[si].interior])
            w0[row_of[best_v]] = -1.0
            reach = _sp_dict(h_adj, best_v, extra=sub_adj[si])
        else:
            taken[bidx[best_v]] = True
            reach = _sp_dict(h_adj, best_v)
        for b, dist in reach.items():
            i = bidx.get(b)
            if i is not None and dist < d[i]:
                d[i] = dist
    return GreedyPermutation(order=order, radii=radii, eps=0.0)
