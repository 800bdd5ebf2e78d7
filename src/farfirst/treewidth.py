"""Exact greedy permutations for graphs of small treewidth.

The farthest-point search of the naive quadratic algorithm is replaced by a
restricted partition of the edge set into O(n/k) subgraphs with at most 2w+2
boundary vertices each.  The distances between boundary vertices are
computed once, as one matrix over the boundary graph whose clique edges
carry within-subgraph shortest paths; with static within-subgraph distances
they keep every vertex's distance to the selected set in vectorised steps,
and the farthest vertex comes from one scan of a (2w + 2) x n matrix of
within-subgraph distances to the boundary, one column per vertex.

The L-inf nearest-neighbor index (linf_build, linf_query) no longer serves
the greedy.  It is a linear scan, kept public and tested only because
perfbench/spans.py traces it under these names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.csgraph as csg

from .graphs import INF, DisjointSets, Graph, _csr, _headed, _ints, is_connected, read_input
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

    The tree edges must form a spanning tree of the bags, every graph edge
    must lie in some bag, and the bags holding a vertex must form one
    subtree.  On a spanning tree, that last holds exactly when the tree
    edges whose two bags both hold the vertex number one less than its
    bags, so one pass over the tree edges counts them for every vertex.
    """
    name, text = read_input(source, "decomposition")
    lineno, b, w, rows = _headed(text, name, "decomposition", "b w")
    if b < 1:
        raise ValueError(f"{name}:{lineno}: need at least one bag")
    if len(rows) != b + (b - 1):
        raise ValueError(f"{name}: expected {b} bags and {b - 1} tree edges, "
                         f"found {len(rows)} lines")
    bags: list[tuple[int, ...]] = []
    for lineno, parts in rows[:b]:
        members = _ints(parts, name, lineno)
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
    dsu = DisjointSets(b)
    tree_edges: list[tuple[int, int]] = []
    for lineno, parts in rows[b:]:
        if len(parts) != 2:
            raise ValueError(f"{name}:{lineno}: expected tree edge 'i j'")
        i, j = _ints(parts, name, lineno)
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
    shared = [0] * g.n  # per vertex, the tree edges whose two bags hold it
    for i, j in tree_edges:
        for v in set(bags[i]).intersection(bags[j]):
            shared[v] += 1
    for v in range(g.n):
        if bags_of[v] and shared[v] != len(bags_of[v]) - 1:
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
    children: list[list[int]] = [[] for _ in range(b)]
    seen = [False] * b
    seen[0] = True
    order = [0]
    for u in order:
        for nb in adj[u]:
            if not seen[nb]:
                seen[nb] = True
                children[u].append(nb)
                order.append(nb)
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
        bags, other = nodes_with.get(u, ()), v
        if len(nodes_with.get(v, ())) < len(bags):  # scan the endpoint in fewer bags
            bags, other = nodes_with[v], u
        hosts = [idx for idx in bags if other in bag_sets[idx]]
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
                emitted_nodes.append(child["nodes"])
                me["bc"] += 1
    emitted_nodes.append(clusters[cluster_of[postorder[-1]]]["nodes"])

    edge_owner = [-1] * g.m
    kept: list[list[int]] = []
    for nodes in emitted_nodes:
        eids = sorted(eid for node in nodes for eid in node_edges[node])
        if not eids:
            continue
        for eid in eids:
            edge_owner[eid] = len(kept)
        kept.append(eids)

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
    return RestrictedPartition(subgraphs=subgraphs)


# --- L-infinity nearest neighbor ---


@dataclass
class LinfIndex:
    points: np.ndarray


def linf_build(points) -> LinfIndex:
    """Index a list of equal-dimension vectors for exact L-inf queries."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        pts = pts.reshape(0, 0)
    if pts.ndim != 2:
        raise ValueError("points must share one dimension")
    return LinfIndex(points=pts)


def linf_query(index: LinfIndex, q) -> tuple[int | None, float]:
    """(id, distance) of the nearest indexed point by one linear scan,
    breaking distance ties toward the smallest point id; (None, inf) on an
    empty index."""
    pts = index.points
    if pts.shape[0] == 0:
        return None, INF
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (pts.shape[1],):
        raise ValueError(f"query dimension {q.shape} does not match index {pts.shape[1]}")
    dist = np.max(np.abs(pts - q), axis=1)
    pid = int(np.argmin(dist))
    return pid, float(dist[pid])


# --- the main algorithm ---


def exact_greedy_treewidth(g: Graph, td: TreeDecomposition) -> GreedyPermutation:
    """Exact greedy permutation, identical to the naive quadratic algorithm
    started at vertex 0 (every round breaks farthest-distance ties toward the
    smallest vertex id; the all-equal first round therefore picks 0).

    An interior vertex x of subgraph s is at distance
    min(w0[x], min_b F[b, x] + d[b]) from the selection, with w0 its
    distance to the selections inside s, F its within-s distances to the
    boundary vertices b of s, and d the boundary vertices' distances to the
    selection.  F has one column per vertex, with +inf in the slots a small
    boundary leaves unused; a boundary vertex's column holds 0.0 at its own
    boundary index, so it reads exactly its own d.  A round is one
    vectorised scan of (2w + 2) x n entries and one argmax, and a selected
    vertex is parked at w0 = -1.

    Every shortest path between boundary vertices splits into
    within-subgraph segments that end at boundary vertices, so the distances
    DH of the boundary graph, whose clique edges carry within-subgraph
    distances, are graph distances.  A selected vertex x lowers d by
    min_b F[b, x] + DH[b] (for a boundary vertex, exactly its row of DH);
    an interior x also lowers w0 by its within-s distances.
    """
    n = g.n
    if n == 1:
        return GreedyPermutation(order=[0], radii=[INF], eps=0.0)
    if not is_connected(g):
        raise ValueError("graph must be connected")
    w = td.width
    k = max(math.isqrt(n - 1) + 1, (w + 1) * w // 2, 1)
    subs = restricted_partition(g, td, k).subgraphs

    bverts = sorted({b for sub in subs for b in sub.boundary})
    nb = len(bverts)
    bidx = {b: i for i, b in enumerate(bverts)}
    slots = max([len(sub.boundary) for sub in subs if sub.interior] + [1])
    # F[slot, v] + d[B[slot, v]], one column per vertex (a round reduces over
    # the few slots at every vertex at once); unused slots read the +inf pad
    # d[nb], and a boundary vertex's column (0.0, its own index) reads its
    # own d
    F = np.full((slots, n), INF)
    B = np.full(F.shape, nb, dtype=np.int64)
    F[0, bverts] = 0.0
    B[0, bverts] = np.arange(nb)
    home: dict[int, tuple[int, int]] = {}  # interior vertex -> (subgraph, place)
    inner: list[np.ndarray] = []  # per subgraph, its interior vertices
    within: list[np.ndarray] = []  # per subgraph, interior x interior distances
    hu: list[int] = []
    hv: list[int] = []
    hw: list[float] = []
    eu, ev, ew = (np.asarray(col) for col in zip(*g.edges))
    for si, sub in enumerate(subs):
        verts = np.asarray(sub.vertices)
        ids = np.asarray(sub.edge_ids)
        dist = csg.dijkstra(_csr(verts.size, np.searchsorted(verts, eu[ids]),
                                 np.searchsorted(verts, ev[ids]), ew[ids]))
        bl, il = np.searchsorted(verts, sub.boundary), np.searchsorted(verts, sub.interior)
        bg = np.asarray([bidx[b] for b in sub.boundary], dtype=np.int64)
        j, l = np.triu_indices(bl.size, 1)
        through = dist[bl[j], bl[l]]
        ok = np.isfinite(through)
        hu += bg[j[ok]].tolist()
        hv += bg[l[ok]].tolist()
        hw += through[ok].tolist()
        xs = np.asarray(sub.interior, dtype=np.int64)
        if xs.size:  # F has no slots for the boundary of an all-boundary subgraph
            F[:bl.size, xs] = dist[np.ix_(bl, il)]
            B[:bl.size, xs] = bg[:, None]
        home.update((x, (si, p)) for p, x in enumerate(sub.interior))
        inner.append(xs)
        within.append(dist[np.ix_(il, il)])
    # one +inf pad row for the pad slots of B
    DH = np.full((nb + 1, nb), INF)
    if nb:
        DH[:nb] = csg.dijkstra(_csr(nb, hu, hv, hw))

    d = np.full(nb + 1, INF)
    w0 = np.full(n, INF)
    order: list[int] = []
    radii: list[float] = []
    for rnd in range(n):
        val = np.minimum(w0, (F + d[B]).min(axis=0))
        v = int(np.argmax(val))  # columns run in vertex order: smallest-id ties
        order.append(v)
        radii.append(INF if rnd == 0 else float(val[v]))
        if v in home:
            si, p = home[v]
            w0[inner[si]] = np.minimum(w0[inner[si]], within[si][p])
        w0[v] = -1.0  # parked below every distance
        np.minimum(d[:-1], (F[:, v, None] + DH[B[:, v]]).min(axis=0), out=d[:-1])
    return GreedyPermutation(order=order, radii=radii, eps=0.0)
