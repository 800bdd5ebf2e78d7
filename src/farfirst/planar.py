"""Bicriteria distance counting and approximate k-th distance selection on
planar graphs.

A hierarchical decomposition splits the vertex set into a balanced binary
tree of patches.  Every unordered vertex pair lands in different children at
exactly one patch, where it is counted against the boundary vertices of the
two children: a pair (x, y) contributes when

    d(x, Gamma(x)) + d(y, Gamma(y)) + oracle(Gamma(x), Gamma(y)) / (1 + eps_o)
        <= 3 r,

with Gamma the nearest boundary vertex inside the patch (ties to the smaller
id).  Walking any <= r path between x and y past the children's boundaries
shows every r-short pair satisfies this, while the triangle inequality caps
counted pairs at distance 3 (1 + eps_o) r, giving the sandwich
|P_<=r| <= alpha <= |P_<=(3+eps) r| whenever eps_o <= eps / 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import scipy.sparse as sp
# bound at import, so that a tracer wrapping csgraph.dijkstra for
# exact_greedy's solves does not count the pair tables' searches
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from .graphs import DisjointSets, Graph, is_connected
from .greedy import _check_levels, _check_positive
# Not called here: importable from this module because perfbench/spans.py
# traces it under the name planar.oracle_rows.
from .graphs import dijkstra  # noqa: F401

__all__ = [
    "HDNode",
    "HierarchicalDecomposition",
    "build_hd",
    "DistanceOracle",
    "exact_oracle",
    "count_short_pairs",
    "select_kth_distance",
]


@dataclass
class HDNode:
    patch: list[int]
    boundary: list[int]
    children: tuple[int, int] | None


@dataclass
class HierarchicalDecomposition:
    nodes: list[HDNode]  # root at index 0, leaves are single vertices
    _pair_cache: _PairTables | None = field(
        default=None, init=False, repr=False, compare=False)

    def boundary_sizes(self) -> list[int]:
        """Diagnostic: boundary size per internal patch."""
        return [len(nd.boundary) for nd in self.nodes if nd.children is not None]


def _split_patch(adj, patch: list[int]) -> tuple[list[int], list[int]]:
    """Split a patch into two disjoint halves of at most 2/3 the size.

    One BFS per component, started at its smallest id (the patch is
    sorted), yields both the components and their BFS levels.  If one
    component dominates, a median level of it becomes a separator (below
    and above are each at most half the component); the resulting pieces,
    none larger than half the patch, are then packed greedily.
    """
    total = len(patch)
    inside = set(patch)
    level: dict[int, int] = {}
    comps: list[list[int]] = []
    for start in patch:
        if start in level:
            continue
        level[start] = 0
        comp = [start]
        for u in comp:  # the list is the BFS queue
            for nb, _ in adj[u]:
                if nb in inside and nb not in level:
                    level[nb] = level[u] + 1
                    comp.append(nb)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: (-len(c), c[0]))
    items: list[list[int]]
    if 3 * len(comps[0]) > 2 * total:
        comp = comps[0]
        by_pos = sorted(comp, key=lambda v: (level[v], v))
        median_level = level[by_pos[len(comp) // 2]]
        below = [v for v in comp if level[v] < median_level]
        above = [v for v in comp if level[v] > median_level]
        separator = [v for v in comp if level[v] == median_level]
        items = [below, above] + [[v] for v in separator] + comps[1:]
        items = [sorted(it) for it in items if it]
    else:
        items = comps
    items.sort(key=lambda it: (-len(it), it[0]))
    if 2 * len(items[0]) > total:  # single oversized piece sits alone
        side_a = list(items[0])
        side_b = [v for it in items[1:] for v in it]
    else:
        side_a, side_b = [], []
        for it in items:
            (side_a if len(side_a) <= len(side_b) else side_b).extend(it)
    if 3 * len(side_a) > 2 * total or 3 * len(side_b) > 2 * total:
        raise AssertionError("patch split exceeded the 2/3 balance bound")
    return sorted(side_a), sorted(side_b)


def _check_planar_input(g: Graph) -> None:
    """Reject a graph that cannot be planar or is not connected.  Parallel
    edges are kept by Graph, so a simple planar graph's bound 3n-6 applies to
    the distinct vertex pairs joined by an edge."""
    pairs = g.csr().nnz // 2
    if g.n >= 3 and pairs > 3 * g.n - 6:
        raise ValueError(f"declared-planar violation: {pairs} distinct edges > "
                         f"3n-6 = {3 * g.n - 6}")
    if not is_connected(g):
        raise ValueError("graph must be connected")


def build_hd(g: Graph) -> HierarchicalDecomposition:
    """Balanced binary patch tree over the vertices of a declared-planar graph.

    Children partition their parent; each is at most 2/3 of it; leaves are
    single vertices.  Boundary vertices (those with a neighbor outside the
    patch) are recorded per node for the counting stage.
    """
    _check_planar_input(g)
    adj = g.adjacency()
    nodes: list[HDNode] = []
    queue: list[tuple[int, list[int]]] = []

    def new_node(patch: list[int]) -> int:
        inside = set(patch)
        boundary = [v for v in patch if any(nb not in inside for nb, _ in adj[v])]
        nodes.append(HDNode(patch=patch, boundary=boundary, children=None))
        return len(nodes) - 1

    root = new_node(sorted(range(g.n)))
    queue.append((root, nodes[root].patch))
    while queue:
        idx, patch = queue.pop()
        if len(patch) == 1:
            continue
        left, right = _split_patch(adj, patch)
        li, ri = new_node(left), new_node(right)
        nodes[idx].children = (li, ri)
        queue.append((li, left))
        queue.append((ri, right))
    return HierarchicalDecomposition(nodes=nodes)


class DistanceOracle:
    """Interface: query(u, v) in [d(u, v), (1 + eps) d(u, v)], and pairs(us,
    vs) the vector of query(us[i], vs[i]) for two equal-length id arrays."""

    eps: float = 0.0

    def query(self, u: int, v: int) -> float:
        raise NotImplementedError

    def pairs(self, us, vs) -> np.ndarray:
        return np.array([self.query(int(u), int(v)) for u, v in zip(us, vs)],
                        dtype=np.float64)


class _ExactOracle(DistanceOracle):
    """Full single-source rows, kept: row _slot[u] of _rows is the row of
    source u (_slot[u] is -1 until some lookup asks for it).  One matrix, so
    a vector of pairs is one gather: every count of a selection asks for the
    pairs of all its patches at once, and a query is a vector of one."""

    eps = 0.0

    def __init__(self, g: Graph):
        self._g = g
        self._rows = np.empty((0, g.n))
        self._slot = np.full(g.n, -1, dtype=np.int64)

    def query(self, u: int, v: int) -> float:
        return float(self.pairs([u], [v])[0])

    def pairs(self, us, vs) -> np.ndarray:
        slot = self._slots(us)  # first: it may replace _rows
        return self._rows[slot, np.asarray(vs, dtype=np.int64)]

    def _slots(self, us) -> np.ndarray:
        """Indices into _rows of the sources us, computing the rows of the
        missing ones in one search."""
        # looked up on the module at call time, as in greedy.exact_greedy, so
        # a tracer that wraps csgraph.dijkstra sees the call
        import scipy.sparse.csgraph as csg

        us = np.asarray(us, dtype=np.int64)
        slot = self._slot[us]
        if slot.min(initial=0) < 0:
            missing = np.unique(us[slot < 0])
            new = csg.dijkstra(self._g.csr(), indices=missing)
            used = len(self._rows)
            # the first rows are kept as scipy returns them, not copied
            self._rows = np.concatenate([self._rows, new]) if used else new
            self._slot[missing] = np.arange(used, used + len(missing))
            slot = self._slot[us]
        return slot


def exact_oracle(g: Graph) -> DistanceOracle:
    """Exact oracle (valid for every eps >= 0): full single-source rows,
    computed by one scipy call per lookup for the sources not yet seen, and
    kept."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    return _ExactOracle(g)


_MISMATCH = "decomposition does not match the graph"

# (side-1 distance, side-2 owner) queries per searchsorted pass of
# count_short_pairs: caps its per-query temporaries near 256 KiB
_PAIR_CHUNK = 1 << 12


@dataclass
class _PairTables:
    """Radius-independent counting tables of a decomposition, flat over all
    its two-sided patches, in patch order.

    A patch's vertices are grouped by side (the child they lie in) and owner
    (their nearest boundary vertex of either child, in the patch, ties to
    the smaller id); a patch is two-sided when both sides hold a group.  A
    cell is one (b1, b2) pair of owners of a patch, b1-major: cell_u and
    cell_v are its two boundary vertices, so one oracle lookup serves every
    cell.  A segment is one side-2 group, in (patch, b2) order; keys holds
    the groups' sorted distances as segment number + 1j * distance, which
    numpy orders segment first, so one searchsorted looks up every segment
    at once.  x1 holds the side-1 groups' sorted distances in (patch, b1)
    order.  A query is one (x1 entry, side-2 owner of its patch) pair: x1[t]
    has width[t] of them, numbered qend[t] - width[t] up to qend[t], and
    query q reads cell cell[t] + q and segment seg[t] + q.  below is the
    number of keys before each query's segment, summed over all queries.
    Every array is the size of the patches or of the cells, never of the
    queries.
    """

    cell_u: np.ndarray
    cell_v: np.ndarray
    keys: np.ndarray
    x1: np.ndarray
    width: np.ndarray
    qend: np.ndarray
    cell: np.ndarray
    seg: np.ndarray
    below: int


class _Flat:
    """A list of int lists as one int64 array, read once."""

    def __init__(self, lists: list[list[int]]):
        self.length = np.fromiter(map(len, lists), np.int64, len(lists))
        self.items = np.fromiter(chain.from_iterable(lists), np.int64, int(self.length.sum()))
        self.start = np.cumsum(self.length) - self.length

    def of(self, which: np.ndarray) -> np.ndarray:
        """The items of the lists numbered which, one list after another."""
        length = self.length[which]
        skip = np.repeat(self.start[which] - (np.cumsum(length) - length), length)
        return self.items[np.arange(skip.size) + skip]


def _nearest_borders(g: Graph, hd: HierarchicalDecomposition):
    """(node, side, owner, distance) of every vertex that reaches a boundary
    vertex of its patch's children inside the patch, over every internal
    node of hd; side is 1 in the first child and 2 in the second.

    The patches at one depth are disjoint, so the graph of their inner
    edges serves them all: one multi-source scipy search per depth gives
    each vertex its distance to the nearest boundary vertex.  Its owner,
    the smallest-id nearest one, is the least boundary vertex that reaches
    it along tight edges (d[x] + w == d[u], zero weights included), which
    one more search finds for all (_least_reaching).  Checks on the way
    that hd's root patch is 0..n-1, that children partition their parent
    and record their boundary inside it, and that leaves are single
    vertices.
    """
    nodes, n, count = hd.nodes, g.n, len(hd.nodes)
    patch = _Flat([nd.patch for nd in nodes])
    bound = _Flat([nd.boundary for nd in nodes])
    size = patch.length
    leaf = np.array([nd.children is None for nd in nodes])
    kids_of = np.array([nd.children or (0, 0) for nd in nodes], dtype=np.int64)
    root = patch.of(np.zeros(1, dtype=np.int64))
    if root.size != n or not np.array_equal(np.sort(root), np.arange(n)) \
            or ((kids_of < 0) | (kids_of >= count))[~leaf].any():
        raise ValueError(_MISMATCH)
    adj = g.csr()
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    owner = np.zeros(n, dtype=np.int64)  # each vertex's node at this depth
    seen = np.zeros(count, dtype=bool)
    found = []
    layer = np.zeros(1, dtype=np.int64)
    while layer.size:
        if (size[layer[leaf[layer]]] != 1).any():
            raise ValueError(_MISMATCH)
        parents = layer[~leaf[layer]]
        kids = kids_of[parents].ravel()
        seen[layer] = True
        if seen[kids].any() or np.bincount(kids, minlength=count).max(initial=0) > 1:
            raise ValueError(_MISMATCH)
        verts = patch.of(kids)
        if ((verts < 0) | (verts >= n)).any() or (np.bincount(verts, minlength=n) > 1).any() \
                or (size[kids[0::2]] + size[kids[1::2]] != size[parents]).any() \
                or (owner[verts] != np.repeat(parents, size[parents])).any():
            raise ValueError(_MISMATCH)
        child = owner.copy()
        child[verts] = np.repeat(kids, size[kids])
        marks = bound.of(kids)
        if ((marks < 0) | (marks >= n)).any() \
                or (child[marks] != np.repeat(kids, bound.length[kids])).any():
            raise ValueError(_MISMATCH)
        if marks.size:
            inner = owner[rows] == owner[adj.indices]  # edges inside one patch
            tail, head = rows[inner], adj.indices[inner]
            sub = sp.csr_matrix(
                (adj.data[inner], head, np.concatenate([[0], np.cumsum(np.bincount(
                    tail, minlength=n))])), shape=(n, n))
            on_border = np.zeros(n, dtype=bool)
            on_border[marks] = True
            borders = np.flatnonzero(on_border)
            dist = _csgraph_dijkstra(sub, indices=borders, min_only=True)
            tight = np.isfinite(dist[tail]) & (dist[tail] + sub.data == dist[head])
            at = np.flatnonzero(np.isfinite(dist))
            rank = _least_reaching(n, tail[tight], head[tight], borders)[at]
            node = owner[at]
            found.append((node, np.where(child[at] == kids_of[node, 0], 1, 2),
                          borders[rank.astype(np.int64)], dist[at]))
        owner, layer = child, kids
    if not found:
        return (np.empty(0, dtype=np.int64),) * 3 + (np.empty(0),)
    return tuple(np.concatenate(cols) for cols in zip(*found))


def _least_reaching(n: int, tail: np.ndarray, head: np.ndarray,
                    borders: np.ndarray) -> np.ndarray:
    """For each of n vertices, the index in the sorted array borders of the
    first border vertex that reaches it along the arcs tail -> head, as a
    float (inf where none does).  One search from an extra vertex n, with
    an arc of length k to borders[k] and every other arc of length 0;
    tail must be sorted."""
    k = borders.size
    reach = sp.csr_matrix(
        (np.concatenate([np.zeros(head.size), np.arange(k, dtype=np.float64)]),
         np.concatenate([head, borders]),
         np.concatenate([[0], np.cumsum(np.bincount(tail, minlength=n)), [head.size + k]])),
        shape=(n + 1, n + 1))
    return _csgraph_dijkstra(reach, indices=n)[:n]


def _pair_tables(g: Graph, hd: HierarchicalDecomposition) -> _PairTables:
    """The flat counting tables of hd (see _PairTables), computed once per
    decomposition by one sort of every (node, side, owner, distance) that
    _nearest_borders finds."""
    node, side, owner, dist = _nearest_borders(g, hd)
    count = len(hd.nodes)
    two = (np.bincount(node[side == 1], minlength=count) > 0) & \
        (np.bincount(node[side == 2], minlength=count) > 0)
    group = (node * 2 + side - 1) * g.n + owner  # orders as (node, side, owner)
    order = np.lexsort((dist, group))
    order = order[two[node[order]]]
    node, side, owner, dist, group = (a[order] for a in (node, side, owner, dist, group))
    new = np.ones(node.size, dtype=bool)  # groups are the runs of one key
    new[1:] = group[1:] != group[:-1]
    starts = np.flatnonzero(new)
    size = np.diff(np.append(starts, node.size))
    ones = side[starts] == 1
    x_len, y_len = size[ones], size[~ones]
    b1, b2 = owner[starts][ones], owner[starts][~ones]
    patch = np.flatnonzero(two)
    n1 = np.bincount(node[starts][ones], minlength=count)[patch]
    n2 = np.bincount(node[starts][~ones], minlength=count)[patch]
    y_at = np.cumsum(n2) - n2  # first segment of each patch
    # each side-1 group starts a run of cells, one per side-2 group of its
    # patch: (b1, b2) cells are b1-major
    xp = np.repeat(np.arange(patch.size), n1)
    x_seg, x_width = y_at[xp], n2[xp]
    x_cell = np.cumsum(x_width) - x_width
    run = np.repeat(x_cell - x_seg, x_width)
    keys = np.empty(int(y_len.sum()), dtype=np.complex128)
    keys.real = np.repeat(np.arange(y_len.size), y_len)
    keys.imag = dist[side == 2]
    # keys before each segment, and their running sum over the segments
    before = np.concatenate([[0], np.cumsum(np.cumsum(y_len) - y_len)])
    width = np.repeat(x_width, x_len)
    qend = np.cumsum(width)
    return _PairTables(
        cell_u=np.repeat(b1, x_width), cell_v=b2[np.arange(run.size) - run], keys=keys,
        x1=dist[side == 1], width=width, qend=qend,
        cell=np.repeat(x_cell, x_len) - (qend - width),
        seg=np.repeat(x_seg, x_len) - (qend - width),
        below=int((x_len * (before[x_seg + x_width] - before[x_seg])).sum()))


def count_short_pairs(g: Graph, hd: HierarchicalDecomposition, r: float,
                      eps: float, oracle: DistanceOracle) -> int:
    """Integer alpha with |P_<=r| <= alpha <= |P_<=(3+eps) r|.

    One oracle lookup gives every cell of every patch (see _PairTables) its
    cap = 3r - oracle / (1 + eps_o).  A pair (x, y) counts when y <= cap -
    x for the cell of x's and y's owners, so one searchsorted over the
    segment-tagged keys counts, for every (side-1 vertex, side-2 owner)
    query, the side-2 distances of that owner within the vertex's
    threshold.  The queries are expanded and looked up _PAIR_CHUNK at a
    time, so the temporaries never grow with the number of queries.  A
    negative cap counts nothing, since distances are >= 0; an oracle answer
    of NaN raises ValueError.
    """
    _check_positive("r", r)
    _check_positive("eps", eps)
    if len(hd.nodes[0].patch) != g.n:
        raise ValueError(_MISMATCH)
    if oracle.eps > eps / 3.0 + 1e-12:
        raise ValueError(f"oracle eps {oracle.eps} exceeds eps/3 = {eps / 3.0}")
    if hd._pair_cache is None:  # checks the rest of hd's contract
        hd._pair_cache = _pair_tables(g, hd)
    tables = hd._pair_cache
    scale = 1.0 + oracle.eps
    cap = 3.0 * r - oracle.pairs(tables.cell_u, tables.cell_v) / scale
    if np.isnan(cap).any():  # a NaN key would sort past its segment's end
        raise ValueError("the distance oracle returned NaN")
    qend = tables.qend
    alpha = -tables.below
    lo = q0 = 0
    while lo < len(qend):  # x1 entries lo..hi-1, queries q0..q1-1
        hi = max(lo + 1, int(np.searchsorted(qend, q0 + _PAIR_CHUNK, side="right")))
        q1 = int(qend[hi - 1])
        q = np.arange(q0, q1)
        t = np.repeat(np.arange(lo, hi), tables.width[lo:hi])
        key = np.empty(q1 - q0, dtype=np.complex128)
        key.real = tables.seg[t] + q
        key.imag = cap[tables.cell[t] + q] - tables.x1[t]
        alpha += int(np.searchsorted(tables.keys, key, side="right").sum())
        lo, q0 = hi, q1
    return alpha


def _zero_distance_pairs(g: Graph) -> int:
    """The number of vertex pairs at distance 0: those joined by a path of
    zero-weight edges, s(s-1)/2 over the classes of s such vertices."""
    dsu = DisjointSets(g.n)
    for u, v, w in g.edges:
        if w == 0.0:
            dsu.union(u, v)
    size = np.bincount([dsu.find(x) for x in range(g.n)])
    return int((size * (size - 1) // 2).sum())


def select_kth_distance(g: Graph, k: int, eps: float,
                        hd: HierarchicalDecomposition | None = None,
                        oracle: DistanceOracle | None = None) -> tuple[float, float]:
    """(alpha, factor) with the k-th smallest pairwise distance in
    [alpha, factor * alpha], factor = (3 + eps)(1 + eps).

    When k is at most the number of pairs at distance 0, the k-th distance
    is 0 and alpha is 0.  Otherwise the k-th distance is at least the least
    positive weight w_min: binary search for the smallest radius on the
    geometric grid {w_min (1+eps)^j} whose count reaches k; its grid
    predecessor certifies the lower end of the bracket.
    """
    _check_positive("eps", eps)
    npairs = g.n * (g.n - 1) // 2
    if not 1 <= k <= npairs:
        raise ValueError(f"k must be in [1, {npairs}]")
    factor = (3.0 + eps) * (1.0 + eps)
    if k <= _zero_distance_pairs(g):
        _check_planar_input(g)
        return 0.0, factor
    w_min = g.min_weight()
    top = g.n * g.max_weight()
    _check_levels(eps, 1.0 + eps, top, w_min)
    if hd is None:
        hd = build_hd(g)
    if oracle is None:
        oracle = exact_oracle(g)
    grid = [w_min]
    while grid[-1] < top:
        grid.append(grid[-1] * (1.0 + eps))
    lo, hi = 0, len(grid) - 1
    if count_short_pairs(g, hd, grid[hi], eps, oracle) < k:
        raise AssertionError("count at the top of the grid fell short of k")
    while lo < hi:
        mid = (lo + hi) // 2
        if count_short_pairs(g, hd, grid[mid], eps, oracle) >= k:
            hi = mid
        else:
            lo = mid + 1
    return grid[lo] / (1.0 + eps), factor
