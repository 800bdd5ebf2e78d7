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

import heapq
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, is_connected
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


def build_hd(g: Graph) -> HierarchicalDecomposition:
    """Balanced binary patch tree over the vertices of a declared-planar graph.

    Children partition their parent; each is at most 2/3 of it; leaves are
    single vertices.  Boundary vertices (those with a neighbor outside the
    patch) are recorded per node for the counting stage.
    """
    if g.n >= 3 and g.m > 3 * g.n - 6:
        raise ValueError(f"declared-planar violation: {g.m} edges > 3n-6 = {3 * g.n - 6}")
    if not is_connected(g):
        raise ValueError("graph must be connected")
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


# (side-1 distance, side-2 owner) queries per searchsorted pass of
# count_short_pairs: caps its per-query temporaries near 256 KiB
_PAIR_CHUNK = 1 << 12


@dataclass
class _Patch:
    """Counting groups of one internal patch with vertices on both sides.

    groups[(side, b)] holds the sorted within-patch distances of the
    vertices on that side assigned to boundary vertex b.  b1 and b2 list,
    in id order, the boundary vertices that own a side-1 and a side-2 group.
    """

    groups: dict[tuple[int, int], np.ndarray]
    b1: list[int]
    b2: list[int]


@dataclass
class _PairTables:
    """Radius-independent counting tables of a decomposition, flat over all
    its two-sided patches (see _Patch), in patch order.

    A cell is one (b1, b2) pair of a patch, b1-major: cell_u and cell_v are
    its two boundary vertices, so one oracle lookup serves every cell.  A
    segment is one side-2 group, in (patch, b2) order; keys holds the
    groups' sorted distances as segment number + 1j * distance, which numpy
    orders segment first, so one searchsorted looks up every segment at
    once.  x1 holds the side-1 groups in (patch, b1) order.  A query is one
    (x1 entry, side-2 owner of its patch) pair: x1[t] has width[t] of them,
    numbered qend[t] - width[t] up to qend[t], and query q reads cell
    cell[t] + q and segment seg[t] + q.  below is the number of keys before
    each query's segment, summed over all queries.  Every array is the size
    of the patches or of the cells, never of the queries.
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


def _patches(g: Graph, hd: HierarchicalDecomposition) -> list[_Patch]:
    """The internal patches with groups on both sides, in node order.

    Assignment = nearest boundary vertex in G[patch] by a labeled
    multi-source Dijkstra, ties to the smaller vertex id.
    """
    adj = g.adjacency()
    found = []
    for nd in hd.nodes:
        if nd.children is None:
            continue
        left, right = hd.nodes[nd.children[0]], hd.nodes[nd.children[1]]
        border = sorted(set(left.boundary) | set(right.boundary))
        inside = set(nd.patch)
        side = {}
        for v in left.patch:
            side[v] = 1
        for v in right.patch:
            side[v] = 2
        dist: dict[int, float] = {}
        label: dict[int, int] = {}
        heap = [(0.0, b, b) for b in border]
        heapq.heapify(heap)
        while heap:
            du, lab, u = heapq.heappop(heap)
            if u in dist:
                continue
            dist[u] = du
            label[u] = lab
            for nb, w in adj[u]:
                if nb in inside and nb not in dist:
                    heapq.heappush(heap, (du + w, lab, nb))
        buckets: dict[tuple[int, int], list[float]] = {}
        for v, dv in dist.items():
            buckets.setdefault((side[v], label[v]), []).append(dv)
        groups = {key: np.array(sorted(vals)) for key, vals in buckets.items()}
        b1 = [b for b in border if (1, b) in groups]
        b2 = [b for b in border if (2, b) in groups]
        if b1 and b2:
            found.append(_Patch(groups=groups, b1=b1, b2=b2))
    return found


def _pair_tables(g: Graph, hd: HierarchicalDecomposition) -> _PairTables:
    """The flat counting tables of hd (see _PairTables), computed once per
    decomposition."""
    ys, xs, x_cell, x_seg, x_width, cell_u, cell_v = [], [], [], [], [], [], []
    cells = segs = 0
    for p in _patches(g, hd):
        ys += [p.groups[(2, b)] for b in p.b2]
        for i, a in enumerate(p.b1):
            xs.append(p.groups[(1, a)])
            x_cell.append(cells + i * len(p.b2))
            x_seg.append(segs)
            x_width.append(len(p.b2))
        cell_u.append(np.repeat(p.b1, len(p.b2)))
        cell_v.append(np.tile(p.b2, len(p.b1)))
        cells += len(p.b1) * len(p.b2)
        segs += len(p.b2)
    y_len = np.array([len(y) for y in ys], dtype=np.int64)
    x_len = np.array([len(x) for x in xs], dtype=np.int64)
    keys = np.empty(int(y_len.sum()), dtype=np.complex128)
    keys.real = np.repeat(np.arange(segs), y_len)
    keys.imag = np.concatenate([np.empty(0), *ys])
    # keys before each segment, and their running sum over the segments
    before = np.concatenate([[0], np.cumsum(np.cumsum(y_len) - y_len)])
    x_seg, x_width = np.array(x_seg, dtype=np.int64), np.array(x_width, dtype=np.int64)
    width = np.repeat(x_width, x_len)
    qend = np.cumsum(width)
    return _PairTables(
        cell_u=np.concatenate([np.empty(0, dtype=np.int64), *cell_u]),
        cell_v=np.concatenate([np.empty(0, dtype=np.int64), *cell_v]), keys=keys,
        x1=np.concatenate([np.empty(0), *xs]), width=width, qend=qend,
        cell=np.repeat(np.array(x_cell, dtype=np.int64), x_len) - (qend - width),
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
        raise ValueError("decomposition does not match the graph")
    if oracle.eps > eps / 3.0 + 1e-12:
        raise ValueError(f"oracle eps {oracle.eps} exceeds eps/3 = {eps / 3.0}")
    if hd._pair_cache is None:
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


def select_kth_distance(g: Graph, k: int, eps: float,
                        hd: HierarchicalDecomposition | None = None,
                        oracle: DistanceOracle | None = None) -> tuple[float, float]:
    """(alpha, factor) with the k-th smallest pairwise distance in
    [alpha, factor * alpha], factor = (3 + eps)(1 + eps).

    Binary search for the smallest radius on the geometric grid
    {w_min (1+eps)^j} whose count reaches k; its grid predecessor certifies
    the lower end of the bracket.
    """
    _check_positive("eps", eps)
    npairs = g.n * (g.n - 1) // 2
    if not 1 <= k <= npairs:
        raise ValueError(f"k must be in [1, {npairs}]")
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
    return grid[lo] / (1.0 + eps), (3.0 + eps) * (1.0 + eps)
