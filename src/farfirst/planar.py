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


def _components(adj, patch: list[int]) -> list[list[int]]:
    inside = set(patch)
    seen: set[int] = set()
    comps: list[list[int]] = []
    for start in patch:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            for nb, _ in adj[stack.pop()]:
                if nb in inside and nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
                    stack.append(nb)
        comps.append(sorted(comp))
    return sorted(comps, key=lambda c: (-len(c), c[0]))


def _split_patch(adj, patch: list[int]) -> tuple[list[int], list[int]]:
    """Split a patch into two disjoint halves of at most 2/3 the size.

    If one component dominates, a median BFS level of it becomes a separator
    (below and above are each at most half the component); the resulting
    pieces, none larger than half the patch, are then packed greedily.
    """
    total = len(patch)
    comps = _components(adj, patch)
    items: list[list[int]]
    if 3 * len(comps[0]) > 2 * total:
        comp = comps[0]
        inside = set(comp)
        level = {comp[0]: 0}
        frontier = [comp[0]]
        while frontier:
            nxt = []
            for u in frontier:
                for nb, _ in adj[u]:
                    if nb in inside and nb not in level:
                        level[nb] = level[u] + 1
                        nxt.append(nb)
            frontier = nxt
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
    """Interface: query(u, v) in [d(u, v), (1 + eps) d(u, v)]; block(us, vs)
    is the len(us) x len(vs) matrix of the same values."""

    eps: float = 0.0

    def query(self, u: int, v: int) -> float:
        raise NotImplementedError

    def block(self, us, vs) -> np.ndarray:
        out = np.empty((len(us), len(vs)), dtype=np.float64)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                out[i, j] = self.query(int(u), int(v))
        return out


class _ExactOracle(DistanceOracle):
    """Full single-source rows, kept: row _slot[u] of _rows is the row of
    source u (_slot[u] is -1 until some block asks for it).  One matrix, so
    a block is one gather: select_kth_distance asks for a block per patch
    in every count of its search."""

    eps = 0.0

    def __init__(self, g: Graph):
        self._g = g
        self._rows = np.empty((0, g.n))
        self._slot = np.full(g.n, -1, dtype=np.int64)

    def query(self, u: int, v: int) -> float:
        return float(self.block([u], [v])[0, 0])

    def block(self, us, vs) -> np.ndarray:
        # looked up on the module at call time, as in greedy.exact_greedy, so
        # a tracer that wraps csgraph.dijkstra sees the call
        import scipy.sparse.csgraph as csg

        us = np.asarray(us, dtype=np.int64)
        slot = self._slot[us]
        if -1 in slot.tolist():  # on a patch's few rows, cheaper than slot.min()
            missing = np.unique(us[slot < 0])
            new = csg.dijkstra(self._g.csr(), indices=missing)
            used = len(self._rows)
            # the first rows are kept as scipy returns them, not copied
            self._rows = np.concatenate([self._rows, new]) if used else new
            self._slot[missing] = np.arange(used, used + len(missing))
            slot = self._slot[us]
        return self._rows[slot[:, None], np.asarray(vs, dtype=np.int64)]


def exact_oracle(g: Graph) -> DistanceOracle:
    """Exact oracle (valid for every eps >= 0): full single-source rows,
    computed by one scipy call per block for the sources not yet seen, and
    kept."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    return _ExactOracle(g)


@dataclass
class _Patch:
    """Radius-independent counting tables of one internal patch.

    groups[(side, b)] holds the sorted within-patch distances of the
    vertices on that side assigned to boundary vertex b.  b1 and b2 are the
    boundary vertices that own a side-1 and a side-2 group.  x1 concatenates
    the side-1 groups in b1 order, and own[i] is the index into b1 of x1[i].
    """

    groups: dict[tuple[int, int], np.ndarray]
    b1: np.ndarray
    b2: np.ndarray
    x1: np.ndarray
    own: np.ndarray


@dataclass
class _PairTables:
    sources: np.ndarray  # every b1 of every patch, once
    patches: list[_Patch]


def _pair_tables(g: Graph, hd: HierarchicalDecomposition) -> _PairTables:
    """Per internal patch with groups on both sides: keyed by (side,
    boundary id), the sorted within-patch distances of the vertices assigned
    to that boundary vertex, in the layout count_short_pairs scans (see
    _Patch).  Assignment = nearest boundary vertex in G[patch] by a labeled
    multi-source Dijkstra, ties to the smaller vertex id.  Radius-independent,
    computed once per decomposition.
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
            found.append((groups, b1, b2))
    sources = np.unique(np.asarray([b for f in found for b in f[1]], dtype=np.int64))
    patches = []
    for groups, b1, b2 in found:
        x1 = [groups[(1, b)] for b in b1]
        patches.append(_Patch(
            groups=groups, b1=np.asarray(b1, dtype=np.int64), b2=np.asarray(b2, dtype=np.int64),
            x1=np.concatenate(x1), own=np.repeat(np.arange(len(b1)), [len(x) for x in x1])))
    return _PairTables(sources=sources, patches=patches)


def count_short_pairs(g: Graph, hd: HierarchicalDecomposition, r: float,
                      eps: float, oracle: DistanceOracle) -> int:
    """Integer alpha with |P_<=r| <= alpha <= |P_<=(3+eps) r|.

    Per patch, cap = 3r - oracle / (1 + eps_o) over its b1 x b2 block (the
    exact oracle first finds the rows of every patch in one search), and for
    each side-2 owner b one searchsorted counts the side-2 distances of b
    within cap[own, b] - x1 of every side-1 vertex.  A negative cap counts
    nothing, since distances are >= 0.
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
    oracle.block(tables.sources, ())  # no columns: only fills the row cache
    alpha = 0
    for p in tables.patches:
        cap = 3.0 * r - oracle.block(p.b1, p.b2) / scale
        for j, b in enumerate(p.b2.tolist()):
            alpha += int(np.searchsorted(p.groups[(2, b)], cap[p.own, j] - p.x1,
                                         side="right").sum())
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
