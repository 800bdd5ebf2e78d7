"""Weighted undirected graphs: parsing, Dijkstra variants and diameter.

Whole-graph and multi-source searches run in scipy's Dijkstra over one CSR
builder and return one float64 distance per vertex.  The pruned relaxation
is the Python heap loop shared by every net sweep and the spread-free
greedy's truncated distances, because its pruning is what the sweep's
amortisation counts; the planar pair tables run their own labelled heap
(planar._patches).  The headed text formats (edge lists, points,
decompositions) all split their header and rows with _headed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csg

INF = float("inf")


# --- basic types ---


@dataclass
class Graph:
    """Undirected graph with non-negative edge weights.

    Vertices are 0..n-1.  Self-loops are rejected; parallel edges are kept
    (they never change shortest-path semantics).
    """

    n: int
    edges: list[tuple[int, int, float]] = field(default_factory=list)
    _adj: list[list[tuple[int, float]]] | None = field(
        default=None, init=False, repr=False, compare=False)
    _csr: object | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[tuple[int, float]]]:
        """Adjacency lists, built once and cached."""
        if self._adj is None:
            adj: list[list[tuple[int, float]]] = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = adj
        return self._adj

    def csr(self):
        """Sparse CSR adjacency (scipy), cached; used by the bulk solvers."""
        if self._csr is None:
            e = np.array(self.edges, dtype=np.float64).reshape(-1, 3)
            self._csr = _csr(self.n, e[:, 0], e[:, 1], e[:, 2])
        return self._csr

    def min_weight(self) -> float:
        """Smallest positive edge weight."""
        pos = [w for _, _, w in self.edges if w > 0.0]
        if not pos:
            raise ValueError("graph has no positive edge weights")
        return min(pos)

    def max_weight(self) -> float:
        if not self.edges:
            return 0.0
        return max(w for _, _, w in self.edges)


def _csr(n: int, u, v, w):
    """Symmetric n x n CSR matrix of the undirected edges (u[i], v[i], w[i]).

    Of parallel edges only the lightest is kept (scipy would sum them), and
    zero weights stay as explicit entries, which scipy's solvers read as
    edges.
    """
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    rows, cols, data = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    order = np.lexsort((data, cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return sp.csr_matrix((data[first], (rows[first], cols[first])), shape=(n, n))


def make_graph(n: int, edges) -> Graph:
    """Validate and build a Graph from (u, v, w) triples."""
    out: list[tuple[int, int, float]] = []
    for u, v, w in edges:
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not 0.0 <= w < INF:  # also false for NaN
            kind = "negative" if w < 0.0 else "non-finite"
            raise ValueError(f"{kind} weight {w} on edge ({u},{v})")
        out.append((u, v, w))
    return Graph(n=n, edges=out)


# --- file formats ---


def read_input(source, what: str) -> tuple[str, str]:
    """(name, text) of an input given as a path or as the text itself.

    A Path or a newline-free non-blank string is a path; anything else is
    the file text, named "<string>".  `what` names the input in the error
    raised for a file that cannot be read.
    """
    if isinstance(source, Path) or (
            isinstance(source, str) and "\n" not in source and source.strip()):
        try:
            return str(source), Path(source).read_text()
        except OSError as exc:
            raise ValueError(f"{source}: cannot read {what}: {exc}") from exc
    return "<string>", str(source)


def _headed(text: str, name: str, what: str, header: str):
    """Split a headed text format into (lineno, a, b, rows).

    The first non-blank line is the header of two integers a and b, at
    physical line lineno; rows lists every later non-blank line as
    (1-based physical line number, whitespace-split fields).  An empty text
    is an error naming `what`, and a header that is not two integers is an
    error at name:lineno quoting `header`.
    """
    rows = [(i, parts) for i, ln in enumerate(text.splitlines(), start=1)
            if (parts := ln.split())]
    if not rows:
        raise ValueError(f"{name}: empty {what}")
    lineno, head = rows[0]
    if len(head) != 2:
        raise ValueError(f"{name}:{lineno}: expected header '{header}'")
    try:
        a, b = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"{name}:{lineno}: bad header '{header}': {exc}") from exc
    return lineno, a, b, rows[1:]


def _ints(parts, name: str, lineno: int) -> list[int]:
    """The integers spelled by parts; a bad one is an error at name:lineno."""
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{name}:{lineno}: {exc}") from exc


def parse_graph(source, fmt: str | None = None) -> Graph:
    """Read a graph from a path or a text blob.

    Formats: "edgelist" (header "n m", then m lines "u v w", 0-based) and
    "gr" (DIMACS-like: c comments, "p <tag> n m", 1-based "a u v w" lines).
    fmt=None picks by file extension, defaulting to edgelist.
    """
    name, text = read_input(source, "graph file")
    if fmt is None:
        fmt = "gr" if Path(name).suffix == ".gr" else "edgelist"
    if fmt == "edgelist":
        return _parse_edgelist(text, name)
    if fmt == "gr":
        return _parse_gr(text, name)
    raise ValueError(f"unknown graph format {fmt!r}")


def _parse_edgelist(text: str, name: str) -> Graph:
    lineno, n, m, rows = _headed(text, name, "graph file", "n m")
    if n < 1 or m < 0:
        raise ValueError(f"{name}:{lineno}: need n >= 1 and m >= 0")
    if len(rows) != m:
        raise ValueError(f"{name}: header promises {m} edges, file has {len(rows)}")
    edges = []
    for lineno, parts in rows:
        if len(parts) != 3:
            raise ValueError(f"{name}:{lineno}: expected 'u v w'")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from exc
        edges.append((u, v, w))
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def _parse_gr(text: str, name: str) -> Graph:
    n = m = None
    edges: list[tuple[int, int, float]] = []
    for i, ln in enumerate(text.splitlines(), start=1):
        parts = ln.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise ValueError(f"{name}:{i}: duplicate p-line")
            if len(parts) < 3:
                raise ValueError(f"{name}:{i}: bad p-line")
            try:
                n, m = int(parts[-2]), int(parts[-1])
            except ValueError as exc:
                raise ValueError(f"{name}:{i}: bad p-line: {exc}") from exc
        elif parts[0] in ("a", "e"):
            if n is None:
                raise ValueError(f"{name}:{i}: edge before p-line")
            if len(parts) != 4:
                raise ValueError(f"{name}:{i}: expected '{parts[0]} u v w'")
            try:
                u, v, w = int(parts[1]) - 1, int(parts[2]) - 1, float(parts[3])
            except ValueError as exc:
                raise ValueError(f"{name}:{i}: {exc}") from exc
            edges.append((u, v, w))
        else:
            raise ValueError(f"{name}:{i}: unknown line kind {parts[0]!r}")
    if n is None:
        raise ValueError(f"{name}: missing p-line")
    if m != len(edges):
        raise ValueError(f"{name}: p-line promises {m} edges, file has {len(edges)}")
    try:
        return make_graph(n, edges)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from exc


def write_graph(g: Graph, path) -> None:
    """Write edge-list format ("n m" header, repr() weights round-trip)."""
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.m}\n")
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")


# --- shortest paths ---


def dijkstra(g: Graph, sources) -> np.ndarray:
    """Multi-source Dijkstra: entry v is the distance from v to the nearest
    of the source vertices (float64, inf where unreachable)."""
    sources = list(sources)
    if not sources:
        raise ValueError("empty source set")
    return csg.dijkstra(g.csr(), indices=sources, min_only=True)


def dijkstra_truncated(g: Graph, sources, cutoff: float) -> dict[int, float]:
    """Multi-source Dijkstra that never expands beyond the cutoff.

    Returns {vertex: distance} for every vertex at distance <= cutoff.
    """
    dist = csg.dijkstra(g.csr(), indices=list(sources), min_only=True, limit=cutoff)
    near = np.flatnonzero(dist <= cutoff)
    return dict(zip(near.tolist(), dist[near].tolist()))


def pruned_dijkstra_relax(adj, sources, delta, cutoff: float = INF) -> int:
    """Zero the sources' delta and relax outward, pruning non-improving pushes.

    `adj[u]` lists the (neighbour, weight) pairs of vertex u (a list of lists
    or a dict), and `delta` is any indexable float sequence, lowered in place;
    the hot paths pass a plain list, whose element reads and writes cost a
    fraction of a numpy scalar's.  A vertex enters the heap only when its
    tentative distance beats its delta and is at most the cutoff, so delta
    ends as the pointwise minimum of its prior values and the sources'
    distances truncated at the cutoff.  Returns the number of successful
    relaxations (decrease-key equivalents).
    """
    heap = [(0.0, s) for s in sources]
    for s in sources:
        delta[s] = 0.0
    heapq.heapify(heap)
    updates = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > delta[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < delta[v] and nd <= cutoff:
                delta[v] = nd
                updates += 1
                heapq.heappush(heap, (nd, v))
    return updates


def approx_diameter(g: Graph) -> float:
    """2-approximation of the diameter: twice the eccentricity of vertex 0."""
    ecc = float(np.max(dijkstra(g, [0])))
    if ecc == INF:
        raise ValueError("graph is disconnected")
    return 2.0 * ecc


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    return bool(np.all(np.isfinite(dijkstra(g, [0]))))


# --- contraction ---


class DisjointSets:
    """Union-find with path halving; representatives are tracked separately."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # keep the smaller id as the root so min-id representatives are free
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


class KruskalTree:
    """Kruskal reconstruction tree: the union-find classes of every prefix of
    one edge list, reached by undoing merges newest first.

    Edge k either merges two classes of the prefix-k union-find or does
    nothing.  Every class ever formed is one contiguous slice of a fixed
    leaf order: a merge joins the slice of a class with minimum id a to the
    slice right after it, of a class with minimum id b > a.  Leaves carry a
    class label that maps to the class's min id, so undoing a merge
    relabels only its smaller side: each vertex is relabelled O(log n)
    times over all prefixes.
    """

    def __init__(self, n: int, us, vs):
        dsu = DisjointSets(n)
        nxt = [-1] * n  # each class is a linked list headed by its min id
        tail = list(range(n))
        size = [1] * n
        pos: list[int] = []
        merges: list[tuple[int, int, int, int]] = []  # (a, b, |a side|, |b side|)
        for k, (u, v) in enumerate(zip(us, vs)):
            a, b = dsu.find(int(u)), dsu.find(int(v))
            if a == b:
                continue
            if b < a:
                a, b = b, a
            dsu.union(a, b)
            pos.append(k)
            merges.append((a, b, size[a], size[b]))
            nxt[tail[a]] = b
            tail[a] = tail[b]
            size[a] += size[b]
        leaves: list[int] = []
        for root in range(n):
            if dsu.parent[root] == root:
                x = root
                while x != -1:
                    leaves.append(x)
                    x = nxt[x]
        at = [0] * n
        for i, x in enumerate(leaves):
            at[x] = i
        self.n = n
        self._pos = np.asarray(pos, dtype=np.int64)
        self._merges = [(at[a], a, b, ka, kb) for a, b, ka, kb in merges]
        # one label per class of the whole list: its root, which is its min id
        self._label = np.asarray([dsu.find(x) for x in leaves], dtype=np.int64)
        self._leaves = np.asarray(leaves, dtype=np.int64)
        self._rep_of = np.arange(n + len(pos), dtype=np.int64)
        self.lo = len(us)
        self._live = len(pos)  # merges 0.._live-1 are in effect

    def lower_to(self, lo: int) -> np.ndarray:
        """Undo the merges of edges lo.. and return the min-id
        representative of every vertex for the prefix lo."""
        if lo > self.lo:
            raise ValueError(f"cannot raise the prefix from {self.lo} to {lo}")
        first = int(np.searchsorted(self._pos[:self._live], lo))
        label, rep_of = self._label, self._rep_of
        for j in range(self._live - 1, first - 1, -1):
            s, a, b, ka, kb = self._merges[j]
            fresh = self.n + j
            if kb <= ka:
                label[s + ka:s + ka + kb] = fresh
                rep_of[fresh] = b
            else:  # the b side keeps the merged class's label
                rep_of[label[s]] = b
                label[s:s + ka] = fresh
                rep_of[fresh] = a
        self._live = first
        self.lo = lo
        rep = np.empty(self.n, dtype=np.int64)
        rep[self._leaves] = rep_of[label]
        return rep


@dataclass
class ContractedGraph:
    """View of a graph with some edges contracted and only some kept active.

    rep[v] is the super-vertex id of v, the minimum original vertex id in its
    contracted class, so every super-vertex is one of the original vertices.
    Active edges are remapped onto representatives; self-loops are dropped.
    """

    rep: np.ndarray
    edges: list[tuple[int, int, float, int]]  # (rep_u, rep_v, w, original edge index)

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {}
        for u, v, w, _ in self.edges:
            adj.setdefault(u, []).append((v, w))
            adj.setdefault(v, []).append((u, w))
        return adj


def contract_graph(g: Graph, contracted_idx, active_idx) -> ContractedGraph:
    """Contract the given edge indices and keep the active ones, remapped."""
    dsu = DisjointSets(g.n)
    for i in contracted_idx:
        u, v, _ = g.edges[i]
        dsu.union(u, v)
    rep = np.fromiter((dsu.find(v) for v in range(g.n)), dtype=np.int64, count=g.n)
    edges = []
    for i in active_idx:
        u, v, w = g.edges[i]
        ru, rv = int(rep[u]), int(rep[v])
        if ru != rv:
            edges.append((ru, rv, w, int(i)))
    return ContractedGraph(rep=rep, edges=edges)
