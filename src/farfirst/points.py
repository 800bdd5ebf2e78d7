"""High-dimensional Euclidean pipeline: random projection, locality-sensitive
hashing, approximate r-nets, an approximate min-max spanning tree, and greedy
permutations with and without a spread assumption.

Hash family: p-stable Gaussian buckets h(x) = floor((a.x + b)/w) with w = 4r,
concatenated in groups of ceil(log2 n).  The (delta, c*delta, p1, p2)
sensitivity contract is computed in closed form and measured statistically;
the family's gap exponent is weaker than the ball-carving constructions, a
documented tradeoff for having something that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .greedy import GreedyPermutation, LevelSchedule, Net, _check_positive

__all__ = [
    "PointSet",
    "parse_points",
    "write_points",
    "jl_project",
    "gaussian_bucket_collision",
    "HashFamily",
    "approx_r_net_points",
    "AnnIndex",
    "ann_build",
    "ann_query",
    "MinMaxTree",
    "approx_minmax_tree",
    "approx_greedy_points_bounded_spread",
    "approx_greedy_points",
]


@dataclass
class PointSet:
    coords: np.ndarray  # n x d, float64

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=np.float64)
        if self.coords.ndim != 2 or self.coords.shape[0] < 1 or self.coords.shape[1] < 1:
            raise ValueError("coords must be a non-empty n x d matrix")
        if not np.all(np.isfinite(self.coords)):
            raise ValueError("coordinates must be finite")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


def parse_points(source) -> PointSet:
    """Read a point file: header "n d", then n coordinate rows."""
    from pathlib import Path

    name = "<string>"
    # a newline-free non-blank string is a path; anything else is file text
    if isinstance(source, (str, Path)) and (
            isinstance(source, Path) or ("\n" not in source and source.strip())):
        name = str(source)
        try:
            text = Path(source).read_text()
        except OSError as exc:
            raise ValueError(f"{name}: cannot read point file: {exc}") from exc
    else:
        text = str(source)
    rows = [(i + 1, ln.split()) for i, ln in enumerate(text.splitlines()) if ln.strip()]
    if not rows:
        raise ValueError(f"{name}: empty point file")
    lineno, head = rows[0]
    if len(head) != 2:
        raise ValueError(f"{name}:{lineno}: expected header 'n d'")
    n, d = int(head[0]), int(head[1])
    if len(rows) - 1 != n:
        raise ValueError(f"{name}: header promises {n} points, file has {len(rows) - 1}")
    coords = np.empty((n, d))
    for i, (lineno, parts) in enumerate(rows[1:]):
        if len(parts) != d:
            raise ValueError(f"{name}:{lineno}: expected {d} coordinates")
        try:
            coords[i] = [float(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from exc
    return PointSet(coords)


def write_points(pts: PointSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{pts.n} {pts.d}\n")
        for row in pts.coords:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def _require_distinct(coords: np.ndarray) -> None:
    if np.unique(coords, axis=0).shape[0] != coords.shape[0]:
        raise ValueError("duplicate points (infinite spread)")


# --- dimension reduction ---


def jl_project(pts: PointSet, eps: float, seed: int) -> PointSet:
    """Random Gaussian projection to ceil(8 ln n / eps^2) dimensions.

    Identity when the input dimension is already at or below the target.
    """
    _check_positive("eps", eps)
    target = math.ceil(8.0 * math.log(pts.n) / eps**2) if pts.n > 1 else 1
    target = max(target, 1)
    if pts.d <= target:
        return pts
    rng = np.random.default_rng(seed)
    proj = rng.normal(size=(pts.d, target)) / math.sqrt(target)
    return PointSet(pts.coords @ proj)


# --- locality-sensitive hashing ---


def gaussian_bucket_collision(u: float, w: float) -> float:
    """Collision probability of one bucket hash for points at distance u.

    Closed form for h(x) = floor((a.x + b)/w) with Gaussian a and uniform b:
    p(u) = 1 - 2*Phi(-w/u) - (2u / (sqrt(2 pi) w)) * (1 - exp(-w^2 / (2u^2))).
    """
    if u <= 0.0:
        return 1.0
    t = w / u
    phi_neg = 0.5 * (1.0 - math.erf(t / math.sqrt(2.0)))
    return 1.0 - 2.0 * phi_neg - (2.0 / (math.sqrt(2.0 * math.pi) * t)) * (
        1.0 - math.exp(-(t * t) / 2.0))


@dataclass
class HashFamily:
    """(delta, c*delta, p1, p2)-sensitive family of k concatenated-bucket hashes."""

    delta: float
    c: float
    w: float
    group: int  # atomic hashes concatenated per function
    k: int      # number of functions
    a: np.ndarray  # d x (k*group) Gaussian directions
    b: np.ndarray  # k*group uniform offsets in [0, w)
    p1: float
    p2: float

    @classmethod
    def build(cls, d: int, n: int, delta: float, c: float,
              rng: np.random.Generator, alpha: float = 2.0) -> "HashFamily":
        if delta <= 0 or c <= 1:
            raise ValueError("need delta > 0 and c > 1")
        w = 4.0 * delta
        group = max(1, math.ceil(math.log2(max(n, 2))))
        p1 = gaussian_bucket_collision(delta, w) ** group
        p2 = gaussian_bucket_collision(c * delta, w) ** group
        k = max(1, math.ceil((alpha / p1) * math.log(max(n, 2))))
        a = rng.normal(size=(d, k * group))
        b = rng.uniform(0.0, w, size=k * group)
        return cls(delta=delta, c=c, w=w, group=group, k=k, a=a, b=b, p1=p1, p2=p2)

    def collision_prob(self, u: float) -> float:
        """Single-function (concatenated) collision probability at distance u."""
        return gaussian_bucket_collision(u, self.w) ** self.group

    def hash_points(self, coords: np.ndarray) -> np.ndarray:
        """Bucket keys, shape (n, k, group) int64."""
        keys = np.floor((coords @ self.a + self.b) / self.w).astype(np.int64)
        return keys.reshape(coords.shape[0], self.k, self.group)


def _bucket_tables(keys: np.ndarray, ids) -> list[dict]:
    tables: list[dict] = []
    for j in range(keys.shape[1]):
        table: dict = {}
        for row, pid in enumerate(ids):
            table.setdefault(keys[row, j].tobytes(), []).append(pid)
        tables.append(table)
    return tables


def _lsh_net_sweep(coords: np.ndarray, ids, r: float, c: float,
                   rng: np.random.Generator, marker_ids=()) -> tuple[list[int], list[float]]:
    """Marking sweep over ids (in order): unmarked points join the net; each
    new net point marks its hash-collision candidates within c*r.

    marker_ids pre-mark everything within c*r of them (exact distances); they
    model already-emitted points that must suppress nearby selections.
    Returns (selected ids, distance-to-prior-selection witnesses).
    """
    ids = [int(i) for i in ids]
    fam = HashFamily.build(coords.shape[1], len(ids), r, c, rng)
    keys = fam.hash_points(coords[ids])
    tables = _bucket_tables(keys, ids)
    row_of = {pid: row for row, pid in enumerate(ids)}
    marked = set()
    anchors = [int(m) for m in marker_ids]  # prior emissions, then new net points
    if anchors:
        sub = coords[ids]
        for m in anchors:
            close = np.linalg.norm(sub - coords[m], axis=1) <= c * r
            marked.update(pid for pid, hit in zip(ids, close) if hit)
    selected: list[int] = []
    deltas: list[float] = []
    for x in ids:
        if x in marked:
            continue
        if anchors:
            delta = float(np.min(np.linalg.norm(coords[anchors] - coords[x], axis=1)))
        else:
            delta = float("inf")
        selected.append(x)
        deltas.append(delta)
        anchors.append(x)
        row = row_of[x]
        cand = {x}
        for j, table in enumerate(tables):
            cand.update(table.get(keys[row, j].tobytes(), ()))
        cand_list = sorted(cand)
        dist = np.linalg.norm(coords[cand_list] - coords[x], axis=1)
        marked.update(p for p, dd in zip(cand_list, dist) if dd <= c * r)
    return selected, deltas


def approx_r_net_points(pts: PointSet, r: float, eps: float, seed: int) -> Net:
    """Approximate r-net: covering within (1+eps)*r is deterministic (the
    marking rule only ever marks within that radius); packing >= r holds with
    high probability and is the caller's business to verify when it matters.
    """
    _check_positive("r", r)
    _check_positive("eps", eps)
    rng = np.random.default_rng(seed)
    selected, deltas = _lsh_net_sweep(pts.coords, range(pts.n), r, 1.0 + eps, rng)
    return Net(points=selected, r=r, cover_field=None, selection_deltas=deltas)


# --- approximate nearest neighbor ---


@dataclass
class AnnIndex:
    coords: np.ndarray
    ids: list[int]
    c: float
    rungs: list  # (delta_j, HashFamily, tables, keys) from small to large


def ann_build(pts, c: float, seed: int, ids=None) -> AnnIndex:
    """Hash-table ladder over a geometric range of radii (ratio (1+c)/2)."""
    if c <= 1:
        raise ValueError("need c > 1")
    coords = pts.coords if isinstance(pts, PointSet) else np.asarray(pts, dtype=np.float64)
    ids = list(range(coords.shape[0])) if ids is None else [int(i) for i in ids]
    if not ids:
        raise ValueError("empty index")
    rng = np.random.default_rng(seed)
    rungs = []
    if len(ids) >= 2:
        sub = coords[ids]
        from scipy.spatial.distance import pdist

        dists = pdist(sub)
        d_lo, d_hi = float(np.min(dists)), float(np.max(dists))
        if d_lo <= 0.0:
            d_lo = max(d_hi * 1e-9, 1e-300)
        gamma = (1.0 + c) / 2.0
        delta_j = d_lo
        while True:
            fam = HashFamily.build(coords.shape[1], len(ids), delta_j, c, rng)
            keys = fam.hash_points(sub)
            rungs.append((delta_j, fam, _bucket_tables(keys, ids)))
            if delta_j >= d_hi:
                break
            delta_j *= gamma
    return AnnIndex(coords=coords, ids=ids, c=c, rungs=rungs)


def ann_query(index: AnnIndex, q: np.ndarray) -> int:
    """Id of a point within c times the true nearest distance (whp).

    Walks the ladder bottom-up; a rung's answer is accepted only when its
    verified distance is at most (2c/(1+c)) * delta_j, which caps the result
    at c * true-NN.  Exhausting the ladder falls back to a linear scan.
    """
    q = np.asarray(q, dtype=np.float64)
    coords, ids = index.coords, index.ids
    if len(ids) == 1:
        return ids[0]
    accept = 2.0 * index.c / (1.0 + index.c)
    best_id, best_d = -1, float("inf")
    for delta_j, fam, tables in index.rungs:
        keys = fam.hash_points(q[None, :])[0]
        cand = set()
        for j, table in enumerate(tables):
            cand.update(table.get(keys[j].tobytes(), ()))
        if cand:
            cand_list = sorted(cand)
            dist = np.linalg.norm(coords[cand_list] - q, axis=1)
            pos = int(np.argmin(dist))
            if dist[pos] < best_d:
                best_id, best_d = cand_list[pos], float(dist[pos])
        if best_d <= accept * delta_j:
            return best_id
    sub_d = np.linalg.norm(coords[ids] - q, axis=1)
    return ids[int(np.argmin(sub_d))]


# --- minimum-maximum spanning tree ---


@dataclass
class MinMaxTree:
    n: int
    edges: list[tuple[int, int, float]]
    _adj: list | None = field(default=None, repr=False)

    def adjacency(self):
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for u, v, w in self.edges:
                adj[u].append((v, w))
                adj[v].append((u, w))
            self._adj = adj
        return self._adj

    def bottleneck(self, u: int, v: int) -> float:
        """Maximum edge length on the unique u-v path."""
        adj = self.adjacency()
        stack = [(u, -1, 0.0)]
        while stack:
            node, parent, mx = stack.pop()
            if node == v:
                return mx
            for nb, w in adj[node]:
                if nb != parent:
                    stack.append((nb, node, max(mx, w)))
        raise ValueError("disconnected tree")


def approx_minmax_tree(pts: PointSet, eps: float, seed: int) -> MinMaxTree:
    """Boruvka stages over approximate nearest-neighbor queries.

    Components get bit identifiers; one ANN structure per (bit, value) class
    lets every point find a near-minimal edge leaving its own component, and
    candidate edges are added in sorted order through a union-find (which is
    the cycle-preventing tie rule).  Path bottlenecks come out within (1+eps)
    of the MST's with high probability.
    """
    _check_positive("eps", eps)
    n = pts.n
    if n < 2:
        raise ValueError("need at least 2 points")
    _require_distinct(pts.coords)
    from .graphs import DisjointSets

    rng = np.random.default_rng(seed)
    dsu = DisjointSets(n)
    coords = pts.coords
    edges: list[tuple[int, int, float]] = []
    while True:
        roots = sorted({dsu.find(v) for v in range(n)})
        if len(roots) == 1:
            break
        comp_idx = {r: i for i, r in enumerate(roots)}
        comp = np.array([comp_idx[dsu.find(v)] for v in range(n)])
        bits = max(1, (len(roots) - 1).bit_length())
        class_members = {}
        for b in range(bits):
            for val in (0, 1):
                members = [v for v in range(n) if (comp[v] >> b) & 1 == val]
                if members:
                    class_members[(b, val)] = (members, ann_build(
                        pts, 1.0 + eps, int(rng.integers(2**63)), ids=members))
        best: dict[int, tuple[float, int, int]] = {}
        for p in range(n):
            for b in range(bits):
                entry = class_members.get((b, 1 - ((comp[p] >> b) & 1)))
                if entry is None:
                    continue
                z = ann_query(entry[1], coords[p])
                d = float(np.linalg.norm(coords[p] - coords[z]))
                cand = (d, min(p, z), max(p, z))
                t = comp[p]
                if t not in best or cand < best[t]:
                    best[t] = cand
        for t in range(len(roots)):
            if t not in best:  # all queries missed: exact rescue scan
                members = [v for v in range(n) if comp[v] == t]
                others = [v for v in range(n) if comp[v] != t]
                dmat = np.linalg.norm(coords[members][:, None, :] - coords[others][None, :, :], axis=2)
                i, j = np.unravel_index(int(np.argmin(dmat)), dmat.shape)
                p, z = members[i], others[j]
                best[t] = (float(dmat[i, j]), min(p, z), max(p, z))
        for d, u, v in sorted(best.values()):
            if dsu.union(u, v):
                edges.append((u, v, d))
    return MinMaxTree(n=n, edges=edges)


# --- greedy permutations over points ---


def _point_diameter_bound(coords: np.ndarray) -> float:
    ecc = float(np.max(np.linalg.norm(coords - coords[0], axis=1)))
    return 2.0 * ecc


def _min_pairwise(coords: np.ndarray) -> float:
    n = coords.shape[0]
    best = float("inf")
    step = max(1, int(2e7) // max(1, n * coords.shape[1]))
    for lo in range(0, n, step):
        block = np.linalg.norm(coords[lo:lo + step, None, :] - coords[None, :, :], axis=2)
        for i in range(block.shape[0]):
            block[i, lo + i] = np.inf
        best = min(best, float(np.min(block)))
    return best


def approx_greedy_points_bounded_spread(pts: PointSet, eps: float, seed: int) -> GreedyPermutation:
    """(1+eps)-greedy permutation by per-level approximate nets.

    Runs the schedule at eps' = sqrt(1+eps) - 1 so the net's covering slack
    and the level ratio compound to exactly the claimed eps.
    """
    _check_positive("eps", eps)
    _require_distinct(pts.coords)
    if pts.n == 1:
        return GreedyPermutation(order=[0], radii=[float("inf")], eps=eps)
    coords = pts.coords
    eps_run = min(math.sqrt(1.0 + eps) - 1.0, 0.9)
    schedule = LevelSchedule.down_to(_point_diameter_bound(coords), eps_run,
                                     _min_pairwise(coords) / 2.0)
    rng = np.random.default_rng(seed)
    order_out: list[int] = []
    radii: list[float] = []
    emitted = np.zeros(pts.n, dtype=bool)
    for r in schedule.levels:
        if emitted.all():
            break
        if order_out:
            to_sel = np.linalg.norm(
                coords[:, None, :] - coords[order_out][None, :, :], axis=2).min(axis=1)
            candidates = [v for v in range(pts.n) if not emitted[v] and to_sel[v] > r]
        else:
            candidates = list(range(pts.n))
        if not candidates:
            continue
        rng_level = np.random.default_rng(rng.integers(2**63))
        selected, deltas = _lsh_net_sweep(coords, candidates, r, 1.0 + eps_run, rng_level,
                                          marker_ids=order_out)
        # deltas are exact distances to the full prior selection, so the
        # running minimum is a valid non-increasing radius sequence
        for v, d in zip(selected, deltas):
            radii.append(min(d, radii[-1]) if radii else d)
            order_out.append(v)
            emitted[v] = True
    if not emitted.all():
        raise AssertionError("schedule ended with unselected points")
    return GreedyPermutation(order=order_out, radii=radii, eps=eps)


def approx_greedy_points(pts: PointSet, eps: float, seed: int) -> GreedyPermutation:
    """Spread-independent (1+eps)-greedy permutation.

    An approximate min-max spanning tree partitions each level into
    subproblems: an edge is alive while its length is at most (1+3 eps) times
    the level, and components of alive edges are far enough apart that their
    nets cannot interfere.  A point is active once some incident tree edge is
    long relative to the level (length >= eps' r / 4n, eps' = min(eps, 1));
    inactive points huddle within eps' r / 4 of an active one and can be
    ignored.  Levels where no subproblem holds an unemitted active point are
    skipped by jumping straight to the next activation or death threshold, so
    the running time never depends on the spread.

    Emitted points stay active forever and pre-mark their surroundings with
    exact distances, which keeps new-versus-old separation deterministic; only
    same-level packing rests on the hash family, hence the whp guarantee.
    """
    _check_positive("eps", eps)
    _require_distinct(pts.coords)
    n = pts.n
    if n == 1:
        return GreedyPermutation(order=[0], radii=[float("inf")], eps=eps)
    from bisect import bisect_left

    from .graphs import DisjointSets

    coords = pts.coords
    e_int = min(eps, 8.0) / 8.0   # net slack and level ratio
    eps_a = min(eps, 1.0)         # activation budget
    c = 1.0 + e_int
    rng = np.random.default_rng(seed)
    tree = approx_minmax_tree(pts, eps, int(rng.integers(2**63)))
    longest_incident = np.zeros(n)
    for u, v, w in tree.edges:
        longest_incident[u] = max(longest_incident[u], w)
        longest_incident[v] = max(longest_incident[v], w)
    events = sorted({val for _, _, w in tree.edges
                     for val in (4.0 * n * w / eps_a, w / (1.0 + 3.0 * eps))})
    r = _point_diameter_bound(coords)
    emitted = np.zeros(n, dtype=bool)
    order_out: list[int] = []
    radii: list[float] = []
    levels_run = 0
    jumps = 0
    max_iters = 100000
    for _ in range(max_iters):
        if emitted.all():
            break
        dsu = DisjointSets(n)
        alive_cap = (1.0 + 3.0 * eps) * r
        for u, v, w in tree.edges:
            if w <= alive_cap:
                dsu.union(u, v)
        active = emitted | (longest_incident >= eps_a * r / (4.0 * n))
        groups: dict[int, list[int]] = {}
        for v in range(n):
            groups.setdefault(dsu.find(v), []).append(v)
        ran_any = False
        for root in sorted(groups):
            members = groups[root]
            if not any(active[v] and not emitted[v] for v in members):
                continue
            ran_any = True
            cand = [v for v in members if active[v] and not emitted[v]]
            markers = [v for v in members if emitted[v]]
            sub_rng = np.random.default_rng(rng.integers(2**63))
            sel, _ = _lsh_net_sweep(coords, cand, r, c, sub_rng, marker_ids=markers)
            for v in sel:
                radii.append(float("inf") if not order_out else r)
                order_out.append(v)
                emitted[v] = True
        if emitted.all():
            break
        if ran_any:
            levels_run += 1
            r /= 1.0 + e_int
        else:
            pos = bisect_left(events, r) - 1
            if pos < 0:
                raise AssertionError("points left but no activation event below level")
            r = events[pos] * (1.0 - 1e-12)  # land just under the threshold
            jumps += 1
    else:
        raise AssertionError("level loop failed to terminate")
    perm = GreedyPermutation(order=order_out, radii=radii, eps=eps)
    perm.levels_run = levels_run
    perm.level_jumps = jumps
    return perm
