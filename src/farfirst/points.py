"""High-dimensional Euclidean pipeline: locality-sensitive hashing,
approximate r-nets, an approximate min-max spanning tree, and greedy
permutations with and without a spread assumption.  Every point distance
but ann_build's pdist is a row length from _norms, so two computations of
one distance agree bit for bit.

Hash family: p-stable Gaussian buckets h(x) = floor((a.x + b)/w) with w = 4r,
concatenated in groups of ceil(log2 n).  The (delta, c*delta, p1, p2)
sensitivity contract is computed in closed form and measured statistically;
the family's gap exponent is weaker than the ball-carving constructions, a
documented tradeoff for having something that runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import DisjointSets, Graph, KruskalTree, _array_rows, _headed, read_input
from .greedy import MAX_LEVELS, GreedyPermutation, Net, _check_positive, _check_ratio, _level_count

__all__ = [
    "PointSet",
    "parse_points",
    "write_points",
    "gaussian_bucket_collision",
    "HashFamily",
    "approx_r_net_points",
    "AnnIndex",
    "ann_build",
    "ann_query",
    "ann_query_many",
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
    name, text = read_input(source, "point file")
    read = _array_rows(text, np.float64, 2)
    if read is not None:
        n, d, coords = read
        if n >= 1 and d >= 1 and coords.shape == (n, d):
            return PointSet(coords)
    return _points_by_lines(text, name)


def _points_by_lines(text: str, name: str) -> PointSet:
    """The per-line point reader: the result, or the error naming the
    offending line, for any text the array step rejects."""
    lineno, n, d, rows = _headed(text, name, "point file", "n d")
    if n < 1 or d < 1:
        raise ValueError(f"{name}:{lineno}: need n >= 1 and d >= 1")
    if len(rows) != n:
        raise ValueError(f"{name}: header promises {n} points, file has {len(rows)}")
    coords = np.empty((n, d))
    for i, (lineno, parts) in enumerate(rows):
        if len(parts) != d:
            raise ValueError(f"{name}:{lineno}: expected {d} coordinates")
        try:
            coords[i] = [float(x) for x in parts]
        except ValueError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from exc
    return PointSet(coords)


def write_points(pts: PointSet, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{pts.n} {pts.d}\n"
                 + "".join(" ".join(map(repr, row)) + "\n" for row in pts.coords.tolist()))


_DUPLICATES = "duplicate points (infinite spread)"


def _require_distinct(coords: np.ndarray) -> None:
    if np.unique(coords, axis=0).shape[0] != coords.shape[0]:
        raise ValueError(_DUPLICATES)


def _norms(D: np.ndarray) -> np.ndarray:
    """The Euclidean length of each row of D."""
    return np.sqrt(np.vecdot(D, D))


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


# A near pair misses all k tables with probability (1 - p1)^k <= n^-_MISS_EXPONENT.
_MISS_EXPONENT = 2.0


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
              rng: np.random.Generator) -> "HashFamily":
        if delta <= 0 or c <= 1:
            raise ValueError("need delta > 0 and c > 1")
        w = 4.0 * delta
        group = max(1, math.ceil(math.log2(max(n, 2))))
        p1 = gaussian_bucket_collision(delta, w) ** group
        p2 = gaussian_bucket_collision(c * delta, w) ** group
        k = max(1, math.ceil((_MISS_EXPONENT / p1) * math.log(max(n, 2))))
        a = rng.normal(size=(d, k * group))
        b = rng.uniform(0.0, w, size=k * group)
        return cls(delta=delta, c=c, w=w, group=group, k=k, a=a, b=b, p1=p1, p2=p2)

    def hash_points(self, coords: np.ndarray) -> np.ndarray:
        """Bucket keys, shape (n, k, group) int64.

        coords is n x d, or a stack of n single rows (n x 1 x d): a stack
        projects each row by itself, so its keys are bit for bit those of
        hashing that row alone (one n x d product may round differently).
        """
        keys = np.floor((coords @ self.a + self.b) / self.w).astype(np.int64)
        return keys.reshape(coords.shape[0], self.k, self.group)


# Odd multipliers that fold a group of bucket keys into one integer; fixed, so
# the tables are a function of the keys alone.  A group has at most 64 keys.
_FOLD = np.random.default_rng(0x5EED).integers(0, 2**62, size=64) * 2 + 1
_PAIR_CHUNK = 1 << 16  # (query, bucket entry) or (query, point) pairs at once
_KEY_BLOCK = 1 << 20   # query keys hashed at once
_NO_ID = np.iinfo(np.int64).max


def _tagged(keys: np.ndarray) -> np.ndarray:
    """Fold each key group to one uint64 and put the table index in the top
    bits, so that one sort orders the entries by (table, folded key)."""
    _, k, group = keys.shape
    folded = (keys * _FOLD[:group]).sum(axis=2).view(np.uint64)  # wraps mod 2^64
    shift = np.uint64(max(1, (k - 1).bit_length()))
    tables = np.arange(k, dtype=np.uint64) << (np.uint64(64) - shift)
    return tables | (folded >> shift)


def _heads(a: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal entries of a non-empty a."""
    return np.concatenate(([True], a[1:] != a[:-1]))


def _narrow(keys: np.ndarray) -> np.ndarray:
    """keys in the narrowest integer dtype that holds every value exactly."""
    lo, hi = int(keys.min()), int(keys.max())
    for dtype in (np.int8, np.int16, np.int32):
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return keys.astype(dtype)
    return keys


def _pack(keys: np.ndarray) -> np.ndarray:
    """Each row of the integer matrix keys as the whole uint64 words of its
    bytes, zero-padded: equal rows of one dtype give equal words, and only
    they."""
    m, width = keys.shape[0], keys.shape[1] * keys.itemsize
    words = -(-width // 8)
    buf = np.zeros((m, 8 * words), dtype=np.uint8)
    buf[:, :width] = np.ascontiguousarray(keys).view(np.uint8).reshape(m, width)
    return buf.view(np.uint64)


class _BucketTables:
    """The k bucket tables of one hash family over n points, in one array.

    Entry j*n + row stands for point row in table j.  The entries are sorted
    by their tagged, folded key; a query finds its k buckets with one
    searchsorted and keeps an entry only when the point's full key row in
    that table equals the query's, so a fold collision never adds a mate.
    row[i] and packed[i] are the point and the key row, packed in its narrow
    dtype into whole words, of the i-th entry in sorted order, so that check
    is one gather and one compare per entry.
    """

    def __init__(self, keys: np.ndarray):
        n, k, group = keys.shape
        tagged = _tagged(keys).T.ravel()
        entry = np.argsort(tagged, kind="stable")
        self.tagged = tagged[entry]
        self.keys = _narrow(keys)
        self.row = entry % n
        self.packed = _pack(self.keys.transpose(1, 0, 2).reshape(k * n, group))[entry]

    def probe(self, qkeys: np.ndarray):
        """Find the buckets of the m queries with keys qkeys (m, k, group).

        Returns (lo, cnt, qpacked): query q's bucket in table j is the
        cnt[q, j] sorted entries from lo[q, j], so cnt.sum(axis=1) is each
        query's probe size in raw entries, fold collisions included; qpacked
        holds the key rows in slot q*k + j for mates to check.
        """
        m, k, group = qkeys.shape
        qt = _tagged(qkeys).ravel()  # slot q*k + j
        lo = np.searchsorted(self.tagged, qt, "left")
        cnt = np.searchsorted(self.tagged, qt, "right") - lo
        narrow = qkeys.astype(self.keys.dtype).reshape(qt.size, group)
        # a key row outside the tables' dtype matches no entry
        cnt[(narrow != qkeys.reshape(qt.size, group)).any(axis=1)] = 0
        return lo.reshape(m, k), cnt.reshape(m, k), _pack(narrow)

    def mates(self, lo: np.ndarray, cnt: np.ndarray, qpacked: np.ndarray):
        """Yield (query, row) arrays of the bucket mates of the queries that
        probe found, in non-empty chunks of about _PAIR_CHUNK pairs; the
        pairs of one chunk are distinct and sorted.  A query whose row of
        cnt the caller zeroed is not expanded."""
        n, k, _ = self.keys.shape
        lo, cnt = lo.ravel(), cnt.ravel()
        ends = np.cumsum(cnt)
        start, base = 0, 0
        while start < cnt.size:
            stop = max(start + 1, int(np.searchsorted(ends, base + _PAIR_CHUNK, "right")))
            c = cnt[start:stop]
            slot = np.repeat(np.arange(start, stop), c)
            pos = np.arange(slot.size) + np.repeat(lo[start:stop] - (ends[start:stop] - c - base), c)
            same = (self.packed[pos] == qpacked[slot]).all(axis=1)
            code = np.sort(slot[same] // k * n + self.row[pos[same]])
            if code.size:
                code = code[_heads(code)]
                yield code // n, code % n
            start, base = stop, int(ends[stop - 1])


def _lsh_net_sweep(coords: np.ndarray, ids, r: float, c: float,
                   rng: np.random.Generator, marked=None) -> list[int]:
    """Marking sweep over ids (in order): unmarked points join the net; each
    new net point marks its hash-collision candidates within c*r.

    marked, a boolean mask over ids (not written to), flags the points that
    already-emitted points cover and that must not be selected.
    Returns the selected ids.
    """
    ids = [int(i) for i in ids]
    fam = HashFamily.build(coords.shape[1], len(ids), r, c, rng)
    sub = coords[ids]
    tables = _BucketTables(fam.hash_points(sub))
    marked = np.zeros(len(ids), dtype=bool) if marked is None else np.array(marked, dtype=bool)
    selected: list[int] = []
    for row, x in enumerate(ids):
        if marked[row]:
            continue
        selected.append(x)
        for _, rows in tables.mates(*tables.probe(tables.keys[row:row + 1])):  # x is its own mate
            marked[rows[_norms(sub[rows] - coords[x]) <= c * r]] = True
    return selected


def _select(coords: np.ndarray, to_sel: np.ndarray, v: int, emitted, order) -> float:
    """Append point v to order, mark it emitted and lower to_sel (distances to
    the selection) by v's row norms in place; return v's distance before."""
    d = float(to_sel[v])
    order.append(v)
    emitted[v] = True
    np.minimum(to_sel, _norms(coords - coords[v]), out=to_sel)
    return d


def approx_r_net_points(pts: PointSet, r: float, eps: float, seed: int) -> Net:
    """Approximate r-net: covering within (1+eps)*r is deterministic (the
    marking rule only ever marks within that radius); packing >= r holds with
    high probability and is the caller's business to verify when it matters.
    """
    _check_positive("r", r)
    _check_positive("eps", eps)
    _check_ratio(eps, 1.0 + eps)
    _point_diameter_bound(pts.coords)  # rejects distances that overflow
    rng = np.random.default_rng(seed)
    selected = _lsh_net_sweep(pts.coords, range(pts.n), r, 1.0 + eps, rng)
    # each selection's distance to the ones before it
    sub = pts.coords[selected]
    deltas = [float(_norms(sub[:i] - x).min(initial=np.inf)) for i, x in enumerate(sub)]
    return Net(points=selected, r=r, cover_field=None, selection_deltas=deltas)


# --- approximate nearest neighbor ---


class _Ladder:
    """The rungs (delta_j, HashFamily, _BucketTables) of an ANN index, from
    small to large radius, each built on its first read.

    Rung j draws its family from the index's one rng stream right after rungs
    0..j-1 have, so every rung read equals the one an eager build makes, in
    whatever order or number the rungs are read.
    """

    def __init__(self, sub: np.ndarray, deltas: list[float], c: float,
                 rng: np.random.Generator):
        self._sub, self._deltas, self._c, self._rng = sub, deltas, c, rng
        self._built: list = []

    def __len__(self) -> int:
        return len(self._deltas)

    def __getitem__(self, j: int):
        j = range(len(self._deltas))[j]  # negative indices; IndexError ends iteration
        while len(self._built) <= j:
            delta_j = self._deltas[len(self._built)]
            fam = HashFamily.build(self._sub.shape[1], self._sub.shape[0], delta_j, self._c,
                                   self._rng)
            self._built.append((delta_j, fam, _BucketTables(fam.hash_points(self._sub))))
        return self._built[j]


@dataclass
class AnnIndex:
    coords: np.ndarray
    ids: list[int]
    c: float
    rungs: _Ladder


def ann_build(pts, c: float, seed: int, ids=None) -> AnnIndex:
    """Hash-table ladder over a geometric range of radii (ratio (1+c)/2).

    The radii are fixed here; each rung's tables are built when a query
    first climbs to it (see _Ladder).
    """
    if c <= 1:
        raise ValueError("need c > 1")
    coords = pts.coords if isinstance(pts, PointSet) else np.asarray(pts, dtype=np.float64)
    ids = list(range(coords.shape[0])) if ids is None else [int(i) for i in ids]
    if not ids:
        raise ValueError("empty index")
    sub = coords[ids]
    deltas = []
    if len(ids) >= 2:
        from scipy.spatial.distance import pdist

        dists = pdist(sub)
        d_lo, d_hi = float(np.min(dists)), float(np.max(dists))
        if d_lo <= 0.0:
            d_lo = max(d_hi * 1e-9, 1e-300)
        gamma = (1.0 + c) / 2.0
        # with every distance 0 no rung is built: each query scans linearly
        deltas = [d_lo] if d_hi > 0.0 else []
        # counted first: a c just above 1 would append rungs until memory runs out
        rungs = _level_count(gamma, d_hi, d_lo) if deltas and d_hi > d_lo else 1.0
        if rungs > MAX_LEVELS:
            raise ValueError(f"c {c!r} is too close to 1: the ANN ladder from {d_lo!r} "
                             f"to {d_hi!r} needs about {rungs:.3g} rungs, over {MAX_LEVELS}")
        while deltas and deltas[-1] < d_hi:
            deltas.append(deltas[-1] * gamma)
    rungs = _Ladder(sub, deltas, c, np.random.default_rng(seed))
    return AnnIndex(coords=coords, ids=ids, c=c, rungs=rungs)


def ann_query(index: AnnIndex, q: np.ndarray) -> int:
    """Id of a point within c times the true nearest distance (whp)."""
    return int(ann_query_many(index, np.asarray(q, dtype=np.float64)[None, :])[0])


def _nearest(coords: np.ndarray, ids: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """For each row of qs, the least (distance, id) point over ids, by an
    exact scan in chunks of about _PAIR_CHUNK (query, point) pairs."""
    out = np.empty(qs.shape[0], dtype=np.int64)
    if not out.size:
        return out
    ids = np.sort(ids)  # so the first minimum is the least id at that distance
    sub = coords[ids]
    step = max(1, _PAIR_CHUNK // ids.size)
    for lo in range(0, qs.shape[0], step):
        out[lo:lo + step] = ids[_norms(sub - qs[lo:lo + step, None, :]).argmin(axis=1)]
    return out


def ann_query_many(index: AnnIndex, qs: np.ndarray) -> np.ndarray:
    """ann_query for each row of qs (m x d), as an array of ids.

    Walks the ladder bottom-up over the queries still live, so a rung is
    built only once some query reaches it.  A query whose probe at a rung
    would examine at least as many bucket entries as the index holds points
    is answered there by an exact scan of the index, which costs no more,
    and leaves the ladder.  Otherwise its answer is the least (distance, id)
    over its bucket mates, it improves on an earlier rung's only when
    strictly closer, and it is accepted once it lies within
    (2c/(1+c)) * delta_j, which caps it at c * true-NN.  A query that
    exhausts the ladder (an index of one point has no rungs) is scanned
    too; a scan answers the least (distance, id) over the index.
    """
    qs = np.asarray(qs, dtype=np.float64)
    coords, ids = index.coords, np.asarray(index.ids)
    m = qs.shape[0]
    accept = 2.0 * index.c / (1.0 + index.c)
    best_id = np.full(m, -1, dtype=np.int64)
    best_d = np.full(m, np.inf)
    live = np.arange(m)
    for j in range(len(index.rungs)):
        if not live.size:
            break
        delta_j, fam, tables = index.rungs[j]
        rung_id = np.full(live.size, -1, dtype=np.int64)
        rung_d = np.full(live.size, np.inf)
        scan = np.zeros(live.size, dtype=bool)
        block = max(1, _KEY_BLOCK // (fam.k * fam.group))
        for lo in range(0, live.size, block):
            first, cnt, qpacked = tables.probe(fam.hash_points(qs[live[lo:lo + block], None, :]))
            over = cnt.sum(axis=1) >= ids.size
            scan[lo:lo + over.size] = over
            cnt[over] = 0
            for q, rows in tables.mates(first, cnt, qpacked):
                q += lo
                cand = ids[rows]
                dist = _norms(coords[cand] - qs[live[q]])
                # per query (the pairs come sorted by query): the least
                # distance, then the least id at that distance
                start = np.flatnonzero(_heads(q))
                size = np.diff(np.append(start, q.size))
                q, dist_min = q[start], np.minimum.reduceat(dist, start)
                cand = np.minimum.reduceat(
                    np.where(dist == np.repeat(dist_min, size), cand, _NO_ID), start)
                dist = dist_min
                better = (dist < rung_d[q]) | ((dist == rung_d[q]) & (cand < rung_id[q]))
                rung_id[q[better]], rung_d[q[better]] = cand[better], dist[better]
        won = rung_d < best_d[live]
        best_id[live[won]], best_d[live[won]] = rung_id[won], rung_d[won]
        best_id[live[scan]] = _nearest(coords, ids, qs[live[scan]])
        live = live[~scan & (best_d[live] > accept * delta_j)]
    best_id[live] = _nearest(coords, ids, qs[live])
    return best_id


# --- minimum-maximum spanning tree ---


class MinMaxTree(Graph):
    """A spanning tree of a point set, as a Graph over the point ids."""

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
    _check_ratio(eps, 1.0 + eps)
    n = pts.n
    if n < 2:
        raise ValueError("need at least 2 points")
    _require_distinct(pts.coords)
    _point_diameter_bound(pts.coords)  # rejects distances that overflow
    rng = np.random.default_rng(seed)
    dsu = DisjointSets(n)
    coords = pts.coords
    edges: list[tuple[int, int, float]] = []
    while True:
        roots, comp = np.unique([dsu.find(v) for v in range(n)], return_inverse=True)
        if roots.size == 1:
            break
        bits = max(1, (roots.size - 1).bit_length())
        found = []  # (queries, answers) of each class
        for b in range(bits):
            side = (comp >> b) & 1
            for val in (0, 1):
                # both classes are non-empty: components 0 and 2^b < len(roots)
                # differ in bit b
                index = ann_build(pts, 1.0 + eps, int(rng.integers(2**63)),
                                  ids=np.flatnonzero(side == val))
                queries = np.flatnonzero(side != val)
                found.append((queries, ann_query_many(index, coords[queries])))
        p, z = (np.concatenate(col) for col in zip(*found))
        d, lo, hi = _norms(coords[p] - coords[z]), np.minimum(p, z), np.maximum(p, z)
        # each component's least (length, lower id, higher id) edge
        pick = np.lexsort((hi, lo, d, comp[p]))
        pick = pick[_heads(comp[p[pick]])]
        if pick.size != roots.size:
            raise AssertionError("a component found no outgoing edge")
        for i in pick[np.lexsort((hi[pick], lo[pick], d[pick]))].tolist():
            if dsu.union(int(lo[i]), int(hi[i])):
                edges.append((int(lo[i]), int(hi[i]), float(d[i])))
    return MinMaxTree(n=n, edges=edges)


# --- greedy permutations over points ---


def _point_diameter_bound(coords: np.ndarray) -> float:
    """Twice the largest distance from the first point; a ValueError when
    the distances overflow float64."""
    with np.errstate(over="ignore"):  # an overflow reads inf, rejected below
        bound = 2.0 * float(np.max(_norms(coords - coords[0])))
    if math.isinf(bound):
        raise ValueError("point distances overflow float64")
    return bound


def _too_many_levels(eps: float, top: float) -> ValueError:
    return ValueError(f"eps {eps!r} is too small: its levels from {top!r} down pass "
                      f"{MAX_LEVELS} before every point is selected")


def approx_greedy_points_bounded_spread(pts: PointSet, eps: float, seed: int) -> GreedyPermutation:
    """(1+eps)-greedy permutation by per-level approximate nets.

    Runs the schedule at eps' = sqrt(1+eps) - 1 so the net's covering slack
    and the level ratio compound to exactly the claimed eps.  The levels
    shrink from the diameter bound until every point is emitted; a level
    below half the least pairwise distance emits every point left, so the
    loop needs no floor.  A level with no candidate draws nothing from the
    rng, so such levels are passed in a scalar loop; past MAX_LEVELS levels,
    run or passed, a ValueError names eps.
    """
    _check_positive("eps", eps)
    c = 1.0 + min(math.sqrt(1.0 + eps) - 1.0, 0.9)
    _check_ratio(eps, c)
    _require_distinct(pts.coords)
    if pts.n == 1:
        return GreedyPermutation(order=[0], radii=[float("inf")], eps=eps)
    coords = pts.coords
    rng = np.random.default_rng(seed)
    order_out: list[int] = []
    radii: list[float] = []
    emitted = np.zeros(pts.n, dtype=bool)
    to_sel = np.full(pts.n, np.inf)  # distance to the nearest selected point
    r = top = _point_diameter_bound(coords)
    levels = 0
    while not emitted.all():
        left = to_sel[~emitted]
        # distinct points at computed distance 0 would never be emitted
        if r == 0.0 or not left.all():
            raise ValueError(_DUPLICATES)
        far = float(left.max())
        while r >= far and levels < MAX_LEVELS:  # no candidate on this level
            r /= c
            levels += 1
        levels += 1
        if levels > MAX_LEVELS:
            raise _too_many_levels(eps, top)
        candidates = np.flatnonzero(~emitted & (to_sel > r))
        rng_level = np.random.default_rng(rng.integers(2**63))
        # to_sel holds the row norms that marking by each prior selection
        # would compute, so this is that mask, bit for bit
        selected = _lsh_net_sweep(coords, candidates, r, c, rng_level,
                                  marked=to_sel[candidates] <= c * r)
        # to_sel[v] is v's exact distance to the full prior selection, so
        # the running minimum is a valid non-increasing radius sequence
        for v in selected:
            d = _select(coords, to_sel, v, emitted, order_out)
            radii.append(min(d, radii[-1]) if radii else d)
        r /= c
    return GreedyPermutation(order=order_out, radii=radii, eps=eps)


def approx_greedy_points(pts: PointSet, eps: float, seed: int) -> GreedyPermutation:
    """Spread-independent (1+eps)-greedy permutation.

    An approximate min-max spanning tree partitions each level into
    subproblems: an edge is alive while its length is at most (1+3 eps) times
    the level, and components of alive edges are far enough apart that their
    nets cannot interfere.  The alive edges are a shrinking prefix of the
    length-sorted tree edges, so one KruskalTree gives every level's
    components.  A point is active once some incident tree edge is long
    relative to the level (length >= eps' r / 4n, eps' = min(eps, 1));
    inactive points huddle within eps' r / 4 of an active one and can be
    ignored.  Levels where no subproblem holds an unemitted active point are
    skipped by jumping straight to the next activation or death threshold, so
    the running time never depends on the spread.  Past MAX_LEVELS levels,
    run and jumped, a ValueError names eps.

    Emitted points stay active forever.  Like the bounded variant, the loop
    carries each point's exact distance to the nearest emitted point, and a
    component's sweep starts with the points within c r of it marked, which
    keeps new-versus-old separation deterministic; only same-level packing
    rests on the hash family, hence the whp guarantee.  An emitted point in
    another component marks too, though it can lie within c r only if the
    tree stretches that pair's bottleneck past (1 + 3 eps) r, that is, only
    on a run where the tree has failed its whp guarantee; such a run then
    still keeps every new point more than c r from all earlier ones.
    """
    _check_positive("eps", eps)
    e_int = min(eps, 8.0) / 8.0   # net slack and level ratio
    eps_a = min(eps, 1.0)         # activation budget
    c = 1.0 + e_int
    _check_ratio(eps, c)
    n = pts.n
    if n == 1:
        return GreedyPermutation(order=[0], radii=[float("inf")], eps=eps,
                                 levels_run=0, level_jumps=0)
    from bisect import bisect_left

    coords = pts.coords
    rng = np.random.default_rng(seed)
    # the tree rejects duplicate points and distances that overflow
    tree = approx_minmax_tree(pts, eps, int(rng.integers(2**63)))
    r = top = _point_diameter_bound(coords)
    by_w = sorted(tree.edges, key=lambda e: e[2])
    tree_u, tree_v, tree_w = (np.array(col) for col in zip(*by_w))
    if not tree_w.all():  # distinct points at computed distance 0
        raise ValueError(_DUPLICATES)
    longest_incident = np.zeros(n)
    np.maximum.at(longest_incident, tree_u, tree_w)
    np.maximum.at(longest_incident, tree_v, tree_w)
    kruskal = KruskalTree(n, tree_u, tree_v)
    events = sorted({val for _, _, w in tree.edges
                     for val in (4.0 * n * w / eps_a, w / (1.0 + 3.0 * eps))})
    emitted = np.zeros(n, dtype=bool)
    to_sel = np.full(n, np.inf)  # distance to the nearest emitted point
    order_out: list[int] = []
    radii: list[float] = []
    levels_run = 0
    jumps = 0
    while True:
        # min-id representatives: the components in the order of their smallest point
        rep = kruskal.lower_to(int(np.searchsorted(tree_w, (1.0 + 3.0 * eps) * r, "right")))
        active = emitted | (longest_incident >= eps_a * r / (4.0 * n))
        by_comp = np.argsort(rep, kind="stable")
        ran_any = False
        for members in np.split(by_comp, np.flatnonzero(np.diff(rep[by_comp])) + 1):
            cand = members[active[members] & ~emitted[members]]
            if not cand.size:
                continue
            ran_any = True
            sub_rng = np.random.default_rng(rng.integers(2**63))
            for v in _lsh_net_sweep(coords, cand, r, c, sub_rng, marked=to_sel[cand] <= c * r):
                radii.append(r if order_out else float("inf"))
                _select(coords, to_sel, v, emitted, order_out)
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
        if levels_run + jumps >= MAX_LEVELS:
            raise _too_many_levels(eps, top)
    return GreedyPermutation(order=order_out, radii=radii, eps=eps,
                             levels_run=levels_run, level_jumps=jumps)
