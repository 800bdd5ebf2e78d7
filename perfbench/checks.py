"""Output checks that share no code with the package they judge.

Every reference distance comes from numpy, ``scipy.sparse.csgraph`` or
``scipy.spatial.distance``, computed from the input files as written, so a
change to ``farfirst`` (its parsers and oracles included) cannot change the
judge.  Each check raises ``CheckError`` with a one-line reason.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

INF = math.inf


class CheckError(Exception):
    """An output broke one of the guarantees it is checked against."""


def require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckError(reason)


# --- reference metrics ---


def read_edge_list(path) -> tuple[int, np.ndarray]:
    """Edge-list file ("n m" header, then "u v w" rows) as (n, m x 3 array)."""
    with open(path) as fh:
        n, m = (int(x) for x in fh.readline().split())
        rows = np.loadtxt(fh, ndmin=2) if m else np.zeros((0, 3))
    require(rows.shape == (m, 3), f"edge list holds {rows.shape[0]} rows, header says {m}")
    return n, rows


def read_point_rows(path) -> np.ndarray:
    """Point file ("n d" header, then n coordinate rows) as an n x d array."""
    with open(path) as fh:
        n, d = (int(x) for x in fh.readline().split())
        coords = np.loadtxt(fh, ndmin=2)
    require(coords.shape == (n, d), f"point file holds {coords.shape}, header says {(n, d)}")
    return coords


def graph_matrix(n: int, edges: np.ndarray) -> sp.csr_matrix:
    """Symmetric CSR matrix keeping the lightest of any parallel edges."""
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    w = edges[:, 2]
    rows, cols, data = np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    order = np.lexsort((data, cols, rows))
    rows, cols, data = rows[order], cols[order], data[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    return sp.csr_matrix((data[first], (rows[first], cols[first])), shape=(n, n))


class GraphRows:
    """Single-source distance rows of one graph, computed on demand and kept."""

    def __init__(self, csr: sp.csr_matrix):
        self.csr = csr
        self.n = csr.shape[0]
        self._rows: dict[int, np.ndarray] = {}

    def __call__(self, sources) -> np.ndarray:
        sources = [int(s) for s in sources]
        missing = sorted(set(sources) - self._rows.keys())
        if missing:
            for s, row in zip(missing, dijkstra(self.csr, indices=missing)):
                self._rows[s] = row
        if not sources:
            return np.zeros((0, self.n))
        return np.stack([self._rows[s] for s in sources])


class PointRows:
    """Euclidean distance rows of a point set, same interface as GraphRows."""

    def __init__(self, coords: np.ndarray):
        self.coords = coords
        self.n = coords.shape[0]

    def __call__(self, sources) -> np.ndarray:
        idx = [int(s) for s in sources]
        return cdist(self.coords[idx], self.coords)


# --- greedy permutations ---


def greedy_shape(order, radii, n: int) -> None:
    """The order is a permutation of 0..n-1, radii[0] is inf, radii never grow."""
    require(len(order) == n and len(radii) == n,
            f"{len(order)} ranks and {len(radii)} radii for n={n}")
    require(sorted(order) == list(range(n)), "order is not a permutation of 0..n-1")
    require(radii[0] == INF, f"radii[0] is {radii[0]}, not inf")
    for i in range(1, n):
        require(radii[i] <= radii[i - 1],
                f"radius grows at rank {i}: {radii[i - 1]!r} -> {radii[i]!r}")


def eps_certificate(rows, order, eps: float, prefix: int) -> None:
    """A (1+eps) radius certificate exists for the first `prefix` ranks.

    With ecc_i the covering radius of the first i ranks and sep_i their
    smallest pairwise distance, a certificate is a non-increasing rho with
    rho_i <= min(ecc_i, sep_i) and ecc_i <= (1+eps) rho_i.  The largest
    candidate is rho_i = min(ecc_i, sep_i, rho_{i-1}), so checking it decides
    existence.
    """
    head = [int(v) for v in order[:prefix]]
    dist = rows(head)
    to_prefix = dist[0].copy()
    sep = rho = INF
    for i in range(1, len(head) + 1):
        ecc = float(to_prefix.max())
        rho = min(ecc, sep, rho)
        require(ecc <= (1.0 + eps) * rho,
                f"no (1+{eps}) certificate at prefix {i}: covering radius {ecc!r}, "
                f"largest admissible radius {rho!r}")
        if i < len(head):
            sep = min(sep, float(to_prefix[head[i]]))
            np.minimum(to_prefix, dist[i], out=to_prefix)


def farthest_first(rows, first: int, steps: int) -> tuple[list[int], list[float]]:
    """Exact farthest-first traversal of `steps` ranks, smallest-id ties."""
    order, radii = [int(first)], [INF]
    to_prefix = rows([first])[0].copy()
    # selected vertices are parked at -1, which the minimum never raises
    to_prefix[first] = -1.0
    for _ in range(steps - 1):
        v = int(np.argmax(to_prefix))  # first maximum: smallest id
        order.append(v)
        radii.append(float(to_prefix[v]))
        np.minimum(to_prefix, rows([v])[0], out=to_prefix)
        to_prefix[v] = -1.0
    return order, radii


def exact_traversal(rows, order, radii) -> None:
    """Order and radii equal, exactly, the traversal from vertex 0."""
    rows(range(rows.n))  # one batched solve instead of one per rank
    ref_order, ref_radii = farthest_first(rows, 0, rows.n)
    require(len(order) == len(ref_order), f"{len(order)} ranks, expected {len(ref_order)}")
    for i, (a, b) in enumerate(zip(order, ref_order)):
        require(a == b, f"rank {i} holds vertex {a}, farthest-first picks {b}")
    for i, (a, b) in enumerate(zip(radii, ref_radii)):
        require(a == b, f"radius at rank {i} is {a!r}, exact value {b!r}")


# --- nets and k-center ---


def net(rows, points, r: float, cover: float = 1.0) -> None:
    """Net points pairwise >= r apart; every point within cover * r of one."""
    pts = [int(p) for p in points]
    require(len(pts) > 0, "empty net")
    require(len(set(pts)) == len(pts), "net repeats a point")
    dist = rows(pts)
    between = dist[:, pts]
    np.fill_diagonal(between, INF)
    i, j = np.unravel_index(int(np.argmin(between)), between.shape)
    require(between[i, j] >= r,
            f"packing: points {pts[i]} and {pts[j]} at {between[i, j]!r} < r = {r!r}")
    to_net = dist.min(axis=0)
    far = int(np.argmax(to_net))
    require(to_net[far] <= cover * r,
            f"covering: point {far} at {to_net[far]!r} > {cover} * r = {cover * r!r}")


def k_center(rows, centers, radius: float, k: int) -> None:
    """At most k centers, the reported radius is their covering radius, and
    it is at most 2 R_{k+1}: OPT <= R_{k+1}, the (k+1)-th exact greedy radius."""
    centers = [int(c) for c in centers]
    require(1 <= len(centers) <= k, f"{len(centers)} centers for k={k}")
    covering = float(rows(centers).min(axis=0).max())
    require(radius == covering, f"reported radius {radius!r}, covering radius {covering!r}")
    _, greedy_radii = farthest_first(rows, 0, k + 1)
    require(radius <= 2.0 * greedy_radii[k],
            f"radius {radius!r} > 2 R_(k+1) = {2.0 * greedy_radii[k]!r}")


# --- planar counting and selection ---


def pair_distances(rows) -> np.ndarray:
    """Sorted distances of all unordered pairs."""
    full = rows(range(rows.n))
    return np.sort(full[np.triu_indices(rows.n, k=1)])


def count_sandwich(pairs: np.ndarray, alpha: int, r: float, eps: float) -> None:
    """N(r) <= alpha <= N((3+eps) r) over the sorted pair distances."""
    lo = int(np.searchsorted(pairs, r, side="right"))
    hi = int(np.searchsorted(pairs, (3.0 + eps) * r, side="right"))
    require(lo <= alpha <= hi, f"count {alpha} outside [N(r), N((3+eps)r)] = [{lo}, {hi}]")


def select_bracket(pairs: np.ndarray, k: int, alpha: float, factor: float, eps: float) -> None:
    """The k-th pair distance lies in [alpha, factor * alpha], factor <= (3+eps)(1+eps)."""
    kth = float(pairs[k - 1])
    require(factor <= (3.0 + eps) * (1.0 + eps), f"factor {factor!r} above (3+eps)(1+eps)")
    require(alpha <= kth <= factor * alpha,
            f"k-th distance {kth!r} outside [{alpha!r}, {factor * alpha!r}]")
