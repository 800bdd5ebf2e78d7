"""Farthest-first traversals on graphs: r-nets, exact and approximate
greedy permutations, and 2-approximate k-center.

The approximate variants shrink a radius geometrically and compute an
r-net per level over one float64 array of distances to the selection; the
spread-free variant additionally contracts very short edges and deletes very
long ones so each edge participates in O(eps^-1 log(n/eps)) levels
regardless of the weight range.  Its per-level state is updated, not
rebuilt: a Kruskal reconstruction tree, built once, gives every level's
contraction, and the truncated distances to the selection are carried
across levels whose working graph is unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graphs import (
    INF,
    Graph,
    KruskalTree,
    approx_diameter,
    is_connected,
    pruned_dijkstra_relax,
)
# Not called here: importable from this module because perfbench/spans.py
# traces them under these names.
from .graphs import contract_graph, dijkstra_truncated  # noqa: F401

__all__ = [
    "Net",
    "GreedyPermutation",
    "r_net",
    "exact_greedy",
    "approx_greedy_bounded_spread",
    "approx_greedy",
    "k_center_integer",
    "prefix_k_center",
]


@dataclass
class Net:
    """An r-net: selected points plus the distance field that witnesses covering
    (one float64 per vertex; None for point nets).

    selection_deltas[i] is the field value of points[i] at the moment it was
    selected (infinity for a fresh field), a packing witness. updates counts
    the decrease-key operations spent building the net.
    """

    points: list[int]
    r: float
    cover_field: np.ndarray | None
    selection_deltas: list[float] = field(default_factory=list)
    updates: int = 0


@dataclass
class GreedyPermutation:
    order: list[int]
    radii: list[float]  # radii[0] is an +inf sentinel; non-increasing afterwards
    eps: float
    # counters of the variant that sets them, None elsewhere: approx_greedy's
    # active levels per edge, and the levels approx_greedy_points ran and jumped
    active_level_counts: np.ndarray | None = field(default=None, compare=False)
    levels_run: int | None = field(default=None, compare=False)
    level_jumps: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.order) != len(self.radii):
            raise ValueError("order and radii lengths differ")

    @property
    def n(self) -> int:
        return len(self.order)


def _check_positive(name: str, x: float) -> None:
    if not 0.0 < x < INF:  # also false for NaN
        raise ValueError(f"{name} must be finite and positive, got {x}")


# The most levels a geometric schedule may take.  A longer one is an eps too
# small for the input's spread: eps 1e-15 on a spread of 1e6 would need
# about 1e16 levels, which no run finishes, while eps 0.01 on a spread of
# 1e200 needs about 46k.
MAX_LEVELS = 10**6


def _check_ratio(eps: float, ratio: float) -> None:
    """Reject an eps whose level ratio (1 + eps, or the smaller one a caller
    derives from eps) rounds to 1: its radii would never shrink."""
    if not ratio > 1.0:
        raise ValueError(f"eps {eps!r} is too small: its level ratio rounds to 1")


def _level_count(ratio: float, top: float, bottom: float) -> float:
    """Levels from top to below bottom, before the ceil; inf for a ratio <= 1.
    The logs are taken apart, so a top / bottom that overflows still counts."""
    return (math.log(top) - math.log(bottom)) / math.log(ratio) + 1.0 if ratio > 1.0 else math.inf


def _check_levels(eps: float, ratio: float, top: float, bottom: float) -> None:
    """Reject an eps whose schedule from top to below bottom never shrinks or
    takes more than MAX_LEVELS levels, before the loop, so that such an eps
    fails at once and not after a run out of time or memory."""
    _check_ratio(eps, ratio)
    levels = _level_count(ratio, top, bottom)
    if levels > MAX_LEVELS:
        raise ValueError(f"eps {eps!r} is too small: its schedule from {top!r} down to "
                         f"{bottom!r} needs about {levels:.3g} levels, over {MAX_LEVELS}")


def _levels(delta: float, eps: float, floor: float) -> list[float]:
    """Radii from delta shrinking by (1+eps) until strictly below floor.

    The last level must be < floor, not <= floor: when floor is the
    minimum positive distance, a final level equal to it can leave a
    vertex at exactly that distance marked as used and never selected.
    """
    for name, x in (("delta", delta), ("eps", eps), ("floor", floor)):
        _check_positive(name, x)
    r = float(delta)
    levels = [r]
    while r >= floor:
        r /= 1.0 + eps
        levels.append(r)
    return levels


# --- r-nets ---


def _net_sweep(g: Graph, r: float, order, used, field: np.ndarray) -> Net:
    """Core net loop: select every order[i] with field >= r, relax after each.

    Entries that already fail (field < r, or used) are dropped in one numpy
    step first; the field only falls during the sweep, so they would fail in
    the loop as well.  The loop walks the field as a plain list, written
    back into the array once at the end.
    """
    live = order[(field[order] >= r) & ~used[order]]
    adj = g.adjacency()
    delta = field.tolist()
    points: list[int] = []
    sel: list[float] = []
    updates = 0
    for v in live.tolist():
        if delta[v] >= r:
            points.append(v)
            sel.append(delta[v])
            updates += pruned_dijkstra_relax(adj, (v,), delta)
    field[:] = delta
    return Net(points=points, r=r, cover_field=field, selection_deltas=sel, updates=updates)


def r_net(g: Graph, r: float, order=None) -> Net:
    """Randomized-order r-net sweep.

    Walks the given vertex order (natural order when omitted); whenever the
    distance field of a vertex (n float64s, all infinite at the start) is
    still >= r, the vertex joins the net and a pruned Dijkstra run lowers
    the field around it.  The result is an exact r-net: pairwise distances
    >= r, covering <= r.
    """
    _check_positive("r", r)
    if order is None:
        order = np.arange(g.n)
    else:
        order = np.fromiter(order, dtype=np.int64)
        bad = order[(order < 0) | (order >= g.n)]
        if bad.size:
            raise ValueError(f"order holds {int(bad[0])}, not a vertex id in 0..{g.n - 1}")
    if not is_connected(g):
        raise ValueError("graph is disconnected")
    return _net_sweep(g, r, order, np.zeros(g.n, dtype=bool), np.full(g.n, INF))


# --- exact greedy ---


def exact_greedy(g: Graph, first: int) -> GreedyPermutation:
    """Naive farthest-first traversal: n single-source runs, smallest-id ties."""
    import scipy.sparse.csgraph as csg

    if not (0 <= first < g.n):
        raise ValueError(f"first vertex {first} out of range")
    csr = g.csr()
    dist = csg.dijkstra(csr, indices=first)
    if not np.all(np.isfinite(dist)):
        raise ValueError("graph is disconnected")
    order = [int(first)]
    radii = [INF]
    # dist-to-prefix; selected entries parked at -1 so argmax ignores them
    dist[first] = -1.0
    for _ in range(g.n - 1):
        v = int(np.argmax(dist))
        radii.append(float(dist[v]))
        order.append(v)
        dist = np.minimum(dist, csg.dijkstra(csr, indices=v))
        dist[v] = -1.0
    return GreedyPermutation(order=order, radii=radii, eps=0.0)


# --- approximate greedy, bounded spread ---


def approx_greedy_bounded_spread(g: Graph, eps: float, seed: int) -> GreedyPermutation:
    """(1+eps)-greedy permutation via per-level r-nets over one shared field.

    Runtime scales with log of the spread: every level marks vertices within
    r of the prior selections as used and then runs the net sweep in a
    fresh random order.  The shared field already holds the exact distance
    to the prior selections, so the used set is read off it.  The levels
    shrink until no vertex is left at positive distance, which a level below
    the least positive distance ensures, so the loop needs no floor.
    """
    _check_positive("eps", eps)
    delta = approx_diameter(g)  # also proves connectivity
    if delta == 0.0:
        return _all_at_zero(g, eps)
    _check_levels(eps, 1.0 + eps, delta, g.min_weight())
    rng = np.random.default_rng(seed)
    fld = np.full(g.n, INF)
    order_out: list[int] = []
    radii: list[float] = []
    r = delta
    while fld.any():
        net = _net_sweep(g, r, rng.permutation(g.n), fld <= r, fld)
        for v in net.points:
            radii.append(INF if not order_out else r)
            order_out.append(v)
        r /= 1.0 + eps
    _append_zero_distance_tail(g, fld, order_out, radii)
    return GreedyPermutation(order=order_out, radii=radii, eps=eps)


def _all_at_zero(g: Graph, eps: float) -> GreedyPermutation:
    """The permutation of a graph whose vertices are all at distance 0 from
    each other (a single vertex, or only zero-weight paths): any order is
    exact, so take the natural one."""
    return GreedyPermutation(order=list(range(g.n)), radii=[INF] + [0.0] * (g.n - 1), eps=eps)


def _append_zero_distance_tail(g: Graph, fld: np.ndarray, order_out, radii) -> None:
    # only vertices at distance zero from the selection (zero-weight edge
    # classes) can remain after the last level, which lies below every
    # positive distance
    seen = set(order_out)
    for v in range(g.n):
        if v in seen:
            continue
        if fld[v] > 0.0:
            raise AssertionError(f"vertex {v} left unselected at positive distance")
        order_out.append(v)
        radii.append(0.0)


# --- approximate greedy, spread-free ---


def _active_adjacency(g: Graph, rep: np.ndarray, us: np.ndarray, vs: np.ndarray,
                      ws: list[float], lo: int, hi: int):
    """Edges lo..hi-1 remapped onto their representatives, self-loops dropped:
    each vertex's (neighbour, weight) pairs, and a mask of the vertices that
    have any.

    A window that contracts nothing and keeps every edge is g itself, so its
    pairs are g's cached adjacency, whose per-vertex tuples the collector
    stops tracking; per-vertex lists would take part in every full
    collection while the window lasts.  The relaxed distances do not depend
    on the order of the pairs.
    """
    touch = np.zeros(g.n, dtype=bool)
    if lo == 0 and hi == g.m:
        touch[us] = touch[vs] = True
        return g.adjacency(), touch
    adj: dict[int, list[tuple[int, float]]] = {}
    for a, b, w in zip(rep[us[lo:hi]].tolist(), rep[vs[lo:hi]].tolist(), ws[lo:hi]):
        if a != b:
            adj.setdefault(a, []).append((b, w))
            adj.setdefault(b, []).append((a, w))
    touch[list(adj)] = True
    return adj, touch


def approx_greedy(g: Graph, eps: float, seed: int) -> GreedyPermutation:
    """(1+eps)-greedy permutation whose runtime does not depend on the spread.

    At radius r, edges shorter than eps r / 2n are contracted and edges
    longer than 2r are deleted, so every edge is active on
    O(eps^-1 log(n/eps)) levels and a level with no active edge is skipped.
    Internally runs a finer schedule so the contraction error stays inside
    the claimed eps.

    Nothing is rebuilt from all m edges per level.  Sorted by weight, a
    level's contracted and active edges are the slices [:lo] and [lo:hi].
    The min-id representatives come from a Kruskal reconstruction tree
    built once over the contracted prefix of the first level; a falling lo
    undoes its newest merges.  The active adjacency is rebuilt only when
    (lo, hi) changes, and the truncated field to the selection (a list of
    n floats, lowered by the shared relax kernel with the radius as its
    cutoff) is carried across the levels in between: a carried value above
    the new radius passes the ">= r" test and loses every relaxation, just
    as an unreached (infinite) one does.  Representatives that touch no
    active edge are chosen in one numpy step; the Python loop visits only
    those that touch one.
    """
    _check_positive("eps", eps)
    eps_run = min(eps, 1.0) / 3.0
    delta = approx_diameter(g)
    if delta == 0.0:
        return replace(_all_at_zero(g, eps), active_level_counts=np.zeros(g.m, dtype=np.int64))
    floor = g.min_weight()
    _check_levels(eps, 1.0 + eps_run, delta, floor)
    schedule = _levels(delta, eps_run, floor)
    rng = np.random.default_rng(seed)
    n = g.n
    order_idx = np.argsort([w for _, _, w in g.edges], kind="stable")
    edges = [g.edges[i] for i in order_idx]
    us = np.fromiter((e[0] for e in edges), dtype=np.int64, count=g.m)
    vs = np.fromiter((e[1] for e in edges), dtype=np.int64, count=g.m)
    ws = [e[2] for e in edges]
    levels = np.asarray(schedule)
    los = np.searchsorted(ws, eps_run * levels / (2.0 * n), side="right")
    his = np.searchsorted(ws, 2.0 * levels, side="right")
    busy = his > los
    run = busy.copy()
    run[0] = True  # nothing is selected yet, so the top level always runs
    # active edge-levels: +1 over [lo, hi) of every level that runs
    diff = np.zeros(g.m + 1, dtype=np.int64)
    np.add.at(diff, los[busy], 1)
    np.add.at(diff, his[busy], -1)
    active_levels = np.zeros(g.m, dtype=np.int64)
    active_levels[order_idx] = np.cumsum(diff[:-1])

    tree = KruskalTree(n, us[:los[0]], vs[:los[0]])
    chosen = np.zeros(n, dtype=bool)
    order_out: list[int] = []
    radii: list[float] = []
    window = None
    for i in np.flatnonzero(run).tolist():
        r = schedule[i]
        lo, hi = int(los[i]), int(his[i])
        if (lo, hi) != window:
            window = (lo, hi)
            rep = tree.lower_to(lo)
            reps = np.flatnonzero(rep == np.arange(n))
            adj, touch = _active_adjacency(g, rep, us, vs, ws, lo, hi)
            # every selected vertex is still its class's min id, hence a rep
            wd = [INF] * n
            pruned_dijkstra_relax(adj, np.flatnonzero(chosen & touch).tolist(), wd, cutoff=r)
        perm = rng.permutation(reps)
        reached = touch[perm]
        # a rep without active edges is reached by no relaxation
        take = ~(reached | chosen[perm])
        at = np.flatnonzero(reached)
        for j, s in zip(at.tolist(), perm[at].tolist()):
            if wd[s] >= r:
                take[j] = True
                pruned_dijkstra_relax(adj, (s,), wd, cutoff=r)
        new = perm[take]
        chosen[new] = True
        order_out.extend(new.tolist())
        radii.extend([r] * len(new))
    radii[0] = INF
    if len(order_out) < n:  # only a zero-distance tail can be left
        _append_zero_distance_tail(g, _final_distances(g, order_out), order_out, radii)
    return GreedyPermutation(order=order_out, radii=radii, eps=eps,
                             active_level_counts=active_levels)


def _final_distances(g: Graph, selected) -> np.ndarray:
    from .graphs import dijkstra

    return dijkstra(g, selected)


# --- k-center ---


def k_center_integer(g: Graph, k: int, seed: int):
    """2-approximate k-center for positive integer weights.

    Binary search on the candidate radius x; feasibility of x is decided by
    an r-net at selection threshold 2x+1 (with integer distances this is the
    strict version of 2x, which makes every x >= opt feasible regardless of
    the sweep order).  Returns (centers, true covering radius).
    """
    for u, v, w in g.edges:
        if w < 1 or w != int(w):
            raise ValueError(f"k_center_integer needs positive integer weights, got {w} on ({u},{v})")
    if not (1 <= k <= g.n):
        raise ValueError(f"k={k} out of range 1..{g.n}")
    hi = int(math.ceil(approx_diameter(g)))
    lo = 0
    best: dict[int, Net] = {}

    def decide(x: int) -> bool:
        rng = np.random.default_rng([seed, x])
        net = _net_sweep(g, 2.0 * x + 1.0, rng.permutation(g.n),
                         np.zeros(g.n, dtype=bool), np.full(g.n, INF))
        ok = len(net.points) <= k
        if ok:
            best[x] = net
        return ok

    if not decide(hi):
        raise AssertionError("radius bound failed to cover the graph")
    while lo < hi:
        mid = (lo + hi) // 2
        if decide(mid):
            hi = mid
        else:
            lo = mid + 1
    net = best[lo]
    return net.points, float(np.max(net.cover_field))


def prefix_k_center(perm: GreedyPermutation, k: int):
    """Centers Pi_k of a greedy permutation with a 2(1+eps)-quality bound."""
    n = perm.n
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range 1..{n}")
    centers = perm.order[:k]
    if k < n:
        bound = (1.0 + perm.eps) * perm.radii[k]
    else:
        bound = 0.0 if n == 1 else perm.radii[n - 1]
    return centers, float(bound)
