"""Differential corpus: one sha256 per lane over a few hundred seeded runs.

    PYTHONPATH=<checkout>/src python tests/differential.py

prints one line "<lane> <runs> <sha256>" for each of the graph greedies,
graph nets and k-center, the Euclidean lane, planar counting and selection,
and the treewidth greedy.  Every input is written in its text format and
read back through the library's parser, so the readers are covered too.
Running the command against two checkouts and comparing the lines shows
whether a change kept every output byte for byte.  Only public functions
and their required arguments are used, so the command runs against older
checkouts as well.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from farfirst.generators import (delaunay_graph, grid_graph, random_connected_graph,
                                 random_ktree, random_series_parallel, random_tree)
from farfirst.graphs import make_graph, parse_graph
from farfirst.greedy import (approx_greedy, approx_greedy_bounded_spread, exact_greedy,
                             k_center_integer, r_net)
from farfirst.planar import build_hd, count_short_pairs, exact_oracle, select_kth_distance
from farfirst.points import (approx_greedy_points, approx_greedy_points_bounded_spread,
                             approx_minmax_tree, approx_r_net_points, parse_points)
from farfirst.treewidth import exact_greedy_treewidth, parse_tree_decomposition

EPS = (0.1, 0.5, 1.0, 2.0)


def _hex(xs) -> list[str]:
    return [float(x).hex() for x in xs]


def _graph_text(g) -> str:
    return f"{g.n} {g.m}\n" + "".join(f"{u} {v} {w!r}\n" for u, v, w in g.edges)


def _reread(g):
    return parse_graph(_graph_text(g))


def _perm(perm) -> dict:
    out = {"order": [int(v) for v in perm.order], "radii": _hex(perm.radii)}
    counts = getattr(perm, "active_level_counts", None)
    if counts is not None:
        out["active"] = [int(c) for c in counts]
    for name in ("levels_run", "level_jumps"):
        if hasattr(perm, name):
            out[name] = int(getattr(perm, name))
    return out


def _multigraph(rng: np.random.Generator, n: int, weights) -> object:
    """Random spanning tree, extra edges and reversed parallel copies."""
    edges = [(int(rng.integers(0, i)), i, float(weights(rng))) for i in range(1, n)]
    for _ in range(n):
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            edges.append((u, v, float(weights(rng))))
    for i in rng.integers(0, max(len(edges), 1), size=n // 3 if edges else 0):
        u, v, _ = edges[int(i)]
        edges.append((v, u, float(weights(rng))))
    return make_graph(n, edges)


def graph_instances():
    """(name, graph) pairs: random integer weights, zero and parallel edges,
    weights over 200 decades, unit grids, and the one- and two-vertex cases."""
    out = [("single", make_graph(1, [])), ("pair0", make_graph(2, [(0, 1, 0.0)])),
           ("pair", make_graph(2, [(0, 1, 3.0), (1, 0, 0.5)]))]
    for seed in range(6):
        rng = np.random.default_rng([11, seed])
        n = int(rng.integers(8, 60))
        out.append((f"random{seed}", random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng)))
        out.append((f"zeros{seed}", _multigraph(rng, int(rng.integers(3, 30)),
                                                lambda r: r.choice([0.0, 0.5, 1.0, 4.0]))))
        out.append((f"wide{seed}", _multigraph(rng, int(rng.integers(3, 40)),
                                               lambda r: 10.0 ** r.uniform(0.0, 200.0))))
    out += [("grid5x7", grid_graph(5, 7)), ("grid9x9", grid_graph(9, 9))]
    return [(name, _reread(g)) for name, g in out]


def lane_graph_greedy():
    runs = []
    for name, g in graph_instances():
        for eps in EPS:
            for fn in (approx_greedy, approx_greedy_bounded_spread):
                runs.append([name, fn.__name__, eps, _perm(fn(g, eps, 1507))])
        for first in sorted({0, g.n - 1}):
            runs.append([name, "exact_greedy", first, _perm(exact_greedy(g, first))])
    return runs


def lane_net_kcenter():
    runs = []
    for name, g in graph_instances():
        top = max(max((w for _, _, w in g.edges), default=1.0), 1.0)
        for i, frac in enumerate((0.05, 0.3, 1.0, 3.0)):
            order = [int(v) for v in np.random.default_rng([12, i]).permutation(g.n)]
            net = r_net(g, frac * top, order=order)
            runs.append([name, frac, [int(v) for v in net.points], _hex(net.selection_deltas),
                         int(net.updates), _hex(net.cover_field)])
    for seed in range(8):
        rng = np.random.default_rng([13, seed])
        n = int(rng.integers(5, 50))
        g = _reread(random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng, w_hi=9))
        for k in sorted({1, 2, 5, n}):
            if k <= n:
                centers, radius = k_center_integer(g, k, seed)
                runs.append([seed, k, [int(v) for v in centers], float(radius).hex()])
    return runs


def _point_text(coords: np.ndarray) -> str:
    n, d = coords.shape
    return f"{n} {d}\n" + "".join(" ".join(repr(float(x)) for x in row) + "\n" for row in coords)


def lane_points():
    runs = []
    for seed in range(8):
        rng = np.random.default_rng([14, seed])
        n, d = int(rng.integers(2, 45)), int(rng.integers(1, 9))
        coords = rng.random((n, d)) * 10.0 ** float(rng.integers(-3, 4))
        pts = parse_points(_point_text(coords))
        for eps in (0.25, 1.0, 3.0):
            runs.append([seed, eps, "greedy", _perm(approx_greedy_points(pts, eps, seed))])
            runs.append([seed, eps, "bounded",
                         _perm(approx_greedy_points_bounded_spread(pts, eps, seed))])
            tree = approx_minmax_tree(pts, eps, seed)
            runs.append([seed, eps, "tree", [[u, v, float(w).hex()] for u, v, w in tree.edges]])
            for r in (0.1, 0.5):
                net = approx_r_net_points(pts, r * float(np.ptp(coords)) + 1e-9, eps, seed)
                runs.append([seed, eps, r, [int(v) for v in net.points],
                             _hex(net.selection_deltas)])
    return runs


def lane_planar():
    runs = []
    graphs = [(f"delaunay{seed}", delaunay_graph(int(n), np.random.default_rng([15, seed])))
              for seed, n in enumerate((12, 30, 60))]
    graphs += [("grid4x6", grid_graph(4, 6, rng=np.random.default_rng(16), w_hi=7))]
    for name, g in graphs:
        g = _reread(g)
        hd = build_hd(g)
        oracle = exact_oracle(g)
        top = sum(w for _, _, w in g.edges)
        for eps in (0.3, 1.0):
            for frac in (0.001, 0.05, 0.2, 0.6):
                runs.append([name, eps, frac, count_short_pairs(g, hd, frac * top, eps, oracle)])
            npairs = g.n * (g.n - 1) // 2
            for k in sorted({1, npairs // 7 + 1, npairs // 2, npairs}):
                alpha, factor = select_kth_distance(g, k, eps)
                runs.append([name, eps, k, float(alpha).hex(), float(factor).hex()])
    return runs


def lane_treewidth():
    runs = []
    for seed in range(16):
        rng = np.random.default_rng([17, seed])
        n = int(rng.integers(2, 70))
        for name, (g, doc) in (("tree", random_tree(n, rng)),
                               ("sp", random_series_parallel(n, rng)),
                               ("ktree", random_ktree(max(n, 4), 3, rng))):
            g = _reread(g)
            td = parse_tree_decomposition(doc, g)
            runs.append([seed, name, td.width, _perm(exact_greedy_treewidth(g, td))])
    return runs


LANES = {"graph_greedy": lane_graph_greedy, "net_kcenter": lane_net_kcenter,
         "points": lane_points, "planar": lane_planar, "treewidth": lane_treewidth}


def main() -> None:
    for lane, fn in LANES.items():
        runs = fn()
        blob = json.dumps(runs, sort_keys=True, separators=(",", ":")).encode()
        print(f"{lane} {len(runs)} {hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main()
