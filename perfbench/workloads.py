"""The three workloads: how each of their five instances is made, which
library calls it times, and which check judges each call's output.

`graph` runs the grid and wide_spread instances in every round, `points`
the point cloud, and `specialised` the planar and ktree instances.  Five
separate workloads would leave about 20 s of measuring per run, and the
host's slow phases outlast that; three leave about 40 s.

Each instance's structure (the random graph, Delaunay triangulation, 3-tree
or point cloud) is drawn once from STRUCTURE_SEED.  The benchmark seed then
relabels its vertices (reorders its points), shuffles its edge order and
seeds the algorithms.  A fresh random structure per seed would make the
work itself vary: on wide_spread with n=400, the interquartile range of the
active edge-levels over eight fresh draws was 11-18% of their median.

`write` regenerates the instance and writes it to disk; each operation's
`load` reads a fresh copy back through the library's own readers, so every
call pays its own lazy caches (adjacency lists, CSR, pair tables) as a CLI
user does, and no time depends on the order of the calls.  `call` looks each
library function up on its module when it runs, so the traced rounds see
the wrapped functions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

import checks

EPS = 0.5  # the CLI's default
STRUCTURE_SEED = 1507


@dataclass
class Op:
    kind: str                 # call kind, reported in the per-call breakdown
    role: str                 # "lane" (the lane's specialised algorithm) or "rest"
    load: Callable[[], tuple]
    call: Callable[..., object]
    check: Callable[[object], None]  # judges the frozen output, raises CheckError


@dataclass
class Workload:
    write: Callable[[], None]
    ops: list[Op]


def freeze(out):
    """A hashable, library-free copy of a call's output."""
    if hasattr(out, "order"):  # GreedyPermutation
        return tuple(int(v) for v in out.order), tuple(float(r) for r in out.radii)
    if hasattr(out, "points"):  # Net
        return tuple(int(v) for v in out.points)
    if isinstance(out, (tuple, list)):
        return tuple(freeze(x) for x in out)
    return out


def build(name: str, ff, seed: int, work: Path) -> Workload:
    """The named workload, its inputs fixed by the benchmark seed."""
    inst, algo = (int(x) for x in np.random.default_rng(seed).integers(2**31, size=2))
    return WORKLOADS[name](ff, inst, algo, work)


def _relabel(ff, g, rng: np.random.Generator):
    """g with its vertex ids permuted and its edges shuffled; also the map."""
    perm = rng.permutation(g.n)
    edges = [g.edges[i] for i in rng.permutation(g.m)]
    return ff.graphs.make_graph(g.n, [(perm[u], perm[v], w) for u, v, w in edges]), perm


def _graph_rows(path: Path):
    @cache
    def rows():
        return checks.GraphRows(checks.graph_matrix(*checks.read_edge_list(path)))
    return rows


def _perm_check(rows, prefix: int | None = None):
    def check(out):
        order, radii = out
        ref = rows()
        checks.greedy_shape(order, radii, ref.n)
        checks.eps_certificate(ref, order, EPS, prefix or ref.n)
    return check


# --- grid: large n, low spread ---

GRID_SIDE = 64
GRID_RADII = (4.0, 8.0, 16.0)
GRID_K = 10
GRID_PREFIX = 400  # ranks whose certificate is checked, from scipy rows


def grid(ff, inst: int, algo: int, work: Path) -> Workload:
    path = work / "grid.edg"

    def write():
        g = ff.generators.grid_graph(GRID_SIDE, GRID_SIDE)
        ff.graphs.write_graph(_relabel(ff, g, np.random.default_rng(inst))[0], path)

    def load():
        return (ff.graphs.parse_graph(path),)

    def r_net(r):
        def call(g):  # what `farfirst net` runs
            order = np.random.default_rng(algo).permutation(g.n)
            return ff.greedy.r_net(g, r, order=[int(v) for v in order])
        return call

    rows = _graph_rows(path)
    ops = [
        Op("approx_greedy_s", "lane", load,
           lambda g: ff.greedy.approx_greedy(g, EPS, algo), _perm_check(rows, GRID_PREFIX)),
        Op("bounded_greedy_s", "rest", load,
           lambda g: ff.greedy.approx_greedy_bounded_spread(g, EPS, algo),
           _perm_check(rows, GRID_PREFIX)),
    ]
    ops += [Op("net_s", "rest", load, r_net(r),
               lambda pts, r=r: checks.net(rows(), pts, r)) for r in GRID_RADII]
    ops.append(Op("kcenter_s", "rest", load,
                  lambda g: ff.greedy.k_center_integer(g, GRID_K, algo),
                  lambda out: checks.k_center(rows(), out[0], out[1], GRID_K)))
    return Workload(write, ops)


# --- wide_spread: weights 10^U(0,200) ---

WIDE_N = 200


def wide_spread(ff, inst: int, algo: int, work: Path) -> Workload:
    path = work / "wide.edg"

    def write():
        rng = np.random.default_rng(STRUCTURE_SEED)
        g = ff.generators.random_connected_graph(WIDE_N, 3 * WIDE_N, rng)
        weights = 10.0 ** rng.uniform(0.0, 200.0, size=g.m)
        g = ff.graphs.make_graph(g.n, [(u, v, w) for (u, v, _), w in zip(g.edges, weights)])
        ff.graphs.write_graph(_relabel(ff, g, np.random.default_rng(inst))[0], path)

    def load():
        return (ff.graphs.parse_graph(path),)

    rows = _graph_rows(path)
    ops = [
        Op("approx_greedy_s", "lane", load,
           lambda g: ff.greedy.approx_greedy(g, EPS, algo), _perm_check(rows)),
        Op("bounded_greedy_s", "rest", load,
           lambda g: ff.greedy.approx_greedy_bounded_spread(g, EPS, algo), _perm_check(rows)),
    ]
    return Workload(write, ops)


# --- points: uniform in [0,1]^20 ---

POINTS_N = 120
POINTS_D = 20
POINTS_RADII = (0.8, 1.0, 1.2)


def points(ff, inst: int, algo: int, work: Path) -> Workload:
    path = work / "points.xy"

    def write():
        coords = ff.generators.random_points(
            POINTS_N, POINTS_D, np.random.default_rng(STRUCTURE_SEED))
        coords = coords[np.random.default_rng(inst).permutation(POINTS_N)]
        ff.points.write_points(ff.points.PointSet(coords), path)

    def load():
        return (ff.points.parse_points(path),)

    @cache
    def rows():
        return checks.PointRows(checks.read_point_rows(path))

    ops = [
        Op("points_greedy_s", "lane", load,
           lambda p: ff.points.approx_greedy_points(p, EPS, algo), _perm_check(rows)),
        Op("points_bounded_greedy_s", "rest", load,
           lambda p: ff.points.approx_greedy_points_bounded_spread(p, EPS, algo),
           _perm_check(rows)),
    ]
    ops += [Op("points_net_s", "rest", load,
               lambda p, r=r: ff.points.approx_r_net_points(p, r, EPS, algo),
               lambda pts, r=r: checks.net(rows(), pts, r, cover=1.0 + EPS))
            for r in POINTS_RADII]
    return Workload(write, ops)


# --- planar: Delaunay graph, integer weights ---

PLANAR_N = 300
PLANAR_RADII = (100.0, 200.0, 400.0)  # Delaunay weights are 1000 x the edge length


def planar(ff, inst: int, algo: int, work: Path) -> Workload:
    path = work / "planar.edg"
    npairs = PLANAR_N * (PLANAR_N - 1) // 2

    def write():
        g = ff.generators.delaunay_graph(PLANAR_N, np.random.default_rng(STRUCTURE_SEED))
        ff.graphs.write_graph(_relabel(ff, g, np.random.default_rng(inst))[0], path)

    def load():
        return (ff.graphs.parse_graph(path),)

    def count(r):
        def call(g):  # what `farfirst count` runs
            hd = ff.planar.build_hd(g)
            return ff.planar.count_short_pairs(g, hd, r, EPS, ff.planar.exact_oracle(g))
        return call

    graph_rows = _graph_rows(path)

    @cache
    def pairs():
        return checks.pair_distances(graph_rows())

    ops = [Op("count_s", "lane", load, count(r),
              lambda alpha, r=r: checks.count_sandwich(pairs(), alpha, r, EPS))
           for r in PLANAR_RADII]
    ops += [Op("select_s", "rest", load,
               lambda g, k=k: ff.planar.select_kth_distance(g, k, EPS),
               lambda out, k=k: checks.select_bracket(pairs(), k, out[0], out[1], EPS))
            for k in (PLANAR_N, npairs // 20)]
    return Workload(write, ops)


# --- ktree: partial 3-tree with its decomposition ---

KTREE_N = 250
KTREE_WIDTH = 3


def ktree(ff, inst: int, algo: int, work: Path) -> Workload:
    gpath, tdpath = work / "ktree.edg", work / "ktree.td"

    def write():
        g, td_text = ff.generators.random_ktree(
            KTREE_N, KTREE_WIDTH, np.random.default_rng(STRUCTURE_SEED))
        g, perm = _relabel(ff, g, np.random.default_rng(inst))
        ff.graphs.write_graph(g, gpath)
        # decomposition format: "b w", b bag lines, then b-1 tree-edge lines
        lines = td_text.splitlines()
        b = int(lines[0].split()[0])
        bags = [" ".join(str(perm[int(v)]) for v in ln.split()) for ln in lines[1:1 + b]]
        tdpath.write_text("\n".join([lines[0], *bags, *lines[1 + b:]]) + "\n")

    def load_graph():
        return (ff.graphs.parse_graph(gpath),)

    def load_decomposed():
        g = ff.graphs.parse_graph(gpath)
        return g, ff.treewidth.parse_tree_decomposition(tdpath, g)

    rows = _graph_rows(gpath)

    def check(out):
        checks.exact_traversal(rows(), *out)

    ops = [
        Op("treewidth_greedy_s", "lane", load_decomposed,
           lambda g, td: ff.treewidth.exact_greedy_treewidth(g, td), check),
        Op("exact_greedy_s", "rest", load_graph, lambda g: ff.greedy.exact_greedy(g, 0), check),
    ]
    return Workload(write, ops)


def _combine(*instances):
    """A workload whose every round makes the calls of all `instances`;
    each call kind is prefixed with its instance's name."""
    def build(ff, inst: int, algo: int, work: Path) -> Workload:
        parts = [(f.__name__, f(ff, inst, algo, work)) for f in instances]

        def write():
            for _, part in parts:
                part.write()

        return Workload(write, [replace(op, kind=f"{name}.{op.kind}")
                                for name, part in parts for op in part.ops])
    return build


WORKLOADS = {"graph": _combine(grid, wide_spread), "points": _combine(points),
             "specialised": _combine(planar, ktree)}
