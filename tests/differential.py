"""Differential corpus: one sha256 per lane over a few hundred seeded runs.

    PYTHONPATH=<checkout>/src python tests/differential.py

prints one line "<lane> <runs> <sha256>" for each of the graph greedies,
graph nets and k-center, the Euclidean lane, planar counting and selection,
the treewidth greedy, planar counting on wider inputs (real and zero
weights, trees, series-parallel graphs, 300 vertices, an oracle with
eps > 0), the point greedies on clustered sets spanning several
decades, the decomposition structures (planar patch trees, parsed and
corrupted tree decompositions, restricted partitions), and approximate
nearest-neighbour answers, and the edge-list and point readers on texts
with mixed whitespace, blank lines and several spellings of each float.
Every input is written in its text format and read back through the
library's parser, so the readers are covered too.
Running the command against two checkouts and comparing the lines shows
whether a change kept every output byte for byte.  Only public functions
and their required arguments are used, so the command runs against older
checkouts as well.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from farfirst.generators import (delaunay_graph, format_tree_decomposition, grid_graph,
                                 random_connected_graph, random_ktree, random_series_parallel,
                                 random_tree)
from farfirst.graphs import make_graph, parse_graph
from farfirst.greedy import (approx_greedy, approx_greedy_bounded_spread, exact_greedy,
                             k_center_integer, r_net)
from farfirst.oracles import apsp_exact
from farfirst.planar import (DistanceOracle, build_hd, count_short_pairs, exact_oracle,
                             select_kth_distance)
from farfirst.points import (ann_build, ann_query_many, approx_greedy_points,
                             approx_greedy_points_bounded_spread, approx_minmax_tree,
                             approx_r_net_points, parse_points)
from farfirst.treewidth import (exact_greedy_treewidth, parse_tree_decomposition,
                                restricted_partition)

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
        if getattr(perm, name, None) is not None:
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


def _clusters(rng: np.random.Generator, scales, d: int) -> np.ndarray:
    """Clusters of clusters: each point of one scale splits into one to
    three points at a Gaussian offset of the next, smaller scale."""
    coords = np.zeros((1, d))
    for scale in scales:
        coords = np.concatenate([x + scale * rng.standard_normal((int(rng.integers(1, 4)), d))
                                 for x in coords])
    return coords


def lane_points_wide():
    """The point greedies on clustered sets whose scales span several
    decades, at eps 0.1 to 1: the spread-free greedy jumps over the empty
    levels between scales, and its min-max tree splits into components."""
    runs = []
    for seed in range(6):
        rng = np.random.default_rng([19, seed])
        # two or three scales from 10^6 down, 4.5 to 6 decades apart
        gaps = rng.uniform(4.5, 6.0, size=int(rng.integers(1, 3)))
        scales = 10.0 ** (6.0 - np.concatenate(([0.0], np.cumsum(gaps))))
        coords = _clusters(rng, scales, int(rng.integers(1, 4)))
        pts = parse_points(_point_text(coords))
        for eps in (0.1, 0.4, 1.0):
            runs.append([seed, eps, "greedy", _perm(approx_greedy_points(pts, eps, seed))])
            runs.append([seed, eps, "bounded",
                         _perm(approx_greedy_points_bounded_spread(pts, eps, seed))])
    return runs


def lane_ann():
    """ann_query_many answers on seeded indexes over uniform, clustered and
    lattice points (exact ties) and a single point, with ascending, shuffled
    and partial ids, for queries inside the points' box, on the points, and
    far outside, where the ladder runs out."""
    runs = []
    for seed in range(6):
        rng = np.random.default_rng([22, seed])
        n, d = int(rng.integers(2, 150)), int(rng.integers(1, 9))
        sets = {"uniform": rng.random((n, d)),
                "clustered": _clusters(rng, (1.0, 0.05, 0.002, 1e-4), d),
                "lattice": rng.integers(0, 4, size=(n, d)).astype(float),
                "single": rng.random((1, d))}
        for name, coords in sets.items():
            pts = parse_points(_point_text(coords))
            m, lo, hi = pts.n, coords.min(axis=0), coords.max(axis=0)
            inside = lo + (hi - lo) * rng.random((20, d))
            if name == "lattice":
                inside = np.round(2.0 * inside) / 2.0  # half-integers tie between points
            far = hi + 100.0 * (1.0 + hi - lo) * rng.random((4, d))
            qs = np.vstack([inside, coords[rng.integers(0, m, 6)], far])
            part = rng.permutation(m)[:max(1, 2 * m // 3)]
            for order, ids in (("ascending", range(m)), ("shuffled", rng.permutation(m)),
                               ("part", part), ("part_sorted", np.sort(part))):
                for c in (1.25, 2.0):
                    index = ann_build(pts, c, seed, ids=ids)
                    runs.append([seed, name, order, c, [int(x) for x in ann_query_many(index, qs)]])
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


class _StretchedOracle(DistanceOracle):
    """Query-only oracle with eps 0.1: the exact distance times a factor in
    [1, 1.1] fixed by the pair, so counts use the default lookups and a
    scale other than 1."""

    eps = 0.1

    def __init__(self, g):
        self.dm = apsp_exact(g)

    def query(self, u, v):
        return float(self.dm[u, v]) * (1.0 + self.eps * ((u + 2 * v) % 5) / 4.0)


def _reweighted(g, weight):
    return make_graph(g.n, [(u, v, weight(w)) for u, v, w in g.edges])


def lane_planar_wide():
    """Planar counting on real and zero weights, trees, series-parallel
    graphs and a 300-vertex Delaunay graph, through the exact oracle and a
    query-only oracle with eps > 0."""
    runs = []
    rng = np.random.default_rng(18)
    zero_some = lambda w: w if rng.random() < 0.6 else 0.0  # noqa: E731
    graphs = [("real_grid", _reweighted(grid_graph(6, 8), lambda w: float(rng.uniform(0.1, 3.0)))),
              ("zero_tree", _reweighted(random_tree(40, rng)[0], zero_some)),
              ("zero_sp", _reweighted(random_series_parallel(40, rng)[0], zero_some)),
              ("delaunay300", delaunay_graph(300, rng))]
    for name, g in graphs:
        g = _reread(g)
        hd = build_hd(g)
        top = sum(w for _, _, w in g.edges)
        # whole radii put caps exactly on distances of the integer-weight graphs
        radii = [x for frac in (1e-4, 0.002, 0.02, 0.1, 0.4)
                 for x in (frac * top, round(frac * top)) if x > 0]
        for oracle, eps in ((exact_oracle(g), 0.3), (_StretchedOracle(g), 0.5)):
            for r in radii:
                runs.append([name, oracle.eps, eps, r, count_short_pairs(g, hd, r, eps, oracle)])
        npairs = g.n * (g.n - 1) // 2
        for k in sorted({1, g.n, npairs // 40, npairs}):
            alpha, factor = select_kth_distance(g, k, 0.5)
            runs.append([name, k, float(alpha).hex(), float(factor).hex()])
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


def _corrupted(td, rng: np.random.Generator) -> str:
    """The text of td with one member dropped from a bag of two or more, and
    half the time one tree edge moved to a random bag."""
    bags = [list(bag) for bag in td.bags]
    edges = list(td.edges)
    wide = [i for i, bag in enumerate(bags) if len(bag) > 1]
    bag = bags[wide[int(rng.integers(len(wide)))]]
    del bag[int(rng.integers(len(bag)))]
    if edges and rng.random() < 0.5:
        i = int(rng.integers(len(edges)))
        edges[i] = (edges[i][0], int(rng.integers(len(bags))))
    return format_tree_decomposition(bags, edges)


def lane_decomp():
    """The decomposition structures behind the planar and treewidth lanes:
    build_hd's node lists on Delaunay graphs, grids and trees; the outcome or
    error text of parse_tree_decomposition on generator decompositions and
    on corrupted copies of them; and restricted_partition's subgraphs, in
    order, at several k."""
    runs = []
    rng = np.random.default_rng(20)
    planar = [delaunay_graph(n, rng) for n in (10, 40, 120, 400)]
    planar += [grid_graph(1, 9), grid_graph(7, 11, rng=rng, w_hi=5)]
    planar += [random_tree(n, rng)[0] for n in (2, 30, 90)]
    for g in planar:
        g = _reread(g)
        runs.append([[nd.patch, nd.boundary, nd.children] for nd in build_hd(g).nodes])
    for seed in range(12):
        rng = np.random.default_rng([21, seed])
        n = int(rng.integers(4, 60))
        for name, (g, doc) in (("tree", random_tree(n, rng)),
                               ("sp", random_series_parallel(n, rng)),
                               ("ktree", random_ktree(n, 3, rng))):
            g = _reread(g)
            td = parse_tree_decomposition(doc, g)
            for k in sorted({1, 3, 8, g.m}):
                try:
                    part = [[s.edge_ids, s.vertices, s.boundary, s.interior]
                            for s in restricted_partition(g, td, k).subgraphs]
                except ValueError as err:
                    part = str(err)
                runs.append([seed, name, k, part])
            for _ in range(4):
                try:
                    bad = parse_tree_decomposition(_corrupted(td, rng), g)
                    outcome = [bad.bags, bad.edges, bad.width]
                except ValueError as err:
                    outcome = str(err)
                runs.append([seed, name, outcome])
    return runs


_GAPS = (" ", "  ", "\t", " \t ")


def _spell(x: float, rng: np.random.Generator, odd: float) -> str:
    """x as repr, a short float, an exponent form, with a plus sign, or as an
    integer where exact; with chance odd, with a digit-group underscore or a
    no-break space before it, which only the per-line reading accepts."""
    forms = [repr(x), f"{x:.3g}", f"{x:.6e}", f"{x:+.4f}"]
    if x == int(x):
        forms.append(str(int(x)))
    out = forms[int(rng.integers(len(forms)))]
    draw = rng.random()
    if draw < odd / 2 and out[:1].isdigit() and out[1:2].isdigit():
        out = out[0] + "_" + out[1:]
    elif draw < odd:
        out = "\xa0" + out
    return out


def _spaced(header, rows, rng: np.random.Generator) -> str:
    """A header line, then rows of tokens split by runs of spaces and tabs,
    with blank and whitespace-only lines, all ending in LF, CRLF or CR."""
    end = ("\n", "\r\n", "\r")[int(rng.integers(3))]
    lines = []
    for row in rows:
        while rng.random() < 0.08:
            lines.append(_GAPS[int(rng.integers(len(_GAPS)))] if rng.random() < 0.5 else "")
        lead = _GAPS[int(rng.integers(len(_GAPS)))] if rng.random() < 0.15 else ""
        gaps = [""] + [_GAPS[int(rng.integers(len(_GAPS)))] for _ in row[1:]]
        lines.append(lead + "".join(gap + tok for gap, tok in zip(gaps, row)))
    return " ".join(header) + "\n" + end.join(lines) + (end if rng.random() < 0.7 else "")


def lane_reader():
    """parse_graph and parse_points on seeded valid texts with mixed
    whitespace, blank lines and LF, CRLF or CR line ends, whose weights and
    coordinates are spelled as repr, short, exponent and integer floats.
    A quarter of the texts hold a spelling that only the per-line reading
    accepts."""
    runs = []
    for seed in range(40):
        rng = np.random.default_rng([26, seed])
        odd = 0.05 if seed % 4 == 3 else 0.0
        n = int(rng.integers(2, 3000 if seed % 10 == 0 else 60))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng)
        rows = [[str(u), str(v), _spell(0.0 if rng.random() < 0.1
                                        else w * 10.0 ** float(rng.uniform(-8.0, 8.0)), rng, odd)]
                for u, v, w in g.edges]
        h = parse_graph(_spaced([str(n), str(len(rows))], rows, rng))
        runs.append([seed, "graph", h.n, [[u, v, float(w).hex()] for u, v, w in h.edges]])
        d = int(rng.integers(1, 6))
        coords = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7, size=(n, d))
        rows = [[_spell(float(x), rng, odd) for x in row] for row in coords]
        pts = parse_points(_spaced([str(n), str(d)], rows, rng))
        runs.append([seed, "points", [[float(x).hex() for x in row] for row in pts.coords]])
    return runs


LANES = {"graph_greedy": lane_graph_greedy, "net_kcenter": lane_net_kcenter,
         "points": lane_points, "planar": lane_planar, "treewidth": lane_treewidth,
         "planar_wide": lane_planar_wide, "points_wide": lane_points_wide,
         "decomp": lane_decomp, "ann": lane_ann, "reader": lane_reader}


def main() -> None:
    for lane, fn in LANES.items():
        runs = fn()
        blob = json.dumps(runs, sort_keys=True, separators=(",", ":")).encode()
        print(f"{lane} {len(runs)} {hashlib.sha256(blob).hexdigest()}")


if __name__ == "__main__":
    main()
