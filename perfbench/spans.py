"""Per-layer tracing from outside the package.

Each traced function is replaced, for the length of a traced round, in the
namespace its caller looks it up in: ``greedy._net_sweep`` finds
``pruned_dijkstra_relax`` in ``farfirst.greedy``, so that is where the
wrapper goes, under the span name ``graphs.pruned_dijkstra_relax``.  A span's
self time is its duration minus the time its child spans cover.  Counters
read from results (relaxations, active edge-levels, boundary sizes) ride
along.  Nothing inside ``farfirst`` is edited.
"""

from __future__ import annotations

import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(int)
        self._child_s: list[float] = []  # per open span, time of its children
        self._names: list[str] = []      # per open span, its name

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def add(self, key: str, value) -> None:
        self.counters[key] += value

    def peak(self, key: str, value) -> None:
        self.counters[key] = max(self.counters[key], value)

    def parent(self) -> str | None:
        """Name of the span enclosing the one being opened."""
        return self._names[-1] if self._names else None

    def wrap(self, name: str, fn, on_result=None, around=None):
        """`fn` recording a span; `around(tracer)` is a context entered
        outside the span, `on_result(tracer, result)` reads the result."""
        def traced(*args, **kwargs):
            with around(self) if around is not None else nullcontext():
                self._names.append(name)
                self._child_s.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span = time.perf_counter() - t0
                    self._names.pop()
                    self.calls[name] += 1
                    self.self_s[name] += span - self._child_s.pop()
                    if self._child_s:
                        self._child_s[-1] += span
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Swap every traced function in, and restore the originals on exit."""
        saved = []
        for owner, attr, name, on_result, around in _targets(modules):
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, on_result, around))
            else:
                wrapped = self.wrap(name, original, on_result, around)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _targets(m):
    """(owner, attribute, span name, result hook, around hook) per traced function."""
    graphs, greedy, points, treewidth, planar, csgraph = (
        m["graphs"], m["greedy"], m["points"], m["treewidth"], m["planar"], m["csgraph"])

    def relax_updates(t, updates):
        t.add("graphs.relax_updates", updates)

    def active_levels(t, perm):
        t.add("greedy.active_edge_levels", int(perm.active_level_counts.sum()))

    def level_counts(t, perm):
        t.add("points.approx_greedy_points.levels_run", perm.levels_run)
        t.add("points.approx_greedy_points.level_jumps", perm.level_jumps)

    def partition_sizes(t, part):
        t.peak("treewidth.restricted_partition.subgraphs", len(part.subgraphs))
        t.peak("treewidth.restricted_partition.boundary_total",
               sum(len(s.boundary) for s in part.subgraphs))

    def hd_sizes(t, hd):
        sizes = hd.boundary_sizes()
        t.peak("planar.build_hd.boundary_max", max(sizes, default=0))
        t.peak("planar.build_hd.boundary_total", sum(sizes))

    @contextmanager
    def count_in_select(t):
        if t.parent() == "planar.select_kth_distance":
            t.add("planar.select_kth_distance.counts", 1)
        yield

    @contextmanager
    def heap_peak(t):
        tracemalloc.start()
        try:
            yield
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            t.peak("points.approx_greedy_points_bounded_spread.peak_mib", peak / 2**20)

    targets = [
        (greedy, "pruned_dijkstra_relax", "graphs.pruned_dijkstra_relax", relax_updates, None),
        (greedy, "dijkstra_truncated", "graphs.dijkstra_truncated", None, None),
        (greedy, "contract_graph", "graphs.contract_graph", None, None),
        (graphs.ContractedGraph, "adjacency", "graphs.ContractedGraph.adjacency", None, None),
        # approx_diameter, is_connected and greedy._final_distances all
        # resolve dijkstra through the graphs module
        (graphs, "dijkstra", "graphs.dijkstra", None, None),
        (graphs.Graph, "adjacency", "graphs.Graph.adjacency", None, None),
        (graphs.Graph, "csr", "graphs.Graph.csr", None, None),
        (graphs, "parse_graph", "graphs.parse_graph", None, None),
        (greedy, "approx_greedy", "greedy.approx_greedy", active_levels, None),
        (greedy, "approx_greedy_bounded_spread", "greedy.approx_greedy_bounded_spread", None, None),
        (greedy, "r_net", "greedy.r_net", None, None),
        (greedy, "k_center_integer", "greedy.k_center_integer", None, None),
        (greedy, "exact_greedy", "greedy.exact_greedy", None, None),
        # exact_greedy reaches scipy's solver through the csgraph module
        (csgraph, "dijkstra", "greedy.exact_greedy.sssp", None, None),
        (points.HashFamily, "build", "points.HashFamily.build", None, None),
        (points.HashFamily, "hash_points", "points.HashFamily.hash_points", None, None),
        (points, "ann_build", "points.ann_build", None, None),
        (points, "ann_query", "points.ann_query", None, None),
        (points, "approx_minmax_tree", "points.approx_minmax_tree", None, None),
        (points, "approx_greedy_points", "points.approx_greedy_points", level_counts, None),
        (points, "approx_r_net_points", "points.approx_r_net_points", None, None),
        # the heap peak is taken in traced runs only: tracemalloc slows every allocation
        (points, "approx_greedy_points_bounded_spread",
         "points.approx_greedy_points_bounded_spread", None, heap_peak),
        (points, "parse_points", "points.parse_points", None, None),
        (treewidth, "parse_tree_decomposition", "treewidth.parse_tree_decomposition", None, None),
        (treewidth, "restricted_partition", "treewidth.restricted_partition", partition_sizes, None),
        (treewidth, "linf_build", "treewidth.linf_build", None, None),
        (treewidth, "linf_query", "treewidth.linf_query", None, None),
        (treewidth, "exact_greedy_treewidth", "treewidth.exact_greedy_treewidth", None, None),
        (planar, "build_hd", "planar.build_hd", hd_sizes, None),
        (planar, "exact_oracle", "planar.exact_oracle", None, None),
        # the oracle's rows come from dijkstra as bound in the planar module
        (planar, "dijkstra", "planar.oracle_rows", None, None),
        (planar, "count_short_pairs", "planar.count_short_pairs", None, count_in_select),
        (planar, "select_kth_distance", "planar.select_kth_distance", None, None),
    ]
    targets += [(mod, "is_connected", "graphs.is_connected", None, None)
                for mod in (greedy, treewidth, planar)]
    return targets


# Per-layer metrics in BENCHMARK.json order: (metric, unit, source kind, key).
# Source kinds: "calls" and "self_s" read spans, "counter" reads a counter.
PER_LAYER = [
    ("graphs.pruned_dijkstra_relax.calls", "count", "calls", "graphs.pruned_dijkstra_relax"),
    ("graphs.pruned_dijkstra_relax.self_s", "s", "self_s", "graphs.pruned_dijkstra_relax"),
    ("graphs.relax_updates", "count", "counter", "graphs.relax_updates"),
    ("graphs.dijkstra_truncated.calls", "count", "calls", "graphs.dijkstra_truncated"),
    ("graphs.dijkstra_truncated.self_s", "s", "self_s", "graphs.dijkstra_truncated"),
    ("graphs.contract_graph.calls", "count", "calls", "graphs.contract_graph"),
    ("graphs.contract_graph.self_s", "s", "self_s", "graphs.contract_graph"),
    ("graphs.ContractedGraph.adjacency.self_s", "s", "self_s", "graphs.ContractedGraph.adjacency"),
    ("graphs.is_connected.calls", "count", "calls", "graphs.is_connected"),
    ("graphs.is_connected.self_s", "s", "self_s", "graphs.is_connected"),
    ("graphs.dijkstra.calls", "count", "calls", "graphs.dijkstra"),
    ("graphs.dijkstra.self_s", "s", "self_s", "graphs.dijkstra"),
    ("graphs.Graph.adjacency.self_s", "s", "self_s", "graphs.Graph.adjacency"),
    ("graphs.Graph.csr.self_s", "s", "self_s", "graphs.Graph.csr"),
    ("graphs.parse_graph.self_s", "s", "self_s", "graphs.parse_graph"),
    ("greedy.approx_greedy.self_s", "s", "self_s", "greedy.approx_greedy"),
    ("greedy.active_edge_levels", "count", "counter", "greedy.active_edge_levels"),
    ("greedy.exact_greedy.self_s", "s", "self_s", "greedy.exact_greedy"),
    ("greedy.exact_greedy.sssp_calls", "count", "calls", "greedy.exact_greedy.sssp"),
    ("greedy.exact_greedy.sssp_s", "s", "self_s", "greedy.exact_greedy.sssp"),
    ("points.parse_points.self_s", "s", "self_s", "points.parse_points"),
    ("points.HashFamily.build.calls", "count", "calls", "points.HashFamily.build"),
    ("points.HashFamily.build.self_s", "s", "self_s", "points.HashFamily.build"),
    ("points.HashFamily.hash_points.calls", "count", "calls", "points.HashFamily.hash_points"),
    ("points.HashFamily.hash_points.self_s", "s", "self_s", "points.HashFamily.hash_points"),
    ("points.ann_build.calls", "count", "calls", "points.ann_build"),
    ("points.ann_build.self_s", "s", "self_s", "points.ann_build"),
    ("points.ann_query.calls", "count", "calls", "points.ann_query"),
    ("points.ann_query.self_s", "s", "self_s", "points.ann_query"),
    ("points.approx_minmax_tree.self_s", "s", "self_s", "points.approx_minmax_tree"),
    ("points.approx_greedy_points.levels_run", "count", "counter",
     "points.approx_greedy_points.levels_run"),
    ("points.approx_greedy_points.level_jumps", "count", "counter",
     "points.approx_greedy_points.level_jumps"),
    ("points.approx_r_net_points.self_s", "s", "self_s", "points.approx_r_net_points"),
    ("points.approx_greedy_points_bounded_spread.self_s", "s", "self_s",
     "points.approx_greedy_points_bounded_spread"),
    ("points.approx_greedy_points_bounded_spread.peak_mib", "MiB", "counter",
     "points.approx_greedy_points_bounded_spread.peak_mib"),
    ("treewidth.parse_tree_decomposition.self_s", "s", "self_s",
     "treewidth.parse_tree_decomposition"),
    ("treewidth.restricted_partition.self_s", "s", "self_s", "treewidth.restricted_partition"),
    ("treewidth.restricted_partition.subgraphs", "count", "counter",
     "treewidth.restricted_partition.subgraphs"),
    ("treewidth.restricted_partition.boundary_total", "count", "counter",
     "treewidth.restricted_partition.boundary_total"),
    ("treewidth.linf_build.calls", "count", "calls", "treewidth.linf_build"),
    ("treewidth.linf_build.self_s", "s", "self_s", "treewidth.linf_build"),
    ("treewidth.linf_query.calls", "count", "calls", "treewidth.linf_query"),
    ("treewidth.linf_query.self_s", "s", "self_s", "treewidth.linf_query"),
    ("treewidth.exact_greedy_treewidth.self_s", "s", "self_s", "treewidth.exact_greedy_treewidth"),
    ("planar.build_hd.calls", "count", "calls", "planar.build_hd"),
    ("planar.build_hd.self_s", "s", "self_s", "planar.build_hd"),
    ("planar.build_hd.boundary_max", "count", "counter", "planar.build_hd.boundary_max"),
    ("planar.build_hd.boundary_total", "count", "counter", "planar.build_hd.boundary_total"),
    ("planar.oracle_rows.calls", "count", "calls", "planar.oracle_rows"),
    ("planar.oracle_rows.self_s", "s", "self_s", "planar.oracle_rows"),
    ("planar.count_short_pairs.calls", "count", "calls", "planar.count_short_pairs"),
    ("planar.count_short_pairs.self_s", "s", "self_s", "planar.count_short_pairs"),
    ("planar.select_kth_distance.counts", "count", "counter", "planar.select_kth_distance.counts"),
]


def snapshot(tracer: Tracer) -> dict[str, float]:
    """This round's per-layer values, keyed by metric name."""
    sources = {"calls": tracer.calls, "self_s": tracer.self_s, "counter": tracer.counters}
    return {metric: sources[kind].get(key, 0) for metric, _, kind, key in PER_LAYER}
