"""The benchmark's tracer (perfbench/spans.py) swaps wrappers in by name;
every (owner, attribute) it names must exist, and every counter it reads
off a result must be there, or `--trace 1` fails.  The module is loaded
from its file and only read."""

import importlib.util
from pathlib import Path

import numpy as np
import scipy.sparse.csgraph as csgraph

from farfirst import graphs, greedy, planar, points, treewidth
from farfirst.generators import grid_graph, random_ktree

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


MODULES = {"graphs": graphs, "greedy": greedy, "points": points,
           "treewidth": treewidth, "planar": planar, "csgraph": csgraph}


def test_every_traced_name_is_bound():
    targets = _spans()._targets(MODULES)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name, *_ in targets if attr not in owner.__dict__]
    assert not missing


def test_every_result_hook_reads_a_real_result():
    """Each hook that reads counters off a result runs on one real, small
    result of its function, so dropping a counter fails here."""
    spans = _spans()
    g = grid_graph(4, 5)
    kg, doc = random_ktree(12, 2, np.random.default_rng(0))
    pts = points.PointSet(np.random.default_rng(0).random((12, 3)))
    results = {
        "graphs.pruned_dijkstra_relax":
            lambda: greedy.pruned_dijkstra_relax(g.adjacency(), [0], np.full(g.n, np.inf)),
        "greedy.approx_greedy": lambda: greedy.approx_greedy(g, 0.5, 1),
        "points.approx_greedy_points": lambda: points.approx_greedy_points(pts, 0.5, 1),
        "treewidth.restricted_partition":
            lambda: treewidth.restricted_partition(
                kg, treewidth.parse_tree_decomposition(doc, kg), 4),
        "planar.build_hd": lambda: planar.build_hd(g),
    }
    hooks = {name: hook for _, _, name, hook, _ in spans._targets(MODULES) if hook is not None}
    assert sorted(hooks) == sorted(results)
    tracer = spans.Tracer()
    for name, hook in hooks.items():
        hook(tracer, results[name]())
    counters = {key for _, _, kind, key in spans.PER_LAYER if kind == "counter"}
    # these two come from around hooks, not off a result
    counters -= {"points.approx_greedy_points_bounded_spread.peak_mib",
                 "planar.select_kth_distance.counts"}
    assert counters <= set(tracer.counters)
    assert tracer.counters["points.approx_greedy_points.levels_run"] > 0
    assert tracer.counters["greedy.active_edge_levels"] > 0
