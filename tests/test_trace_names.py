"""The benchmark's tracer (perfbench/spans.py) swaps wrappers in by name;
every (owner, attribute) it names must exist, or `--trace 1` fails.  The
module is loaded from its file and only read."""

import importlib.util
from pathlib import Path

import scipy.sparse.csgraph as csgraph

from farfirst import graphs, greedy, planar, points, treewidth

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound():
    modules = {"graphs": graphs, "greedy": greedy, "points": points,
               "treewidth": treewidth, "planar": planar, "csgraph": csgraph}
    targets = _spans()._targets(modules)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr, name)
               for owner, attr, name, *_ in targets if attr not in owner.__dict__]
    assert not missing
