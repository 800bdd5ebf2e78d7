"""Property tests for the graph, point, treewidth and planar lanes, checked
against the brute-force oracles.  Graphs are small connected multigraphs,
with zero weights, parallel edges and one- and two-vertex graphs; weights
are multiples of 1/2, so every path length is exact in float64 and the
matrix oracles meet the searches' sums exactly.  Point sets are small, with
tied distances and coordinates over twelve decades.  The treewidth and
planar lanes run on the generators' graphs with small integer weights, some
of them zero, and on the generators' tree decompositions.

hypothesis is not a declared dependency: the module is skipped without it.
The runs are derandomized, so every run tests the same inputs.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example
assume = hypothesis.assume

from farfirst.generators import (delaunay_graph, format_tree_decomposition,  # noqa: E402
                                 grid_graph, random_ktree, random_series_parallel,
                                 random_tree)
from farfirst.graphs import make_graph  # noqa: E402
from farfirst.greedy import (approx_greedy, approx_greedy_bounded_spread,  # noqa: E402
                             exact_greedy, k_center_integer, r_net)
from farfirst.oracles import (apsp_exact, brute_greedy, exact_count,  # noqa: E402
                              kcenter_opt, verify_eps_greedy, verify_net)
from farfirst.planar import build_hd, count_short_pairs, exact_oracle  # noqa: E402
from farfirst.points import (PointSet, approx_greedy_points,  # noqa: E402
                             approx_greedy_points_bounded_spread, approx_minmax_tree,
                             approx_r_net_points)
from farfirst.treewidth import exact_greedy_treewidth, parse_tree_decomposition  # noqa: E402

from conftest import point_distances  # noqa: E402

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)

ANY_WEIGHT = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 8.0, 1000.0])
POSITIVE_INTEGER = st.integers(1, 9).map(float)


@st.composite
def multigraphs(draw, weights=ANY_WEIGHT):
    """A connected multigraph on at most 12 vertices: a random spanning tree,
    extra edges, and reversed parallel copies of some edges."""
    n = draw(st.integers(1, 12))
    edges = [(draw(st.integers(0, i - 1)), i, draw(weights)) for i in range(1, n)]
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), weights)
        edges += [(u, v, w) for u, v, w in draw(st.lists(pairs, max_size=2 * n)) if u != v]
        for i in draw(st.lists(st.integers(0, len(edges) - 1), max_size=n)):
            u, v, _ = edges[i]
            edges.append((v, u, draw(weights)))
    relabel = draw(st.permutations(range(n)))
    return make_graph(n, [(relabel[u], relabel[v], w) for u, v, w in edges])


SMALL = [make_graph(1, []), make_graph(2, [(0, 1, 0.0)]),
         make_graph(2, [(0, 1, 3.0), (1, 0, 0.5)])]


@SETTINGS
@given(g=multigraphs(), frac=st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(g=SMALL[0], frac=1.0, seed=0)
@example(g=SMALL[1], frac=1.0, seed=0)
@example(g=SMALL[2], frac=0.1, seed=0)
def test_r_net_is_an_exact_net(g, frac, seed):
    dm = apsp_exact(g)
    r = frac * max(float(dm.max()), 1.0)
    net = r_net(g, r, order=np.random.default_rng(seed).permutation(g.n))
    check = verify_net(dm, net.points, r)
    assert check.ok, (check.packing_witness, check.covering_witness)
    assert net.cover_field.tobytes() == dm[net.points].min(axis=0).tobytes()


@SETTINGS
@given(g=multigraphs(), eps=st.sampled_from([0.1, 0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(g=SMALL[0], eps=0.5, seed=0)
@example(g=SMALL[1], eps=0.5, seed=0)
@example(g=SMALL[2], eps=0.1, seed=0)
def test_graph_greedies_admit_an_eps_certificate(g, eps, seed):
    dm = apsp_exact(g)
    for fn in (approx_greedy, approx_greedy_bounded_spread):
        perm = fn(g, eps, seed)
        assert sorted(perm.order) == list(range(g.n))
        assert verify_eps_greedy(dm, perm, eps).ok, fn.__name__


@SETTINGS
@given(g=multigraphs(), data=st.data())
@example(g=SMALL[0], data=None)
@example(g=SMALL[1], data=None)
@example(g=SMALL[2], data=None)
def test_exact_greedy_is_the_matrix_greedy(g, data):
    first = 0 if data is None else data.draw(st.integers(0, g.n - 1))
    mine = exact_greedy(g, first)
    ref = brute_greedy(apsp_exact(g), first)
    assert (mine.order, mine.radii) == (ref.order, ref.radii)


@SETTINGS
@given(g=multigraphs(POSITIVE_INTEGER), data=st.data(), seed=st.integers(0, 2**32 - 1))
@example(g=SMALL[0], data=None, seed=0)
@example(g=make_graph(2, [(0, 1, 3.0), (1, 0, 1.0)]), data=None, seed=0)
def test_k_center_integer_is_within_twice_optimal(g, data, seed):
    k = 1 if data is None else data.draw(st.integers(1, min(g.n, 4)))
    dm = apsp_exact(g)
    centers, radius = k_center_integer(g, k, seed)
    assert 1 <= len(centers) <= k
    assert radius == float(dm[centers].min(axis=0).max())
    assert radius <= 2.0 * kcenter_opt(dm, k)


# --- the point lane ---

COORD = st.sampled_from([-1e6, -3.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, 1e3, 1e6])


@st.composite
def point_sets(draw):
    """Distinct points, at most 10 in at most 3 dimensions, from a few
    coordinates: many distances tie, and the spread reaches 10^12."""
    d = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[COORD] * d), min_size=1, max_size=10, unique=True))
    return np.array(rows, dtype=np.float64)


@SETTINGS
@given(coords=point_sets(), eps=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       seed=st.integers(0, 2**32 - 1))
@example(coords=np.array([[0.0]]), eps=0.5, seed=0)
def test_point_greedies_admit_an_eps_certificate(coords, eps, seed):
    pts = PointSet(coords)
    dm = point_distances(coords)
    for fn in (approx_greedy_points, approx_greedy_points_bounded_spread):
        perm = fn(pts, eps, seed)
        assert sorted(perm.order) == list(range(pts.n))
        assert verify_eps_greedy(dm, perm, eps).ok, fn.__name__


@SETTINGS
@given(coords=point_sets(), frac=st.sampled_from([1e-7, 1e-3, 0.1, 0.5, 1.0]),
       eps=st.sampled_from([0.25, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_point_net_deltas_are_the_distances_to_earlier_selections(coords, frac, eps, seed):
    r = frac * max(float(np.ptp(coords)), 1.0)
    net = approx_r_net_points(PointSet(coords), r, eps, seed)
    sel = [int(v) for v in net.points]
    want = [min((float(np.linalg.norm(coords[y] - coords[x])) for y in sel[:i]), default=np.inf)
            for i, x in enumerate(sel)]
    assert net.selection_deltas == want
    # covering within (1 + eps) r is deterministic
    assert point_distances(coords)[sel].min(axis=0).max() <= (1.0 + eps) * r


@SETTINGS
@given(coords=point_sets(), data=st.data())
def test_point_greedies_reject_duplicate_points(coords, data):
    copy = data.draw(st.integers(0, len(coords) - 1))
    at = data.draw(st.integers(0, len(coords)))
    pts = PointSet(np.insert(coords, at, coords[copy], axis=0))
    for fn in (approx_greedy_points, approx_greedy_points_bounded_spread, approx_minmax_tree):
        with pytest.raises(ValueError, match="duplicate points"):
            fn(pts, 0.5, 0)


# --- the treewidth lane ---


def _zero_some(g, zeros: bool):
    """g, or g with each weight w replaced by w mod 3 (a third of them 0)."""
    return make_graph(g.n, [(u, v, float(int(w) % 3)) for u, v, w in g.edges]) if zeros else g


@st.composite
def decomposed_graphs(draw):
    """(graph, decomposition text) from a generator: a random tree, a
    series-parallel graph or a partial k-tree with k = 1 to 3, on at most 30
    vertices, with weights 1 to 4, or 0 to 2."""
    kind = draw(st.sampled_from(["tree", "sp", "ktree"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "tree":
        g, doc = random_tree(draw(st.integers(1, 30)), rng, w_hi=4)
    elif kind == "sp":
        g, doc = random_series_parallel(draw(st.integers(2, 30)), rng, w_hi=4)
    else:
        k = draw(st.integers(1, 3))
        g, doc = random_ktree(draw(st.integers(k + 1, 30)), k, rng, w_hi=4)
    return _zero_some(g, draw(st.booleans())), doc


@SETTINGS
@given(case=decomposed_graphs())
def test_treewidth_greedy_is_the_matrix_greedy(case):
    g, doc = case
    mine = exact_greedy_treewidth(g, parse_tree_decomposition(doc, g))
    ref = brute_greedy(apsp_exact(g), 0)
    assert (mine.order, mine.radii) == (ref.order, ref.radii)


def _first_violation(g, bags, tree_edges):
    """The error a decomposition must raise, found by brute force: the first
    graph edge that no bag covers, else the smallest vertex whose bags a BFS
    over the decomposition tree does not connect; None when it is valid."""
    for u, v, _ in g.edges:
        if not any(u in bag and v in bag for bag in bags):
            return f"edge ({u}, {v}) not covered by any bag"
    nbr = [[] for _ in bags]
    for i, j in tree_edges:
        nbr[i].append(j)
        nbr[j].append(i)
    for v in range(g.n):
        holding = [i for i, bag in enumerate(bags) if v in bag]
        if not holding:
            continue
        reached = [holding[0]]
        for i in reached:
            reached += [j for j in nbr[i] if v in bags[j] and j not in reached]
        if len(reached) != len(holding):
            return f"bags containing vertex {v} do not form a connected subtree"
    return None


@SETTINGS
@given(case=decomposed_graphs(), data=st.data())
def test_parse_rejects_a_dropped_bag_member_exactly_when_it_breaks_the_decomposition(
        case, data):
    g, doc = case
    td = parse_tree_decomposition(doc, g)
    bags = [list(bag) for bag in td.bags]
    wide = [i for i, bag in enumerate(bags) if len(bag) > 1]
    assume(wide)
    bag = bags[data.draw(st.sampled_from(wide))]
    bag.remove(data.draw(st.sampled_from(bag)))
    text = format_tree_decomposition(bags, td.edges)
    want = _first_violation(g, bags, td.edges)
    if want is None:
        assert parse_tree_decomposition(text, g).bags == [tuple(b) for b in bags]
    else:
        with pytest.raises(ValueError) as err:
            parse_tree_decomposition(text, g)
        assert str(err.value) == f"<string>: {want}"


# --- the planar lane ---


@st.composite
def planar_graphs(draw):
    """A Delaunay graph, a grid, a tree or a series-parallel graph on at
    most 40 vertices, with integer weights, some of them 0."""
    kind = draw(st.sampled_from(["delaunay", "grid", "tree", "sp"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "delaunay":
        g = delaunay_graph(draw(st.integers(4, 40)), rng)
    elif kind == "grid":
        g = grid_graph(draw(st.integers(1, 6)), draw(st.integers(1, 6)), rng=rng, w_hi=4)
    elif kind == "tree":
        g = random_tree(draw(st.integers(1, 40)), rng, w_hi=4)[0]
    else:
        g = random_series_parallel(draw(st.integers(2, 40)), rng, w_hi=4)[0]
    return _zero_some(g, draw(st.booleans()))


@SETTINGS
@given(g=planar_graphs(), frac=st.sampled_from([0.01, 0.1, 0.3, 0.6, 1.0]),
       eps=st.sampled_from([0.1, 0.5, 2.0]))
def test_planar_patches_halve_and_counts_are_sandwiched(g, frac, eps):
    hd = build_hd(g)
    for nd in hd.nodes:
        if nd.children is not None:
            left, right = (hd.nodes[c].patch for c in nd.children)
            assert sorted(left + right) == sorted(nd.patch)
            assert 3 * max(len(left), len(right)) <= 2 * len(nd.patch)
    dm = apsp_exact(g)
    r = frac * max(float(dm.max()), 1.0)
    alpha = count_short_pairs(g, hd, r, eps, exact_oracle(g))
    assert exact_count(dm, r) <= alpha <= exact_count(dm, (3.0 + eps) * r)
