"""Property tests for the graph lane and the point lane, checked against
the brute-force oracles.  Graphs are small connected multigraphs, with zero
weights, parallel edges and one- and two-vertex graphs; weights are
multiples of 1/2, so every path length is exact in float64 and the matrix
oracles meet the searches' sums exactly.  Point sets are small, with tied
distances and coordinates over twelve decades.

hypothesis is not a declared dependency: the module is skipped without it.
The runs are derandomized, so every run tests the same inputs.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings, example = hypothesis.given, hypothesis.settings, hypothesis.example

from farfirst.graphs import make_graph  # noqa: E402
from farfirst.greedy import (approx_greedy, approx_greedy_bounded_spread,  # noqa: E402
                             exact_greedy, k_center_integer, r_net)
from farfirst.oracles import (apsp_exact, brute_greedy, kcenter_opt,  # noqa: E402
                              verify_eps_greedy, verify_net)
from farfirst.points import (PointSet, approx_greedy_points,  # noqa: E402
                             approx_greedy_points_bounded_spread, approx_minmax_tree,
                             approx_r_net_points)

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
    want = [float(np.linalg.norm(coords[sel[:i]] - coords[x], axis=1).min()) if i else np.inf
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
