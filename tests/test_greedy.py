"""r-nets, exact and approximate greedy permutations, k-center."""

import math

import numpy as np
import pytest

from farfirst.generators import random_connected_graph
from farfirst import greedy
from farfirst.graphs import approx_diameter, make_graph, pruned_dijkstra_relax
from farfirst.greedy import (approx_greedy, approx_greedy_bounded_spread, exact_greedy,
                             k_center_integer, prefix_k_center, r_net)
from farfirst.oracles import (apsp_exact, brute_greedy, kcenter_opt, verify_eps_greedy,
                              verify_net)

from conftest import complete_graph, path_graph, star_graph

INF = float("inf")


# --- level schedule ---


def test_level_schedule_geometric():
    s = greedy._levels(16.0, 1.0, 1.0)
    assert s == [16.0, 8.0, 4.0, 2.0, 1.0, 0.5]
    assert len(s) == 6


def test_level_schedule_descends_strictly_below_floor():
    s = greedy._levels(10.0, 0.5, 1.0)
    assert s[-1] < 1.0
    assert all(a / (1.5) == b for a, b in zip(s, s[1:]))
    assert all(v >= 1.0 for v in s[:-1])


def test_level_schedule_guards():
    with pytest.raises(ValueError):
        greedy._levels(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        greedy._levels(4.0, -1.0, 1.0)
    for bad in (INF, float("nan")):
        for args in ((bad, 1.0, 1.0), (4.0, bad, 1.0), (4.0, 1.0, bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                greedy._levels(*args)


# --- r_net ---


def test_r_net_hand_trace(path4):
    net = r_net(path4, 1.5, order=[2, 0, 1, 3])
    assert net.points == [2, 0]
    np.testing.assert_array_equal(net.cover_field, [0.0, 1.0, 0.0, 1.0])


def test_r_net_tiny_radius_selects_everything(path4):
    net = r_net(path4, 0.25, order=[3, 1, 0, 2])
    assert net.points == [3, 1, 0, 2]


def test_r_net_huge_radius_selects_first(k3):
    for order in ([0, 1, 2], [2, 0, 1]):
        net = r_net(k3, 3.0, order=order)
        assert net.points == [order[0]]


def test_r_net_respects_used_set(path4):
    net = r_net(path4, 0.25, order=[0, 1, 2, 3], used={1, 3})
    assert net.points == [0, 2]


def test_r_net_guards(path4):
    with pytest.raises(ValueError, match="positive"):
        r_net(path4, 0.0)
    for bad in (INF, float("nan")):
        with pytest.raises(ValueError, match="finite and positive"):
            r_net(path4, bad)
    with pytest.raises(ValueError, match="disconnected"):
        r_net(make_graph(3, [(0, 1, 1.0)]), 1.0)


def test_r_net_rejects_ids_outside_the_graph():
    g = path_graph(3)
    for kwargs, bad in (({"order": [-1, 0, 1, 2]}, -1), ({"order": [7]}, 7),
                        ({"used": [-3]}, -3), ({"used": [0, 3]}, 3)):
        with pytest.raises(ValueError, match=f"holds {bad}, not a vertex id in 0..2"):
            r_net(g, 1.0, **kwargs)


def test_r_net_rejects_a_field_of_another_length():
    g = path_graph(3)
    for n in (2, 5):
        with pytest.raises(ValueError, match=f"field has {n} entries, graph has 3 vertices"):
            r_net(g, 1.0, field=np.full(n, INF))


def test_r_net_rejects_a_field_it_cannot_lower_in_place():
    """The field is lowered in place, so an int64 field would truncate the
    distances it stores (on this path the cover field is [0, 0.5, 0])."""
    g = make_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    for bad in (np.full(3, 10**9, dtype=np.int64), np.full((3, 1), INF), [INF] * 3):
        with pytest.raises(ValueError, match="1-D float64 array"):
            r_net(g, 1.0, field=bad)
    fld = np.full(3, INF)
    net = r_net(g, 1.0, field=fld)
    assert net.cover_field is fld
    np.testing.assert_array_equal(fld, [0.0, 0.5, 0.0])


def _unfiltered_sweep(g, r, order, used, field):
    """The net sweep without the numpy prefilter, on the numpy field."""
    points, sel, updates = [], [], 0
    for v in order:
        v = int(v)
        if field[v] >= r and not used[v]:
            points.append(v)
            sel.append(float(field[v]))
            updates += pruned_dijkstra_relax(g.adjacency(), [v], field)
    return points, sel, updates


def test_net_sweep_prefilter_matches_unfiltered_walk():
    """Carried fields, with the used set the bounded greedy passes or with
    none (so field values equal to r stay selectable): the prefiltered list
    walk gives the same net, count and field bytes."""
    rng = np.random.default_rng(97)
    for trial in range(8):
        g = random_connected_graph(60, 150, rng, w_hi=30)
        fld, ref = np.full(g.n, INF), np.full(g.n, INF)
        for r in (80.0, 40.0, 20.0, 7.0, 1.0):
            used = fld <= r if trial % 2 else np.zeros(g.n, dtype=bool)
            order = rng.permutation(g.n)
            net = greedy._net_sweep(g, r, order, used, fld)
            want = _unfiltered_sweep(g, r, order, used, ref)
            assert (net.points, net.selection_deltas, net.updates) == want
            assert fld.tobytes() == ref.tobytes()


def test_every_graph_net_reaches_the_relax_kernel(monkeypatch):
    """The benchmark's tracer swaps a wrapper into greedy.pruned_dijkstra_relax;
    every graph net and greedy must look the kernel up there."""
    calls = {"n": 0}

    def counting(*args, **kwargs):
        calls["n"] += 1
        return pruned_dijkstra_relax(*args, **kwargs)

    monkeypatch.setattr(greedy, "pruned_dijkstra_relax", counting)
    g = random_connected_graph(30, 60, np.random.default_rng(5), w_hi=9)
    runs = {"r_net": lambda: greedy.r_net(g, 5.0),
            "k_center_integer": lambda: greedy.k_center_integer(g, 3, seed=1),
            "approx_greedy_bounded_spread": lambda: greedy.approx_greedy_bounded_spread(g, 0.5, 1),
            "approx_greedy": lambda: greedy.approx_greedy(g, 0.5, 1)}
    for name, run in runs.items():
        calls["n"] = 0
        run()
        assert calls["n"] > 0, name


def test_r_net_packing_and_covering_exact():
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(20, 120))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng)
        dm = apsp_exact(g)
        diam = dm.max()
        for r in (0.1 * diam, 0.45 * diam, 0.9 * diam):
            net = r_net(g, r, order=rng.permutation(g.n))
            check = verify_net(dm, net.points, r, cover_factor=1.0)
            assert check.ok, (check.packing_witness, check.covering_witness)
            # the returned field is the true distance-to-net
            np.testing.assert_allclose(net.cover_field, dm[net.points].min(axis=0),
                                       rtol=0, atol=1e-9)


# --- exact greedy ---


def test_exact_greedy_path(path4):
    perm = exact_greedy(path4, 0)
    assert perm.order == [0, 3, 1, 2]
    assert perm.radii == [INF, 3.0, 1.0, 1.0]


def test_exact_greedy_triangle(k3):
    perm = exact_greedy(k3, 0)
    assert perm.order == [0, 1, 2]
    assert perm.radii == [INF, 1.0, 1.0]


def test_exact_greedy_single_edge():
    g = make_graph(2, [(0, 1, 5.0)])
    assert exact_greedy(g, 0).order == [0, 1]
    assert exact_greedy(g, 1).order == [1, 0]
    assert exact_greedy(g, 1).radii == [INF, 5.0]


def test_exact_greedy_matches_brute_oracle():
    rng = np.random.default_rng(12)
    for _ in range(15):
        n = int(rng.integers(2, 80))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng)
        first = int(rng.integers(g.n))
        mine = exact_greedy(g, first)
        ref = brute_greedy(apsp_exact(g), first)
        assert mine.order == ref.order
        assert mine.radii == pytest.approx(ref.radii)


def test_exact_greedy_on_multigraphs_with_zero_and_parallel_edges():
    # the lightest of parallel edges counts, and a zero weight is an edge
    assert exact_greedy(make_graph(2, [(0, 1, 3.0), (0, 1, 2.0)]), 0).radii == [INF, 2.0]
    assert exact_greedy(make_graph(2, [(0, 1, 3.0), (1, 0, 0.0)]), 0).radii == [INF, 0.0]
    rng = np.random.default_rng(16)
    for _ in range(10):
        n = int(rng.integers(2, 40))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng)
        extra = []
        for i in rng.integers(0, g.m, size=g.m // 2 + 1):
            u, v, w = g.edges[int(i)]
            extra.append((v, u, float(rng.choice([0.0, 0.5 * w, 2.0 * w]))))
        g = make_graph(n, g.edges + extra)
        for first in (0, n - 1):
            mine = exact_greedy(g, first)
            ref = brute_greedy(apsp_exact(g), first)
            assert mine.order == ref.order
            assert mine.radii == pytest.approx(ref.radii)


def test_exact_greedy_scale_invariance():
    rng = np.random.default_rng(13)
    g = random_connected_graph(40, 90, rng)
    scaled = make_graph(g.n, [(u, v, 7.5 * w) for u, v, w in g.edges])
    base = exact_greedy(g, 0)
    big = exact_greedy(scaled, 0)
    assert big.order == base.order
    assert big.radii[1:] == pytest.approx([7.5 * r for r in base.radii[1:]])


def test_exact_greedy_zero_weight_tail():
    g = make_graph(3, [(0, 1, 1.0), (1, 2, 0.0)])
    perm = exact_greedy(g, 0)
    assert perm.order[0] == 0
    assert perm.radii == [INF, 1.0, 0.0]
    assert verify_eps_greedy(apsp_exact(g), perm, 0.0).ok


def test_exact_greedy_passes_verifier_at_zero_eps():
    rng = np.random.default_rng(14)
    g = random_connected_graph(60, 140, rng)
    assert verify_eps_greedy(apsp_exact(g), exact_greedy(g, 5), 0.0).ok


# --- approximate greedy, bounded spread ---


def test_bounded_spread_verifies_on_random_graphs():
    rng = np.random.default_rng(15)
    for eps in (0.3, 1.0):
        for _ in range(5):
            n = int(rng.integers(10, 90))
            g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng)
            perm = approx_greedy_bounded_spread(g, eps, seed=int(rng.integers(2**32)))
            assert sorted(perm.order) == list(range(g.n))
            assert verify_eps_greedy(apsp_exact(g), perm, eps).ok


def test_bounded_spread_star_first_block_single():
    # hub placed last so the diameter bound from vertex 0 strictly exceeds
    # every pairwise distance and the top level can only select one vertex
    g = make_graph(7, [(i, 6, 1.0) for i in range(6)])
    top = approx_diameter(g)
    for seed in range(5):
        for eps in (0.2, 1.0):
            perm = approx_greedy_bounded_spread(g, eps, seed=seed)
            assert len(perm.order) == g.n
            assert sorted(perm.order) == list(range(g.n))
            assert perm.radii[1] < top


def test_bounded_spread_path_first_block_single(path4):
    perm = approx_greedy_bounded_spread(path4, 0.1, seed=3)
    assert perm.radii[0] == INF
    assert perm.radii[1] < approx_diameter(path4)


def test_bounded_spread_radii_certificate_shape():
    rng = np.random.default_rng(16)
    g = random_connected_graph(50, 110, rng)
    perm = approx_greedy_bounded_spread(g, 0.5, seed=7)
    finite = perm.radii[1:]
    assert all(a >= b for a, b in zip(finite, finite[1:]))


def _floored_bounded_spread(g, eps, seed):
    """The bounded greedy on the full floored schedule: every level from the
    diameter bound down to the first one below the least positive weight."""
    delta = approx_diameter(g)
    if delta == 0.0:
        return list(range(g.n)), [INF] + [0.0] * (g.n - 1)
    rng = np.random.default_rng(seed)
    fld = np.full(g.n, INF)
    order, radii = [], []
    for r in greedy._levels(delta, eps, g.min_weight()):
        for v in greedy._net_sweep(g, r, rng.permutation(g.n), fld <= r, fld).points:
            radii.append(INF if not order else r)
            order.append(v)
    for v in range(g.n):
        if v not in order:
            assert fld[v] == 0.0
            order.append(v)
            radii.append(0.0)
    return order, radii


def test_bounded_spread_lazy_levels_match_floored_schedule():
    """Stopping once nothing is left at positive distance skips only levels
    that emit nothing, and their permutation draws come after the last
    emission: the output equals the floored schedule's."""
    rng = np.random.default_rng(24)
    graphs = [make_graph(1, []), make_graph(2, [(0, 1, 3.0)]), make_graph(2, [(0, 1, 0.0)])]
    for trial in range(40):
        n = int(rng.integers(3, 40))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng)
        kind = trial % 4
        if kind == 1:  # zero weights and parallel edges
            extra = [(v, u, float(rng.integers(0, 3))) for u, v, _ in g.edges[::2]]
            g = make_graph(n, [(u, v, float(rng.integers(0, 3))) for u, v, _ in g.edges] + extra)
        elif kind == 2:  # weights spread over 200 decades
            g = make_graph(n, [(u, v, float(10.0 ** rng.uniform(0, 200))) for u, v, _ in g.edges])
        elif kind == 3:
            g = make_graph(n, [(u, v, float(rng.uniform(0, 1))) for u, v, _ in g.edges])
        graphs.append(g)
    for g in graphs:
        for eps in (0.1, 0.5, 2.0):
            seed = int(rng.integers(2**32))
            perm = approx_greedy_bounded_spread(g, eps, seed)
            assert (perm.order, perm.radii) == _floored_bounded_spread(g, eps, seed)


@pytest.mark.parametrize("fn, eps", [
    (approx_greedy_bounded_spread, 1e-17),
    (approx_greedy, 1e-16),
    (approx_greedy, 3e-16),  # 1 + eps > 1, but 1 + eps/3 rounds to 1
], ids=lambda x: getattr(x, "__name__", repr(x)))
def test_graph_greedies_reject_an_eps_whose_level_ratio_rounds_to_one(path4, fn, eps):
    with pytest.raises(ValueError, match=f"eps {eps!r} is too small"):
        fn(path4, eps, seed=1)


def test_bounded_spread_guards(path4):
    with pytest.raises(ValueError):
        approx_greedy_bounded_spread(path4, 0.0, seed=1)
    for fn in (approx_greedy, approx_greedy_bounded_spread):
        for bad in (INF, float("nan")):
            with pytest.raises(ValueError, match="finite and positive"):
                fn(path4, bad, seed=1)
    with pytest.raises(ValueError):
        approx_greedy_bounded_spread(make_graph(3, [(0, 1, 1.0)]), 0.5, seed=1)


# --- approximate greedy, spread independent ---


def test_approx_greedy_single_vertex_has_active_counts():
    perm = approx_greedy(make_graph(1, []), 0.5, seed=1)
    assert perm.order == [0] and perm.radii == [INF]
    assert perm.active_level_counts.dtype == np.int64
    assert perm.active_level_counts.shape == (0,)


def test_zero_diameter_graphs_take_the_natural_order():
    """Every pair at distance 0, though a positive weight is present: both
    variants return 0..n-1 with zero radii instead of rejecting the graph."""
    for g in (make_graph(3, [(0, 1, 3.0), (1, 0, 0.0), (2, 1, 0.0)]),
              make_graph(2, [(0, 1, 0.0)])):
        ref = exact_greedy(g, 0)
        for variant in (approx_greedy, approx_greedy_bounded_spread):
            perm = variant(g, 0.5, seed=1)
            assert perm.order == ref.order == list(range(g.n))
            assert perm.radii == ref.radii == [INF] + [0.0] * (g.n - 1)
        assert np.array_equal(approx_greedy(g, 0.5, seed=1).active_level_counts,
                              np.zeros(g.m, dtype=np.int64))


def test_approx_greedy_tiny_extreme_spread_path():
    g = make_graph(4, [(0, 1, 1.0), (1, 2, 1e6), (2, 3, 1e12)])
    for eps in (0.5, 1.0):
        perm = approx_greedy(g, eps, seed=11)
        assert verify_eps_greedy(apsp_exact(g), perm, eps).ok
        # skipping must keep the per-edge work far below the naive
        # log(spread) = ~40 level count at eps = 1
        assert perm.active_level_counts.max() < 30


def test_approx_greedy_extreme_spread_counter():
    """Per-edge active-level counts stay under 8/eps * ln(n/eps); the
    constant is asymptotic, so n matches the working scale, not a toy."""
    rng = np.random.default_rng(22)
    n = 24
    weights = [float(10 ** int(rng.integers(0, 13))) for _ in range(n - 1)]
    g = make_graph(n, [(i, i + 1, w) for i, w in enumerate(weights)])
    for eps in (0.5, 1.0):
        perm = approx_greedy(g, eps, seed=int(rng.integers(2**32)))
        assert verify_eps_greedy(apsp_exact(g), perm, eps).ok
        bound = 8.0 / eps * math.log(g.n / eps)
        assert perm.active_level_counts.max() <= bound


def test_approx_greedy_cross_checks_bounded_variant():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n = int(rng.integers(10, 70))
        g = random_connected_graph(n, int(rng.integers(n - 1, 3 * n)), rng)
        dm = apsp_exact(g)
        seed = int(rng.integers(2**32))
        for eps in (0.5, 1.0):
            assert verify_eps_greedy(dm, approx_greedy(g, eps, seed), eps).ok
            assert verify_eps_greedy(dm, approx_greedy_bounded_spread(g, eps, seed), eps).ok


def test_approx_greedy_selects_at_exactly_the_level_radius():
    """A representative at truncated distance exactly r from the selection is
    selected (the ">= r" rule).  On this unit path at eps 1 the levels are
    4, 3, 2.25, ...; seeds 2-5 select 3 first, and 1, exactly 3 away, joins
    at level 3.  Selecting only beyond r would defer it to level 2.25."""
    g = make_graph(4, [(1, 0, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
    for seed in range(2, 6):
        perm = approx_greedy(g, 1.0, seed)
        assert perm.order[:2] == [3, 1]
        assert perm.radii[1] == 3.0


def test_approx_greedy_unit_weights_never_skips():
    """With unit weights every edge is active at every level, so the active
    counter is uniform and equals the full internal schedule length."""
    rng = np.random.default_rng(18)
    g = random_connected_graph(30, 60, rng, w_lo=1, w_hi=1)
    eps = 0.9
    perm = approx_greedy(g, eps, seed=5)
    counts = perm.active_level_counts
    assert counts.min() == counts.max()
    internal = greedy._levels(approx_diameter(g), min(eps, 1.0) / 3.0, g.min_weight())
    assert counts.max() == len(internal)


def test_approx_greedy_is_permutation_with_monotone_radii():
    rng = np.random.default_rng(19)
    g = random_connected_graph(64, 150, rng)
    perm = approx_greedy(g, 0.25, seed=2)
    assert sorted(perm.order) == list(range(g.n))
    finite = perm.radii[1:]
    assert all(a >= b for a, b in zip(finite, finite[1:]))


# --- k-center ---


def test_k_center_path5():
    g = path_graph(5)
    centers, radius = k_center_integer(g, 2, seed=0)
    assert len(centers) <= 2
    assert radius <= 2.0  # opt is 1


def test_k_center_k_equals_n():
    g = path_graph(4)
    centers, radius = k_center_integer(g, 4, seed=0)
    assert radius == 0.0
    assert sorted(centers) == [0, 1, 2, 3]


def test_k_center_star():
    centers, radius = k_center_integer(star_graph(8), 1, seed=0)
    assert len(centers) == 1
    assert radius <= 2.0


def test_k_center_guards():
    with pytest.raises(ValueError, match="integer"):
        k_center_integer(make_graph(2, [(0, 1, 1.5)]), 1, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        k_center_integer(path_graph(3), 0, seed=0)
    with pytest.raises(ValueError, match="out of range"):
        k_center_integer(path_graph(3), 4, seed=0)


def test_k_center_two_approx_exhaustive():
    rng = np.random.default_rng(20)
    for _ in range(6):
        n = int(rng.integers(3, 11))
        g = random_connected_graph(n, int(rng.integers(n - 1, 2 * n)), rng, w_lo=1, w_hi=9)
        dm = apsp_exact(g)
        for k in range(1, n + 1):
            centers, radius = k_center_integer(g, k, seed=int(rng.integers(2**32)))
            opt = kcenter_opt(dm, k)
            assert len(centers) <= k
            assert radius <= 2.0 * opt + 1e-9
            # reported radius is the real covering radius of the centers
            assert radius == pytest.approx(dm[centers].min(axis=0).max())


# --- prefix k-center ---


def test_prefix_k_center_triangle(k3):
    centers, bound = prefix_k_center(exact_greedy(k3, 0), 1)
    assert centers == [0]
    assert bound == 1.0


def test_prefix_k_center_path5():
    g = path_graph(5)
    centers, bound = prefix_k_center(exact_greedy(g, 0), 2)
    assert len(centers) == 2
    assert bound == 2.0  # 2 * opt with opt = 1


def test_prefix_k_center_full_prefix():
    g = path_graph(5)
    perm = exact_greedy(g, 0)
    centers, bound = prefix_k_center(perm, 5)
    assert centers == perm.order
    dm = apsp_exact(g)
    min_pairwise = min(dm[i, j] for i in range(5) for j in range(i + 1, 5))
    assert bound <= min_pairwise


def test_prefix_k_center_simultaneous_guarantee():
    rng = np.random.default_rng(21)
    g = random_connected_graph(12, 30, rng, w_lo=1, w_hi=9)
    dm = apsp_exact(g)
    eps = 0.5
    perm = approx_greedy_bounded_spread(g, eps, seed=4)
    # the 2(1+eps)*opt guarantee is vacuous at k = n where opt = 0; there
    # the contract is bound <= min pairwise distance instead
    for k in range(1, g.n):
        centers, bound = prefix_k_center(perm, k)
        covering = dm[centers].min(axis=0).max()
        assert covering <= bound + 1e-9
        assert bound <= 2.0 * (1.0 + eps) * kcenter_opt(dm, k) + 1e-9
    _, last = prefix_k_center(perm, g.n)
    assert last <= dm[np.triu_indices(g.n, k=1)].min()


def test_prefix_k_center_guards(k3):
    perm = exact_greedy(k3, 0)
    with pytest.raises(ValueError):
        prefix_k_center(perm, 0)
    with pytest.raises(ValueError):
        prefix_k_center(perm, 4)
