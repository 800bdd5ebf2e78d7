"""The benchmark's output checks accept true outputs and reject corrupted ones.

    python3 -m pytest perfbench/test_checks.py

References are built here from the checks' own exact traversal, so these
tests need numpy and scipy but not farfirst.
"""

import math

import numpy as np
import pytest

import checks
from checks import CheckError

EPS = 0.5


def grid_rows(side: int) -> checks.GraphRows:
    """Unit-weight side x side grid."""
    edges = []
    for r in range(side):
        for c in range(side):
            v = r * side + c
            if c + 1 < side:
                edges.append((v, v + 1, 1.0))
            if r + 1 < side:
                edges.append((v, v + side, 1.0))
    return checks.GraphRows(checks.graph_matrix(side * side, np.array(edges)))


def greedy_net(rows, r: float) -> list[int]:
    """Natural-order r-net: keep each vertex at distance >= r from those kept."""
    kept: list[int] = []
    for v in range(rows.n):
        if not kept or rows(kept)[:, v].min() >= r:
            kept.append(v)
    return kept


@pytest.fixture(scope="module")
def rows():
    return grid_rows(6)


@pytest.fixture(scope="module")
def traversal(rows):
    return checks.farthest_first(rows, 0, rows.n)


def test_parallel_edges_keep_the_lightest():
    csr = checks.graph_matrix(2, np.array([[0, 1, 5.0], [1, 0, 2.0], [0, 1, 3.0]]))
    assert checks.GraphRows(csr)([0])[0, 1] == 2.0


def test_true_greedy_passes(rows, traversal):
    order, radii = traversal
    checks.greedy_shape(order, radii, rows.n)
    checks.eps_certificate(rows, order, EPS, rows.n)
    checks.exact_traversal(rows, order, radii)


def swap_in_a_neighbour(rows, order) -> list[int]:
    """order with rank 2 swapped for the neighbour of order[0] ranked later."""
    order = list(order)
    j = next(i for i, v in enumerate(order) if rows([order[0]])[0, v] == 1.0)
    order[2], order[j] = order[j], order[2]
    return order


def test_swapped_ranks_fail(rows, traversal):
    order = swap_in_a_neighbour(rows, traversal[0])
    with pytest.raises(CheckError, match="certificate at prefix 3"):
        checks.eps_certificate(rows, order, EPS, rows.n)
    with pytest.raises(CheckError, match="rank 2"):
        checks.exact_traversal(rows, order, traversal[1])


def test_radius_off_by_an_ulp_fails(rows, traversal):
    order, radii = traversal[0], list(traversal[1])
    i = next(i for i in range(2, rows.n) if radii[i] == radii[i - 1])
    radii[i] = math.nextafter(radii[i], math.inf)
    with pytest.raises(CheckError, match="grows"):
        checks.greedy_shape(order, radii, rows.n)
    with pytest.raises(CheckError, match=f"rank {i}"):
        checks.exact_traversal(rows, order, radii)


def test_malformed_permutations_fail(rows, traversal):
    order, radii = list(traversal[0]), list(traversal[1])
    with pytest.raises(CheckError, match="permutation"):
        checks.greedy_shape([order[0]] + order[:-1], radii, rows.n)
    with pytest.raises(CheckError, match="inf"):
        checks.greedy_shape(order, [1e9] + radii[1:], rows.n)
    with pytest.raises(CheckError, match="ranks"):
        checks.greedy_shape(order[:-1], radii[:-1], rows.n)


def test_certificate_prefix_only_reads_the_prefix(rows, traversal):
    order = swap_in_a_neighbour(rows, traversal[0])
    checks.eps_certificate(rows, order, EPS, 2)
    with pytest.raises(CheckError):
        checks.eps_certificate(rows, order, EPS, rows.n)


def test_graph_net_checks(rows):
    r = 2.5
    net = greedy_net(rows, r)
    checks.net(rows, net, r)
    with pytest.raises(CheckError, match="covering"):
        checks.net(rows, net[:-1], r)  # a dropped net point
    intruder = next(v for v in range(rows.n) if v not in net)
    with pytest.raises(CheckError, match="packing"):
        checks.net(rows, net + [intruder], r)
    with pytest.raises(CheckError, match="repeats"):
        checks.net(rows, net + [net[0]], r)


def test_point_net_covering_allows_the_slack():
    coords = np.arange(10, dtype=float)[:, None] * 2.0  # spacing 2 on a line
    prow = checks.PointRows(coords)
    net = list(range(0, 10, 2))  # every other point: covering radius exactly 2
    checks.net(prow, net, 1.5, cover=1.0 + EPS)
    with pytest.raises(CheckError, match="covering"):
        checks.net(prow, net, 1.5)
    everyone = list(range(10))
    checks.net(prow, everyone, 1.0, cover=1.0 + EPS)
    with pytest.raises(CheckError, match="covering"):
        checks.net(prow, everyone[1:], 1.0, cover=1.0 + EPS)  # a dropped net point


def test_k_center_checks(rows, traversal):
    k = 4
    centers = traversal[0][:k]
    radius = float(rows(centers).min(axis=0).max())
    checks.k_center(rows, centers, radius, k)
    with pytest.raises(CheckError, match="covering radius"):
        checks.k_center(rows, centers, radius + 1.0, k)
    with pytest.raises(CheckError, match="centers"):
        checks.k_center(rows, traversal[0][:k + 1], radius, k)
    path = checks.GraphRows(checks.graph_matrix(
        20, np.array([(v, v + 1, 1.0) for v in range(19)])))
    crowded = [0, 1, 2]  # covering radius 17, while 2 R_4 = 10 on this path
    with pytest.raises(CheckError, match="2 R_"):
        checks.k_center(path, crowded, 17.0, 3)


def test_count_sandwich(rows):
    pairs = checks.pair_distances(rows)
    r = 2.0
    low = int(np.count_nonzero(pairs <= r))
    high = int(np.count_nonzero(pairs <= (3.0 + EPS) * r))
    checks.count_sandwich(pairs, low, r, EPS)
    checks.count_sandwich(pairs, high, r, EPS)
    with pytest.raises(CheckError, match="outside"):
        checks.count_sandwich(pairs, low - 1, r, EPS)
    with pytest.raises(CheckError, match="outside"):
        checks.count_sandwich(pairs, high + 1, r, EPS)


def test_select_bracket(rows):
    pairs = checks.pair_distances(rows)
    k = 50
    kth = float(pairs[k - 1])
    factor = (3.0 + EPS) * (1.0 + EPS)
    checks.select_bracket(pairs, k, kth / 2.0, factor, EPS)
    checks.select_bracket(pairs, k, kth, factor, EPS)
    with pytest.raises(CheckError, match="outside"):
        checks.select_bracket(pairs, k, math.nextafter(kth, math.inf), factor, EPS)
    with pytest.raises(CheckError, match="outside"):
        checks.select_bracket(pairs, k, kth / factor / 1.01, factor, EPS)
    with pytest.raises(CheckError, match="factor"):
        checks.select_bracket(pairs, k, kth / 2.0, factor * 1.01, EPS)
