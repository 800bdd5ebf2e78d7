"""farfirst: greedy permutations, r-nets, k-center, and approximate distance
counting/selection over sparse graphs, Euclidean point sets, bounded-treewidth
graphs, and planar graphs, with a brute-force oracle suite."""

from .graphs import (INF, ContractedGraph, DisjointSets, Graph, KruskalTree,
                     approx_diameter, contract_graph, dijkstra,
                     dijkstra_truncated, is_connected, make_graph, parse_graph,
                     pruned_dijkstra_relax, write_graph)
from .greedy import (GreedyPermutation, Net, approx_greedy,
                     approx_greedy_bounded_spread, exact_greedy,
                     k_center_integer, prefix_k_center, r_net)
from .oracles import (GreedyCheck, NetCheck, apsp_exact, bellman_ford,
                      brute_greedy, exact_count, exact_select, kcenter_opt,
                      verify_eps_greedy, verify_net)
from .planar import (DistanceOracle, HierarchicalDecomposition, build_hd,
                     count_short_pairs, exact_oracle, select_kth_distance)
from .points import (AnnIndex, HashFamily, MinMaxTree, PointSet, ann_build,
                     ann_query, ann_query_many, approx_greedy_points,
                     approx_greedy_points_bounded_spread, approx_minmax_tree,
                     approx_r_net_points, gaussian_bucket_collision,
                     parse_points, write_points)
from .treewidth import (LinfIndex, RestrictedPartition, TreeDecomposition,
                        exact_greedy_treewidth, linf_build, linf_query,
                        parse_tree_decomposition, restricted_partition)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
