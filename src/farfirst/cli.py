"""Command-line interface: greedy permutations, nets, k-center, and planar
counting/selection over one entry point.

Exit codes: 0 success, 1 verification failure, 2 usage or input errors
(an input too large for memory among them), 3 internal invariant failure.
Every output is byte-deterministic for a fixed config and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

DEFAULT_SEED = 1729


def _fmt(x: float) -> str:
    return repr(float(x))


def _emit(lines, path) -> None:
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_graph(args):
    from .graphs import parse_graph

    return parse_graph(args.graph, fmt=args.format)


def _point_matrix(coords: np.ndarray) -> np.ndarray:
    """Pairwise distances, built one row at a time: an n x n x d difference
    tensor would take d times the matrix's memory."""
    from .points import _norms

    dm = np.empty((coords.shape[0], coords.shape[0]))
    for i, x in enumerate(coords):
        dm[i] = _norms(coords - x)
    return dm


def _perm_lines(perm):
    return [f"{i} {v} {_fmt(r)}" for i, (v, r) in enumerate(zip(perm.order, perm.radii))]


def _verify_perm(perm, dm) -> int:
    from .oracles import verify_eps_greedy

    check = verify_eps_greedy(dm, perm, perm.eps)
    record = {"status": "pass" if check.ok else "fail", "witness": check.witness,
              "radii": check.radii}
    print(json.dumps(record), file=sys.stderr)
    return 0 if check.ok else 1


def cmd_greedy(args) -> int:
    if args.points is not None:
        from .oracles import brute_greedy
        from .points import (approx_greedy_points, approx_greedy_points_bounded_spread,
                             parse_points)

        if args.td is not None:
            raise ValueError("--td applies to graph inputs only")
        pts = parse_points(args.points)
        dm = None
        if args.exact:
            dm = _point_matrix(pts.coords)
            perm = brute_greedy(dm, args.first)
        elif args.bounded_spread:
            perm = approx_greedy_points_bounded_spread(pts, args.eps, args.seed)
        else:
            perm = approx_greedy_points(pts, args.eps, args.seed)
        if args.verify and dm is None:  # the exact path's matrix serves --verify too
            dm = _point_matrix(pts.coords)
    else:
        from .greedy import approx_greedy, approx_greedy_bounded_spread, exact_greedy

        g = _load_graph(args)
        if args.td is not None:
            from .treewidth import exact_greedy_treewidth, parse_tree_decomposition

            td = parse_tree_decomposition(args.td, g)
            perm = exact_greedy_treewidth(g, td)
        elif args.exact:
            perm = exact_greedy(g, args.first)
        elif args.bounded_spread:
            perm = approx_greedy_bounded_spread(g, args.eps, args.seed)
        else:
            perm = approx_greedy(g, args.eps, args.seed)
        if args.verify:
            from .oracles import apsp_exact

            dm = apsp_exact(g)
    _emit(_perm_lines(perm), args.output)
    if args.verify:
        return _verify_perm(perm, dm)
    return 0


def cmd_net(args) -> int:
    if args.points is not None:
        from .points import approx_r_net_points, parse_points

        pts = parse_points(args.points)
        net = approx_r_net_points(pts, args.r, args.eps, args.seed)
        cover = 1.0 + args.eps
        dm = _point_matrix(pts.coords) if args.verify else None
    else:
        from .greedy import r_net

        g = _load_graph(args)
        order = np.random.default_rng(args.seed).permutation(g.n)
        net = r_net(g, args.r, order=[int(v) for v in order])
        cover = 1.0
        if args.verify:
            from .oracles import apsp_exact

            dm = apsp_exact(g)
    lines = [f"{v} {_fmt(d)}" for v, d in zip(net.points, net.selection_deltas)]
    _emit(lines, args.output)
    if args.verify:
        from .oracles import verify_net

        check = verify_net(dm, net.points, args.r, cover_factor=cover)
        record = {"status": "pass" if check.ok else "fail",
                  "packing_ok": check.packing_ok, "covering_ok": check.covering_ok}
        print(json.dumps(record), file=sys.stderr)
        return 0 if check.ok else 1
    return 0


def cmd_kcenter(args) -> int:
    from .greedy import k_center_integer

    g = _load_graph(args)
    centers, radius = k_center_integer(g, args.k, args.seed)
    lines = [str(v) for v in centers]
    lines.append(f"radius {_fmt(radius)}")
    _emit(lines, args.output)
    return 0


def _require_planar(args) -> None:
    if not args.planar:
        raise ValueError("count/select require the --planar declaration")


def cmd_count(args) -> int:
    from .planar import build_hd, count_short_pairs, exact_oracle

    _require_planar(args)
    g = _load_graph(args)
    hd = build_hd(g)
    alpha = count_short_pairs(g, hd, args.r, args.eps, exact_oracle(g))
    lines = [str(alpha)]
    if args.witness:
        from .oracles import apsp_exact, exact_count

        dm = apsp_exact(g)
        lines = [f"{alpha} {exact_count(dm, args.r)} "
                 f"{exact_count(dm, (3.0 + args.eps) * args.r)}"]
    _emit(lines, args.output)
    return 0


def cmd_select(args) -> int:
    from .planar import select_kth_distance

    _require_planar(args)
    g = _load_graph(args)
    alpha, factor = select_kth_distance(g, args.k, args.eps)
    line = f"{_fmt(alpha)} {_fmt(factor)}"
    if args.witness:
        from .oracles import apsp_exact, exact_select

        line += f" {_fmt(exact_select(apsp_exact(g), args.k))}"
    _emit([line], args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="farfirst",
        description="Greedy permutations, r-nets, k-center, and planar "
                    "distance counting/selection over graphs and point sets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True, points=False, eps=True, seed=True):
        if graph:
            p.add_argument("--graph", help="graph file (.gr or edge list)")
            p.add_argument("--format", choices=("gr", "edgelist"), default=None,
                           help="override format detection by extension")
        if points:
            p.add_argument("--points", help="coordinate file ('n d' header)")
        if eps:
            p.add_argument("--eps", type=float, default=0.5)
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--output", default=None, help="write result here instead of stdout")

    p = sub.add_parser("greedy", help="greedy permutation (farthest-first traversal)")
    common(p, points=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--bounded-spread", action="store_true",
                   help="use the spread-dependent level schedule")
    p.add_argument("--first", type=int, default=0, help="start vertex for --exact")
    p.add_argument("--td", default=None,
                   help="tree-decomposition file; switches to the exact "
                        "bounded-treewidth algorithm")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("net", help="r-net (exact on graphs, approximate on points)")
    common(p, points=True)
    p.add_argument("-r", "--r", type=float, required=True)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_net)

    p = sub.add_parser("kcenter", help="2-approximate k-center (integer weights)")
    common(p, eps=False)
    p.add_argument("-k", "--k", type=int, required=True)
    p.set_defaults(func=cmd_kcenter)

    p = sub.add_parser("count", help="bicriteria count of r-short pairs")
    common(p, seed=False)
    p.add_argument("-r", "--r", type=float, required=True)
    p.add_argument("--planar", action="store_true",
                   help="declare the input planar (required)")
    p.add_argument("--witness", action="store_true",
                   help="also print the exact bracket counts")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("select", help="approximate k-th smallest distance")
    common(p, seed=False)
    p.add_argument("-k", "--k", type=int, required=True)
    p.add_argument("--planar", action="store_true",
                   help="declare the input planar (required)")
    p.add_argument("--witness", action="store_true",
                   help="also print the exact k-th distance")
    p.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "graph", None) is None and getattr(args, "points", None) is None:
        print("error: an input file is required (--graph or --points)", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        source = args.points if getattr(args, "points", None) is not None else args.graph
        print(f"error: out of memory on {source}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
