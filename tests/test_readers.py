"""The edge-list and point readers against their per-line reference.

parse_graph and parse_points read the rows of a text in one numpy step and
hand any text that step rejects to the per-line reader.  Every text must
give what the per-line reader gives: the same graph or point set, or the
same error message with the same line number.
"""

import tracemalloc

import numpy as np
import pytest

from farfirst.generators import grid_graph
from farfirst.graphs import (_EDGE_ROW, _array_rows, _edgelist_by_lines, make_graph,
                             parse_graph, read_input, write_graph)
from farfirst.points import PointSet, _points_by_lines, parse_points, write_points


def _outcome(read, *args):
    """repr of what read(*args) returns, or of the ValueError it raises;
    repr tells -0.0 from 0.0."""
    try:
        out = read(*args)
    except ValueError as exc:
        return "error", str(exc)
    if hasattr(out, "edges"):
        return "graph", out.n, repr(out.edges)
    return "points", out.coords.shape, repr(out.coords.tolist())


def _by_lines(reader, what: str):
    """The per-line reader behind the same read_input step (a text with no
    \n is a path to it too)."""
    def read(source):
        name, text = read_input(source, what)
        return reader(text, name)
    return read


def _same_as_lines(text: str, kind: str):
    if kind == "graph":
        got = _outcome(parse_graph, text)
        ref = _outcome(_by_lines(_edgelist_by_lines, "graph file"), text)
    else:
        got = _outcome(parse_points, text)
        ref = _outcome(_by_lines(_points_by_lines, "point file"), text)
    assert got == ref, repr(text)
    return got


def _array_read(text: str, kind: str) -> bool:
    if kind == "graph":
        return _array_rows(text, _EDGE_ROW, 1) is not None
    return _array_rows(text, np.float64, 2) is not None


# (text, whether the numpy step reads its rows, "ok" or a fragment of the error)
GRAPH_CASES = {
    "plain": ("3 2\n0 1 1.5\n1 2 2\n", True, "ok"),
    "comment line": ("3 3\n# a comment\n0 1 1.5\n1 2 2\n", False, ":2: invalid literal for int()"),
    "trailing comment": ("2 1\n0 1 1.5 # note\n", False, ":2: expected 'u v w'"),
    "float id": ("3 1\n0 1.0 2.0\n", False, ":2: invalid literal for int()"),
    "underscore id": ("3 1\n0 1_000 2.0\n", False, "edge (0,1000) out of range"),
    "underscore weight": ("3 1\n0 1 1_000.5\n", False, "ok"),
    "plus signs": ("4 1\n+3 +0 +2.5\n", True, "ok"),
    "tabs": ("3 2\n0\t1\t1.5\n\t1 \t 2\t2\t\n", True, "ok"),
    "crlf": ("3 2\r\n0 1 1.5\r\n1 2 2\r\n", True, "ok"),
    "bare cr": ("3 2\n0 1 1.5\r1 2 2\r", True, "ok"),
    "blank lines": ("\n\n3 2\n\n0 1 1.5\n \n\t\n1 2 2\n\n", True, "ok"),
    "leading space header": ("  3 2\n0 1 1.5\n1 2 2", True, "ok"),
    "empty body": ("3 0\n", False, "ok"),
    "empty body, rows promised": ("3 2\n\n  \n", False, "promises 2 edges, file has 0"),
    "empty text": ("", False, "empty graph file"),
    "blank text": ("\n \n\t\n", False, "empty graph file"),
    "two columns": ("3 1\n0 1\n", False, ":2: expected 'u v w'"),
    "four columns": ("3 1\n0 1 2.0 7\n", False, ":2: expected 'u v w'"),
    "ragged": ("3 2\n0 1 2.0\n1 2\n", False, ":3: expected 'u v w'"),
    "hex float": ("3 1\n0 1 0x1p3\n", False, ":2: could not convert string to float"),
    "nan weight": ("3 1\n0 1 nan\n", True, "non-finite weight nan on edge (0,1)"),
    "inf weight": ("3 1\n0 1 inf\n", True, "non-finite weight inf on edge (0,1)"),
    "-inf weight": ("3 1\n0 1 -inf\n", True, "negative weight -inf on edge (0,1)"),
    "negative zero": ("3 1\n0 1 -0.0\n", True, "ok"),
    "overflowing weight": ("3 1\n0 1 1e400\n", True, "non-finite weight inf on edge (0,1)"),
    "underflowing weight": ("3 1\n0 1 -1e-400\n", True, "ok"),
    "spelled-out weights": ("3 2\n0 1 Infinity\n1 2 +NaN\n", True, "non-finite weight inf"),
    "count too high": ("3 3\n0 1 1\n1 2 1\n", True, "promises 3 edges, file has 2"),
    "count too low": ("3 1\n0 1 1\n1 2 1\n", True, "promises 1 edges, file has 2"),
    "negative count": ("3 -1\n", False, ":1: need n >= 1 and m >= 0"),
    "zero n": ("0 1\n0 1 1\n", True, ":1: need n >= 1 and m >= 0"),
    "bad header": ("3 x\n0 1 1\n", False, ":1: bad header 'n m'"),
    "three-field header": ("3 1 7\n0 1 1\n", False, ":1: expected header 'n m'"),
    "huge id": ("3 1\n0 99999999999999999999 1\n", False,
                "edge (0,99999999999999999999) out of range for n=3"),
    "self-loop": ("3 2\n0 1 1\n2 2 1\n", True, "self-loop at vertex 2"),
    "first bad edge wins": ("3 3\n0 1 1\n1 1 -1\n0 5 nan\n", True, "self-loop at vertex 1"),
    "range before weight": ("3 1\n0 7 -1\n", True, "edge (0,7) out of range for n=3"),
    "vertical tab": ("3 2\n0 1\v2.0\n", False, ":2: expected 'u v w'"),
    "form feed row break": ("3 1\n0 1 2.0\f\n", False, "ok"),
    "unit separator": ("3 1\n0\x1f1 2.0\n", True, "ok"),
    "no-break space": ("3 1\n0\xa01 2.0\n", False, "ok"),
    "line separator": ("3 2\n0 1\u20282.0\n", False, ":2: expected 'u v w'"),
    "nul": ("3 1\n0 1 2.0\x00\n", False, ":2: could not convert string to float"),
}


@pytest.mark.parametrize("case", sorted(GRAPH_CASES))
def test_edge_list_case_matches_the_per_line_reader(case):
    text, array, expect = GRAPH_CASES[case]
    got = _same_as_lines(text, "graph")
    assert _array_read(text, "graph") == array
    if expect == "ok":
        assert got[0] == "graph"
    else:
        assert got[0] == "error" and expect in got[1]


POINT_CASES = {
    "plain": ("2 3\n0 0 0\n1.5 2.5 3.5\n", True, "ok"),
    "one column": ("3 1\n1\n-2.5\n1e300\n", True, "ok"),
    "comment line": ("3 2\n# a\n0 0\n1 1\n", False, ":2: could not convert string to float"),
    "underscores": ("2 2\n1_000 0\n1 1\n", False, "ok"),
    "plus signs, tabs, crlf": ("2 2\r\n+1\t+.5\r\n\t-2 3e-2 \r\n", True, "ok"),
    "blank lines": ("\n2 2\n\n0 0\n  \n1 1\n\n", True, "ok"),
    "empty body": ("2 2\n\n", False, "promises 2 points, file has 0"),
    "wrong column count": ("2 2\n0 0 0\n1 1 1\n", True, ":2: expected 2 coordinates"),
    "ragged": ("2 2\n0 0\n1\n", False, ":3: expected 2 coordinates"),
    "hex float": ("1 1\n0x1p3\n", False, ":2: could not convert string to float"),
    "nan": ("2 1\n0\nnan\n", True, "coordinates must be finite"),
    "inf": ("2 1\n0\n-inf\n", True, "coordinates must be finite"),
    "count too high": ("3 1\n0\n1\n", True, "promises 3 points, file has 2"),
    "count too low": ("1 1\n0\n1\n", True, "promises 1 points, file has 2"),
    "zero d": ("1 0\n0\n", True, ":1: need n >= 1 and d >= 1"),
    "float header": ("1 2.5\n0 0\n", False, "<string>:1: bad header 'n d'"),
    "vertical tab": ("2 2\n0\v0\n", False, ":2: expected 2 coordinates"),
}


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_point_case_matches_the_per_line_reader(case):
    text, array, expect = POINT_CASES[case]
    got = _same_as_lines(text, "points")
    assert _array_read(text, "points") == array
    if expect == "ok":
        assert got[0] == "points"
    else:
        assert got[0] == "error" and expect in got[1]


# --- seeded texts ---

_SPACES = (" ", "  ", "\t", " \t ")
_ENDS = ("\n", "\r\n", "\r")
_TOKEN_FAULTS = ("x", "1.0", "1_000", "0x1p3", "nan", "-inf", "-1", "+2", "#", "1e3",
                 "7" * 21, "\xa0", "\u2028", "\v", "\x1f", "")


def _spell(x: float, rng: np.random.Generator) -> str:
    """x as repr, a short float, an exponent form, or an int where exact."""
    forms = [repr(x), f"{x:.3g}", f"{x:.6e}", f"{x:+.4f}"]
    if x == int(x):
        forms.append(str(int(x)))
    return forms[int(rng.integers(len(forms)))]


def _text(header, rows, rng: np.random.Generator) -> str:
    """Rows of tokens joined by mixed spaces and line ends, with blank and
    whitespace-only lines, after one header line that ends in \n or \r\n
    (a text with no \n would name a file)."""
    end = _ENDS[int(rng.integers(len(_ENDS)))]
    lines = [" ".join(header) + ("\r" if end == "\r\n" else "")]
    for row in rows:
        while rng.random() < 0.1:
            lines.append(_SPACES[int(rng.integers(len(_SPACES)))] if rng.random() < 0.5 else "")
        lead = _SPACES[int(rng.integers(len(_SPACES)))] if rng.random() < 0.2 else ""
        gaps = [""] + [_SPACES[int(rng.integers(len(_SPACES)))] for _ in row[1:]]
        lines.append(lead + "".join(gap + tok for gap, tok in zip(gaps, row)))
    return lines[0] + "\n" + end.join(lines[1:]) + (end if rng.random() < 0.7 else "")


def _corrupt(header, rows, rng: np.random.Generator):
    """Half the time, one fault: a bad token, a dropped or extra column, a
    header count off by one, or an extra row."""
    if rng.random() < 0.5 or not rows:
        return header, rows
    rows = [list(r) for r in rows]
    kind = int(rng.integers(5))
    i = int(rng.integers(len(rows)))
    if kind == 0:
        rows[i][int(rng.integers(len(rows[i])))] = _TOKEN_FAULTS[int(rng.integers(len(_TOKEN_FAULTS)))]
    elif kind == 1:
        del rows[i][-1]
    elif kind == 2:
        rows[i].append("1")
    elif kind == 3:
        header = [header[0], str(int(header[1]) + int(rng.choice([-1, 1])))]
    else:
        rows.insert(i, list(rows[i]))
    return header, rows


def _edge_list(rng: np.random.Generator):
    n = int(rng.integers(2, 12))
    m = int(rng.integers(0, 15))
    rows = []
    for _ in range(m):
        u = int(rng.integers(0, n))
        v = (u + int(rng.integers(1, n))) % n
        if rng.random() < 0.02:
            v = u if rng.random() < 0.5 else n  # a self-loop or an id out of range
        w = float(rng.choice([0.0, 1.0, 2.5, 1 / 3, 1e-300, 1e300])) * float(rng.uniform(0.5, 2))
        rows.append([str(u), str(v), _spell(w, rng)])
    return _corrupt([str(n), str(m)], rows, rng)


def _point_rows(rng: np.random.Generator):
    n, d = int(rng.integers(1, 9)), int(rng.integers(1, 5))
    coords = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-5, 6, size=(n, d))
    coords[rng.random((n, d)) < 0.1] = 0.0
    rows = [[_spell(float(x), rng) for x in row] for row in coords]
    return _corrupt([str(n), str(d)], rows, rng)


@pytest.mark.parametrize("kind,make", [("graph", _edge_list), ("points", _point_rows)])
def test_seeded_texts_match_the_per_line_reader(kind, make):
    read = 0
    for seed in range(400):
        rng = np.random.default_rng([23, seed])
        text = _text(*make(rng), rng)
        _same_as_lines(text, kind)
        read += _array_read(text, kind)
    assert read >= 150  # the numpy step itself is under test, not only the fallback


# --- make_graph, grid_graph and the writers ---


def test_make_graph_keeps_python_numbers():
    g = make_graph(3, [(np.int64(0), np.int32(2), np.float32(0.5)), (1.7, 2, 3)])
    assert g.edges == [(0, 2, 0.5), (1, 2, 3.0)]
    assert all(type(x) is t for e in g.edges for x, t in zip(e, (int, int, float)))
    with pytest.raises(ValueError, match="not enough values to unpack"):
        make_graph(3, [(0, 1, 1.0), (1, 2)])


def test_grid_graph_equals_the_per_cell_loop():
    """grid_graph builds its columns in array steps; the reference appends
    each cell's edge right, then down, drawing one weight per edge."""
    for rows, cols in [(1, 1), (1, 5), (4, 1), (3, 4), (7, 5)]:
        for seed, w_hi in [(None, 1), (3, 1), (3, 4)]:
            rng = None if seed is None else np.random.default_rng(seed)
            ref = []
            for r in range(rows):
                for c in range(cols):
                    for ok, nb in ((c + 1 < cols, r * cols + c + 1), (r + 1 < rows, (r + 1) * cols + c)):
                        if ok:
                            w = float(rng.integers(1, w_hi + 1)) if rng is not None and w_hi > 1 else 1.0
                            ref.append((r * cols + c, nb, w))
            rng = None if seed is None else np.random.default_rng(seed)
            g = grid_graph(rows, cols, rng, w_hi)
            assert (g.n, repr(g.edges)) == (rows * cols, repr(ref))


def test_writers_write_the_per_line_text(tmp_path):
    g = make_graph(4, [(0, 1, 0.1), (3, 2, 1 / 3), (2, 1, 7e-300), (0, 3, 0.0)])
    write_graph(g, tmp_path / "g")
    assert (tmp_path / "g").read_text() == (
        "4 4\n0 1 0.1\n3 2 0.3333333333333333\n2 1 7e-300\n0 3 0.0\n")
    pts = PointSet(np.array([[0.1, -2.0], [1 / 3, 1e-300]]))
    write_points(pts, tmp_path / "p")
    assert (tmp_path / "p").read_text() == "2 2\n0.1 -2.0\n0.3333333333333333 1e-300\n"


# --- read memory ---


def test_edge_list_read_memory_is_bounded():
    """Peak traced allocation of one parse_graph call on a 50k-edge text.

    The per-line reader peaked at 30.6 MiB on this text (it holds the split
    fields of every line at once), the array step at 9.9 MiB; the bound
    sits between them.
    """
    rng = np.random.default_rng(25)
    n, m = 20_000, 50_000
    u = rng.integers(0, n, size=m)
    v = (u + 1 + rng.integers(0, n - 1, size=m)) % n
    w = rng.random(m)
    text = f"{n} {m}\n" + "".join(f"{a} {b} {c!r}\n" for a, b, c in zip(u.tolist(), v.tolist(), w.tolist()))
    tracemalloc.start()
    try:
        g = parse_graph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == m
    assert peak / 2**20 < 20.0, peak / 2**20
