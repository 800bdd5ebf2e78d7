"""One distance function for the Euclidean lane: points._norms.

Every point distance in points.py and cli.py is a row length from _norms,
which equals the 1-D np.linalg.norm of each row bit for bit, so the bounded
greedy's carried to_sel and the sweep's marking round alike by construction.
np.linalg.norm(D, axis=1) and einsum sum in other orders and round
differently, so neither may come back.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from farfirst.points import _norms, _point_diameter_bound

SRC = Path(__file__).resolve().parents[1] / "src" / "farfirst"


def test_norms_equal_the_1d_norm_bit_for_bit():
    rng = np.random.default_rng(16)
    for d in range(1, 101):
        for scale in (1e-3, 1.0, 1e3):
            D = rng.standard_normal((30, d)) * scale * 10.0 ** rng.uniform(-3, 3, size=(30, 1))
            want = np.array([np.linalg.norm(row) for row in D])
            assert _norms(D).tobytes() == want.tobytes(), (d, scale)


def test_norms_overflow_to_inf_and_underflow_to_zero():
    with np.errstate(over="ignore"):
        assert _norms(np.array([[1e200, -1e200]]))[0] == np.inf
    assert _norms(np.array([[1e-200], [0.0]])).tolist() == [0.0, 0.0]
    with pytest.raises(ValueError, match="point distances overflow float64"):
        _point_diameter_bound(np.array([[0.0, 0.0], [1e200, -1e200]]))
    assert _point_diameter_bound(np.array([[0.0], [1e-200]])) == 0.0


def _norm_calls(text: str) -> list[int]:
    """Lines that call linalg.norm (by any prefix) or import norm from a
    linalg module."""
    lines = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm"):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            lines += [node.lineno for alias in node.names if alias.name == "norm"]
    return sorted(lines)


@pytest.mark.parametrize("module", ["points.py", "cli.py"])
def test_no_point_distance_bypasses_norms(module):
    assert _norm_calls((SRC / module).read_text()) == []


def test_the_check_finds_a_norm_call():
    text = ("import numpy as np\n"
            "from numpy import linalg\n"
            "a = np.linalg.norm(x, axis=1)\n"
            "b = linalg.norm(x)\n"
            "from numpy.linalg import norm\n"
            "c = np.sqrt(np.vecdot(x, x))\n"
            "d = scipy.linalg.normalize(x)\n")
    assert _norm_calls(text) == [3, 4, 5]
