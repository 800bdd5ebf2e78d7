"""Every name that a module of the package imports is used in that module.

Exempt are __future__ imports and import lines marked "# noqa: F401": those
re-export names that perfbench/spans.py traces on the importing module.  A
name listed in the module's __all__ counts as used.  __init__.py only
re-exports, so it is not checked.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "farfirst"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def _unused_imports(text: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that the module never reads."""
    lines = text.splitlines()
    tree = ast.parse(text)
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" and "from a import b as c" bind c
                bound = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, bound))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in ast.walk(node.value)
                        if isinstance(elt, ast.Constant) and isinstance(elt.value, str))
    return [(lineno, name) for lineno, name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert _unused_imports((SRC / module).read_text()) == []


def test_the_check_finds_an_unused_import():
    text = ("from __future__ import annotations\n"
            "import math\n"
            "import numpy as np\n"
            "import scipy.sparse\n"
            "from .graphs import (Graph,\n"
            "                     dijkstra)\n"
            "from .graphs import is_connected  # noqa: F401\n"
            "from .greedy import MAX_LEVELS\n"
            "__all__ = ['MAX_LEVELS']\n"
            "def f(g: Graph):\n"
            "    return np.zeros(scipy.sparse.csr_matrix((1, 1)).shape)\n")
    assert _unused_imports(text) == [(2, "math"), (5, "dijkstra")]
