"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import spinhom

MODULES = sorted(p for p in Path(spinhom.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name that no expression reads.

    Annotations count as reads; ``from __future__`` imports are exempt.
    """
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.partition(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [(line, name) for line, name in imported if name not in used]


def test_detects_unused_imports():
    source = "import os\nimport numpy as np\nfrom typing import Mapping, Sequence\nx: Mapping = np\n"
    assert unused_imports(source) == [(1, "os"), (3, "Sequence")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
