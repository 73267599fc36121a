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


def unreferenced_private(sources: dict[str, str]) -> list[tuple[str, str]]:
    """(module, name) of each module-level private function or class that
    no other top-level statement of any of ``sources`` mentions.

    A mention is a name or an attribute read, or an imported name; uses
    inside the definition itself (recursion) do not count.
    """
    defined = []
    mentions = []  # (module, defining statement's name or None, mentioned name)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_") and not owner.startswith("__"):
                    defined.append((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    mentions.append((module, owner, node.id))
                elif isinstance(node, ast.Attribute):
                    mentions.append((module, owner, node.attr))
                elif isinstance(node, ast.ImportFrom):
                    mentions += [(module, owner, alias.name) for alias in node.names]
    return [
        (module, name) for module, name in defined
        if not any(n == name and (m, o) != (module, name) for m, o, n in mentions)
    ]


def test_detects_unreferenced_private_definitions():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead():\n    return _dead()\n\nclass _Gone:\n    pass\n\nx = _used()\n",
        "b": "from a import _imported\n\ndef _imported():\n    pass\n\ndef __dunder__():\n    pass\n",
    }
    assert unreferenced_private(sources) == [("a", "_dead"), ("a", "_Gone")]


def test_no_unreferenced_private_definitions():
    sources = {p.name: p.read_text() for p in Path(spinhom.__file__).parent.glob("*.py")}
    assert unreferenced_private(sources) == []


def test_public_names_resolve():
    assert sorted(set(spinhom.__all__)) == sorted(spinhom.__all__)
    assert [name for name in spinhom.__all__ if not hasattr(spinhom, name)] == []
