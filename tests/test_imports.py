"""Import and signature hygiene of the package modules.

Every name a module imports is used in it, every private definition is
used, no module imports another's private names, and no function takes
a value the model already carries (``summary``) or that the surface
layer works out itself (``needed``, the coarsening side).
"""

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


def parameters_named(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, function) of each function or lambda with a parameter in ``names``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            name = getattr(node, "name", "<lambda>")
            out += [(node.lineno, name) for p in params if p.arg in names]
    return out


def private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each underscore name imported from a package module,
    by a relative import or from ``spinhom``; dunder names are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").partition(".")[0] == "spinhom"
        ):
            out += [
                (node.lineno, alias.name) for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    return out


def test_detects_threaded_parameters_and_private_imports():
    source = (
        "from . import __version__\nfrom .a import _x, y\nfrom spinhom.b import _z\n"
        "from os import _exit\ndef f(model, *, summary=None):\n    return lambda needed: needed\n"
    )
    assert parameters_named(source, {"summary", "needed"}) == [(5, "f"), (6, "<lambda>")]
    assert private_imports(source) == [(2, "_x"), (3, "_z")]


PACKAGE = sorted(Path(spinhom.__file__).parent.glob("*.py"))


def test_no_function_takes_a_summary_or_a_coarsening_side():
    found = {p.name: parameters_named(p.read_text(), {"summary", "needed"}) for p in PACKAGE}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_no_module_imports_private_names_of_another():
    found = {p.name: private_imports(p.read_text()) for p in PACKAGE}
    assert {name: hits for name, hits in found.items() if hits} == {}


# Creating a dataclass compiles each generated method with its own exec,
# about 1 ms per frozen class at import, against about 0.1 ms for a named
# tuple; records are named tuples.  The classes kept as dataclasses, and why:
KEPT_DATACLASSES = {
    "LatticeModel": "its functools.cached_property fields need an instance __dict__",
    "GroundStateInstance": "bench/tracer.py wraps its __post_init__ to count variables and pair terms",
}


def dataclasses_defined(source: str) -> list[tuple[int, str]]:
    """(line, class) of each class decorated with ``dataclass``, called or
    not, by its bare name or as ``dataclasses.dataclass``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
                if name == "dataclass":
                    out.append((node.lineno, node.name))
    return out


def test_detects_dataclasses():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n@dataclass\nclass A:\n    x: int\n"
        "@dataclass(frozen=True)\nclass B:\n    x: int\n@dataclasses.dataclass(eq=False)\nclass C:\n"
        "    x: int\nclass D(tuple):\n    pass\n"
    )
    assert dataclasses_defined(source) == [(4, "A"), (7, "B"), (10, "C")]


def test_records_are_named_tuples():
    found = {p.name: dataclasses_defined(p.read_text()) for p in PACKAGE}
    extra = {name: [h for h in hits if h[1] not in KEPT_DATACLASSES] for name, hits in found.items()}
    assert {name: hits for name, hits in extra.items() if hits} == {}
