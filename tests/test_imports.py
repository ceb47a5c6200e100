"""Every name a catsim module imports is used in that module, every
module-level private name is referenced somewhere in the package, and every
name a module exports exists."""

import ast
import importlib
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "catsim").glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unreferenced_privates(sources: dict) -> list:
    """(module, name) of each module-level private function, class or
    constant that no source references outside its own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    refs = []  # (name, node) for every read of a name, attribute or import
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.append((node.id, node))
            elif isinstance(node, ast.Attribute):
                refs.append((node.attr, node))
            elif isinstance(node, ast.alias):
                refs.append((node.name, node))
    unreferenced = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            inside = {id(n) for n in ast.walk(node)}
            for name in names:
                if name.startswith("_") and not name.startswith("__") and not any(
                    ref == name and id(n) not in inside for ref, n in refs
                ):
                    unreferenced.append((module, name))
    return sorted(unreferenced)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"core.py", "entanglement.py", "experiments.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom x import y as z\nprint(math.pi, sep)\n"
    assert _unused_imports(source) == [(2, "path"), (3, "z")]


def test_every_private_name_is_referenced():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert _unreferenced_privates(sources) == []


def test_detects_an_unreferenced_private_name():
    sources = {
        "a": ("_K = 1\n_UNUSED = 2\n"
              "def _loop(n):\n    return _loop(n - 1) + _K\n"
              "def _helper():\n    pass\n"
              "class _C:\n    pass\n"),
        "b": "import a\nfrom a import _C\nprint(_C, a._helper)\n",
    }
    assert _unreferenced_privates(sources) == [("a", "_UNUSED"), ("a", "_loop")]


@pytest.mark.parametrize("name", ["catsim", *(f"catsim.{p.stem}" for p in SOURCES)])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
