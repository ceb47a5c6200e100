"""Every name a catsim module imports is used in that module, and every
name it exports exists."""

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


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"core.py", "entanglement.py", "experiments.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom x import y as z\nprint(math.pi, sep)\n"
    assert _unused_imports(source) == [(2, "path"), (3, "z")]


@pytest.mark.parametrize("name", ["catsim", *(f"catsim.{p.stem}" for p in SOURCES)])
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
