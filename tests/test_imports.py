"""No module under src/ imports a name at module level that it never uses,
defines a private module-level name that no module under src/ reads, or
imports a private name from another module.

With no linter in the toolchain, this parses each module with ``ast``: a
name bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in the module, or be listed in its ``__all__`` (a re-export).
``from __future__`` imports are directives, not names, and are skipped.
A top-level function, class or constant whose name starts with one
underscore must be read somewhere under src/: by name, as an attribute,
or by a ``from ... import``. No ``from ... import``, at any depth, may
name a single-underscore name: a private name stays with its module.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno
        elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
            exported |= {elt.value for elt in stmt.value.elts}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read | exported]


def test_the_scan_finds_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_import(path):
    assert _unused_imports(path) == []


def test_the_scan_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("import os\nimport sys as system\nfrom json import dumps, loads\n"
                      "__all__ = ['loads']\nprint(system.argv)\n", encoding="utf-8")
    assert _unused_imports(module) == ["line 1: os", "line 3: dumps"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level private functions, classes and constants: name -> line."""
    defined: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt.lineno
    return defined


def _reads(tree: ast.Module) -> set[str]:
    """Every name the module reads: bare, as an attribute, or by import."""
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def _unread_private_names(paths: list[Path], root: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in paths}
    read = set().union(*map(_reads, trees.values()))
    return [f"{path.relative_to(root)} line {line}: {name}"
            for path, tree in trees.items()
            for name, line in _private_definitions(tree).items() if name not in read]


def test_no_unread_private_module_level_name():
    assert _unread_private_names(MODULES, SRC) == []


def test_the_scan_sees_an_unread_private_name(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("_LIMIT = 3\n_A, _B = 1, 2\n_C: int = 4\n\ndef _used():\n    return _A\n\n"
                 "class _Gone:\n    pass\n\ndef _spare():\n    _C = 5\n", encoding="utf-8")
    b.write_text("import a\nfrom a import _used\nprint(_used(), a._LIMIT)\n", encoding="utf-8")
    assert _unread_private_names([a, b], tmp_path) == [
        "a.py line 2: _B", "a.py line 3: _C", "a.py line 8: _Gone", "a.py line 11: _spare"]


def _private_imports(path: Path) -> list[str]:
    """Every ``from ... import`` of a single-underscore name in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"line {node.lineno}: {'.' * node.level}{node.module or ''} {alias.name}"
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_private_name_imported_from_another_module(path):
    assert _private_imports(path) == []


def test_the_scan_sees_a_private_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from a import _hidden, shown\nfrom a import __version__\n\n"
                      "def late():\n    from .b import _spare as spare\n    return spare\n",
                      encoding="utf-8")
    assert _private_imports(module) == ["line 1: a _hidden", "line 5: .b _spare"]
