"""No module under src/ imports a name at module level that it never uses.

With no linter in the toolchain, this parses each module with ``ast``: a
name bound by a top-level ``import`` or ``from ... import`` must be read
somewhere in the module, or be listed in its ``__all__`` (a re-export).
``from __future__`` imports are directives, not names, and are skipped.
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
