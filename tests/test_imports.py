"""Import hygiene: no module in src/ or tests/ imports a name it never uses.

The project runs no linter, so this is an AST scan: a name bound by an
``import`` counts as used when it appears as a name anywhere in the module
or is listed in the module's literal ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree: ast.AST) -> list[tuple[str, int]]:
    """(bound name, line) of every import in the module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]


def test_scan_covers_both_trees():
    assert any(p.parts[-2] == "fullkl" for p in MODULES)
    assert any(p.name == "test_imports.py" for p in MODULES)


def test_scan_finds_unused_and_honours_all():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom math import pi as PI, tau\n"
        "__all__ = ['tau']\n"
        "def f():\n    import sys\n    return os.path.sep\n"
    )
    assert unused_imports(source) == ["line 2: json", "line 4: PI", "line 7: sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
