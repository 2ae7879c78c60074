"""Import hygiene and dead code: no module in src/ or tests/ imports a name it
never uses, and no module-level name in src/fullkl goes unreferenced.

The project runs no linter, so these are AST scans.  A name bound by an
``import`` counts as used when it appears as a name anywhere in the module
or is listed in the module's literal ``__all__``.  A private (``_``-prefixed)
module-level function, class or constant counts as referenced when any
module in src/ or tests/ reads it as a name, an attribute, an imported name
or a string constant (the form ``monkeypatch.setattr`` takes).  A public
module-level function or class counts as referenced when some module in
src/, tests/ or perfbench/ reads it in one of those ways outside its own
definition, ``__all__`` lists and imports, or README.md names it.  Each
``fullkl`` module's ``__all__`` is exact: every name it lists exists, and
every public function or class the module defines is listed.
"""

import ast
import importlib
import re
import types
from collections import Counter
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


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every private module-level function, class or constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out += [(n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__")]
    return out


def referenced_names(tree: ast.AST) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unreferenced_private(defining: dict[str, str], pool: list[str]) -> list[str]:
    """``path:line: name`` of each private definition in ``defining`` (path -> source)
    that no source in ``pool`` references."""
    refs = set().union(*(referenced_names(ast.parse(src)) for src in pool))
    return [f"{path}:{line}: {name}" for path, src in defining.items()
            for name, line in private_definitions(ast.parse(src)) if name not in refs]


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


def test_dead_code_scan_finds_orphans():
    source = (
        "_USED = 1\n"
        "_DEAD: int = 2\n"
        "def _helper():\n    return _USED\n"
        "class _Gone:\n    pass\n"
        "def _by_attr():\n    pass\n"
        "def _by_string():\n    pass\n"
        "def _by_import():\n    pass\n"
        "def public():\n    return _helper()\n"
        "__all__ = ['public']\n"
    )
    other = "import m\nfrom m import _by_import\nm._by_attr()\nsetattr(m, '_by_string', None)\n"
    assert unreferenced_private({"m.py": source}, [source, other]) == ["m.py:2: _DEAD", "m.py:5: _Gone"]


def test_no_unreferenced_private_code():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in MODULES}
    defining = {path: src for path, src in sources.items() if path.startswith("src/fullkl/")}
    assert defining
    assert unreferenced_private(defining, list(sources.values())) == []


def public_definitions(tree: ast.Module) -> list[ast.AST]:
    """Every public module-level function or class definition."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def reference_counts(tree: ast.AST) -> Counter:
    """:func:`referenced_names`, counted, leaving out ``__all__`` lists and imports."""
    refs = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs[node.value] += 1
        stack.extend(ast.iter_child_nodes(node))
    return refs


def unreferenced_public(defining: dict[str, str], pool: list[str], docs: str) -> list[str]:
    """``path:line: name`` of each public definition in ``defining`` (path -> source)
    that no source in ``pool`` references outside the definition itself and that
    ``docs`` does not name."""
    refs = sum((reference_counts(ast.parse(src)) for src in pool), Counter())
    out = []
    for path, src in defining.items():
        for node in public_definitions(ast.parse(src)):
            outside = refs[node.name] - reference_counts(node)[node.name]
            if outside <= 0 and not re.search(rf"\b{re.escape(node.name)}\b", docs):
                out.append(f"{path}:{node.lineno}: {node.name}")
    return out


def test_public_dead_code_scan_finds_orphans():
    source = (
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
        "class Documented:\n    pass\n"
        "class SelfReferenced:\n    def copy(self):\n        return SelfReferenced()\n"
        "def exported():\n    pass\n"
        "def by_string():\n    pass\n"
        "__all__ = ['used', 'recursive', 'exported']\n"
    )
    init = "from .m import exported\n__all__ = ['exported']\n"
    other = "import m\nm.used()\nsetattr(m, 'by_string', None)\n"
    assert unreferenced_public({"m.py": source}, [source, init, other], "See `Documented`.") == [
        "m.py:3: recursive", "m.py:7: SelfReferenced", "m.py:10: exported",
    ]


def test_no_unreferenced_public_code():
    pool = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in pool}
    defining = {path: src for path, src in sources.items() if path.startswith("src/fullkl/")}
    assert defining and any(path.startswith("perfbench/") for path in sources)
    docs = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unreferenced_public(defining, list(sources.values()), docs) == []


def all_mismatches(module: types.ModuleType, source: str) -> list[str]:
    """Each name ``module.__all__`` lists that the module lacks, then each public
    function or class ``source`` defines that ``__all__`` leaves out."""
    listed = getattr(module, "__all__", [])
    absent = [f"listed but absent: {name}" for name in listed if not hasattr(module, name)]
    unlisted = [f"defined but unlisted: {node.name}"
                for node in public_definitions(ast.parse(source)) if node.name not in listed]
    return absent + unlisted


def test_all_scan_finds_both_mismatches():
    source = (
        "def listed():\n    pass\n"
        "def forgotten():\n    pass\n"
        "class _Private:\n    pass\n"
        "__all__ = ['listed', 'ghost']\n"
    )
    module = types.ModuleType("m")
    exec(source, module.__dict__)
    assert all_mismatches(module, source) == ["listed but absent: ghost", "defined but unlisted: forgotten"]


FULLKL_MODULES = sorted((ROOT / "src" / "fullkl").glob("*.py"))


@pytest.mark.parametrize("path", FULLKL_MODULES, ids=lambda p: p.stem)
def test_all_is_exact(path):
    name = "fullkl" if path.stem == "__init__" else f"fullkl.{path.stem}"
    assert all_mismatches(importlib.import_module(name), path.read_text(encoding="utf-8")) == []
