"""One judge per allocation: only the builder of each allocating value applies the size rule.

An AST scan of src/fullkl: a reference to ``_allocatable`` (a call, or the
function passed on as a value) may sit only in ``LabelGrid.__post_init__``
in ``grid.py``, ``DatasetSpec.__post_init__`` in ``data.py`` and
``_validated_dims`` in ``model.py``.  Every other caller asks one of them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FULLKL_MODULES = sorted((ROOT / "src" / "fullkl").glob("*.py"))
JUDGES = {("grid", "LabelGrid.__post_init__"), ("data", "DatasetSpec.__post_init__"), ("model", "_validated_dims")}


def stray_size_checks(source: str, module: str) -> list[str]:
    """``line N: where`` of each reference to ``_allocatable`` in ``source`` (module ``module``) outside a judge."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            named = (isinstance(child, ast.Name) and child.id == "_allocatable"
                     or isinstance(child, ast.Attribute) and child.attr == "_allocatable")
            if named and (module, scope) not in JUDGES:
                out.append(f"line {child.lineno}: {scope or '<module>'}")
            visit(child, scope)

    visit(ast.parse(source), "")
    return out


def test_scan_flags_stray_size_checks():
    source = (
        "from .grid import _allocatable\n"
        "def _allocatable(count, what):\n    pass\n"
        "def _validated_dims(dims, where):\n    _allocatable(len(dims), where)\n"
        "class RunConfig:\n    def __post_init__(self):\n        _allocatable(self.n, 'n')\n"
        "def run(cfg):\n    _built('', _allocatable, cfg.n, 'n')\n    grid._allocatable(cfg.n, 'n')\n"
        "SIZE_RULE = _allocatable\n"
    )
    assert stray_size_checks(source, "model") == [
        "line 8: RunConfig.__post_init__", "line 10: run", "line 11: run", "line 12: <module>",
    ]
    assert stray_size_checks(source, "runner")[0] == "line 5: _validated_dims"


def test_each_judge_applies_the_rule_once():
    # Scanned under a module name no judge has, each module shows every reference it makes.
    found = [(p.stem, line.split(": ")[1]) for p in FULLKL_MODULES
             for line in stray_size_checks(p.read_text(encoding="utf-8"), "")]
    assert sorted(found) == sorted(JUDGES)


@pytest.mark.parametrize("path", FULLKL_MODULES, ids=lambda p: p.stem)
def test_only_the_judges_apply_the_size_rule(path):
    assert stray_size_checks(path.read_text(encoding="utf-8"), path.stem) == []
