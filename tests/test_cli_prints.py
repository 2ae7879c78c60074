"""Only CLI handlers print: the library returns results, and ``runner``'s
``_cmd_*`` functions and ``main`` turn them into stdout and stderr lines.

An AST scan of src/fullkl: a call to the builtin ``print`` may sit only
inside a ``_cmd_*`` function or ``main`` in ``runner.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FULLKL_MODULES = sorted((ROOT / "src" / "fullkl").glob("*.py"))


def stray_prints(source: str, module: str) -> list[str]:
    """``line N: in F`` of each ``print`` call in ``source`` (module ``module``) outside a CLI handler."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "print":
                handler = module == "runner" and function is not None and (
                    function.startswith("_cmd_") or function == "main")
                if not handler:
                    out.append(f"line {child.lineno}: in {function}")
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def test_scan_flags_prints_outside_cli_handlers():
    source = (
        "print('import time')\n"
        "def _cmd_verify(args):\n    print('PASS')\n"
        "def main(argv=None):\n    print('config error', file=None)\n"
        "def verify_suite():\n    print('PASS')\n"
        "def _cmd_run(args):\n    def line(x):\n        print(x)\n    line(1)\n"
        "class Report:\n    def show(self):\n        print(self)\n"
    )
    assert stray_prints(source, "runner") == ["line 1: in None", "line 7: in verify_suite", "line 10: in line",
                                              "line 14: in show"]
    assert stray_prints(source, "verify") == ["line 1: in None", "line 3: in _cmd_verify", "line 5: in main",
                                              "line 7: in verify_suite", "line 10: in line", "line 14: in show"]


def test_scan_covers_the_package():
    assert {p.stem for p in FULLKL_MODULES} >= {"data", "model", "runner", "verify"}


@pytest.mark.parametrize("path", FULLKL_MODULES, ids=lambda p: p.stem)
def test_only_cli_handlers_print(path):
    assert stray_prints(path.read_text(encoding="utf-8"), path.stem) == []
