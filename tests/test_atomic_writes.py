"""Crash-safe outputs: every file the package writes goes through ``data.atomic_write``.

An AST scan of src/fullkl: a builtin ``open`` whose mode writes (any of
``w``, ``a``, ``x`` or ``+``, or a mode that is not a string literal) may
sit only inside ``atomic_write`` in ``data.py``, and nothing calls
``write_text`` or ``write_bytes``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FULLKL_MODULES = sorted((ROOT / "src" / "fullkl").glob("*.py"))


def _open_mode(call: ast.Call):
    """The mode text of an ``open`` call: "r" when it gives none, None when it is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def unsafe_writes(source: str, module: str) -> list[str]:
    """``line N: what`` of each write in ``source`` (module ``module``) that bypasses ``data.atomic_write``."""
    out = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "open":
                    mode = _open_mode(child)
                    writes = mode is None or any(c in mode for c in "wax+")
                    if writes and (module, function) != ("data", "atomic_write"):
                        out.append(f"line {child.lineno}: open mode {mode!r}")
                elif isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
                    out.append(f"line {child.lineno}: {func.attr}")
            visit(child, function)

    visit(ast.parse(source), None)
    return out


def test_scan_flags_writes_outside_atomic_write():
    source = (
        "def atomic_write(p, mode):\n    return open(p, 'w')\n"
        "def save(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n"
        "def append(p):\n    return open(p, mode='a+')\n"
        "def dynamic(p, mode):\n    return open(p, mode)\n"
        "def read(p):\n    return open(p), open(p, 'rb'), open(p, mode='r')\n"
        "def text(p):\n    p.write_text('x')\n    p.write_bytes(b'x')\n"
    )
    assert unsafe_writes(source, "data") == [
        "line 4: open mode 'w'", "line 7: open mode 'a+'", "line 9: open mode None",
        "line 13: write_text", "line 14: write_bytes",
    ]
    assert unsafe_writes(source, "model")[0] == "line 2: open mode 'w'"


def test_scan_covers_the_package():
    assert {p.stem for p in FULLKL_MODULES} >= {"data", "model", "runner"}


@pytest.mark.parametrize("path", FULLKL_MODULES, ids=lambda p: p.stem)
def test_every_write_is_atomic(path):
    assert unsafe_writes(path.read_text(encoding="utf-8"), path.stem) == []
