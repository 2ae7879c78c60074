"""The benchmark's own self-check runs against the package as it is now.

``perfbench/selfcheck.py`` wraps model and loss functions by name and checks
span nesting and the exact ``train_step`` count on a tiny config; it covers
the ``train_full_kl`` and ``compare_seeds`` workloads.  The ``verify_suite``
workload runs here once, untraced, through ``perfbench/workloads.py``.
Running both makes a change to those functions' names or call structure,
``run_all_checks``' included, fail the test suite, not only the next
benchmark run.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "self-check passed" in proc.stdout


def test_verify_suite_workload_runs_every_check(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up there
    spec.loader.exec_module(workloads)
    prep = workloads.prepare("verify_suite", 0, 2, tmp_path)
    rep = workloads.run_rep(prep, tmp_path)
    assert (rep.attempted, rep.failed, rep.problems) == (8, 0, ())
