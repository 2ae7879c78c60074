"""The benchmark's own self-check runs against the package as it is now.

``perfbench/selfcheck.py`` wraps model and loss functions by name and checks
span nesting and the exact ``train_step`` count on a tiny config.  Running it
here makes a change to those functions' names or call structure fail the
test suite, not only the next benchmark run.
"""

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
