"""Golden output digests: a refactor that claims to keep the bits must keep them.

Runs the small reproducibility setup of acceptance criterion 6 (both loss
families, 300 samples, 2 seeds, 3 epochs) and compares the sha256 of every
output file with ``golden_digests.json``.  It also compares the sha256 of
the oracle suite's results (``run_all_checks()``, one
``name passed max_error.hex() detail`` line per check, all printed on a
mismatch so the failure names the check that moved), and the sha256 of
each metrics file's val rows, which hold their bits through a declared
change to the train rows.  Its kernel tier hashes the loss kernel's own
outputs on one seeded batch, at logit spreads and lambdas the training
setup never reaches: full_kl where softmax entries fall below 1e-12 or
underflow, and the reference family away from lambda = 1.  Floating-point
results depend on the numpy and BLAS build, so the fixture records the build
it was made on: on that build a mismatch fails, on any other build the tests
skip and name the difference.

Regenerate the fixture (a declared bit change) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from fullkl.grid import LabelGrid, gaussian_probs
from fullkl.losses import LossSpec, batch_loss, batch_loss_and_grad
from fullkl.runner import config_from_dict, run_experiment
from fullkl.verify import run_all_checks

FIXTURE = Path(__file__).with_name("golden_digests.json")
FAMILIES = (("full_kl", None), ("reference", 1.0))
# (family, lambda, logit sd) of each kernel-tier run.  At sd 10 and 30 softmax
# entries fall far below 1e-12; at sd 200 some underflow under target mass, so
# the log-softmax path of l_ld acts.
KERNEL_RUNS = (
    ("full_kl", None, 2.0), ("full_kl", None, 10.0), ("full_kl", None, 30.0), ("full_kl", None, 200.0),
    ("reference", 0.3, 2.0), ("reference", 1.0, 2.0), ("reference", 7.5, 2.0),
)


def _openblas_config() -> str | None:
    """Runtime config string of the OpenBLAS numpy loaded; it names the kernel core."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            get_config = getattr(lib, name, None)
            if get_config is not None:
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                return get_config().decode()
    return None


def build_info() -> dict:
    """The numpy and BLAS build whose outputs are expected to be bit-identical."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": _openblas_config() or blas.get("openblas configuration"),
        "machine": platform.machine(),
    }


def output_digests(work: Path) -> dict[str, str]:
    """sha256 of every file the criterion-6 setup writes, keyed by relative path."""
    for family, lam in FAMILIES:
        loss = {"family": family}
        if lam is not None:
            loss["lambda"] = lam
        cfg = config_from_dict({
            "dataset": {"type": "synthetic", "n": 300, "d_in": 16,
                        "sigma_range": [2.0, 6.0], "seed": 20240},
            "grid": {"start": 0.0, "stop": 100.0, "step": 1.0},
            "loss": loss,
            "train": {"epochs": 3, "batch_size": 128, "lr": 1e-3,
                      "lr_decay_factor": 0.1, "lr_decay_every": 30,
                      "hidden": [64, 64], "val_fraction": 0.2},
            "seeds": [0, 1],
            # Relative, because the metrics header embeds the config verbatim.
            "out_dir": family,
        })
        cwd = os.getcwd()
        os.chdir(work)
        try:
            run_experiment(cfg, quiet=True)
        finally:
            os.chdir(cwd)
    return {
        p.relative_to(work).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(work.rglob("*")) if p.is_file()
    }


def val_row_digests(work: Path) -> dict[str, str]:
    """sha256 of the val rows (text lines, in file order) of every metrics file under ``work``."""
    digests = {}
    for path in sorted(work.rglob("metrics_seed*.csv")):
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
        split_col = lines[0].split(",").index("split")
        val_rows = "".join(f"{line}\n" for line in lines[1:] if line.split(",")[split_col] == "val")
        digests[path.relative_to(work).as_posix()] = hashlib.sha256(val_rows.encode()).hexdigest()
    return digests


def verify_text() -> str:
    """Every oracle check's result in the benchmark's text form, one line per check."""
    return "".join(f"{r.name} {r.passed} {float(r.max_error).hex()} {r.detail}\n" for r in run_all_checks())


def verify_digest(text: str) -> str:
    """sha256 of the oracle suite's text form, :func:`verify_text`."""
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_digests() -> dict[str, str]:
    """sha256 of the component and gradient bytes of ``batch_loss_and_grad`` and the component
    bytes of ``batch_loss`` on one seeded 64x101 batch, keyed by run."""
    g = LabelGrid(0.0, 100.0, 1.0)
    rng = np.random.default_rng(20240)
    mu = rng.uniform(0.0, 100.0, size=(64, 1))
    sigma = rng.uniform(g.sigma_floor, 10.0, size=(64, 1))
    targets = gaussian_probs(mu, sigma, g.values)
    z = rng.standard_normal((64, len(g)))
    digests = {}
    for family, lam, sd in KERNEL_RUNS:
        spec = LossSpec(family, lam)
        comps, grad = batch_loss_and_grad(targets, sd * z, g, spec)
        h = hashlib.sha256()
        for d in (comps, batch_loss(targets, sd * z, g, spec)):
            h.update(b"".join(key.encode() + d[key].tobytes() for key in sorted(d)))
        h.update(grad.tobytes())
        digests[f"{family} lambda={lam} sd={sd}"] = h.hexdigest()
    return digests


def _recorded_fixture() -> dict:
    """The fixture, or a skip when it was recorded on another build."""
    fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
    build = build_info()
    diff = {k: (v, build.get(k)) for k, v in fixture["build"].items() if build.get(k) != v}
    if diff:
        pytest.skip("golden digests were recorded on another build: " + "; ".join(
            f"{k} recorded {rec!r}, here {cur!r}" for k, (rec, cur) in sorted(diff.items())))
    return fixture


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The criterion-6 output directory and the sha256 of every file in it."""
    work = tmp_path_factory.mktemp("golden")
    return work, output_digests(work)


def test_outputs_match_golden_digests(outputs):
    fixture = _recorded_fixture()
    _, digests = outputs
    assert sorted(digests) == sorted(fixture["files"])
    changed = sorted(name for name, d in digests.items() if fixture["files"][name] != d)
    assert not changed, f"output bits changed in {changed}"


def test_val_rows_match_golden_digests(outputs):
    fixture = _recorded_fixture()
    work, _ = outputs
    assert val_row_digests(work) == fixture["val_rows"], "val metrics rows changed"


def test_oracle_suite_matches_golden_digest():
    expected = _recorded_fixture()["verify_suite"]
    text = verify_text()
    assert verify_digest(text) == expected, f"oracle check results changed; the checks now read:\n{text}"


def test_kernel_matches_golden_digests():
    assert kernel_digests() == _recorded_fixture()["kernel"], "loss kernel bits changed"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = output_digests(Path(tmp))
        val_rows = val_row_digests(Path(tmp))
    fixture = {"build": build_info(), "files": files, "val_rows": val_rows,
               "verify_suite": verify_digest(verify_text()), "kernel": kernel_digests()}
    FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} output digests, {len(val_rows)} val-row digests, the oracle suite digest"
          f" and {len(fixture['kernel'])} kernel digests to {FIXTURE}", file=sys.stderr)
