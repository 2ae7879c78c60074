"""The benchmark's workloads: generated configs, set-up, the timed call, output checks.

Each workload drives fullkl only through the module-level functions its CLI
uses (``runner.run_experiment``, ``runner.compare``, ``verify.run_all_checks``).
The workload seed is the only input: it fixes the dataset seed and the
training seeds, and the program receives nothing but the generated config.
``verify_suite`` takes no seeded input.

* ``train_full_kl``: one seed of the full_kl family, the loss under study.
  The batched loss+grad is its largest single layer; no seed-level
  parallelism, little output writing.
* ``compare_seeds``: ``runner.compare`` of full_kl against the reference
  family on a seed list at least ``nproc`` long.  It writes every output
  file and is the only workload where seed-level parallelism and output
  writing can show; the reference half exercises the cheaper reference
  kernel, where the model layer dominates.
* ``verify_suite``: ``verify.run_all_checks``, which ``fullkl verify`` runs.
  About 64k per-sample loss calls plus quadrature; the loss layer runs per
  sample, where Python call overhead dominates, and the model is never used.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fullkl import data, runner, verify
from fullkl.model import TrainingDivergedError, derive_seeds

# The committed configs' protocol (configs/full_kl.json, configs/reference.json).
PROTOCOL = {
    "dataset": {"type": "synthetic", "n": 5000, "d_in": 16, "sigma_range": [2.0, 6.0], "seed": 20240},
    "grid": {"start": 0.0, "stop": 100.0, "step": 1.0},
    "train": {"epochs": 60, "batch_size": 128, "lr": 0.001, "lr_decay_factor": 0.1,
              "lr_decay_every": 30, "hidden": [64, 64], "val_fraction": 0.2},
}
LOSSES = {"full_kl": {"family": "full_kl"}, "reference": {"family": "reference", "lambda": 1.0}}

# Workload -> loss families it trains, in the order compare() takes them.
WORKLOADS = {
    "train_full_kl": ("full_kl",),
    "compare_seeds": ("full_kl", "reference"),
    "verify_suite": (),
}

SETUP_PROBE = Path(__file__).with_name("setup_probe.py")


def make_configs(workload: str, seed: int, nproc: int, protocol=PROTOCOL) -> dict[str, dict]:
    """Raw config per family for a workload seed.

    Seed s uses dataset seed 20240 + s and training seeds s, s+1, ...; seed 0
    therefore reproduces the committed configs, up to the length of the seed list.
    One seed for the single-run workload; compare gets at least nproc (2 to 4).
    """
    n_seeds = 1 if workload == "train_full_kl" else max(2, min(nproc, 4))
    out = {}
    for family in WORKLOADS[workload]:
        cfg = copy.deepcopy(protocol)
        cfg["dataset"]["seed"] = protocol["dataset"]["seed"] + seed
        cfg["loss"] = dict(LOSSES[family])
        cfg["seeds"] = list(range(seed, seed + n_seeds))
        cfg["out_dir"] = f"runs/{family}"
        out[family] = cfg
    return out


@dataclass(frozen=True)
class Prepared:
    """A workload's inputs, loaded once per benchmark run."""

    workload: str
    seed: int
    configs: dict  # family -> RunConfig
    config_paths: tuple[Path, ...]
    baseline_mae: dict  # training seed -> val MAE of predicting the train-set mean label
    train_rows: int  # rows passed through train_step by one call
    train_steps: int  # train_step calls one call makes, as the protocol predicts


def prepare(workload: str, seed: int, nproc: int, inputs_dir: Path, protocol=PROTOCOL) -> Prepared:
    """Write the generated configs to ``inputs_dir`` and load them the way the CLI does."""
    raw = make_configs(workload, seed, nproc, protocol)
    paths = []
    for family, cfg in raw.items():
        path = inputs_dir / f"{family}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        paths.append(path)
    configs = {family: runner.load_config(p) for family, p in zip(raw, paths)}
    baseline, rows, steps = {}, 0, 0
    if configs:
        cfg = next(iter(configs.values()))
        full = runner.build_dataset(cfg.dataset, cfg.grid)
        for s in cfg.seeds:
            train_ds, val_ds = data.split(full, cfg.train.val_fraction, derive_seeds(s)[0])
            baseline[s] = float(np.mean(np.abs(val_ds.target_mu - train_ds.target_mu.mean())))
        t = protocol["train"]
        n = protocol["dataset"]["n"]
        n_train = n - int(round(n * t["val_fraction"]))
        runs = len(cfg.seeds) * len(configs)
        rows = n_train * t["epochs"] * runs
        steps = math.ceil(n_train / t["batch_size"]) * t["epochs"] * runs
    return Prepared(workload, seed, configs, tuple(paths), baseline, rows, steps)


def measure_setup(src: Path, prep: Prepared, repeats: int) -> list[float]:
    """Set-up time (import, config load, dataset build and split) in fresh processes."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(SETUP_PROBE), str(src), *map(str, prep.config_paths)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return times


@dataclass(frozen=True)
class Rep:
    """One timed call of a workload's main function and what its outputs showed."""

    wall_s: float
    attempted: int
    failed: int
    problems: tuple[str, ...]
    digest: str
    out_bytes: int
    mae: dict  # family -> mean final-epoch validation MAE over the seeds


def run_rep(prep: Prepared, work_root: Path, tracer=None, run_id: str = "") -> Rep:
    """Run the main call once in a fresh, empty directory, check it, then remove the directory."""
    work = Path(tempfile.mkdtemp(prefix="rep-", dir=work_root))
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with tracer.installed(run_id) if tracer is not None else nullcontext():
            t0 = time.perf_counter()
            result = _main_call(prep)
            wall = time.perf_counter() - t0
        files = {p.relative_to(work).as_posix(): p for p in sorted(work.rglob("*")) if p.is_file()}
        return _check(prep, result, files, wall)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work)


def _main_call(prep: Prepared):
    if prep.workload == "verify_suite":
        # The defaults, as `fullkl verify` runs them.  Other check seeds can draw a
        # reference-family instance next to the L1 kink, where the finite-difference
        # oracle straddles it and the gradient check fails (seed 10 does).
        return verify.run_all_checks()
    cfgs = [prep.configs[f] for f in WORKLOADS[prep.workload]]
    if prep.workload == "train_full_kl":
        return runner.run_experiment(cfgs[0], quiet=True)
    try:
        return runner.compare(*cfgs, quiet=True)
    except TrainingDivergedError as exc:
        return exc


def _tree_digest(files: dict) -> str:
    h = hashlib.sha256()
    for rel, path in files.items():
        h.update(f"{rel}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return h.hexdigest()


def _final_val_mae(history) -> float:
    return next(m.mae for m in reversed(history) if m.split == "val")


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if not line.startswith("#")][1:]


def _check_experiment(prep: Prepared, family: str, res, files: dict, problems: list) -> list[float]:
    """Per-seed checks of one experiment; returns the final val MAE of each seed that ran."""
    maes = []
    out_dir = Path(prep.configs[family].out_dir).as_posix()
    for o in res.outcomes:
        if o.error is not None:
            problems.append(f"{family} seed {o.seed} diverged: {o.error}")
            continue
        mae = _final_val_mae(o.result.history)
        maes.append(mae)
        rows = _csv_rows(files[f"{out_dir}/metrics_seed{o.seed}.csv"])
        written = float([r for r in rows if r[2] == "val"][-1][-1])
        if written != mae:
            problems.append(f"{family} seed {o.seed}: metrics CSV has final val MAE {written!r}, run had {mae!r}")
        if not mae < prep.baseline_mae[o.seed]:
            problems.append(
                f"{family} seed {o.seed}: final val MAE {mae!r} is not below the "
                f"{prep.baseline_mae[o.seed]!r} of predicting the mean label"
            )
    return maes


def _expected_files(prep: Prepared) -> set[str]:
    names = set()
    for cfg in prep.configs.values():
        d = Path(cfg.out_dir).as_posix()
        names.add(f"{d}/summary.csv")
        for s in cfg.seeds:
            names |= {f"{d}/metrics_seed{s}.csv", f"{d}/model_seed{s}.ckpt"}
    if prep.workload == "compare_seeds":
        d = Path(prep.configs["full_kl"].out_dir).as_posix()
        names |= {f"{d}/comparison.csv", f"{d}/comparison.txt"}
    return names


def _check(prep: Prepared, result, files: dict, wall: float) -> Rep:
    problems: list[str] = []
    if prep.workload == "verify_suite":
        failed = [r for r in result if not r.passed]
        problems += [f"check {r.name} failed: max_error={r.max_error!r} ({r.detail})" for r in failed]
        text = "".join(f"{r.name} {r.passed} {float(r.max_error).hex()} {r.detail}\n" for r in result)
        digest = hashlib.sha256(text.encode()).hexdigest()
        return Rep(wall, len(result), len(failed), tuple(problems), digest, 0, {})

    runs = sum(len(c.seeds) for c in prep.configs.values())
    if isinstance(result, TrainingDivergedError):
        # compare() raises without per-seed outcomes: count every run of the call as failed.
        return Rep(wall, runs, runs, (f"compare failed: {result}",), "", 0, {})
    if prep.workload == "train_full_kl":
        experiments = {"full_kl": result}
    else:
        experiments = {"full_kl": result.result_a, "reference": result.result_b}
    failed = sum(len(res.failed_seeds) for res in experiments.values())
    expected = _expected_files(prep)
    if set(files) != expected:
        problems.append(f"output files: missing {sorted(expected - set(files))}, "
                        f"unexpected {sorted(set(files) - expected)}")
        return Rep(wall, runs, failed, tuple(problems), "", 0, {})
    if prep.workload == "compare_seeds":
        rows = _csv_rows(files[f"{Path(prep.configs['full_kl'].out_dir).as_posix()}/comparison.csv"])
        written = [(int(s), float(a), float(b)) for s, a, b in rows]
        if written != list(zip(result.seeds, result.mae_a, result.mae_b)):
            problems.append("comparison.csv does not match the paired MAEs compare() returned")
    mae = {}
    for family, res in experiments.items():
        maes = _check_experiment(prep, family, res, files, problems)
        if maes:
            mae[family] = float(np.mean(maes))
    out_bytes = sum(p.stat().st_size for p in files.values())
    return Rep(wall, runs, failed, tuple(problems), _tree_digest(files), out_bytes, mae)
