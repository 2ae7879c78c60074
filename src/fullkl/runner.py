"""Experiment orchestration and CLI.

Subcommands: ``run`` (seeded multi-run experiment from a JSON config),
``compare`` (paired two-config comparison), ``verify`` (numerics
verification suite), ``gen-data`` (write a synthetic dataset as CSV).

Every output is a deterministic function of the config file: metrics CSVs
embed the canonical config JSON as a ``#``-prefixed header line, floats are
serialized losslessly via ``repr``, and line endings are fixed, so rerunning
a config reproduces byte-identical files.  Each file is written atomically
(``data.atomic_write``): a crash leaves the old file or the new one, never a
partial one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import data
from .data import DatasetSpec, _fmt, _write_table
from .grid import LabelGrid, _whole_int
from .losses import FAMILY_REFERENCE, LossSpec
from .model import (
    SPLIT_TAGS, TrainConfig, TrainResult, TrainingDivergedError, _validated_dims, derive_seeds, save_checkpoint,
    train_run)
from .verify import run_all_checks

__all__ = [
    "EXIT_OK",
    "EXIT_CONFIG_ERROR",
    "EXIT_FAILURE",
    "METRICS_COLUMNS",
    "ConfigError",
    "DatasetSpec",
    "RunConfig",
    "SeedOutcome",
    "ExperimentResult",
    "ComparisonResult",
    "load_config",
    "config_from_dict",
    "config_to_dict",
    "build_dataset",
    "run_experiment",
    "compare",
    "main",
]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_FAILURE = 2

METRICS_COLUMNS = ("seed", "epoch", "split", "l_ld", "l_exp", "l_smooth", "total", "mae")
SUMMARY_METRICS = METRICS_COLUMNS[3:]
# The ``train`` section's keys: each optional on input, each written out by ``config_to_dict``.
TRAIN_KEYS = ("epochs", "batch_size", "lr", "lr_decay_factor", "lr_decay_every", "hidden", "val_fraction")


class ConfigError(Exception):
    """Invalid config file, CLI arguments, or input data (exit code 1)."""


# ---------------------------------------------------------------------------
# Config model
# ---------------------------------------------------------------------------

def _out_path(value, name: str) -> Path:
    """The one output-path check: a non-empty ``str`` or ``os.PathLike`` without NUL; errors start with ``name``."""
    if not isinstance(value, (str, os.PathLike)):
        raise ValueError(f"{name}: expected a string or a path, got {value!r}")
    if os.fspath(value) == "":
        raise ValueError(f"{name}: expected a non-empty path")
    if "\0" in os.fspath(value):
        raise ValueError(f"{name}: expected a path without a NUL character, got {os.fspath(value)!r}")
    return Path(value)


@dataclass(frozen=True)
class RunConfig:
    """Full experimental protocol: data source, grid, training, seeds, outputs; each error names its
    field.  An ``out_dir`` that is empty or holds a NUL character is a ValueError, and one under a
    file a ``ConfigError`` from :func:`run_experiment` before it builds the dataset."""

    dataset: DatasetSpec
    grid: LabelGrid
    train: TrainConfig
    seeds: tuple[int, ...]
    out_dir: Path

    def __post_init__(self):
        if not isinstance(self.seeds, (list, tuple)):
            raise ValueError(f"seeds: expected a list of integers, got {self.seeds!r}")
        seeds = tuple(_whole_int(s, "seeds") for s in self.seeds)
        if not seeds:
            raise ValueError("seeds: expected at least one seed")
        if len(set(seeds)) != len(seeds):
            raise ValueError(f"seeds must be unique, got {seeds}")
        if min(seeds) < 0 or max(seeds) >= 2**63:  # each names files, and 19 digits fit any file system
            raise ValueError(f"seeds must be >= 0 and < 2**63, got {seeds}")
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "out_dir", _out_path(self.out_dir, "out_dir"))
        d_in = self.dataset.d_in if self.dataset.kind == "synthetic" else 1  # a CSV is 1 wide until it loads
        _validated_dims((d_in, *self.train.hidden, len(self.grid)), "train.hidden: dims")


def _check_keys(section, where: str, required: set, optional: set = frozenset()):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = set(section) - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"{where}: missing key(s) {sorted(missing)}")


def _built(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError (it starts with a config key) gets ``where`` in front."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def config_from_dict(raw) -> RunConfig:
    """Build a RunConfig from the JSON structure.

    This checks keys only: each section must be an object without unknown or
    missing keys.  Each value is checked once, by the type that holds it
    (``DatasetSpec``, ``LabelGrid``, ``LossSpec``, ``TrainConfig``,
    ``RunConfig``), whose errors start with the field's config key; a
    section's errors get the section name in front, as in
    ``train.lr: expected a number, got True``.
    """
    _check_keys(raw, "config", {"dataset", "grid", "loss", "train", "seeds", "out_dir"})
    ds = raw["dataset"]
    synthetic = isinstance(ds, dict) and ds.get("type") == "synthetic"
    _check_keys(ds, "dataset", {"type", "n", "d_in", "sigma_range", "seed"} if synthetic else {"type", "path"})
    dataset = _built("dataset.", DatasetSpec, ds["type"], **{k: v for k, v in ds.items() if k != "type"})
    _check_keys(raw["grid"], "grid", {"start", "stop", "step"})
    grid = _built("grid.", LabelGrid, *(raw["grid"][k] for k in ("start", "stop", "step")))
    _check_keys(raw["loss"], "loss", {"family"}, {"lambda"})
    spec = _built("loss.", LossSpec, raw["loss"]["family"], raw["loss"].get("lambda"))
    _check_keys(raw["train"], "train", set(), set(TRAIN_KEYS))
    train = _built("train.", TrainConfig, loss=spec, **raw["train"])
    return _built("", RunConfig, dataset, grid, train, raw["seeds"], raw["out_dir"])


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical, fully explicit JSON structure; inverse of config_from_dict."""
    ds = cfg.dataset
    if ds.kind == "synthetic":
        dataset = {
            "type": "synthetic", "n": ds.n, "d_in": ds.d_in,
            "sigma_range": [ds.sigma_range[0], ds.sigma_range[1]], "seed": ds.seed,
        }
    else:
        dataset = {"type": "csv", "path": ds.path}
    loss = {"family": cfg.train.loss.family}
    if cfg.train.loss.family == FAMILY_REFERENCE:
        loss["lambda"] = cfg.train.loss.lam
    t = cfg.train
    return {
        "dataset": dataset,
        "grid": {"start": cfg.grid.lo, "stop": cfg.grid.hi, "step": cfg.grid.spacing},
        "loss": loss,
        "train": {k: getattr(t, k) for k in TRAIN_KEYS} | {"hidden": list(t.hidden)},
        "seeds": list(cfg.seeds),
        "out_dir": str(cfg.out_dir),
    }


def _unique_keys(pairs) -> dict:
    """``object_pairs_hook`` for ``json.loads`` that refuses a key given twice in one object."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested past the decoder's depth
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(raw)


def build_dataset(spec: DatasetSpec, grid: LabelGrid) -> data.Dataset:
    """Materialize the configured dataset (generator or CSV load)."""
    try:
        if spec.kind == "synthetic":
            return data.gen_synthetic(spec.n, spec.d_in, grid, spec.sigma_range, spec.seed)
        return data.load_csv(spec.path, grid)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"cannot build dataset: {exc}") from exc


# ---------------------------------------------------------------------------
# Experiment runs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeedOutcome:
    """Result of one seeded run: a TrainResult, or the divergence message."""

    seed: int
    result: TrainResult | None
    error: str | None


@dataclass(frozen=True)
class ExperimentResult:
    """One config's seeded runs (outcomes in ``config.seeds`` order), the dataset they split, and its summary file.

    Each ok seed ``s`` wrote ``metrics_seed{s}.csv`` and ``model_seed{s}.ckpt`` to ``config.out_dir``.
    """

    config: RunConfig
    outcomes: tuple[SeedOutcome, ...]
    summary_path: Path | None
    dataset: data.Dataset

    @property
    def failed_seeds(self) -> tuple[int, ...]:
        return tuple(o.seed for o in self.outcomes if o.error is not None)

    @property
    def data_sha256(self) -> str:
        """SHA-256 of the dataset's features shape, then of its ids, features, target_mu and target_sigma bytes."""
        ds = self.dataset
        digest = hashlib.sha256(str(ds.features.shape).encode())
        for column in (ds.ids, ds.features, ds.target_mu, ds.target_sigma):
            digest.update(column)
        return digest.hexdigest()


def _write_metrics_csv(path: Path, header_json: str, seed: int, history) -> None:
    rows = ([str(seed), str(m.epoch), m.split, *(_fmt(getattr(m, n)) for n in SUMMARY_METRICS)]
            for m in history)
    _write_table(path, [header_json], METRICS_COLUMNS, rows)


def _write_summary_csv(path: Path, header_json: str, outcomes, epochs: int) -> None:
    """One row per epoch; across-seed mean/std of every metric for both splits."""
    oks = [o.result for o in outcomes if o.result is not None]
    columns = ["epoch"] + [f"{t}_{name}_{stat}"
                           for t in SPLIT_TAGS for name in SUMMARY_METRICS for stat in ("mean", "std")]
    rows = []
    for e in range(epochs):
        row = [str(e + 1)]
        for offset, split_tag in enumerate(SPLIT_TAGS):
            metrics = [r.history[len(SPLIT_TAGS) * e + offset] for r in oks]
            assert all(m.epoch == e + 1 and m.split == split_tag for m in metrics)
            for name in SUMMARY_METRICS:
                vals = [getattr(m, name) for m in metrics]
                if any(v is None for v in vals):
                    row += ["", ""]
                else:
                    arr = np.array(vals, dtype=np.float64)
                    row += [_fmt(arr.mean()), _fmt(arr.std())]
        rows.append(row)
    _write_table(path, [header_json], columns, rows)


def _check_out_dir(path: Path) -> None:
    """Refuse ``path`` if its nearest existing path, itself or an ancestor, is not a directory."""
    existing = next((p for p in (path, *path.parents) if p.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(f"cannot create output dir {path}: {existing} is not a directory")


def _make_out_dir(path: Path) -> None:
    """Create ``path`` and its parents; an OSError is a ConfigError."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {path}: {exc}") from exc


def _run_seed(cfg: RunConfig, full: data.Dataset, seed: int, quiet: bool) -> SeedOutcome:
    """Split ``full`` for ``seed`` and train on it; writes nothing."""
    tcfg = replace(cfg.train, seed=seed)
    train_ds, val_ds = data.split(full, tcfg.val_fraction, derive_seeds(seed)[0])
    try:
        return SeedOutcome(seed, train_run(train_ds, val_ds, cfg=tcfg, quiet=quiet), None)
    except TrainingDivergedError as exc:
        return SeedOutcome(seed, None, str(exc))


def run_experiment(cfg: RunConfig, quiet: bool = False, *, dataset: data.Dataset | None = None) -> ExperimentResult:
    """Train one run per seed; write per-seed metrics CSVs, checkpoints, and a summary.

    ``dataset`` optionally supplies ``build_dataset(cfg.dataset, cfg.grid)``
    already built; it must be exactly that, since it is not checked.  Each
    seed's files are written as soon as it finishes, before the next seed
    trains.  A diverged seed is recorded (and reported) without aborting
    the others; the summary then covers the surviving seeds.
    """
    _check_out_dir(cfg.out_dir)
    full = build_dataset(cfg.dataset, cfg.grid) if dataset is None else dataset
    # Every seed's split and network (exact now that a CSV source has loaded), before out_dir exists.
    _built("train.", data.val_count, len(full), cfg.train.val_fraction)
    _built("", _validated_dims, (full.d_in, *cfg.train.hidden, len(cfg.grid)), "train.hidden: dims")
    out = cfg.out_dir
    _make_out_dir(out)
    header_json = json.dumps(config_to_dict(cfg), sort_keys=True)
    outcomes = []
    for seed in cfg.seeds:
        outcome = _run_seed(cfg, full, seed, quiet)
        outcomes.append(outcome)
        if outcome.error is not None:
            log.error("seed %d diverged: %s", seed, outcome.error)
            continue
        _write_metrics_csv(out / f"metrics_seed{seed}.csv", header_json, seed, outcome.result.history)
        save_checkpoint(outcome.result.params, out / f"model_seed{seed}.ckpt")
        if not quiet:
            log.info("seed %d done: final val MAE %.4f", seed, outcome.result.history[-1].mae)
    summary_path = None
    if any(o.result is not None for o in outcomes):
        summary_path = out / "summary.csv"
        _write_summary_csv(summary_path, header_json, outcomes, cfg.train.epochs)
    return ExperimentResult(cfg, tuple(outcomes), summary_path, full)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonResult:
    """Paired per-seed final-epoch validation MAE for two configs."""

    result_a: ExperimentResult
    result_b: ExperimentResult
    seeds: tuple[int, ...]
    mae_a: tuple[float, ...]
    mae_b: tuple[float, ...]
    mean_a: float
    std_a: float
    mean_b: float
    std_b: float
    rel_diff: float
    text: str
    csv_path: Path
    txt_path: Path


def compare(
    cfg_a: RunConfig,
    cfg_b: RunConfig,
    out_dir=None,
    quiet: bool = False,
) -> ComparisonResult:
    """Run both configs on one dataset build and pair their final-epoch validation MAEs per seed.

    Both configs must share the dataset, grid, seed list and validation
    fraction, which together fix each seed's validation rows (the paired
    protocol), and must not share an output directory.  The dataset is built
    once, by config a's run, and config b trains on that same object, so the
    two cannot see different data.  The relative difference is
    (mean_a - mean_b) / mean_b, i.e. the second config is the baseline.
    Writes ``comparison.csv`` and ``comparison.txt`` to ``out_dir``
    (default: cfg_a's output directory).  Before anything trains or is written,
    a report ``out_dir`` that is empty or holds a NUL character is a ``ConfigError``
    naming ``out_dir``, and so is the report or either config's directory under a file.
    A diverged seed of cfg_a stops the comparison before cfg_b is trained.
    """
    da, db = config_to_dict(cfg_a), config_to_dict(cfg_b)
    shared = {key: (da[key], db[key]) for key in ("dataset", "grid", "seeds")}
    shared["train.val_fraction"] = (cfg_a.train.val_fraction, cfg_b.train.val_fraction)
    for key, (va, vb) in shared.items():
        if va != vb:
            raise ConfigError(f"compare requires identical {key!r}, got {va} vs {vb}")
    if cfg_a.out_dir.resolve() == cfg_b.out_dir.resolve():
        raise ConfigError(f"compare requires distinct out_dir, both write to {cfg_a.out_dir.resolve()}")
    report_dir = _built("", _out_path, out_dir, "out_dir") if out_dir is not None else cfg_a.out_dir
    for path in (cfg_a.out_dir, cfg_b.out_dir, report_dir):
        _check_out_dir(path)
    results = []
    for cfg in (cfg_a, cfg_b):
        res = run_experiment(cfg, quiet=quiet, dataset=results[0].dataset if results else None)
        if res.failed_seeds:
            raise TrainingDivergedError(f"cannot compare: seed(s) {list(res.failed_seeds)} diverged")
        results.append(res)
    res_a, res_b = results
    seeds = cfg_a.seeds
    mae_a, mae_b = (tuple(o.result.history[-1].mae for o in res.outcomes) for res in results)
    (mean_a, std_a), (mean_b, std_b) = ((float(np.mean(m)), float(np.std(m))) for m in (mae_a, mae_b))
    if mean_a == mean_b:
        rel = 0.0
    elif mean_b != 0.0:
        rel = (mean_a - mean_b) / mean_b
    else:
        rel = float("inf")

    fam_a, fam_b = cfg_a.train.loss.family, cfg_b.train.loss.family
    lines = [
        "paired final-epoch validation MAE",
        f"config a: {fam_a} ({cfg_a.out_dir})",
        f"config b: {fam_b} ({cfg_b.out_dir})  [baseline]",
        "",
        f"{'seed':>6}  {'mae_a':>12}  {'mae_b':>12}  {'a - b':>12}",
    ]
    for s, xa, xb in zip(seeds, mae_a, mae_b):
        lines.append(f"{s:>6}  {xa:>12.6f}  {xb:>12.6f}  {xa - xb:>12.6f}")
    lines += [
        "",
        f"a: {mean_a:.6f} +/- {std_a:.6f}",
        f"b: {mean_b:.6f} +/- {std_b:.6f}",
        f"relative difference (a vs b): {rel:.6f}",
    ]
    text = "\n".join(lines) + "\n"

    _make_out_dir(report_dir)
    csv_path = report_dir / "comparison.csv"
    comments = [f"{tag}: {json.dumps(d, sort_keys=True)}" for tag, d in (("a", da), ("b", db))]
    rows = ([str(s), _fmt(xa), _fmt(xb)] for s, xa, xb in zip(seeds, mae_a, mae_b))
    _write_table(csv_path, comments, ("seed", "mae_a", "mae_b"), rows)
    txt_path = report_dir / "comparison.txt"
    with data.atomic_write(txt_path) as fh:
        fh.write(text)
    return ComparisonResult(
        res_a, res_b, seeds, mae_a, mae_b,
        mean_a, std_a, mean_b, std_b, rel, text, csv_path, txt_path,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """argparse that exits with the config-error code on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG_ERROR, f"{self.prog}: error: {message}\n")


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        seeds = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise ConfigError(f"--seeds: expected a comma-separated integer list, got {text!r}") from exc
    return seeds


def _apply_overrides(cfg: RunConfig, args, subdir: str = "") -> RunConfig:
    """``cfg`` with ``--seeds`` and ``--out-dir`` applied; ``compare`` puts each config in ``--out-dir``/``subdir``."""
    if args.seeds is not None:
        cfg = _built("--seeds: ", replace, cfg, seeds=_parse_seeds(args.seeds))
    if args.out_dir is not None:
        cfg = replace(cfg, out_dir=_built("", _out_path, args.out_dir, "--out-dir") / subdir)
    return cfg


def _add_common_flags(parser):
    parser.add_argument("--out-dir", help="override the config's output directory")
    parser.add_argument("--seeds", help="override the config's seed list (comma-separated)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress logging")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fullkl",
        description="Hyperparameter-free full-KL label-distribution losses: experiments and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a seeded experiment from a JSON config")
    p.add_argument("config", help="path to a run config (JSON)")
    _add_common_flags(p)

    p = sub.add_parser("compare", help="run two configs on the shared protocol and compare final MAE")
    p.add_argument("config_a", help="first run config (JSON)")
    p.add_argument("config_b", help="second run config (JSON; the baseline)")
    _add_common_flags(p)

    p = sub.add_parser("verify", help="run the numerics verification suite")
    p.add_argument("--json", action="store_true", help="print one JSON object per check")

    p = sub.add_parser("gen-data", help="generate the configured dataset and write it as CSV")
    p.add_argument("config", help="run config (JSON); only dataset and grid sections are used")
    p.add_argument("out_csv", help="output CSV path")
    return parser


def _cmd_run(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    result = run_experiment(cfg, quiet=args.quiet)
    for o in result.outcomes:
        if o.error is not None:
            print(f"seed {o.seed}: FAILED ({o.error})")
        else:
            print(f"seed {o.seed}: final val MAE {o.result.history[-1].mae:.6f}")
    if result.summary_path is not None:
        print(f"summary: {result.summary_path}")
    return EXIT_FAILURE if result.failed_seeds else EXIT_OK


def _cmd_compare(args) -> int:
    cfg_a = _apply_overrides(load_config(args.config_a), args, "a")
    cfg_b = _apply_overrides(load_config(args.config_b), args, "b")
    result = compare(cfg_a, cfg_b, out_dir=args.out_dir, quiet=args.quiet)
    print(result.text, end="")
    print(f"report: {result.txt_path}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    """One PASS/FAIL line per check of ``run_all_checks``, then the tally.  With ``--json`` one strict
    JSON object per check (``name``, ``passed``, ``max_error``, ``max_error_hex`` = its ``float.hex()``,
    ``detail``) and no tally; a non-finite ``max_error`` is null, and its hex form still names it."""
    results = run_all_checks()
    for r in results:
        err = float(r.max_error)
        if args.json:
            finite = err if math.isfinite(err) else None
            print(json.dumps({"name": r.name, "passed": bool(r.passed), "max_error": finite,
                              "max_error_hex": err.hex(), "detail": r.detail}, allow_nan=False))
        else:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<24}  max_error={err:.3e}  ({r.detail})")
    if not args.json:
        print(f"verification: {sum(r.passed for r in results)}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_FAILURE


def _cmd_gen_data(args) -> int:
    out_csv = _built("", _out_path, args.out_csv, "out_csv")
    if not out_csv.name or os.path.isdir(out_csv):
        raise ConfigError(f"out_csv: expected a path that names a file, got {args.out_csv!r}")
    cfg = load_config(args.config)
    ds = build_dataset(cfg.dataset, cfg.grid)
    data.save_csv(ds, args.out_csv)
    print(f"wrote {len(ds)} samples to {args.out_csv}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    logging.basicConfig(level=logging.INFO, format="%(message)s", force=True)
    handlers = {"run": _cmd_run, "compare": _cmd_compare, "verify": _cmd_verify, "gen-data": _cmd_gen_data}
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not in the interpreter's exit flush
        return code
    except BrokenPipeError:  # the reader closed stdout, as `fullkl verify | head -1`: end as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())  # the exit flush of what stdout still holds goes nowhere
        os.close(devnull)
        return 141  # 128 + SIGPIPE, the status a shell reports for a process SIGPIPE ended
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:  # an output write that failed past the path checks, as into a directory in its way
        print(f"config error: cannot write: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except TrainingDivergedError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
