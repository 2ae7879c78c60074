"""Config parsing, experiment orchestration, comparison, and the CLI."""

import builtins
import hashlib
import json
import math
import os
import pickle
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fullkl
import fullkl.data
import fullkl.runner
from fullkl.data import Dataset, atomic_write, gen_synthetic, save_csv
from fullkl.grid import MAX_BINS, LabelGrid
from fullkl.losses import LossSpec
from fullkl.model import (
    Metrics, TrainConfig, TrainingDivergedError, derive_seeds, init_mlp, load_checkpoint, save_checkpoint)
from fullkl.runner import (
    EXIT_CONFIG_ERROR,
    EXIT_FAILURE,
    EXIT_OK,
    METRICS_COLUMNS,
    ConfigError,
    DatasetSpec,
    RunConfig,
    SeedOutcome,
    compare,
    config_from_dict,
    config_to_dict,
    load_config,
    main,
    build_dataset,
    run_experiment,
)
from fullkl.verify import CheckResult, run_all_checks

REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_dict(out_dir, family="full_kl", lam=None, seeds=(0, 1), epochs=3, lr=1e-3, n=60):
    loss = {"family": family}
    if lam is not None:
        loss["lambda"] = lam
    return {
        "dataset": {"type": "synthetic", "n": n, "d_in": 3, "sigma_range": [2.0, 6.0], "seed": 1},
        "grid": {"start": 0.0, "stop": 100.0, "step": 1.0},
        "loss": loss,
        "train": {
            "epochs": epochs, "batch_size": 16, "lr": lr,
            "lr_decay_factor": 0.1, "lr_decay_every": 30,
            "hidden": [8, 8], "val_fraction": 0.2,
        },
        "seeds": list(seeds),
        "out_dir": str(out_dir),
    }


def write_config(tmp_path, d, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(d), encoding="utf-8")
    return path


def package_env():
    """os.environ with this checkout's ``src`` first on PYTHONPATH, for a subprocess that imports fullkl."""
    src = str(Path(fullkl.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def read_rows(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    return lines[0], lines[1].split(","), [l.split(",") for l in lines[2:]]


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

class TestConfigParsing:
    @pytest.mark.parametrize("name", ["full_kl.json", "reference.json", "smoke.json"])
    def test_repo_configs_round_trip_verbatim(self, name):
        path = REPO_CONFIGS / name
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert config_to_dict(load_config(path)) == raw

    def test_tiny_dict_round_trips(self, tmp_path):
        d = tiny_dict(tmp_path / "out", family="reference", lam=1.0)
        assert config_to_dict(config_from_dict(d)) == d

    def test_csv_dataset_round_trips(self, tmp_path):
        d = tiny_dict(tmp_path / "out")
        d["dataset"] = {"type": "csv", "path": "somewhere/data.csv"}
        cfg = config_from_dict(d)
        assert cfg.dataset.kind == "csv" and cfg.dataset.path == "somewhere/data.csv"
        assert config_to_dict(cfg) == d

    def test_unknown_top_level_key(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["trian"] = {}
        with pytest.raises(ConfigError, match="unknown key.*trian"):
            config_from_dict(d)

    def test_missing_top_level_key(self, tmp_path):
        d = tiny_dict(tmp_path)
        del d["seeds"]
        with pytest.raises(ConfigError, match="missing key.*seeds"):
            config_from_dict(d)

    def test_dataset_unknown_key(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["dataset"]["rows"] = 5
        with pytest.raises(ConfigError, match="dataset.*rows"):
            config_from_dict(d)

    def test_dataset_missing_key(self, tmp_path):
        d = tiny_dict(tmp_path)
        del d["dataset"]["sigma_range"]
        with pytest.raises(ConfigError, match="dataset.*sigma_range"):
            config_from_dict(d)

    def test_dataset_bad_type(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["dataset"] = {"type": "parquet", "path": "x"}
        with pytest.raises(ConfigError, match="synthetic.*csv"):
            config_from_dict(d)

    def test_dataset_sigma_range_must_be_pair(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["dataset"]["sigma_range"] = [2.0]
        with pytest.raises(ConfigError, match="sigma_range"):
            config_from_dict(d)

    def test_synthetic_dataset_needs_samples(self, tmp_path):
        d = tiny_dict(tmp_path, n=0)
        with pytest.raises(ConfigError, match=r"^dataset\.n must be >= 1 for a synthetic dataset, got 0$"):
            config_from_dict(d)

    def test_grid_unknown_key(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["grid"]["bins"] = 101
        with pytest.raises(ConfigError, match="grid.*bins"):
            config_from_dict(d)

    def test_lambda_on_full_kl_rejected(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["loss"]["lambda"] = 1.0
        with pytest.raises(ConfigError, match="no lambda"):
            config_from_dict(d)

    def test_reference_requires_lambda(self, tmp_path):
        d = tiny_dict(tmp_path, family="reference")
        with pytest.raises(ConfigError, match="requires lambda"):
            config_from_dict(d)

    def test_unknown_family_rejected(self, tmp_path):
        d = tiny_dict(tmp_path, family="huber")
        with pytest.raises(ConfigError, match="family"):
            config_from_dict(d)

    def test_train_unknown_key(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["train"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="train.*momentum"):
            config_from_dict(d)

    def test_train_defaults_fill_omitted_keys(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["train"] = {}
        cfg = config_from_dict(d)
        assert cfg.train.epochs == 60 and cfg.train.hidden == (64, 64)

    def test_train_bad_value_type(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["train"]["epochs"] = "sixty"
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_train_invalid_value(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["train"]["epochs"] = 0
        with pytest.raises(ConfigError):
            config_from_dict(d)

    def test_seeds_must_be_list(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["seeds"] = "0,1"
        with pytest.raises(ConfigError, match="seeds"):
            config_from_dict(d)

    def test_seeds_empty_rejected(self, tmp_path):
        d = tiny_dict(tmp_path, seeds=())
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(d)

    def test_seeds_duplicates_rejected(self, tmp_path):
        d = tiny_dict(tmp_path, seeds=(1, 1))
        with pytest.raises(ConfigError, match="unique"):
            config_from_dict(d)

    @pytest.mark.parametrize("bad", [2.7, True])
    @pytest.mark.parametrize("key", [
        "dataset.n", "dataset.d_in", "dataset.seed", "train.epochs", "train.batch_size",
        "train.lr_decay_every", "train.hidden", "seeds",
    ])
    def test_integer_field_rejects_fraction_and_bool(self, tmp_path, key, bad):
        d = tiny_dict(tmp_path)
        *section, name = key.split(".")
        target = d[section[0]] if section else d
        target[name] = [bad, 1] if name in ("hidden", "seeds") else bad
        with pytest.raises(ConfigError, match=re.escape(f"{key}: expected an integer, got {bad!r}")):
            config_from_dict(d)

    @pytest.mark.parametrize("key, bad", [
        ("seeds", [-1]), ("seeds", [0, -2]), ("dataset.seed", -3), ("out_dir", ""),
    ], ids=["seeds", "seeds_tail", "dataset.seed", "out_dir"])
    def test_negative_seed_or_empty_out_dir_fails_before_any_write(self, tmp_path, monkeypatch, capsys, key, bad):
        d = tiny_dict(tmp_path / "out")
        *section, name = key.split(".")
        (d[section[0]] if section else d)[name] = bad
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}"):
            config_from_dict(d)
        path = write_config(tmp_path, d)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"config error: {key}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_programmatic_seeds_and_out_dir_checked(self):
        grid, ds = LabelGrid(0.0, 10.0, 1.0), DatasetSpec("csv", path="x.csv")
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            TrainConfig(seed=-1)
        with pytest.raises(ValueError, match=re.escape("seed must be >= 0, got -1")):
            DatasetSpec("csv", path="x.csv", seed=-1)
        with pytest.raises(ValueError, match=re.escape("seeds must be >= 0 and < 2**63, got (3, -1)")):
            RunConfig(ds, grid, TrainConfig(), (3, -1), "out")
        with pytest.raises(ValueError, match=re.escape(f"seeds must be >= 0 and < 2**63, got (0, {2**63})")):
            RunConfig(ds, grid, TrainConfig(), (0, 2**63), "out")  # metrics_seed<seed>.csv must fit a file name
        with pytest.raises(ValueError, match=re.escape("out_dir: expected a non-empty path")):
            RunConfig(ds, grid, TrainConfig(), (0,), "")
        assert TrainConfig(seed=0).seed == 0 and RunConfig(ds, grid, TrainConfig(), (0,), ".").seeds == (0,)

    def test_synthetic_size_is_bounded_by_max_bins(self):
        # Only the spec is built: the bound is checked before anything is allocated.
        assert DatasetSpec("synthetic", n=MAX_BINS // 4 - 1, d_in=4, sigma_range=(2.0, 6.0)).n == MAX_BINS // 4 - 1
        error = f"n: {MAX_BINS // 4} samples of 4 features need at least {MAX_BINS} float64 values"
        with pytest.raises(ValueError, match=f"^{re.escape(error)}: a whole 128 TiB address space$"):
            DatasetSpec("synthetic", n=MAX_BINS // 4, d_in=4, sigma_range=(2.0, 6.0))

    def test_float_beyond_float_range_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        d = tiny_dict(tmp_path / "out")
        d["train"]["lr"] = 10 ** 400
        with pytest.raises(ConfigError, match=re.escape("train.lr: expected a number within float range")):
            config_from_dict(d)
        path = write_config(tmp_path, d)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        assert "config error: train.lr: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_integer_field_accepts_whole_float(self, tmp_path):
        d = tiny_dict(tmp_path)
        d["train"]["epochs"] = 3.0
        cfg = config_from_dict(d)
        assert cfg.train.epochs == 3 and type(cfg.train.epochs) is int

    @pytest.mark.parametrize("bad", [True, False, "1"])
    @pytest.mark.parametrize("key", [
        "dataset.sigma_range", "grid.start", "grid.stop", "grid.step", "loss.lambda",
        "train.lr", "train.lr_decay_factor", "train.val_fraction",
    ])
    def test_float_field_rejects_bool_and_string(self, tmp_path, key, bad):
        d = tiny_dict(tmp_path, family="reference", lam=1.0)
        section, name = key.split(".")
        d[section][name] = [bad, 6.0] if name == "sigma_range" else bad
        with pytest.raises(ConfigError, match=re.escape(f"{key}: expected a number, got {bad!r}")):
            config_from_dict(d)

    def test_float_field_accepts_integer(self, tmp_path):
        d = tiny_dict(tmp_path, family="reference", lam=1)
        d["grid"] = {"start": 0, "stop": 100, "step": 1}
        cfg = config_from_dict(d)
        assert cfg.grid == LabelGrid(0.0, 100.0, 1.0) and cfg.train.loss.lam == 1.0

    def test_programmatic_integer_fields_checked(self, tmp_path):
        grid = LabelGrid(0.0, 10.0, 1.0)
        with pytest.raises(ValueError, match=re.escape("hidden: expected an integer, got 8.9")):
            RunConfig(DatasetSpec("csv", path="x.csv"), grid, TrainConfig(hidden=(8.9,)), (0.7, 2.2), "out")
        with pytest.raises(ValueError, match=re.escape("seeds: expected an integer, got 0.7")):
            RunConfig(DatasetSpec("csv", path="x.csv"), grid, TrainConfig(hidden=(8,)), (0.7, 2.2), "out")
        with pytest.raises(ValueError, match=re.escape("n: expected an integer, got 10.5")):
            DatasetSpec("synthetic", n=10.5, d_in=True, seed=1.5, sigma_range=(2.0, 6.0))
        with pytest.raises(ValueError, match=re.escape("d_in: expected an integer, got True")):
            DatasetSpec("synthetic", n=10, d_in=True, seed=1, sigma_range=(2.0, 6.0))
        with pytest.raises(ValueError, match=re.escape("seed: expected an integer, got 1.5")):
            DatasetSpec("synthetic", n=10, d_in=3, seed=1.5, sigma_range=(2.0, 6.0))
        cfg = RunConfig(DatasetSpec("csv", path="x.csv"), grid, TrainConfig(), (np.int64(3), 4.0), "out")
        assert cfg.seeds == (3, 4) and all(type(s) is int for s in cfg.seeds)

    @pytest.mark.parametrize("key, section", [
        ("out_dir", True),
        ("dataset.path", {"type": "csv", "path": 5}),
        ("loss.family", {"family": 5}),
    ], ids=["out_dir", "dataset.path", "loss.family"])
    def test_string_field_not_coerced(self, tmp_path, monkeypatch, capsys, key, section):
        d = tiny_dict(tmp_path / "out")
        d[key.split(".")[0]] = section
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            config_from_dict(d)
        path = write_config(tmp_path, d)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"config error: {key}: " in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    # Every key whose value the loader rejects, with the object that holds it built in Python.
    PYTHON_BUILDS = {
        "dataset": lambda d: DatasetSpec(**{("kind" if k == "type" else k): v for k, v in d["dataset"].items()}),
        "grid": lambda d: LabelGrid(d["grid"]["start"], d["grid"]["stop"], d["grid"]["step"]),
        "loss": lambda d: LossSpec(d["loss"]["family"], d["loss"].get("lambda")),
        "train": lambda d: TrainConfig(**d["train"]),
        "": lambda d: RunConfig(
            DatasetSpec("csv", path="x.csv"), LabelGrid(0.0, 10.0, 1.0), TrainConfig(), d["seeds"], d["out_dir"]
        ),
    }

    @pytest.mark.parametrize("key", [
        "dataset.n", "dataset.d_in", "dataset.seed", "train.epochs", "train.batch_size",
        "train.lr_decay_every", "train.hidden", "seeds",
        "dataset.sigma_range", "grid.start", "grid.stop", "grid.step", "loss.lambda",
        "train.lr", "train.lr_decay_factor", "train.val_fraction",
        "loss.family", "dataset.path", "out_dir",
    ])
    def test_python_types_raise_the_loader_message(self, tmp_path, key):
        d = tiny_dict(tmp_path, family="reference", lam=1.0)
        if key == "dataset.path":
            d["dataset"] = {"type": "csv", "path": "x.csv"}
        *section, name = key.split(".")
        target = d[section[0]] if section else d
        target[name] = [True, 6.0] if name in ("hidden", "seeds", "sigma_range") else True
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: ") as loaded:
            config_from_dict(d)
        with pytest.raises(ValueError) as built:
            self.PYTHON_BUILDS[section[0] if section else ""](d)
        assert str(built.value) == str(loaded.value).removeprefix(f"{section[0]}." if section else "")

    def test_python_lambda_written_as_loaded(self, tmp_path):
        d = tiny_dict(tmp_path / "out", family="reference", lam=1)
        built = RunConfig(
            DatasetSpec("synthetic", n=60, d_in=3, sigma_range=(2.0, 6.0), seed=1), LabelGrid(0.0, 100.0, 1.0),
            TrainConfig(**d["train"], loss=LossSpec("reference", 1)), [0, 1], tmp_path / "out",
        )
        assert config_to_dict(built)["loss"] == {"family": "reference", "lambda": 1.0}
        assert type(built.train.loss.lam) is float
        header = json.dumps(config_to_dict(built), sort_keys=True)
        assert header == json.dumps(config_to_dict(config_from_dict(d)), sort_keys=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"out_dir": "r\xe9sultats"}')
        with pytest.raises(ConfigError, match="codec can't decode"):
            load_config(path)

    @pytest.mark.parametrize("key, given, again", [
        ("seeds", '"seeds": [0]', '"seeds": [3]'), ("lr", '"lr": 0.001', '"lr": 0.01'),
    ], ids=["top_level", "in_train"])
    def test_duplicate_key_rejected_before_any_write(self, tmp_path, monkeypatch, capsys, key, given, again):
        text = json.dumps(tiny_dict(tmp_path / "out", seeds=(0,)))
        path = tmp_path / "cfg.json"
        path.write_text(text.replace(given, f"{given}, {again}"), encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: duplicate key {key!r}")):
            load_config(path)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"duplicate key {key!r}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

class TestRunExperiment:
    def test_row_accounting(self, tmp_path):
        cfg = config_from_dict(tiny_dict(tmp_path / "out"))
        result = run_experiment(cfg, quiet=True)
        assert result.failed_seeds == ()
        assert sorted(p.name for p in (tmp_path / "out").glob("*_seed*")) == [
            "metrics_seed0.csv", "metrics_seed1.csv", "model_seed0.ckpt", "model_seed1.ckpt",
        ]
        assert result.summary_path is not None and result.summary_path.is_file()

        _, header, rows = read_rows(tmp_path / "out" / "metrics_seed0.csv")
        assert tuple(header) == METRICS_COLUMNS
        assert len(rows) == 6  # 3 epochs x {train, val}
        assert [r[0] for r in rows] == ["0"] * 6
        assert [r[1] for r in rows] == ["1", "1", "2", "2", "3", "3"]
        assert [r[2] for r in rows] == ["train", "val"] * 3
        assert all(r[5] != "" for r in rows)  # full-KL smoothness column populated

        _, sheader, srows = read_rows(result.summary_path)
        assert sheader[0] == "epoch"
        assert len(sheader) == 1 + 2 * 5 * 2  # epoch + {train,val} x 5 metrics x {mean,std}
        assert len(srows) == 3
        assert [r[0] for r in srows] == ["1", "2", "3"]

    def test_reference_family_leaves_smoothness_empty(self, tmp_path):
        cfg = config_from_dict(tiny_dict(tmp_path / "out", family="reference", lam=1.0))
        result = run_experiment(cfg, quiet=True)
        _, header, rows = read_rows(tmp_path / "out" / "metrics_seed0.csv")
        assert all(r[header.index("l_smooth")] == "" for r in rows)
        _, sheader, srows = read_rows(result.summary_path)
        i = sheader.index("train_l_smooth_mean")
        assert all(r[i] == "" and r[i + 1] == "" for r in srows)

    def test_rerun_byte_identical(self, tmp_path):
        cfg = config_from_dict(tiny_dict(tmp_path / "out"))
        run_experiment(cfg, quiet=True)
        first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        run_experiment(cfg, quiet=True)
        second = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
        assert first == second
        assert set(first) == {
            "metrics_seed0.csv", "metrics_seed1.csv",
            "model_seed0.ckpt", "model_seed1.ckpt", "summary.csv",
        }

    def test_out_dir_changes_only_header_comment(self, tmp_path):
        run_experiment(config_from_dict(tiny_dict(tmp_path / "x")), quiet=True)
        run_experiment(config_from_dict(tiny_dict(tmp_path / "y")), quiet=True)
        cx, hx, rx = read_rows(tmp_path / "x" / "metrics_seed0.csv")
        cy, hy, ry = read_rows(tmp_path / "y" / "metrics_seed0.csv")
        assert cx != cy  # embedded config JSON includes out_dir
        assert hx == hy and rx == ry

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_recorded_without_aborting(self, tmp_path):
        cfg = config_from_dict(tiny_dict(tmp_path / "out", lr=1e200))
        result = run_experiment(cfg, quiet=True)
        assert result.failed_seeds == (0, 1)
        assert all(o.result is None and "epoch" in o.error for o in result.outcomes)
        assert not any((tmp_path / "out").iterdir()) and result.summary_path is None

    def test_each_seed_is_written_before_the_next_trains(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = config_from_dict(tiny_dict(out))
        run_experiment(cfg, quiet=True)
        whole = {p.name: p.read_bytes() for p in out.iterdir()}
        shutil.rmtree(out)
        train_run, seeds = fullkl.runner.train_run, []

        def second_seed_fails(*args, **kwargs):
            seeds.append(kwargs["cfg"].seed)
            if len(seeds) == 2:
                raise RuntimeError("interrupted")
            return train_run(*args, **kwargs)

        monkeypatch.setattr(fullkl.runner, "train_run", second_seed_fails)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_experiment(cfg, quiet=True)
        assert seeds == [0, 1]
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {
            name: whole[name] for name in ("metrics_seed0.csv", "model_seed0.ckpt")
        }

    def test_run_seed_writes_nothing(self, tmp_path, monkeypatch):
        cfg = config_from_dict(tiny_dict("runs/out"))
        full = build_dataset(cfg.dataset, cfg.grid)
        monkeypatch.chdir(tmp_path)
        outcome = fullkl.runner._run_seed(cfg, full, 1, quiet=True)
        assert not any(tmp_path.iterdir())
        assert (outcome.seed, outcome.error) == (1, None)
        ran = run_experiment(cfg, quiet=True).outcomes[1].result
        assert outcome.result.history == ran.history
        assert outcome.result.params.vec.tobytes() == ran.params.vec.tobytes()

    def test_seed_outcome_survives_pickle(self):
        # What a seed worker in another process would send back: the outcome, its params and history.
        cfg = config_from_dict(tiny_dict("runs/out"))
        outcome = fullkl.runner._run_seed(cfg, build_dataset(cfg.dataset, cfg.grid), 1, quiet=True)
        copy = pickle.loads(pickle.dumps(outcome))
        assert type(copy) is SeedOutcome and (copy.seed, copy.error) == (1, None)
        assert all(type(m) is Metrics for m in copy.result.history)
        assert copy.result.history == outcome.result.history
        assert copy.result.params.dims == outcome.result.params.dims
        assert copy.result.params.vec.tobytes() == outcome.result.params.vec.tobytes()
        assert not copy.result.params.vec.flags.writeable

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_in_evaluation_names_epoch_split_and_ids(self, tmp_path):
        # One step per epoch: the first non-finite forward pass is the val evaluation's.
        d = tiny_dict(tmp_path / "out", epochs=2, lr=1e200)
        d["train"].update(batch_size=128, hidden=[4])
        cfg = config_from_dict(d)
        result = run_experiment(cfg, quiet=True)
        assert result.failed_seeds == (0, 1)
        full = build_dataset(cfg.dataset, cfg.grid)
        pattern = (r"^epoch 1, val evaluation: non-finite activations in forward pass "
                   r"at batch row\(s\) \[([\d, ]+)\]; sample id\(s\) \[([\d, ]+)\]$")
        for o in result.outcomes:
            match = re.match(pattern, o.error)
            assert match is not None, o.error
            rows, ids = ([int(v) for v in group.split(",")] for group in match.groups())
            _, val_ds = fullkl.data.split(full, cfg.train.val_fraction, derive_seeds(o.seed)[0])
            assert 1 <= len(ids) <= 10 and ids == val_ds.ids[rows].tolist()

    def test_unwritable_out_dir_is_config_error(self, tmp_path, monkeypatch):
        # Refused before the dataset is built.
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory", encoding="utf-8")
        built = []
        monkeypatch.setattr(fullkl.data, "gen_synthetic", lambda *args: built.append(args))
        cfg = config_from_dict(tiny_dict(blocker / "out"))
        error = f"cannot create output dir {blocker / 'out'}: {blocker} is not a directory"
        with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
            run_experiment(cfg, quiet=True)
        assert built == []

    def test_csv_dataset_source(self, tmp_path):
        gen_cfg = config_from_dict(tiny_dict(tmp_path / "gen"))
        from fullkl.runner import build_dataset
        from fullkl.data import save_csv
        ds = build_dataset(gen_cfg.dataset, gen_cfg.grid)
        save_csv(ds, tmp_path / "data.csv")
        d = tiny_dict(tmp_path / "out")
        d["dataset"] = {"type": "csv", "path": str(tmp_path / "data.csv")}
        result = run_experiment(config_from_dict(d), quiet=True)
        assert result.failed_seeds == ()

    def test_data_sha256_digests_the_built_dataset(self, tmp_path):
        cfg = config_from_dict(tiny_dict(tmp_path / "out", seeds=(0,)))
        full = build_dataset(cfg.dataset, cfg.grid)
        h = hashlib.sha256(str(full.features.shape).encode())
        for column in (full.ids, full.features, full.target_mu, full.target_sigma):
            h.update(column.tobytes())
        assert run_experiment(cfg, quiet=True).data_sha256 == h.hexdigest()

    def test_missing_csv_is_config_error(self, tmp_path):
        d = tiny_dict(tmp_path / "out")
        d["dataset"] = {"type": "csv", "path": str(tmp_path / "absent.csv")}
        with pytest.raises(ConfigError, match="cannot build dataset"):
            run_experiment(config_from_dict(d), quiet=True)


def two_bin_csv(path, n=40):
    """A CSV dataset on the 2-bin grid [0, 1]: std at least the 0.5 floor."""
    rng = np.random.default_rng(3)
    lines = ["id,f0,f1,f2,mean,std"]
    for i in range(n):
        row = [*rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.0)]
        lines.append(",".join([str(i)] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestGridEdges:
    @pytest.mark.parametrize("grid, sigma_range", [
        ((-5.0, 45.0, 0.5), (1.0, 3.0)),
        ((10.0, 10.1, 0.001), (0.002, 0.01)),
        ((0.0, 1.0, 1.0), None),  # gen_synthetic's sigma floor exceeds its cap on 2 bins: CSV
    ], ids=["half_step_negative_start", "narrow_offset", "two_bins_csv"])
    def test_full_runner(self, tmp_path, grid, sigma_range):
        d = tiny_dict(tmp_path / "out", epochs=2, n=40)
        d["grid"] = dict(zip(("start", "stop", "step"), grid))
        if sigma_range is None:
            d["dataset"] = {"type": "csv", "path": str(two_bin_csv(tmp_path / "two_bins.csv"))}
        else:
            d["dataset"]["sigma_range"] = list(sigma_range)
        cfg = config_from_dict(d)
        result = run_experiment(cfg, quiet=True)
        assert result.failed_seeds == ()
        assert {p.name for p in (tmp_path / "out").iterdir()} == {
            "metrics_seed0.csv", "metrics_seed1.csv",
            "model_seed0.ckpt", "model_seed1.ckpt", "summary.csv",
        }
        for seed in cfg.seeds:
            comment, header, rows = read_rows(tmp_path / "out" / f"metrics_seed{seed}.csv")
            assert config_from_dict(json.loads(comment[2:])).grid == cfg.grid
            assert len(rows) == 4
            assert all(math.isfinite(float(r[i])) for r in rows for i in range(3, len(header)))
            assert load_checkpoint(tmp_path / "out" / f"model_seed{seed}.ckpt").n_bins == len(cfg.grid)


class TestAtomicOutputs:
    class Boom(Exception):
        pass

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n", encoding="utf-8")
        with pytest.raises(self.Boom):
            with atomic_write(path) as fh:
                fh.write("new, half written")
                raise self.Boom
        assert path.read_text(encoding="utf-8") == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert path.read_text(encoding="utf-8") == "new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_metrics_csv_interrupted_mid_history(self, tmp_path):
        path = tmp_path / "metrics_seed0.csv"
        m = Metrics("full_kl", 0.5, 0.25, 0.125, 0.875, epoch=1, split="train", mae=1.0)
        fullkl.runner._write_metrics_csv(path, "{}", 0, [m, m])
        before = path.read_bytes()

        def history():
            yield m
            raise self.Boom

        with pytest.raises(self.Boom):
            fullkl.runner._write_metrics_csv(path, "{}", 0, history())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_write_removes_temp_files_of_killed_writes_to_that_name_only(self, tmp_path):
        path = tmp_path / "out.txt"
        stale = [".out.txt.1.tmp", ".out.txt.40213.tmp"]
        kept = [".out.txt.12a.tmp", ".out.txt..tmp", ".outatxt.1.tmp", ".out.txt.1.tmp.bak", ".out.txt.1.tmpx",
                "..out.txt.1.tmp", ".out.txt.x.1.tmp", ".other.txt.1.tmp", "out.txt.1.tmp"]
        for name in stale + kept:
            (tmp_path / name).write_text("left by a kill", encoding="utf-8")
        with atomic_write(path) as fh:
            fh.write("new\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(kept + ["out.txt"])

    def test_csv_interrupted_mid_write(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        ds = gen_synthetic(50, 3, LabelGrid(0.0, 100.0, 1.0), (2.0, 6.0), 1)
        save_csv(ds, path)
        before = path.read_bytes()
        fields = []

        def repr_then_boom(x):
            if len(fields) == 40:
                raise self.Boom
            fields.append(x)
            return builtins.repr(x)

        monkeypatch.setattr(fullkl.data, "repr", repr_then_boom, raising=False)
        with pytest.raises(self.Boom):
            save_csv(ds, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_checkpoint_interrupted_after_header(self, tmp_path):
        path = tmp_path / "model_seed0.ckpt"
        params = init_mlp((2, 3), 0)
        save_checkpoint(params, path)
        before = path.read_bytes()

        class Unreadable:
            dims = params.dims

            @property
            def vec(self):
                raise TestAtomicOutputs.Boom

        with pytest.raises(self.Boom):
            save_checkpoint(Unreadable(), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


KILL_AT_REPLACE = """
import os, sys
from fullkl.runner import main
calls, real_replace = 0, os.replace

def replace(src, dst):
    global calls
    calls += 1
    if calls == int(sys.argv[1]):
        os._exit(9)
    real_replace(src, dst)

os.replace = replace
sys.exit(main(["run", "cfg.json", "--quiet"]))
"""


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


class TestKilledRun:
    def test_every_kill_leaves_whole_files_and_a_rerun_restores_the_clean_run(self, tmp_path, monkeypatch):
        # out_dir is relative, so every run's config header, and so every file's bytes, is the same.
        env = package_env()
        cfg = tiny_dict("out", epochs=1)
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        write_config(clean_dir, cfg)
        monkeypatch.chdir(clean_dir)
        assert main(["run", "cfg.json", "--quiet"]) == EXIT_OK
        clean = tree_bytes(clean_dir / "out")
        assert len(clean) == 5
        for k in range(1, len(clean) + 1):
            run_dir = tmp_path / f"kill{k}"
            run_dir.mkdir()
            write_config(run_dir, cfg)
            proc = subprocess.run([sys.executable, "-c", KILL_AT_REPLACE, str(k)], cwd=run_dir, env=env,
                                  capture_output=True, timeout=120)
            assert proc.returncode == 9, proc.stderr.decode()[-2000:]
            killed = tree_bytes(run_dir / "out")
            visible = {name: b for name, b in killed.items() if not name.startswith(".")}
            assert len(visible) == k - 1 and all(clean[name] == b for name, b in visible.items())
            assert len(killed) == k  # the killed write's temp file
            monkeypatch.chdir(run_dir)
            assert main(["run", "cfg.json", "--quiet"]) == EXIT_OK
            assert tree_bytes(run_dir / "out") == clean


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

class TestCompare:
    def test_self_comparison_is_exactly_zero(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b"))
        result = compare(cfg_a, cfg_b, quiet=True)
        assert result.mae_a == result.mae_b
        assert result.rel_diff == 0.0
        assert result.mean_a == result.mean_b

    def test_cross_family_report(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b", family="reference", lam=1.0))
        result = compare(cfg_a, cfg_b, out_dir=tmp_path / "cmp", quiet=True)
        assert result.seeds == (0, 1)
        assert result.csv_path == tmp_path / "cmp" / "comparison.csv"
        assert result.txt_path.is_file()
        lines = result.csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# a: ") and lines[1].startswith("# b: ")
        assert lines[2] == "seed,mae_a,mae_b"
        assert len(lines) == 3 + 2  # one row per seed
        assert "relative difference" in result.text
        assert "[baseline]" in result.text

    def test_report_defaults_to_first_out_dir(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b"))
        result = compare(cfg_a, cfg_b, quiet=True)
        assert result.csv_path.parent == tmp_path / "a"

    def test_unsorted_seeds_pair_in_config_order(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a", seeds=(3, 1)))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b", family="reference", lam=1.0, seeds=(3, 1)))
        result = compare(cfg_a, cfg_b, quiet=True)
        assert result.seeds == (3, 1)
        lines = result.csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[2:] == ["seed,mae_a,mae_b"] + [f"{s},{xa!r},{xb!r}" for s, xa, xb in zip((3, 1), result.mae_a, result.mae_b)]
        for maes, out in ((result.mae_a, tmp_path / "a"), (result.mae_b, tmp_path / "b")):
            for seed, mae in zip((3, 1), maes):
                _, _, metrics = read_rows(out / f"metrics_seed{seed}.csv")
                last_val = [r for r in metrics if r[2] == "val"][-1]
                assert float(last_val[-1]) == mae
        assert result.result_a.data_sha256 == result.result_b.data_sha256

    def test_csv_loaded_once_for_both_configs(self, tmp_path, monkeypatch, capsys):
        grid = LabelGrid(0.0, 100.0, 1.0)
        save_csv(gen_synthetic(60, 3, grid, (2.0, 6.0), 1), tmp_path / "data.csv")
        load_csv, calls = fullkl.data.load_csv, []

        def load_then_shift(path, g):
            # A second load would differ from the first, so it must never come.
            ds = load_csv(path, g)
            calls.append(ds)
            if len(calls) == 1:
                return ds
            mu = ds.target_mu.copy()
            mu[0] = np.nextafter(mu[0], math.inf)
            return Dataset(ds.grid, ds.ids, ds.features, mu, ds.target_sigma)

        split, split_from = fullkl.data.split, []

        def recording_split(ds, val_fraction, seed):
            split_from.append(ds)
            return split(ds, val_fraction, seed)

        monkeypatch.setattr(fullkl.data, "load_csv", load_then_shift)
        monkeypatch.setattr(fullkl.data, "split", recording_split)
        configs = []
        for name, family, lam in (("a", "full_kl", None), ("b", "reference", 1.0)):
            d = tiny_dict(tmp_path / "ignored", family=family, lam=lam, seeds=(0,))
            d["dataset"] = {"type": "csv", "path": str(tmp_path / "data.csv")}
            configs.append(str(write_config(tmp_path, d, name=f"{name}.json")))
        code = main(["compare", *configs, "--out-dir", str(tmp_path / "cmp"), "--quiet"])
        assert code == EXIT_OK, capsys.readouterr().err
        assert len(calls) == 1
        assert len(split_from) == 2 and all(ds is calls[0] for ds in split_from)
        assert sorted(p.name for p in (tmp_path / "cmp").iterdir()) == ["a", "b", "comparison.csv", "comparison.txt"]

    def test_synthetic_dataset_generated_once(self, tmp_path, monkeypatch):
        gen, calls = fullkl.data.gen_synthetic, []

        def counting_gen(*args):
            calls.append(args)
            return gen(*args)

        monkeypatch.setattr(fullkl.data, "gen_synthetic", counting_gen)
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b", family="reference", lam=1.0))
        result = compare(cfg_a, cfg_b, quiet=True)
        assert len(calls) == 1
        assert result.result_a.dataset is result.result_b.dataset

    def test_mismatched_dataset_rejected(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b", n=61))
        with pytest.raises(ConfigError, match="identical 'dataset'"):
            compare(cfg_a, cfg_b, quiet=True)

    def test_mismatched_seeds_rejected(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b", seeds=(0, 2)))
        with pytest.raises(ConfigError, match="identical 'seeds'"):
            compare(cfg_a, cfg_b, quiet=True)

    def test_mismatched_val_fraction_rejected(self, tmp_path):
        # val_fraction decides which rows data.split puts in each seed's validation set.
        d = tiny_dict(tmp_path / "b")
        d["train"]["val_fraction"] = 0.5
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a"))
        with pytest.raises(ConfigError, match=re.escape("identical 'train.val_fraction', got 0.2 vs 0.5")):
            compare(cfg_a, config_from_dict(d), out_dir=tmp_path / "cmp", quiet=True)
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("a_dir, b_dir, out_dir, error", [
        ("a", "b", "afile/cmp", "cannot create output dir afile/cmp: afile is not a directory"),
        ("a", "afile/b", None, "cannot create output dir afile/b: afile is not a directory"),
        ("afile/a", "b", "cmp", "cannot create output dir afile/a: afile is not a directory"),
        ("a", "b", "", "out_dir: expected a non-empty path"),
        ("a", "b", "r\0x", "out_dir: expected a path without a NUL character, got 'r\\x00x'"),
        ("a", "b", 5, "out_dir: expected a string or a path, got 5"),
    ], ids=["report_under_a_file", "cfg_b_under_a_file", "cfg_a_under_a_file", "empty_report_dir",
            "nul_in_report_dir", "report_dir_not_a_path"])
    def test_bad_directory_refused_before_training(self, tmp_path, monkeypatch, a_dir, b_dir, out_dir, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("file, not a directory", encoding="utf-8")
        calls = []
        monkeypatch.setattr(fullkl.runner, "train_run", lambda *args, **kwargs: calls.append(args))
        cfg_a = config_from_dict(tiny_dict(a_dir))
        cfg_b = config_from_dict(tiny_dict(b_dir, family="reference", lam=1.0))
        with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
            compare(cfg_a, cfg_b, out_dir=out_dir, quiet=True)
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_seed_fails_comparison(self, tmp_path):
        cfg_a = config_from_dict(tiny_dict(tmp_path / "a", lr=1e200))
        cfg_b = config_from_dict(tiny_dict(tmp_path / "b"))
        with pytest.raises(TrainingDivergedError, match="cannot compare"):
            compare(cfg_a, cfg_b, quiet=True)
        # Config a's divergence stops the comparison before config b trains.
        assert not (tmp_path / "b").exists()


# ---------------------------------------------------------------------------
# fullkl verify / CLI
# ---------------------------------------------------------------------------

class TestVerifySuite:
    def test_prints_one_line_per_check_plus_tally(self, capsys):
        assert main(["verify"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        results = run_all_checks()
        assert len(lines) == len(results) + 1
        assert all(l.startswith(("PASS", "FAIL")) for l in lines[:-1])
        assert all("max_error=" in l for l in lines[:-1])
        assert all(r.passed for r in results)
        assert lines[-1] == f"verification: {len(results)}/{len(results)} checks passed"


class TestCli:
    def test_run_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out"))
        assert main(["run", str(path), "--quiet"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "seed 0: final val MAE" in out and "seed 1: final val MAE" in out
        assert "summary:" in out
        assert (tmp_path / "out" / "summary.csv").is_file()

    @pytest.mark.parametrize("flags, logged", [([], True), (["--quiet"], False)], ids=["default", "quiet"])
    def test_run_progress_lines(self, tmp_path, capsys, flags, logged):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out", seeds=(0,)))
        assert main(["run", str(path), *flags]) == EXIT_OK
        err = capsys.readouterr().err
        assert ("seed 0 done: final val MAE" in err) is logged
        assert ("epoch   3" in err) is logged
        if not logged:
            assert err == ""

    @pytest.mark.parametrize("command", [["verify"], ["gen-data", "cfg.json", "data.csv"]], ids=["verify", "gen-data"])
    def test_quiet_is_a_usage_error_where_nothing_logs(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        assert main([*command, "--quiet"]) == EXIT_CONFIG_ERROR
        assert "unrecognized arguments: --quiet" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_seeds_override(self, tmp_path):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out"))
        assert main(["run", str(path), "--seeds", "5", "--quiet"]) == EXIT_OK
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"metrics_seed5.csv", "model_seed5.ckpt", "summary.csv"}

    def test_run_out_dir_override(self, tmp_path):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out"))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "elsewhere"), "--quiet"]) == EXIT_OK
        assert (tmp_path / "elsewhere" / "summary.csv").is_file()
        assert not (tmp_path / "out").exists()

    def test_run_missing_config(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json"), "--quiet"]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_run_bad_config_key(self, tmp_path, capsys):
        d = tiny_dict(tmp_path / "out")
        d["trian"] = {}
        path = write_config(tmp_path, d)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR

    def test_run_fractional_epochs(self, tmp_path, capsys):
        d = tiny_dict(tmp_path / "out")
        d["train"]["epochs"] = 2.7
        path = write_config(tmp_path, d)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        assert "train.epochs: expected an integer, got 2.7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_bad_seeds_flag(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out"))
        assert main(["run", str(path), "--seeds", "1,x", "--quiet"]) == EXIT_CONFIG_ERROR
        assert "--seeds" in capsys.readouterr().err

    def test_run_empty_seeds_flag(self, tmp_path, monkeypatch, capsys):
        # "," parses to no seeds at all; the committed config must not start training.
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(REPO_CONFIGS / "full_kl.json"), "--seeds", ",", "--quiet"]) == EXIT_CONFIG_ERROR
        assert "--seeds" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("flags", [
        ["--seeds", "1,1"], ["--seeds", "-1"], ["--out-dir", ""],
    ], ids=["duplicate_seeds", "negative_seed", "empty_out_dir"])
    def test_rejected_override_fails_before_any_write(self, tmp_path, monkeypatch, capsys, command, flags):
        paths = [write_config(tmp_path, tiny_dict(tmp_path / "out"), name=f"{c}.json") for c in "ab"]
        monkeypatch.chdir(tmp_path)
        configs = [str(paths[0])] if command == "run" else [str(p) for p in paths]
        assert main([command, *configs, *flags, "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"config error: {flags[0]}: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_run_divergence_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out", lr=1e200, seeds=(0,)))
        assert main(["run", str(path), "--quiet"]) == EXIT_FAILURE
        assert "seed 0: FAILED" in capsys.readouterr().out

    def test_run_divergence_leaks_no_numpy_warning(self, tmp_path, capsys):
        # The smoke config with a step so large that the first val evaluation overflows.
        d = json.loads((REPO_CONFIGS / "smoke.json").read_text(encoding="utf-8"))
        d["dataset"]["n"], d["train"]["epochs"], d["train"]["lr"] = 60, 2, 1e308
        d["out_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, d)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(path), "--quiet"]) == EXIT_FAILURE
        out, err = capsys.readouterr()
        error = (r"epoch 1, val evaluation: non-finite activations in forward pass "
                 r"at batch row\(s\) \[[\d, ]+\]; sample id\(s\) \[[\d, ]+\]")
        assert re.fullmatch(rf"seed 0: FAILED \({error}\)\n", out), out
        assert re.fullmatch(rf"seed 0 diverged: {error}\n", err), err
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_compare_divergence_exit_code(self, tmp_path, capsys):
        pa = write_config(tmp_path, tiny_dict(tmp_path / "a", lr=1e200, seeds=(0,)), name="a.json")
        pb = write_config(tmp_path, tiny_dict(tmp_path / "b", seeds=(0,)), name="b.json")
        assert main(["compare", str(pa), str(pb), "--quiet"]) == EXIT_FAILURE
        assert "training failure: cannot compare: seed(s) [0] diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, error", [
        ([], "config: expected a JSON object"),
        ({**tiny_dict("out"), "grid": 5}, "grid: expected a JSON object"),
    ], ids=["top_level_list", "grid_number"])
    def test_non_object_section_exit_code(self, tmp_path, capsys, raw, error):
        path = write_config(tmp_path, raw)
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"config error: {error}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("stop, step", [(1e300, 1e-300), (1e15, 1.0)], ids=["infinite_count", "petabytes"])
    def test_grid_too_big_to_allocate_is_a_config_error_before_any_write(
            self, tmp_path, monkeypatch, capsys, stop, step):
        # An infinite bin count, whose round() overflows, and 7.11 PiB of grid values.
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, {**tiny_dict("out"), "grid": {"start": 0.0, "stop": stop, "step": step}})
        assert main(["run", "cfg.json", "--quiet"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            f"config error: grid.step: the bins of [0.0, {stop!r}] at step {step!r} need at least "
            f"{MAX_BINS} float64 values: a whole 128 TiB address space\n")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_config_nested_past_the_decoder_depth_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        assert main(["run", str(path), "--quiet"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: invalid JSON: ") and err.count("\n") == 1

    @pytest.mark.parametrize("row_ids, error", [
        (["99999999999999999999999", "1"], "line 2: id outside the int64 range"),
        (["0", "0"], "line 3: id 0 repeats line 2"),
    ], ids=["id_beyond_int64", "repeated_id"])
    def test_bad_csv_id_is_a_config_error_naming_its_line(self, tmp_path, capsys, row_ids, error):
        path = tmp_path / "data.csv"
        save_csv(gen_synthetic(60, 3, LabelGrid(0.0, 100.0, 1.0), (2.0, 6.0), 1), path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        for i, new_id in enumerate(row_ids, start=1):
            lines[i] = new_id + lines[i][lines[i].index(","):]
        path.write_text("".join(lines), encoding="utf-8")
        d = tiny_dict(tmp_path / "out")
        d["dataset"] = {"type": "csv", "path": str(path)}
        assert main(["run", str(write_config(tmp_path, d)), "--quiet"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: cannot build dataset: {path}: 1 invalid row(s): {error}\n"
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG_ERROR

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_CONFIG_ERROR

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "run" in capsys.readouterr().out

    def test_gen_data(self, tmp_path, capsys, monkeypatch):
        path = write_config(tmp_path, tiny_dict(tmp_path / "out"))
        out_csv = tmp_path / "data.csv"
        saved = []
        save_csv = fullkl.data.save_csv
        monkeypatch.setattr(fullkl.data, "save_csv", lambda ds, dest: (saved.append(ds), save_csv(ds, dest)))
        assert main(["gen-data", str(path), str(out_csv)]) == EXIT_OK
        assert len(saved) == 1 and "target_pmfs" not in vars(saved[0])
        assert "wrote 60 samples" in capsys.readouterr().out
        first = out_csv.read_text(encoding="utf-8").splitlines()[0]
        assert first == "id,f0,f1,f2,mean,std"

    @pytest.mark.parametrize("command, blocked", [
        ("run", "runs/a/summary.csv"),
        ("compare", "rep/comparison.txt"),
        ("gen-data", "no_such_dir"),
    ])
    def test_failed_output_write_is_one_config_error_line(self, tmp_path, monkeypatch, capsys, command, blocked):
        # A directory stands where run's or compare's last file goes, so it fails only after training;
        # gen-data's CSV lies in a directory that does not exist.
        monkeypatch.chdir(tmp_path)
        pa = write_config(tmp_path, tiny_dict("runs/a", seeds=(0,), epochs=1), name="a.json")
        pb = write_config(tmp_path, tiny_dict("runs/b", "reference", 1.0, seeds=(0,), epochs=1), name="b.json")
        if command != "gen-data":
            (tmp_path / blocked).mkdir(parents=True)
        args = {"run": ["run", str(pa), "--quiet"], "gen-data": ["gen-data", str(pa), "no_such_dir/data.csv"],
                "compare": ["compare", str(pa), str(pb), "--out-dir", "rep", "--quiet"]}[command]
        assert main(args) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write: ") and err.count("\n") == 1
        assert f"'{blocked}'" in err
        assert list(tmp_path.rglob("*.tmp")) == []

    @pytest.mark.parametrize("out_csv, error", [
        ("", "out_csv: expected a non-empty path"),
        (".", "out_csv: expected a path that names a file, got '.'"),
        ("/", "out_csv: expected a path that names a file, got '/'"),
        ("..", "out_csv: expected a path that names a file, got '..'"),
        ("d\0.csv", "out_csv: expected a path without a NUL character, got 'd\\x00.csv'"),
    ], ids=["empty", "dot", "root", "parent_dir", "nul"])
    def test_gen_data_path_must_name_a_file(self, tmp_path, monkeypatch, capsys, out_csv, error):
        path = write_config(tmp_path, tiny_dict("out"))
        monkeypatch.chdir(tmp_path)
        built = []
        monkeypatch.setattr(fullkl.runner, "build_dataset", lambda *args: built.append(args))
        assert main(["gen-data", str(path), out_csv]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert built == []
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_compare_cli_with_out_dir(self, tmp_path, capsys):
        pa = write_config(tmp_path, tiny_dict(tmp_path / "ignored_a"), name="a.json")
        pb = write_config(
            tmp_path, tiny_dict(tmp_path / "ignored_b", family="reference", lam=1.0), name="b.json"
        )
        code = main([
            "compare", str(pa), str(pb), "--out-dir", str(tmp_path / "cmp"),
            "--seeds", "0", "--quiet",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "cmp" / "comparison.csv").is_file()
        assert (tmp_path / "cmp" / "comparison.txt").is_file()
        assert (tmp_path / "cmp" / "a" / "summary.csv").is_file()
        assert (tmp_path / "cmp" / "b" / "summary.csv").is_file()
        out = capsys.readouterr().out
        assert "relative difference" in out and "report:" in out

    @pytest.mark.parametrize("sections, error", [
        pytest.param({"dataset": {"type": "synthetic", "n": 60, "d_in": 3, "sigma_range": [0.1, 0.2], "seed": 1}},
                     "cannot build dataset: ", id="sigma_below_floor"),
        pytest.param({"dataset": {"type": "csv", "path": "absent.csv"}}, "cannot build dataset: ", id="missing_csv"),
        # sigma = step / 2 is allowed, but on a 1e-4 step its pmf variance is below EPS_VAR
        pytest.param({"dataset": {"type": "synthetic", "n": 60, "d_in": 3, "sigma_range": [5e-5, 1e-4], "seed": 1},
                      "grid": {"start": 0.0, "stop": 0.01, "step": 1e-4}},
                     "cannot build dataset: target sigma ", id="target_variance_below_eps_var"),
        pytest.param({"dataset": {"type": "synthetic", "n": 3, "d_in": 3, "sigma_range": [2.0, 6.0], "seed": 1},
                      "train": {"val_fraction": 0.1}},
                     "train.val_fraction 0.1 yields an empty split for 3 samples", id="empty_val_split"),
        pytest.param({"dataset": {"type": "synthetic", "n": 3, "d_in": 3, "sigma_range": [2.0, 6.0], "seed": 1},
                      "train": {"val_fraction": 0.9}},
                     "train.val_fraction 0.9 yields an empty split for 3 samples", id="empty_train_split"),
        # Sizes beyond the 128 TiB address space fail at once; sizes that fit it but not RAM are left untested.
        pytest.param({"dataset": {"type": "synthetic", "n": 10**15, "d_in": 3, "sigma_range": [2.0, 6.0], "seed": 1}},
                     "dataset.n: 1000000000000000 samples of 3 features need at least "
                     f"{MAX_BINS} float64 values: a whole 128 TiB address space\n", id="n_beyond_address_space"),
        pytest.param({"dataset": {"type": "synthetic", "n": 60, "d_in": 10**15, "sigma_range": [2.0, 6.0], "seed": 1}},
                     "dataset.n: 60 samples of 1000000000000000 features need at least ",
                     id="d_in_beyond_address_space"),
        pytest.param({"train": {"hidden": [10**15]}},
                     "train.hidden: dims (3, 1000000000000000, 101) need at least "
                     f"{MAX_BINS} float64 values: a whole 128 TiB address space\n", id="hidden_beyond_address_space"),
    ])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_failed_dataset_build_creates_no_directory(self, tmp_path, monkeypatch, capsys, command, sections, error):
        monkeypatch.chdir(tmp_path)
        configs = []
        for name, family, lam in (("a", "full_kl", None), ("b", "reference", 1.0)):
            d = tiny_dict(f"runs/{name}", family=family, lam=lam)
            for section, values in sections.items():
                d[section] = {**d[section], **values} if section == "train" else values
            configs.append(str(write_config(tmp_path, d, name=f"{name}.json")))
        args = [configs[0]] if command == "run" else [*configs, "--out-dir", "cmp"]
        assert main([command, *args, "--quiet"]) == EXIT_CONFIG_ERROR
        assert f"config error: {error}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    @pytest.mark.parametrize("body, error", [
        (b"0,0.5,50.0,2.0\n1," + b"1" * 200_000 + b",50.0,2.0\n", "line 3: field larger than field limit (131072)"),
        (b'"0",0.5,50.0,2.0\n1,"0.5\n",50.0,2.0\n2,0.5,150.0,2.0\n',
         "1 invalid row(s): line 5: mean 150.0 outside the grid span"),
        (b"0,0.5,50.0,2.0\n1,0.5\xff,50.0,2.0\n", "line 3: not UTF-8 text"),
    ], ids=["field_over_csv_limit", "row_after_multiline_field", "not_utf8"])
    def test_csv_refusal_is_a_config_error_naming_file_and_line(self, tmp_path, monkeypatch, capsys, body, error):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.csv").write_bytes(b"id,f0,mean,std\n" + body)
        d = tiny_dict("runs/a")
        d["dataset"] = {"type": "csv", "path": "in.csv"}
        assert main(["run", str(write_config(tmp_path, d)), "--quiet"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: cannot build dataset: in.csv: {error}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "in.csv"]

    def test_compare_refuses_a_shared_out_dir_before_any_write(self, tmp_path, monkeypatch, capsys):
        # a relative path and an absolute one with ".." that resolve to the same directory
        monkeypatch.chdir(tmp_path)
        pa = write_config(tmp_path, tiny_dict("runs/x"), name="a.json")
        pb = write_config(
            tmp_path, tiny_dict(tmp_path / "runs" / "y" / ".." / "x", family="reference", lam=1.0), name="b.json"
        )
        assert main(["compare", str(pa), str(pb), "--quiet"]) == EXIT_CONFIG_ERROR
        shared = (tmp_path / "runs" / "x").resolve()
        assert f"config error: compare requires distinct out_dir, both write to {shared}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_compare_refuses_config_b_out_dir_under_a_file_before_any_write(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("file, not a directory", encoding="utf-8")
        pa = write_config(tmp_path, tiny_dict("runs/a"), name="a.json")
        pb = write_config(tmp_path, tiny_dict("afile/b", family="reference", lam=1.0), name="b.json")
        assert main(["compare", str(pa), str(pb), "--quiet"]) == EXIT_CONFIG_ERROR
        assert "config error: cannot create output dir afile/b: afile is not a directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "afile", "b.json"]

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    @pytest.mark.parametrize("entry", ["compare", "main"])
    def test_compare_refuses_config_b_network_before_config_a_trains(
            self, tmp_path, monkeypatch, capsys, entry, source):
        # Config b's network is refused when its config is built; a CSV source is taken as 1 feature wide.
        monkeypatch.chdir(tmp_path)
        calls, train = [], fullkl.runner.train_run
        monkeypatch.setattr(fullkl.runner, "train_run", lambda *args, **kw: calls.append(args) or train(*args, **kw))
        da, db = tiny_dict("runs/a"), tiny_dict("runs/b", family="reference", lam=1.0)
        db["train"]["hidden"] = [10**15]
        inputs, d_in, bins = ["a.json", "b.json"], 3, 101
        if source == "csv":
            two_bin_csv(tmp_path / "in.csv")
            inputs, d_in, bins = [*inputs, "in.csv"], 1, 2
            for d in (da, db):
                d.update(dataset={"type": "csv", "path": "in.csv"}, grid={"start": 0.0, "stop": 1.0, "step": 1.0})
        error = (f"train.hidden: dims ({d_in}, 1000000000000000, {bins}) need at least {MAX_BINS} float64 values: "
                 "a whole 128 TiB address space")
        pa, pb = (write_config(tmp_path, d, name=name) for d, name in ((da, "a.json"), (db, "b.json")))
        if entry == "main":
            assert main(["compare", str(pa), str(pb), "--quiet"]) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err == f"config error: {error}\n"
        else:
            with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
                compare(config_from_dict(da), config_from_dict(db), quiet=True)
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    @pytest.mark.parametrize("command, a_dir, flags, error", [
        ("run", "runs/a\0x", [], "out_dir: expected a path without a NUL character, got 'runs/a\\x00x'"),
        ("compare", "runs/a", [], "out_dir: expected a path without a NUL character, got 'runs/b\\x00x'"),
        ("run", "runs/a", ["--out-dir", "r\0x"], "--out-dir: expected a path without a NUL character, got 'r\\x00x'"),
        ("compare", "runs/a", ["--out-dir", "r\0x"],
         "--out-dir: expected a path without a NUL character, got 'r\\x00x'"),
    ], ids=["run", "compare", "run_out_dir_flag", "compare_out_dir_flag"])
    def test_nul_in_out_dir_is_a_config_error_before_any_write(
            self, tmp_path, monkeypatch, capsys, command, a_dir, flags, error):
        # JSON can carry "\u0000"; the OS refuses it in a path. Without --out-dir, compare's is in config b.
        monkeypatch.chdir(tmp_path)
        calls = []
        monkeypatch.setattr(fullkl.runner, "train_run", lambda *args, **kwargs: calls.append(args))
        pa = write_config(tmp_path, tiny_dict(a_dir), name="a.json")
        pb = write_config(tmp_path, tiny_dict("runs/b" if flags else "runs/b\0x", family="reference", lam=1.0),
                          name="b.json")
        configs = [str(pa)] if command == "run" else [str(pa), str(pb)]
        assert main([command, *configs, *flags, "--quiet"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {error}\n"
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_verify_cli(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_runner_module_runs_the_checks(self):
        # python -m fullkl.runner runs main, not only defines it: a run that checked nothing must not exit 0
        proc = subprocess.run([sys.executable, "-m", "fullkl.runner", "verify"], env=package_env(),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert proc.stdout.splitlines()[-1] == "verification: 8/8 checks passed"

    def test_verify_cli_json_matches_run_all_checks(self, capsys):
        assert main(["verify", "--json"]) == EXIT_OK
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        expected = run_all_checks()
        assert [r["name"] for r in records] == [c.name for c in expected]
        for rec, c in zip(records, expected):
            assert set(rec) == {"name", "passed", "max_error", "max_error_hex", "detail"}
            assert rec["passed"] is c.passed and rec["detail"] == c.detail
            assert rec["max_error"] == float.fromhex(rec["max_error_hex"]) == c.max_error

    def test_verify_cli_json_failing_check(self, monkeypatch, capsys):
        failing = (CheckResult("sweep", True, 0.5, "a"), CheckResult("minima", False, float("nan"), "b"))
        monkeypatch.setattr(fullkl.runner, "run_all_checks", lambda: failing)
        assert main(["verify", "--json"]) == EXIT_FAILURE
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"name": "sweep", "passed": True, "max_error": 0.5, "max_error_hex": "0x1.0000000000000p-1", "detail": "a"},
            {"name": "minima", "passed": False, "max_error": None, "max_error_hex": "nan", "detail": "b"},
        ]
