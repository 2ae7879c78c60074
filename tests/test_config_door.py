"""The config input door, as a property over mutated config files.

Each example mutates a tiny valid config (eight samples, one epoch of a
4-unit network): one key of the JSON tree, a section or a list entry, set to
one of 17 bad values; or the whole file truncated, given a non-UTF-8 byte,
or given a key twice in one object.  ``fullkl run`` on it must return 0, 1
or 2 and never raise; on 1 (a config error) it prints one ``config error:``
line and leaves the file system as it was.  ``train.epochs`` of 10**400 or
1e308 is a whole number at or above 2**63, so it is refused like any other
bad value instead of training until killed.
"""

import contextlib
import copy
import io
import json
import math
import os
from functools import reduce

from hypothesis import example, given, settings, strategies as st

from fullkl.runner import EXIT_CONFIG_ERROR, EXIT_FAILURE, EXIT_OK, main

VALID = {
    "dataset": {"type": "synthetic", "n": 8, "d_in": 2, "sigma_range": [1.0, 2.0], "seed": 1},
    "grid": {"start": 0.0, "stop": 20.0, "step": 1.0},
    "loss": {"family": "full_kl"},
    "train": {"epochs": 1, "batch_size": 4, "lr": 1e-3, "lr_decay_factor": 0.1, "lr_decay_every": 30,
              "hidden": [4], "val_fraction": 0.25},
    "seeds": [0],
    "out_dir": "out",
}
BAD_VALUES = [None, True, "x", "", "\u0000", [], [[]], {}, math.nan, math.inf, -1, 0, 10**400, 1e308, -0.0, 2.5,
              "1"]


def _paths(node, path=()):
    """The path from the root of every key and list entry below ``node``."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


PATHS = list(_paths(VALID))
KEYS = [p for p in PATHS if isinstance(p[-1], str)]


def _encode(node, repeat=None, path=()) -> str:
    """``json.dumps(node)``, with the key path ``repeat`` written twice in its object."""
    if not isinstance(node, dict):
        return json.dumps(node)
    items = [f"{json.dumps(k)}: {_encode(v, repeat, path + (k,))}" for k, v in node.items()]
    if repeat is not None and repeat[:-1] == path:
        items.append(items[list(node).index(repeat[-1])])
    return "{" + ", ".join(items) + "}"


def _with(path, value) -> bytes:
    """The valid config's file with the key or entry at ``path`` set to ``value``."""
    cfg = copy.deepcopy(VALID)
    reduce(lambda node, key: node[key], path[:-1], cfg)[path[-1]] = value
    return _encode(cfg).encode()


@st.composite
def mutated_config(draw) -> bytes:
    kind = draw(st.sampled_from(["set", "truncate", "non_utf8", "repeat_key"]))
    if kind == "set":
        path = draw(st.sampled_from(PATHS))
        return _with(path, draw(st.sampled_from(BAD_VALUES)))
    if kind == "repeat_key":
        return _encode(VALID, draw(st.sampled_from(KEYS))).encode()
    content = _encode(VALID).encode()
    at = draw(st.integers(0, len(content)))
    if kind == "truncate":
        return content[:at]
    return content[:at] + bytes([draw(st.integers(0x80, 0xff))]) + content[at:]


def _tree(root) -> dict:
    """Every path below ``root`` with its bytes (None for a directory)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def run(root) -> tuple[int, str, str]:
    """``main(["run", "cfg.json"])`` run in ``root``: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)  # a relative out_dir lands in the example's own directory
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", "cfg.json"])
    finally:
        os.chdir(cwd)
    return code, stdout.getvalue(), stderr.getvalue()


# The single-key space alone is 26 paths x 17 values; a run takes a few ms.
@settings(max_examples=200)
@given(content=mutated_config())
@example(content=_with(("seeds", 0), 10**400))  # trained, then could not name its metrics file
@example(content=_with(("seeds", 0), 1e308))
@example(content=_with(("train", "lr"), 1e308))  # diverges: exit 2
@example(content=_with(("train", "epochs"), 10**400))  # loaded, made out_dir and trained until killed
@example(content=_with(("train", "epochs"), 1e308))
def test_mutated_config_runs_or_is_refused_cleanly(tmp_path_factory, content):
    root = tmp_path_factory.mktemp("door")
    (root / "cfg.json").write_bytes(content)
    before = _tree(root)
    code, stdout, stderr = run(root)
    assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_FAILURE)
    if code == EXIT_CONFIG_ERROR:
        lines = stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: "), stderr
        assert stdout == ""
        assert _tree(root) == before


def test_unmutated_config_trains(tmp_path):
    (tmp_path / "cfg.json").write_bytes(_encode(VALID).encode())
    code, stdout, _ = run(tmp_path)
    assert code == EXIT_OK
    assert stdout.startswith("seed 0: final val MAE ")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["metrics_seed0.csv", "model_seed0.ckpt",
                                                                     "summary.csv"]
