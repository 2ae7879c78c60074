"""The CSV input door, as a property over mutated annotation files.

Each example mutates a valid small CSV by rows (truncation, a duplicated
line) and by bytes (a flipped byte; an inserted ``"``, ``\\n``, ``\\r``,
NUL or 0xff byte; an inserted 200 KB field).  ``load_csv`` must return a
``Dataset`` or raise a ``ValueError`` whose message names the file, and
``fullkl run`` on a config that reads the file must exit 0 or 1, never
raise.  The run is one epoch of a 4-unit network on eight rows.
"""

import json

from hypothesis import example, given, strategies as st

from fullkl.data import Dataset, load_csv
from fullkl.grid import LabelGrid
from fullkl.runner import EXIT_CONFIG_ERROR, EXIT_OK, main

GRID = LabelGrid(0.0, 100.0, 1.0)
VALID = b"id,f0,f1,mean,std\n" + b"".join(
    f"{i},0.{i}5,-0.{7 - i}5,{20 + 8 * i}.0,{2 + i % 3}.5\n".encode() for i in range(8))
INSERTS = [b'"', b"\n", b"\r", b"\0", b"\xff", b"7" * 200_000]


@st.composite
def mutated_csv(draw) -> bytes:
    content = VALID
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "truncate_lines", "flip", "insert", "duplicate_line"]))
        lines = content.splitlines(keepends=True)
        # Offsets count from the end: draws favour small values, and the header is at the start.
        at = len(content) - draw(st.integers(0, len(content)))
        if kind == "truncate":
            content = content[:at]
        elif kind == "truncate_lines":
            content = b"".join(lines[:len(lines) - draw(st.integers(0, len(lines)))])
        elif kind == "flip" and at > 0:
            content = content[:at - 1] + bytes([content[at - 1] ^ 1 << draw(st.integers(0, 7))]) + content[at:]
        elif kind == "insert":
            content = content[:at] + draw(st.sampled_from(INSERTS)) + content[at:]
        elif kind == "duplicate_line" and lines:
            i, j = (len(lines) - 1 - draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            content = b"".join(lines[:j] + [lines[i]] + lines[j:])
    return content


def run_config(csv_path, out_dir) -> dict:
    return {
        "dataset": {"type": "csv", "path": str(csv_path)},
        "grid": {"start": GRID.lo, "stop": GRID.hi, "step": GRID.spacing},
        "loss": {"family": "full_kl"},
        "train": {"epochs": 1, "batch_size": 4, "lr": 1e-3, "lr_decay_factor": 0.1, "lr_decay_every": 30,
                  "hidden": [4], "val_fraction": 0.25},
        "seeds": [0],
        "out_dir": str(out_dir),
    }


@given(content=mutated_csv())
@example(content=VALID + b"8," + b"1" * 200_000 + b",0.5,50.0,2.5\n")
@example(content=VALID.replace(b"0.15", b"0.1\xff5"))
def test_mutated_csv_loads_or_names_its_file(tmp_path_factory, content):
    root = tmp_path_factory.mktemp("door")
    path = root / "in.csv"
    path.write_bytes(content)
    try:
        ds = load_csv(path, GRID)
    except ValueError as exc:
        assert str(path) in str(exc)
        ds = None
    assert ds is None or isinstance(ds, Dataset)
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(run_config(path, root / "out")), encoding="utf-8")
    code = main(["run", str(cfg_path), "--quiet"])
    assert code == EXIT_CONFIG_ERROR if ds is None else code in (EXIT_OK, EXIT_CONFIG_ERROR)


def test_unmutated_csv_trains(tmp_path):
    path = tmp_path / "in.csv"
    path.write_bytes(VALID)
    assert len(load_csv(path, GRID)) == 8
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(run_config(path, tmp_path / "out")), encoding="utf-8")
    assert main(["run", str(cfg_path), "--quiet"]) == EXIT_OK
