"""Synthetic distribution-regression datasets and (mean, std) CSV ingestion.

Each sample pairs a feature vector with an annotated (mean, std) target.
A ``Dataset`` stores exactly those columns; the Gaussian target pmfs on the
evenly spaced label grid are derived from them on first use.  The std is at
least half the bin spacing and the mean lies inside the grid span; the
generator draws targets that hold both, and the CSV loader and ``Dataset``
reject any that do not.  ``Dataset`` also rejects a narrowest target whose
pmf, put on a grid edge, has a variance below ``EPS_VAR``.  Datasets are
immutable and store column arrays, the layout the trainer batches from; every
builder, pickle and copy goes through the ``Dataset`` constructor, which
copies and checks them.
"""

from __future__ import annotations

import csv
import logging
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .grid import (
    EPS_VAR, PMF_SUM_TOL, LabelGrid, _allocatable, _number, _whole_int, gaussian_probs, pmf_moments, row_blocks)

__all__ = [
    "Dataset",
    "DatasetSpec",
    "atomic_write",
    "gen_synthetic",
    "load_csv",
    "save_csv",
    "split",
    "val_count",
]

log = logging.getLogger(__name__)

# The deterministic smooth map behind gen_synthetic: an affine projection of
# the features plus a sinusoid of a second projection, min-max rescaled into
# the safe target range.  The sinusoid's amplitude is relative to the affine
# direction's norm and its frequency is in radians per unit of the second
# projection; together they set how hard the regression task is for a small
# network, which is what keeps desk-scale validation losses off the floor.
SINE_AMP_REL = 1.0
SINE_FREQ = 2.0

# Keep generated means at least this many max-sigmas inside the grid edges so
# target pmfs are not visibly truncated and moment recovery stays clean.
MEAN_EDGE_SIGMAS = 3.0


def _sample_ids(values) -> np.ndarray:
    """``values`` as a fresh 1-D int64 array: whole numbers within int64, none given twice."""
    # Python objects, not a common dtype, for a list: [2**62 + 1, 3.0] as float64 would round the first.
    raw = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    if raw.ndim != 1:
        raise ValueError(f"ids: expected a flat sequence of ids, got shape {raw.shape}")
    if raw.dtype.kind != "i":  # only a signed integer dtype converts to int64 exactly
        whole = [_whole_int(v, "ids") for v in raw.tolist()]
        outside = [v for v in whole if not -2**63 <= v < 2**63]
        if outside:
            raise ValueError(f"ids: id {outside[0]} is outside the int64 range")
        raw = np.array(whole, dtype=np.int64)
    ids = raw.astype(np.int64)
    unique, counts = np.unique(ids, return_counts=True)
    if unique.size != ids.size:
        raise ValueError(f"ids: id(s) {unique[counts > 1][:10].tolist()} given more than once")
    return ids


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column store of samples sharing one label grid.

    ``Dataset(grid, ids, features, target_mu, target_sigma)`` is the only way
    in: it copies, checks and freezes the caller's arrays, and pickling and
    copying rebuild through it, without the cached tables.  ``ids`` must be
    a flat sequence of whole numbers within int64, each given once (so
    ``subset`` refuses a repeated index).  ``target_pmfs`` is derived, not
    stored: it is built on first access.  Datasets compare and hash by
    identity.
    """

    grid: LabelGrid
    ids: np.ndarray
    features: np.ndarray
    target_mu: np.ndarray
    target_sigma: np.ndarray

    def __post_init__(self):
        ids = _sample_ids(self.ids)
        feats, mu, sigma = (np.array(a, dtype=np.float64) for a in (self.features, self.target_mu, self.target_sigma))
        n = ids.size
        if n == 0:
            raise ValueError("dataset must not be empty")
        if feats.ndim != 2 or feats.shape[0] != n or feats.shape[1] < 1:
            raise ValueError(f"features must have shape ({n}, d_in >= 1), got {feats.shape}")
        if mu.shape != (n,) or sigma.shape != (n,):
            raise ValueError("target_mu and target_sigma must be one value per sample")
        if not (np.all(np.isfinite(feats)) and np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ValueError("dataset values must be finite")
        g = self.grid
        if np.any(sigma < g.sigma_floor):
            raise ValueError(f"target sigma below the {g.sigma_floor!r} floor")
        if np.any(mu < g.lo) or np.any(mu > g.hi):
            raise ValueError("target means must lie within the grid span")
        # The narrowest target with its mean on a grid edge has the smallest pmf
        # variance of any target here, and the losses need it at or above EPS_VAR.
        narrowest = float(sigma.min())
        var = float(pmf_moments(gaussian_probs(g.lo, narrowest, g.values), g.values)[1])
        if var < EPS_VAR:
            raise ValueError(f"target sigma {narrowest!r} on a grid step of {g.spacing!r} gives a pmf variance "
                             f"of {var:.3g}, below the EPS_VAR floor of {EPS_VAR!r} label units squared")
        for arr, name in ((ids, "ids"), (feats, "features"), (mu, "target_mu"), (sigma, "target_sigma")):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __reduce__(self):
        return Dataset, (self.grid, self.ids, self.features, self.target_mu, self.target_sigma)

    def __len__(self) -> int:
        return int(self.ids.size)

    @property
    def d_in(self) -> int:
        return int(self.features.shape[1])

    @cached_property
    def target_pmfs(self) -> np.ndarray:
        """Read-only (rows, n_bins) ``gaussian_probs`` rows of the (mean, std) targets.

        Built on first access, so a dataset that is only split or saved never
        holds the table.  The constructor's sigma-floor and grid-span checks
        are grid.discretize_gaussian's, so they hold row by row.  The rows are
        filled one ``row_blocks`` block at a time, so no temporary spans the
        whole table, and a row's bits do not depend on the rows around it: a
        subset's rows equal its parent's.
        """
        pmfs = np.empty((len(self), len(self.grid)))
        mu, sigma = self.target_mu[:, np.newaxis], self.target_sigma[:, np.newaxis]
        for rows in row_blocks(len(self)):
            pmfs[rows] = gaussian_probs(mu[rows], sigma[rows], self.grid.values)
        # min() and the row sums reduce without a (rows, n_bins) temporary;
        # the negated comparisons also reject NaN entries.
        if not (pmfs.min() >= 0 and np.all(np.abs(pmfs.sum(axis=1) - 1.0) <= PMF_SUM_TOL)):
            raise ValueError("target pmf rows must be non-negative and sum to 1")
        pmfs.flags.writeable = False
        return pmfs

    @cached_property
    def target_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``pmf_moments`` (mu, var) of every target pmf row.

        Computed on first access, not at construction, so building a dataset
        costs nothing extra.  The moments are per-row reductions, so a row's
        values are the bits ``pmf_moments`` gives for any batch holding it;
        they are computed one ``row_blocks`` block at a time.
        """
        mu = np.empty(len(self))
        var = np.empty(len(self))
        for rows in row_blocks(len(self)):
            mu[rows], var[rows] = pmf_moments(self.target_pmfs[rows], self.grid.values)
        mu.flags.writeable = var.flags.writeable = False
        return mu, var

    def subset(self, indices: np.ndarray) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        columns = (self.ids, self.features, self.target_mu, self.target_sigma)
        return Dataset(self.grid, *(col[idx] for col in columns))


@dataclass(frozen=True)
class DatasetSpec:
    """Dataset source: synthetic generator parameters or a CSV path; ``kind`` is the config's ``type``."""

    kind: str
    n: int = 0
    d_in: int = 0
    sigma_range: tuple[float, float] = (0.0, 0.0)
    seed: int = 0
    path: str = ""

    def __post_init__(self):
        for name in ("n", "d_in", "seed"):
            object.__setattr__(self, name, _whole_int(getattr(self, name), name))
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if self.kind == "synthetic":
            for name, value in (("n", self.n), ("d_in", self.d_in)):
                if value < 1:
                    raise ValueError(f"{name} must be >= 1 for a synthetic dataset, got {value!r}")
            _allocatable(self.n * self.d_in, f"n: {self.n} samples of {self.d_in} features")
            sr = self.sigma_range
            if not (isinstance(sr, (list, tuple)) and len(sr) == 2):
                raise ValueError(f"sigma_range: expected [lo, hi], got {sr!r}")
            object.__setattr__(self, "sigma_range", tuple(_number(v, "sigma_range") for v in sr))
        elif self.kind == "csv":
            if not (isinstance(self.path, str) and self.path):
                raise ValueError(f"path: expected a non-empty string, got {self.path!r}")
        else:
            raise ValueError(f"type: expected 'synthetic' or 'csv', got {self.kind!r}")


def gen_synthetic(
    n: int,
    d_in: int,
    grid: LabelGrid,
    sigma_range: tuple[float, float],
    seed: int,
) -> Dataset:
    """Deterministic synthetic dataset of ``n`` samples with ``d_in`` features.

    Features are uniform on [-1, 1]^d_in.  The target mean is a
    deterministic smooth map of the features — an affine projection plus a
    sinusoidal mixture — min-max rescaled into
    [grid.lo + 3*sigma_max, grid.hi - 3*sigma_max] so no target is visibly
    truncated.  The target std is uniform in ``sigma_range``.  The draw
    order (features, affine direction, sinusoid direction, sigmas) is part
    of the format: a given seed always produces the identical dataset.  ``DatasetSpec`` checks the arguments.
    """
    spec = DatasetSpec("synthetic", n, d_in, sigma_range, seed)
    n, d_in, seed, (sigma_lo, sigma_hi) = spec.n, spec.d_in, spec.seed, spec.sigma_range
    floor = grid.sigma_floor
    if not (floor <= sigma_lo <= sigma_hi <= grid.span / 4.0):
        raise ValueError(
            f"sigma_range must satisfy {floor} <= lo <= hi <= {grid.span / 4.0}, got ({sigma_lo}, {sigma_hi})"
        )
    lo_t = grid.lo + MEAN_EDGE_SIGMAS * sigma_hi
    hi_t = grid.hi - MEAN_EDGE_SIGMAS * sigma_hi
    if lo_t >= hi_t:
        raise ValueError("sigma_range too wide for the grid: no room for target means")

    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, (n, d_in))
    affine_dir = rng.normal(size=d_in)
    sine_dir = rng.normal(size=d_in)
    raw = features @ affine_dir + (
        SINE_AMP_REL * np.linalg.norm(affine_dir)
    ) * np.sin(SINE_FREQ * (features @ sine_dir))
    span = raw.max() - raw.min()
    if span > 0:
        target_mu = lo_t + (raw - raw.min()) * ((hi_t - lo_t) / span)
    else:
        target_mu = np.full(n, 0.5 * (lo_t + hi_t))
    target_sigma = rng.uniform(sigma_lo, sigma_hi, n)
    return Dataset(grid, np.arange(n, dtype=np.int64), features, target_mu, target_sigma)


@contextmanager
def atomic_write(path, binary: bool = False):
    """Write ``path`` through a temp file ``.<name>.<pid>.tmp`` beside it,
    moved over ``path`` by ``os.replace`` on a clean exit.  If the body
    raises, the temp file is removed and ``path`` keeps its previous
    content, so no reader ever sees a half-written output.  A process
    killed before its ``os.replace`` leaves its temp file behind, so each
    write first removes every sibling named ``.<name>.<digits>.tmp``: a
    rerun clears what a kill left.  That is also why two processes must not
    write one output path at once.  Text mode is UTF-8 with no newline
    translation."""
    path = Path(path)
    stale = re.compile(re.escape(f".{path.name}.") + r"[0-9]+\.tmp")
    for sibling in path.parent.iterdir():
        if stale.fullmatch(sibling.name):
            sibling.unlink(missing_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(x) -> str:
    """Lossless, deterministic float-to-text (shortest round-trip repr); None is an empty cell."""
    return "" if x is None else repr(float(x))


def _write_table(path, comments, columns, rows) -> None:
    """Write one CSV atomically: a ``# `` line per comment, the header, then the rows (lists of unquoted cells)."""
    with atomic_write(path) as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _csv_header(d_in: int) -> list[str]:
    return ["id"] + [f"f{j}" for j in range(d_in)] + ["mean", "std"]


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the CSV annotation schema (lossless float text), atomically."""
    rows = ([str(int(i)), *map(_fmt, x), _fmt(mu), _fmt(sigma)]
            for i, x, mu, sigma in zip(ds.ids, ds.features, ds.target_mu, ds.target_sigma))
    _write_table(path, [], _csv_header(ds.d_in), rows)


def _csv_records(path: Path, fh):
    """(line where the record starts, fields) for each record of the open CSV ``fh``.

    A record the csv module refuses (a field over its size limit) or one
    holding bytes that are not UTF-8 (``fh`` decodes with
    ``surrogateescape``, so they arrive as lone surrogates) is a ValueError
    naming ``path`` and that line.
    """
    reader = csv.reader(fh)
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise ValueError(f"{path}: line {line_no}: {exc}") from None
        try:
            "".join(row).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"{path}: line {line_no}: not UTF-8 text") from None
        yield line_no, row


def load_csv(path, grid: LabelGrid) -> Dataset:
    """Load a UTF-8 annotation CSV (header ``id,f0,...,f{d-1},mean,std``; fields may be quoted).

    Every row must hold an int64 id that no earlier row holds and satisfy
    the sample invariants (std at or above half the bin spacing, mean inside
    the grid span); offending rows fail the load with the file line where
    each starts (a quoted field may span lines), a repeated id with the line
    that first held it.  Every refusal is a ValueError that names ``path``;
    a record that is not UTF-8, or that the csv module cannot read, stops
    the load at once.  Rows whose mean sits within ``MEAN_EDGE_SIGMAS``
    sigmas of a grid edge are accepted but counted in a truncation warning,
    since their pmfs are visibly clipped.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such annotation file: {path}")
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        records = _csv_records(path, fh)
        _, header = next(records, (None, None))
        if header is None:
            raise ValueError(f"{path}: empty file")
        d_in = len(header) - 3
        if d_in < 1 or header != _csv_header(d_in):
            raise ValueError(f"{path}: header must be id,f0,...,f{{d-1}},mean,std")
        ids, feats, mus, sigmas = [], [], [], []
        id_lines: dict[int, int] = {}  # id -> the line that first held it
        bad: list[str] = []
        for line_no, row in records:
            if not row:
                continue
            if len(row) != d_in + 3:
                bad.append(f"line {line_no}: expected {d_in + 3} fields, got {len(row)}")
                continue
            try:
                rid = int(row[0])
                vals = [float(v) for v in row[1:]]
            except ValueError:
                bad.append(f"line {line_no}: unparseable numeric field")
                continue
            mean, std = vals[-2], vals[-1]
            first = id_lines.setdefault(rid, line_no)
            if not -2**63 <= rid < 2**63:
                bad.append(f"line {line_no}: id outside the int64 range")
            elif first != line_no:
                bad.append(f"line {line_no}: id {rid} repeats line {first}")
            elif not all(np.isfinite(v) for v in vals):
                bad.append(f"line {line_no}: non-finite value")
            elif std < grid.sigma_floor:
                bad.append(f"line {line_no}: std {std!r} below the sigma floor")
            elif not (grid.lo <= mean <= grid.hi):
                bad.append(f"line {line_no}: mean {mean!r} outside the grid span")
            else:
                ids.append(rid)
                feats.append(vals[:-2])
                mus.append(mean)
                sigmas.append(std)
        if bad:
            shown = "; ".join(bad[:10])
            more = f" (+{len(bad) - 10} more)" if len(bad) > 10 else ""
            raise ValueError(f"{path}: {len(bad)} invalid row(s): {shown}{more}")
        if not ids:
            raise ValueError(f"{path}: no data rows")
    try:
        ds = Dataset(grid, ids, feats, mus, sigmas)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    mu, sigma = ds.target_mu, ds.target_sigma
    truncated = int(np.sum((mu - grid.lo < MEAN_EDGE_SIGMAS * sigma) | (grid.hi - mu < MEAN_EDGE_SIGMAS * sigma)))
    if truncated:
        log.warning("%s: %d row(s) within %g sigma of a grid edge; their pmfs are visibly truncated",
                    path, truncated, MEAN_EDGE_SIGMAS)
    return ds


def val_count(n: int, val_fraction: float) -> int:
    """Validation rows of an ``n``-sample split, round(n * val_fraction); both parts must be non-empty."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must be in (0, 1), got {val_fraction!r}")
    n_val = int(round(n * val_fraction))
    if n_val == 0 or n_val == n:
        raise ValueError(f"val_fraction {val_fraction!r} yields an empty split for {n} samples")
    return n_val


def split(ds: Dataset, val_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle-then-partition into (train, val); disjoint and exhaustive."""
    n = len(ds)
    n_val = val_count(n, val_fraction)
    perm = np.random.default_rng(seed).permutation(n)
    val_idx = np.sort(perm[:n_val])
    train_idx = np.sort(perm[n_val:])
    return ds.subset(train_idx), ds.subset(val_idx)
