"""Synthetic data generation, CSV ingestion, and the train/val split."""

import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fullkl.data
from fullkl import runner
from fullkl.data import Dataset, gen_synthetic, load_csv, save_csv, split, val_count
from fullkl.grid import BLOCK_ROWS, EPS_VAR, LabelGrid, discretize_gaussian, gaussian_probs, pmf_moments
from fullkl.model import derive_seeds

G101 = LabelGrid(0.0, 100.0, 1.0)
REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def arrays_of(ds: Dataset) -> tuple[np.ndarray, ...]:
    """The columns a dataset stores, in constructor order."""
    return ds.ids, ds.features, ds.target_mu, ds.target_sigma


def traced_peak(build):
    """``build()`` and the peak bytes tracemalloc saw it allocate beyond what was live before."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    return (
        a.grid == b.grid
        and np.array_equal(a.ids, b.ids)
        and np.array_equal(a.features, b.features)
        and np.array_equal(a.target_mu, b.target_mu)
        and np.array_equal(a.target_sigma, b.target_sigma)
        and np.array_equal(a.target_pmfs, b.target_pmfs)
    )


# ---------------------------------------------------------------------------
# gen_synthetic
# ---------------------------------------------------------------------------

class TestGenSynthetic:
    def test_shapes_and_ranges(self):
        ds = gen_synthetic(200, 5, G101, (2.0, 6.0), seed=0)
        assert "target_pmfs" not in vars(ds)
        assert len(ds) == 200 and ds.d_in == 5
        np.testing.assert_array_equal(ds.ids, np.arange(200))
        assert np.all(ds.features >= -1.0) and np.all(ds.features <= 1.0)
        assert np.all(ds.target_sigma >= 2.0) and np.all(ds.target_sigma <= 6.0)
        # means are rescaled into [lo + 3*sigma_hi, hi - 3*sigma_hi]
        assert np.all(ds.target_mu >= 18.0) and np.all(ds.target_mu <= 82.0)
        assert ds.target_pmfs.shape == (200, 101)
        np.testing.assert_allclose(ds.target_pmfs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(ds.target_pmfs >= 0.0)

    def test_rescaled_means_touch_both_ends(self):
        ds = gen_synthetic(500, 5, G101, (2.0, 6.0), seed=0)
        assert ds.target_mu.min() == pytest.approx(18.0, abs=1e-9)
        assert ds.target_mu.max() == pytest.approx(82.0, abs=1e-9)

    def test_deterministic_bitwise(self):
        assert datasets_equal(
            gen_synthetic(50, 3, G101, (2.0, 6.0), seed=7),
            gen_synthetic(50, 3, G101, (2.0, 6.0), seed=7),
        )

    def test_seed_changes_dataset(self):
        a = gen_synthetic(50, 3, G101, (2.0, 6.0), seed=7)
        b = gen_synthetic(50, 3, G101, (2.0, 6.0), seed=8)
        assert not np.array_equal(a.features, b.features)

    def test_single_sample_centers_mean(self):
        ds = gen_synthetic(1, 3, G101, (2.0, 6.0), seed=0)
        assert ds.target_mu[0] == pytest.approx(50.0, abs=1e-12)

    def test_mean_depends_on_features(self):
        ds = gen_synthetic(100, 3, G101, (2.0, 6.0), seed=0)
        assert np.std(ds.target_mu) > 1.0

    @pytest.mark.parametrize(
        "n, d, sigma_range",
        [
            (0, 3, (2.0, 6.0)),
            (10, 0, (2.0, 6.0)),
            (10, 3, (0.4, 6.0)),   # lo below the 0.5 * spacing floor
            (10, 3, (6.0, 2.0)),   # reversed
            (10, 3, (2.0, 26.0)),  # hi above span / 4
        ],
    )
    def test_invalid_arguments_rejected(self, n, d, sigma_range):
        with pytest.raises(ValueError):
            gen_synthetic(n, d, G101, sigma_range, seed=0)

    def test_sigma_range_leaving_no_mean_room_rejected(self):
        # hi = 20 passes the span/4 cap but 3 sigma margins overlap
        with pytest.raises(ValueError, match="no room"):
            gen_synthetic(10, 3, G101, (17.0, 20.0), seed=0)


# ---------------------------------------------------------------------------
# Dataset invariants
# ---------------------------------------------------------------------------

class TestDataset:
    def base(self, n=4):
        return gen_synthetic(n, 3, G101, (2.0, 6.0), seed=1)

    def test_arrays_read_only(self):
        ds = self.base()
        for arr in (ds.ids, ds.features, ds.target_mu, ds.target_sigma, ds.target_pmfs):
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_target_moments_cached_lazily(self):
        # 6 rows fit one block; 2 * BLOCK_ROWS + 37 rows take three.
        for n in (6, 2 * BLOCK_ROWS + 37):
            ds = self.base(n)
            assert "target_moments" not in vars(ds) and "target_pmfs" not in vars(ds)
            mu, var = ds.target_moments
            ref_mu, ref_var = pmf_moments(ds.target_pmfs, G101.values)
            assert mu.tobytes() == ref_mu.tobytes() and var.tobytes() == ref_var.tobytes()
            assert ds.target_moments is ds.target_moments
            for arr in (mu, var):
                with pytest.raises(ValueError):
                    arr[0] = 0

    def test_constructor_copies_caller_arrays(self):
        arrays = [np.array(a) for a in arrays_of(self.base(6))]
        ds = Dataset(G101, *arrays)
        kept = [a.copy() for a in arrays]
        for a in arrays:
            a[...] = 0
        for got, want in zip(arrays_of(ds), kept):
            assert got.tobytes() == want.tobytes()

    def test_every_dataset_array_read_only(self, tmp_path):
        base = self.base(6)
        save_csv(base, tmp_path / "d.csv")
        datasets = [
            base,
            Dataset(G101, *[np.array(a) for a in arrays_of(base)]),
            load_csv(tmp_path / "d.csv", G101),
            base.subset(np.array([4, 1])),
            *split(base, 0.5, seed=0),
        ]
        for ds in datasets:
            for arr in arrays_of(ds) + (ds.target_pmfs, *ds.target_moments):
                assert not arr.flags.writeable

    def test_subset_shares_no_memory_with_parent(self):
        ds = self.base(6)
        for sub in (ds.subset(np.array([4, 1])), ds.subset(np.arange(6))):
            for a, b in zip(arrays_of(ds) + (ds.target_pmfs,), arrays_of(sub) + (sub.target_pmfs,)):
                assert not np.shares_memory(a, b)

    def test_build_and_moments_peak_below_one_and_a_half_results(self):
        # Pmfs and moments are built in row blocks, so the peak stays near the
        # result's own size, the derived pmf table included.
        def build():
            ds = gen_synthetic(5000, 16, G101, (2.0, 6.0), seed=0)
            ds.target_moments
            return ds

        ds, peak = traced_peak(build)
        nbytes = sum(a.nbytes for a in arrays_of(ds) + (ds.target_pmfs,))
        assert peak < 1.5 * nbytes, f"peak {peak} bytes for a {nbytes}-byte dataset"

    def test_subset_selects_rows_and_tags(self):
        ds = self.base(6)
        sub = ds.subset(np.array([4, 1]))
        assert not hasattr(sub, "split")
        np.testing.assert_array_equal(sub.ids, ds.ids[[4, 1]])
        np.testing.assert_array_equal(sub.features, ds.features[[4, 1]])
        np.testing.assert_array_equal(sub.target_pmfs, ds.target_pmfs[[4, 1]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Dataset(G101, np.array([], dtype=np.int64), np.zeros((0, 3)), np.zeros(0), np.zeros(0))

    def test_shape_mismatches_rejected(self):
        ds = self.base()
        with pytest.raises(ValueError):
            Dataset(G101, ds.ids, ds.features[:2], ds.target_mu, ds.target_sigma)
        with pytest.raises(ValueError):
            Dataset(G101, ds.ids, ds.features, ds.target_mu[:2], ds.target_sigma)

    @pytest.mark.parametrize("ids, error", [
        ([2**64], "id 18446744073709551616 is outside the int64 range"),
        ([-2**63 - 1], "id -9223372036854775809 is outside the int64 range"),
        (np.array([2**63], dtype=np.uint64), "id 9223372036854775808 is outside the int64 range"),
        ([1.7], "expected an integer, got 1.7"),
        (np.array([0.0, 1.7]), "expected an integer, got 1.7"),
        ([float("nan")], "expected an integer, got nan"),
        ([1, 1], "id(s) [1] given more than once"),
        (np.array([3, 5, 3, 5, 6]), "id(s) [3, 5] given more than once"),
        ([[7], [8]], "expected a flat sequence of ids, got shape (2, 1)"),
        (7, "expected a flat sequence of ids, got shape ()"),
    ], ids=["beyond_uint64", "below_int64", "uint64_above_int64", "fraction", "fraction_array", "nan",
            "repeated", "repeated_array", "column", "scalar"])
    def test_ids_must_be_distinct_whole_int64(self, ids, error):
        n = np.size(ids)
        with pytest.raises(ValueError, match=f"^{re.escape('ids: ' + error)}$"):
            Dataset(G101, ids, np.zeros((n, 1)), np.full(n, 50.0), np.full(n, 2.0))

    @pytest.mark.parametrize("ids", [
        [-2**63, 2**63 - 1, 3.0], [2**62 + 1, 3.0], np.array([7, 2**63 - 1], dtype=np.uint64), np.array([4.0, -2.0]),
    ], ids=["int64_bounds_and_whole_float", "large_int_beside_a_float", "uint64_in_range", "whole_float_array"])
    def test_whole_ids_within_int64_stored_exactly(self, ids):
        n = len(ids)
        ds = Dataset(G101, ids, np.zeros((n, 1)), np.full(n, 50.0), np.full(n, 2.0))
        assert ds.ids.dtype == np.int64 and ds.ids.tolist() == [int(i) for i in ids]

    def test_subset_with_a_repeated_index_rejected(self):
        ds = self.base(6)
        with pytest.raises(ValueError, match=re.escape(f"ids: id(s) [{ds.ids[2]}] given more than once")):
            ds.subset(np.array([2, 4, 2]))

    def test_non_finite_rejected(self):
        ds = self.base()
        feats = np.array(ds.features)
        feats[0, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Dataset(G101, ds.ids, feats, ds.target_mu, ds.target_sigma)

    def test_sigma_floor_enforced(self):
        ds = self.base()
        sigma = np.array(ds.target_sigma)
        sigma[0] = 0.4
        with pytest.raises(ValueError, match="floor"):
            Dataset(G101, ds.ids, ds.features, ds.target_mu, sigma)

    @pytest.mark.parametrize("step, admitted", [(3.2e-4, True), (3.0e-4, False), (1e-4, False)])
    def test_narrowest_target_variance_at_eps_var(self, step, admitted):
        # sigma = step / 2 at a grid edge has pmf variance ~0.106 step^2, below EPS_VAR for steps under ~3.07e-4
        g = LabelGrid(0.0, 100 * step, step)
        sigma = g.sigma_floor
        var = pmf_moments(gaussian_probs(g.lo, sigma, g.values), g.values)[1]
        assert bool(var >= EPS_VAR) is admitted
        columns = ([0, 1], [[0.0], [1.0]], [g.lo, g.hi / 2], [sigma, 10 * sigma])
        if admitted:
            Dataset(g, *columns)
        else:
            with pytest.raises(ValueError, match=f"target sigma {sigma!r} on a grid step of {step!r} .* EPS_VAR"):
                Dataset(g, *columns)

    def test_mean_span_enforced(self):
        ds = self.base()
        mu = np.array(ds.target_mu)
        mu[0] = 101.0
        with pytest.raises(ValueError, match="span"):
            Dataset(G101, ds.ids, ds.features, mu, ds.target_sigma)

    @pytest.mark.parametrize("fault", ["half_sum", "negative", "nan"])
    def test_derived_pmf_rows_checked_when_built(self, monkeypatch, fault):
        def faulty_gaussian_probs(mu, sigma, values):
            rows = gaussian_probs(mu, sigma, values)
            if fault == "half_sum":
                rows[0] *= 0.5
            elif fault == "negative":
                rows[0, :2] += [-0.25, 0.25]    # the row still sums to 1
            else:
                rows[0, 0] = np.nan
            return rows

        ds = self.base()
        monkeypatch.setattr(fullkl.data, "gaussian_probs", faulty_gaussian_probs)
        with pytest.raises(ValueError, match="non-negative and sum to 1"):
            ds.target_pmfs
        assert "target_pmfs" not in vars(ds)

    def test_split_is_keyword_only(self):
        # a stale call that still passes a pmf table or a split tag lands on no field
        ds = self.base()
        pmfs = np.array(ds.target_pmfs)
        with pytest.raises(TypeError):
            Dataset(G101, *arrays_of(ds), pmfs)
        with pytest.raises(TypeError):
            Dataset(G101, *arrays_of(ds), split="val")
        with pytest.raises(TypeError):
            ds.subset(np.array([0, 1]), "val")


# ---------------------------------------------------------------------------
# target pmf rows are the scalar discretization, bit for bit
# ---------------------------------------------------------------------------

TWO_BIN = LabelGrid(0.0, 1.0, 1.0)
HALF_STEP_NEG = LabelGrid(-5.0, 45.0, 0.5)
STEP3_NEG = LabelGrid(-30.0, 30.0, 3.0)


def assert_rows_are_discretize_gaussian(ds: Dataset):
    for i in range(len(ds)):
        expected = discretize_gaussian(float(ds.target_mu[i]), float(ds.target_sigma[i]), ds.grid)
        assert ds.target_pmfs[i].tobytes() == expected.probs.tobytes(), f"row {i}"


BLOCK_EDGE_SIZES = [1, 2, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 37]


def assert_rows_are_whole_array_gaussian_probs(ds: Dataset):
    whole = gaussian_probs(ds.target_mu[:, np.newaxis], ds.target_sigma[:, np.newaxis], ds.grid.values)
    assert ds.target_pmfs.tobytes() == whole.tobytes()


class TestBlockRowsMatchWholeArray:
    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_gen_synthetic_rows(self, n):
        assert_rows_are_whole_array_gaussian_probs(gen_synthetic(n, 3, G101, (2.0, 6.0), seed=n))

    @pytest.mark.parametrize("n", BLOCK_EDGE_SIZES)
    def test_load_csv_rows(self, tmp_path, n):
        save_csv(gen_synthetic(n, 3, G101, (2.0, 6.0), seed=n), tmp_path / "d.csv")
        assert_rows_are_whole_array_gaussian_probs(load_csv(tmp_path / "d.csv", G101))

    @pytest.mark.parametrize("n_val", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 36])
    def test_split_rows(self, n_val):
        # Each subset builds its own table in its own blocks; its rows come
        # from every block of the parent's, so block edges fall differently.
        full = gen_synthetic(2 * BLOCK_ROWS + 37, 3, G101, (2.0, 6.0), seed=n_val)
        parts = split(full, n_val / len(full), seed=n_val)
        assert len(parts[1]) == n_val
        for part in parts:
            assert "target_pmfs" not in vars(part)
            assert_rows_are_whole_array_gaussian_probs(part)
            assert part.target_pmfs.tobytes() == full.target_pmfs[part.ids].tobytes()


class TestTargetRowsMatchDiscretizeGaussian:
    @pytest.mark.parametrize(
        "grid, sigma_range",
        [(G101, (2.0, 6.0)), (HALF_STEP_NEG, (0.25, 4.0)), (STEP3_NEG, (1.5, 6.0))],
        ids=["g101", "step0.5_from-5", "step3_from-30"],
    )
    def test_gen_synthetic_rows(self, grid, sigma_range):
        assert_rows_are_discretize_gaussian(gen_synthetic(300, 3, grid, sigma_range, seed=3))

    @pytest.mark.parametrize(
        "grid", [TWO_BIN, HALF_STEP_NEG, STEP3_NEG], ids=["n2", "step0.5_from-5", "step3_from-30"]
    )
    def test_load_csv_rows(self, tmp_path, grid):
        rng = np.random.default_rng(4)
        floor = 0.5 * grid.spacing
        mus = np.concatenate([[grid.lo, grid.hi], rng.uniform(grid.lo, grid.hi, 200)])
        sigmas = np.concatenate([[floor, floor], rng.uniform(floor, grid.span, 200)])
        text = "id,f0,mean,std\n" + "".join(
            f"{i},0.0,{mu!r},{sigma!r}\n" for i, (mu, sigma) in enumerate(zip(mus.tolist(), sigmas.tolist()))
        )
        path = tmp_path / "targets.csv"
        path.write_text(text, encoding="utf-8")
        assert_rows_are_discretize_gaussian(load_csv(path, grid))


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

class TestCsvRoundTrip:
    def test_round_trip_bitwise(self, tmp_path):
        ds = gen_synthetic(40, 3, G101, (2.0, 6.0), seed=3)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        assert datasets_equal(ds, load_csv(path, G101))

    def test_header_and_line_endings(self, tmp_path):
        ds = gen_synthetic(3, 2, G101, (2.0, 6.0), seed=0)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        text = path.read_bytes().decode()
        assert text.splitlines()[0] == "id,f0,f1,mean,std"
        assert "\r" not in text
        assert len(text.splitlines()) == 4  # header + 3 rows

    def test_save_byte_deterministic(self, tmp_path):
        ds = gen_synthetic(5, 3, G101, (2.0, 6.0), seed=4)
        save_csv(ds, tmp_path / "a.csv")
        save_csv(ds, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip_property(self, tmp_path_factory, seed):
        ds = gen_synthetic(8, 2, G101, (2.0, 6.0), seed=seed)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        save_csv(ds, path)
        assert datasets_equal(ds, load_csv(path, G101))


# ---------------------------------------------------------------------------
# load_csv validation
# ---------------------------------------------------------------------------

HEADER = "id,f0,mean,std\n"


def write(tmp_path, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsvErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", G101)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty file"):
            load_csv(write(tmp_path, ""), G101)

    def test_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(write(tmp_path, HEADER), G101)

    @pytest.mark.parametrize("header", ["id,x0,mean,std\n", "f0,mean,std\n", "id,mean,std\n"])
    def test_bad_header(self, tmp_path, header):
        with pytest.raises(ValueError, match="header"):
            load_csv(write(tmp_path, header + "0,0.5,50.0,2.0\n"), G101)

    def test_wrong_field_count_reports_line(self, tmp_path):
        text = HEADER + "0,0.5,50.0,2.0\n1,0.5,50.0\n"
        with pytest.raises(ValueError, match=r"line 3: expected 4 fields, got 3"):
            load_csv(write(tmp_path, text), G101)

    def test_unparseable_field_reports_line(self, tmp_path):
        text = HEADER + "0,abc,50.0,2.0\n"
        with pytest.raises(ValueError, match="line 2: unparseable"):
            load_csv(write(tmp_path, text), G101)

    def test_ids_at_the_int64_bounds_accepted(self, tmp_path):
        text = HEADER + f"{-2**63},0.5,50.0,2.0\n{2**63 - 1},0.5,50.0,2.0\n"
        assert load_csv(write(tmp_path, text), G101).ids.tolist() == [-2**63, 2**63 - 1]

    @pytest.mark.parametrize("rid", [2**63, -2**63 - 1, 10**22])
    def test_id_outside_int64_reports_line(self, tmp_path, rid):
        text = HEADER + f"0,0.5,50.0,2.0\n{rid},0.5,50.0,2.0\n"
        with pytest.raises(ValueError, match=r"1 invalid row\(s\): line 3: id outside the int64 range$"):
            load_csv(write(tmp_path, text), G101)

    def test_repeated_id_reports_both_lines(self, tmp_path):
        text = HEADER + "7,0.5,50.0,2.0\n8,0.5,50.0,2.0\n7,0.5,50.0,2.0\n7,0.5,40.0,2.0\n"
        with pytest.raises(ValueError, match=r"2 invalid row\(s\): line 4: id 7 repeats line 2; "
                                             r"line 5: id 7 repeats line 2$"):
            load_csv(write(tmp_path, text), G101)

    @pytest.mark.parametrize("column", [1, 2, 3], ids=["feature", "mean", "std"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_rejected(self, tmp_path, value, column):
        fields = ["0", "0.5", "50.0", "2.0"]
        fields[column] = value
        with pytest.raises(ValueError, match="line 2: non-finite"):
            load_csv(write(tmp_path, HEADER + ",".join(fields) + "\n"), G101)

    def test_std_below_floor_rejected(self, tmp_path):
        text = HEADER + "0,0.5,50.0,0.4\n"
        with pytest.raises(ValueError, match="sigma floor"):
            load_csv(write(tmp_path, text), G101)

    def test_std_at_floor_accepted(self, tmp_path):
        text = HEADER + "0,0.5,50.0,0.5\n"
        ds = load_csv(write(tmp_path, text), G101)
        assert "target_pmfs" not in vars(ds)
        assert ds.target_sigma[0] == 0.5

    def test_mean_outside_span_rejected(self, tmp_path):
        text = HEADER + "0,0.5,150.0,2.0\n"
        with pytest.raises(ValueError, match="outside the grid span"):
            load_csv(write(tmp_path, text), G101)

    def test_many_errors_truncated_in_message(self, tmp_path):
        rows = "".join(f"{i},0.5,150.0,2.0\n" for i in range(12))
        with pytest.raises(ValueError, match=r"12 invalid row\(s\).*\(\+2 more\)"):
            load_csv(write(tmp_path, HEADER + rows), G101)

    def test_all_errors_collected_not_just_first(self, tmp_path):
        text = HEADER + "0,abc,50.0,2.0\n1,0.5,150.0,2.0\n"
        with pytest.raises(ValueError, match=r"2 invalid row\(s\).*line 2.*line 3"):
            load_csv(write(tmp_path, text), G101)

    def test_field_over_the_csv_limit_names_path_and_line(self, tmp_path):
        path = write(tmp_path, HEADER + "0,0.5,50.0,2.0\n1," + "1" * 200_000 + ",50.0,2.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: field larger than field limit"):
            load_csv(path, G101)

    def test_rows_name_the_line_where_they_start(self, tmp_path):
        # Row 2's quoted feature spans lines 3 and 4, so row 3 starts on line 5.
        text = 'id,f0,mean,std\n"1",1.0,5.0,1.0\n2,"1.0\n",5.0,1.0\n3,1.0,50.0,1.0\n'
        with pytest.raises(ValueError, match=r"1 invalid row\(s\): line 5: mean 50.0 outside the grid span$"):
            load_csv(write(tmp_path, text), LabelGrid(0.0, 10.0, 1.0))

    def test_byte_that_is_not_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_bytes(HEADER.encode() + b"0,0.5,50.0,2.0\n1,0.5\xff,50.0,2.0\n2,0.5,50.0,2.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not UTF-8 text$"):
            load_csv(path, G101)

    def test_dataset_refusal_names_path(self, tmp_path):
        # Each row passes the per-row checks, but std 0.5 on a 1e-5 step is too narrow for EPS_VAR.
        path = write(tmp_path, HEADER + "0,0.5,0.5,0.000005\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: target sigma .* below the EPS_VAR floor"):
            load_csv(path, LabelGrid(0.0, 1.0, 1e-5))

    def test_blank_lines_skipped(self, tmp_path):
        text = HEADER + "0,0.5,50.0,2.0\n\n1,-0.5,40.0,3.0\n\n"
        ds = load_csv(write(tmp_path, text), G101)
        assert len(ds) == 2

    def test_truncation_warning_near_edge(self, tmp_path, caplog):
        text = HEADER + "0,0.5,2.0,3.0\n1,0.5,50.0,3.0\n"
        with caplog.at_level(logging.WARNING, logger="fullkl.data"):
            ds = load_csv(write(tmp_path, text), G101)
        assert len(ds) == 2
        assert any("visibly truncated" in r.message for r in caplog.records)
        assert any("1 row(s) within 3 sigma of a grid edge" in r.getMessage() for r in caplog.records)

    def test_no_warning_when_safe(self, tmp_path, caplog):
        text = HEADER + "0,0.5,50.0,3.0\n"
        with caplog.at_level(logging.WARNING, logger="fullkl.data"):
            load_csv(write(tmp_path, text), G101)
        assert not caplog.records


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------

class TestSplit:
    def base(self, n=100):
        return gen_synthetic(n, 3, G101, (2.0, 6.0), seed=2)

    def test_counts_and_tags(self):
        train, val = split(self.base(), 0.2, seed=0)
        assert len(train) == 80 and len(val) == 20
        assert not hasattr(train, "split") and not hasattr(val, "split")

    def test_committed_protocol_builds_no_pmf_table(self):
        # The full dataset is only split, so building and splitting the
        # committed protocol must peak below one full (rows, n_bins) table;
        # the subsets build theirs when training first reads them.
        cfg = runner.load_config(REPO_CONFIGS / "full_kl.json")

        def build():
            full = runner.build_dataset(cfg.dataset, cfg.grid)
            return full, *split(full, cfg.train.val_fraction, derive_seeds(cfg.seeds[0])[0])

        (full, *parts), peak = traced_peak(build)
        table = len(full) * len(cfg.grid) * 8
        assert (len(full), len(cfg.grid)) == (5000, 101)
        assert peak < table, f"peak {peak} bytes, one pmf table is {table} bytes"
        for ds in (full, *parts):
            assert "target_pmfs" not in vars(ds)

    def test_disjoint_and_exhaustive(self):
        ds = self.base()
        train, val = split(ds, 0.2, seed=0)
        ids_t, ids_v = set(train.ids.tolist()), set(val.ids.tolist())
        assert ids_t.isdisjoint(ids_v)
        assert ids_t | ids_v == set(ds.ids.tolist())

    def test_rows_preserved(self):
        ds = self.base(30)
        train, val = split(ds, 0.2, seed=5)
        for part in (train, val):
            for row, sid in enumerate(part.ids):
                src = int(np.flatnonzero(ds.ids == sid)[0])
                np.testing.assert_array_equal(part.features[row], ds.features[src])
                np.testing.assert_array_equal(part.target_pmfs[row], ds.target_pmfs[src])

    def test_deterministic(self):
        ds = self.base()
        t1, v1 = split(ds, 0.2, seed=3)
        t2, v2 = split(ds, 0.2, seed=3)
        assert np.array_equal(t1.ids, t2.ids) and np.array_equal(v1.ids, v2.ids)

    def test_seed_changes_partition(self):
        ds = self.base()
        _, v1 = split(ds, 0.2, seed=3)
        _, v2 = split(ds, 0.2, seed=4)
        assert not np.array_equal(v1.ids, v2.ids)

    def test_ids_sorted_within_split(self):
        train, val = split(self.base(), 0.2, seed=0)
        assert np.all(np.diff(train.ids) > 0) and np.all(np.diff(val.ids) > 0)

    def test_rounded_val_count(self):
        train, val = split(self.base(10), 0.25, seed=0)
        assert len(val) == round(10 * 0.25) == val_count(10, 0.25) and len(train) == 10 - len(val)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.5, 1.5])
    def test_bad_fraction_rejected(self, frac):
        with pytest.raises(ValueError):
            split(self.base(10), frac, seed=0)

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="empty split"):
            split(self.base(2), 0.2, seed=0)  # round(0.4) == 0 val samples
        with pytest.raises(ValueError, match="empty split"):
            split(self.base(2), 0.9, seed=0)  # round(1.8) == 2 leaves no train
