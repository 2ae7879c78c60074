"""Network, optimizer, training loop, and checkpoints."""

import copy
import json
import math
import pickle
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from fullkl import runner
from fullkl.data import Dataset, gen_synthetic, split
from fullkl.grid import BLOCK_ROWS, MAX_BINS, LabelGrid, Pmf, discretize_gaussian, row_blocks
from fullkl.losses import (
    FAMILY_FULL_KL, FAMILY_REFERENCE, LossBreakdown, LossSpec, batch_loss, batch_loss_and_grad, smoothness,
)
from fullkl.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    CHECKPOINT_FORMAT,
    Metrics,
    MlpParams,
    OptimizerState,
    TrainConfig,
    TrainingDivergedError,
    adam_update,
    derive_seeds,
    evaluate,
    forward,
    init_adam,
    init_mlp,
    load_checkpoint,
    lr_at,
    predict,
    save_checkpoint,
    train_run,
    train_step,
)
import fullkl.model
from fullkl.model import _backward, _forward_cached, _layer_views, _rectify
from fullkl.verify import fd_grad, rel_norm_error

G101 = LabelGrid(0.0, 100.0, 1.0)
G5 = LabelGrid(0.0, 4.0, 1.0)
REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
COPIES = [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy]
COPY_IDS = ["pickle", "deepcopy", "copy"]


def params_equal(a: MlpParams, b: MlpParams) -> bool:
    return a.dims == b.dims and all(
        np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


def bias_only(b) -> MlpParams:
    """A (3, 101) network with zero weights and biases ``b``: it emits ``b`` for every input."""
    return MlpParams((3, 101), np.concatenate([np.zeros(3 * 101), b]))


# ---------------------------------------------------------------------------
# init / forward
# ---------------------------------------------------------------------------

class TestInitMlp:
    def test_shapes(self):
        p = init_mlp((4, 8, 101), seed=0)
        assert p.dims == (4, 8, 101)
        assert p.weights[0].shape == (4, 8)
        assert p.weights[1].shape == (8, 101)
        assert p.biases[0].shape == (8,) and p.biases[1].shape == (101,)
        assert p.d_in == 4 and p.n_bins == 101 and p.n_layers == 2
        assert p.size == 4 * 8 + 8 + 8 * 101 + 101

    def test_same_seed_bit_identical(self):
        assert params_equal(init_mlp((4, 8, 5), 7), init_mlp((4, 8, 5), 7))

    def test_different_seeds_differ(self):
        assert not params_equal(init_mlp((4, 8, 5), 7), init_mlp((4, 8, 5), 8))

    def test_biases_zero(self):
        p = init_mlp((4, 8, 5), 3)
        assert all(np.all(b == 0.0) for b in p.biases)

    def test_same_bits_as_per_layer_matrix_draws(self):
        # each layer draws its (fan_in, fan_out) weights row-major, then zero biases
        rng = np.random.default_rng(5)
        p = init_mlp((4, 8, 6, 5), 5)
        for w, b in zip(p.weights, p.biases):
            assert w.tobytes() == rng.normal(0.0, 1.0 / np.sqrt(w.shape[0]), w.shape).tobytes()
            assert b.tobytes() == np.zeros(b.size).tobytes()

    def test_weight_scale_tracks_fan_in(self):
        p = init_mlp((400, 100, 5), 1)
        assert np.std(p.weights[0]) == pytest.approx(1.0 / math.sqrt(400), rel=0.1)

    @pytest.mark.parametrize("dims", [(4,), (), (4, 0, 5), (0, 5)])
    def test_bad_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            init_mlp(dims, 0)

    @pytest.mark.parametrize("door", ["init_mlp", "MlpParams", "train_run"])
    def test_dims_beyond_the_address_space_refused_at_every_door(self, door):
        # The size rule refuses them before numpy tries, so no door ends in numpy's MemoryError.
        dims = (4, 10**15, 101)
        error = f"dims {dims} need at least {MAX_BINS} float64 values: a whole 128 TiB address space"
        ds = gen_synthetic(10, 4, G101, (2.0, 6.0), seed=0)
        build = {
            "init_mlp": lambda: init_mlp(dims, 0),
            "MlpParams": lambda: MlpParams(dims, np.zeros(3)),
            "train_run": lambda: train_run(ds, ds, TrainConfig(hidden=(10**15,)), quiet=True),
        }[door]
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            build()

    def test_params_read_only(self):
        p = init_mlp((3, 4), 0)
        with pytest.raises(ValueError):
            p.weights[0][0, 0] = 1.0


class TestMlpParamsValidation:
    def test_shape_mismatch_rejected(self):
        for shape in [(15,), (17,), (4, 4), ()]:
            with pytest.raises(ValueError, match=re.escape(f"dims (3, 4) need a vector of shape (16,), got {shape}")):
                MlpParams((3, 4), np.zeros(shape))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MlpParams((3, 4), np.full(16, np.inf))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_entry_point_rejects_non_finite(self, bad, tmp_path):
        vec = np.zeros(16)
        vec[5] = bad
        with pytest.raises(ValueError, match="finite"):
            MlpParams((3, 4), vec)
        path = tmp_path / "bad.ckpt"
        save_checkpoint(init_mlp((3, 4), 0), path)
        header = path.read_bytes().split(b"\n", 1)[0]
        path.write_bytes(header + b"\n" + vec.astype("<f8").tobytes())
        with pytest.raises(ValueError, match="finite"):
            load_checkpoint(path)

    def test_constructor_copies_caller_arrays(self):
        vec = np.ones(16)
        p = MlpParams((3, 4), vec)
        vec[0] = 5.0
        assert p.weights[0][0, 0] == 1.0 and vec.flags.writeable
        assert not (p.vec.flags.writeable or p.weights[0].flags.writeable or p.biases[0].flags.writeable)
        assert np.shares_memory(p.weights[0], p.vec) and np.shares_memory(p.biases[0], p.vec)

    def test_layer_count_mismatch_rejected(self):
        # a one-layer vector for two-layer dims
        with pytest.raises(ValueError, match=re.escape("shape (41,)")):
            MlpParams((3, 4, 5), np.zeros(16))

    @pytest.mark.parametrize("copy_fn", COPIES, ids=COPY_IDS)
    def test_copies_keep_read_only_views_into_their_vector(self, copy_fn):
        p = init_mlp((16, 64, 64, 101), 0)
        q = copy_fn(p)
        assert type(q) is MlpParams and q.dims == p.dims
        assert q.vec.tobytes() == p.vec.tobytes() and not np.shares_memory(q.vec, p.vec)
        assert not q.vec.flags.writeable
        for a in (*q.weights, *q.biases):
            assert not a.flags.writeable and np.shares_memory(a, q.vec)
        assert params_equal(p, q)
        x = np.random.default_rng(0).uniform(-1, 1, (4, 16))
        assert forward(q, x).tobytes() == forward(p, x).tobytes()

    def test_pickle_holds_the_vector_once(self):
        p = init_mlp((16, 64, 64, 101), 0)
        assert len(pickle.dumps(p)) < 1.1 * p.vec.nbytes


@pytest.fixture(scope="module")
def frozen_values() -> dict:
    """One value of each array-holding type.  The dataset is the committed
    protocol's seed-0 train split, with its pmf table and moments built."""
    cfg = runner.load_config(REPO_CONFIGS / "full_kl.json")
    full = runner.build_dataset(cfg.dataset, cfg.grid)
    train, _ = split(full, cfg.train.val_fraction, derive_seeds(cfg.seeds[0])[0])
    train.target_moments
    p = init_mlp((3, 4, 5), 0)
    state = adam_update(p, init_adam(p, lr=0.01), np.linspace(-1.0, 1.0, p.size))[1]
    return {LabelGrid: G101, Pmf: discretize_gaussian(40.0, 5.0, G101), Dataset: train,
            OptimizerState: state, MlpParams: p}


class TestFrozenValues:
    """Every array-holding value type has one way in, its constructor, for copies too."""

    ARRAYS = {
        LabelGrid: ("values",),
        Pmf: ("probs",),
        Dataset: ("ids", "features", "target_mu", "target_sigma"),
        OptimizerState: ("m", "v"),
    }

    @pytest.mark.parametrize("copy_fn", COPIES, ids=COPY_IDS)
    @pytest.mark.parametrize("cls", list(ARRAYS), ids=lambda c: c.__name__)
    def test_copies_rebuild_through_the_constructor(self, monkeypatch, frozen_values, cls, copy_fn):
        x = frozen_values[cls]
        built = []
        post_init = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self) or post_init(self))
        y = copy_fn(x)
        assert type(y) is cls and built == [y]
        for name in self.ARRAYS[cls]:
            a, b = getattr(x, name), getattr(y, name)
            assert not b.flags.writeable
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        if cls is Dataset:
            assert y.grid == x.grid
            assert "target_pmfs" not in vars(y) and "target_moments" not in vars(y)
            assert y.target_pmfs.tobytes() == x.target_pmfs.tobytes()
            assert [a.tobytes() for a in y.target_moments] == [a.tobytes() for a in x.target_moments]
        elif cls is OptimizerState:
            assert (y.lr, y.step) == (x.lr, x.step) == (0.01, 1)
        elif cls is LabelGrid:
            assert y == x

    def test_pickled_dataset_holds_only_its_columns(self, frozen_values):
        ds = frozen_values[Dataset]
        columns = sum(getattr(ds, name).nbytes for name in self.ARRAYS[Dataset])
        assert "target_pmfs" in vars(ds) and columns == 4000 * (16 + 3) * 8
        assert len(pickle.dumps(ds)) < 1.1 * columns

    def test_constructor_freezes_adam_moments_in_place(self):
        m, v = np.zeros(4), np.ones(4)
        s = OptimizerState(0.1, 0, m, v)
        assert s.m is m and s.v is v and not (m.flags.writeable or v.flags.writeable)

    @pytest.mark.parametrize("cls", [MlpParams, Pmf, OptimizerState, Dataset], ids=lambda c: c.__name__)
    def test_equality_is_identity_and_values_hash(self, frozen_values, cls):
        a = frozen_values[cls]
        b = copy.deepcopy(a)
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


class TestRectify:
    def test_bitwise_equal_to_where(self):
        special = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -1.0]
        rng = np.random.default_rng(0)
        for n in (0, 1, 7, 64):
            x = np.concatenate([rng.normal(size=n), special, rng.normal(size=n)])
            for a in (x, x[::-1].copy()):
                mask = np.concatenate([rng.random(n) < 0.5, a[n:n + len(special)] > 0.0, rng.random(n) < 0.5])
                got = _rectify(a, np.negative(mask, dtype=np.int64))
                assert got.dtype == np.float64
                assert got.tobytes() == np.where(mask, a, 0.0).tobytes()


class TestForward:
    def test_zero_params_zero_logits(self):
        p = MlpParams((3, 5), np.zeros(20))
        logits = forward(p, np.array([0.3, -0.2, 0.9]))
        assert np.all(logits == 0.0)

    def test_purity(self):
        p = init_mlp((4, 8, 5), 0)
        x = np.array([0.1, -0.5, 0.9, 0.0])
        np.testing.assert_array_equal(forward(p, x), forward(p, x))

    def test_batch_of_one_matches_single_bitwise(self):
        p = init_mlp((4, 8, 5), 0)
        x = np.random.default_rng(1).uniform(-1, 1, 4)
        np.testing.assert_array_equal(forward(p, x[None, :])[0], forward(p, x))

    def test_batch_rows_match_single(self):
        # BLAS gemm on a multi-row batch may round differently from gemv by
        # ~1 ulp, so rows are compared with a tight tolerance rather than
        # bitwise
        p = init_mlp((4, 8, 5), 0)
        X = np.random.default_rng(1).uniform(-1, 1, (6, 4))
        batch = forward(p, X)
        assert batch.shape == (6, 5)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward(p, X[i]), rtol=1e-13, atol=1e-15)

    def test_input_sensitivity(self):
        p = init_mlp((4, 8, 5), 0)
        x = np.array([0.1, -0.5, 0.9, 0.0])
        x2 = x.copy()
        x2[2] += 1e-3
        assert not np.array_equal(forward(p, x), forward(p, x2))

    def test_zeroed_first_layer_column_blocks_sensitivity(self):
        p = init_mlp((4, 8, 5), 0)
        vec = p.vec.copy()
        _layer_views(p.dims, vec)[0][0][2, :] = 0.0  # feature 2 disconnected
        p = MlpParams(p.dims, vec)
        x = np.array([0.1, -0.5, 0.9, 0.0])
        x2 = x.copy()
        x2[2] += 1e-3
        np.testing.assert_array_equal(forward(p, x), forward(p, x2))

    def test_shape_mismatch_rejected(self):
        p = init_mlp((4, 8, 5), 0)
        with pytest.raises(ValueError):
            forward(p, np.zeros(3))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_activations_raise(self):
        p = MlpParams((2, 3), np.concatenate([np.full(6, 1e308), np.zeros(3)]))
        with pytest.raises(TrainingDivergedError):
            forward(p, np.array([1e30, 1e30]))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

class TestAdam:
    def test_init_state(self):
        p = init_mlp((3, 4, 5), 0)
        s = init_adam(p)
        assert (s.lr, s.step) == (1e-3, 0)
        assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
        assert [f.name for f in fields(OptimizerState)] == ["lr", "step", "m", "v"]
        assert s.m.shape == s.v.shape == (p.size,)
        assert np.all(s.m == 0.0) and np.all(s.v == 0.0)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match=re.escape("step must be >= 0, got -1")):
            OptimizerState(1e-3, -1, np.zeros(3), np.zeros(3))

    def test_first_step_hand_computed(self):
        # single weight w=1.0, gradient 0.5: first Adam step re-derived inline
        p = MlpParams((1, 1), np.array([1.0, 0.0]))
        s = init_adam(p, lr=1e-3)
        g = 0.5
        p2, s2 = adam_update(p, s, np.array([g, 0.0]))
        m = (1.0 - 0.9) * g
        v = (1.0 - 0.999) * g * g
        m_hat = m / (1.0 - 0.9)
        v_hat = v / (1.0 - 0.999)
        expected = 1.0 - 1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p2.weights[0][0, 0] == expected
        assert s2.step == 1
        assert s2.m[0] == m and s2.v[0] == v

    def test_second_step_hand_computed(self):
        p = MlpParams((1, 1), np.array([1.0, 0.0]))
        s = init_adam(p, lr=1e-3)
        p, s = adam_update(p, s, np.array([0.5, 0.0]))
        p, s = adam_update(p, s, np.array([-0.25, 0.0]))
        m2 = 0.9 * 0.05 + 0.1 * -0.25
        v2 = 0.999 * 0.00025 + 0.001 * 0.0625
        m_hat = m2 / (1.0 - 0.9 ** 2)
        v_hat = v2 / (1.0 - 0.999 ** 2)
        w1 = 1.0 - 1e-3 * 0.05 / (1.0 - 0.9) / (math.sqrt(0.00025 / (1.0 - 0.999)) + 1e-8)
        expected = w1 - 1e-3 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.weights[0][0, 0] == pytest.approx(expected, rel=1e-15)
        assert s.step == 2

    def test_zero_lr_keeps_params(self):
        p = init_mlp((3, 4), 0)
        s = init_adam(p, lr=0.0)
        p2, s2 = adam_update(p, s, np.ones(p.size))
        assert params_equal(p, p2)
        assert s2.step == 1  # accumulators still advance

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_update_raises(self):
        p = init_mlp((3, 4), 0)
        s = init_adam(p, lr=1e308)
        p, s = adam_update(p, s, np.ones(p.size))
        with pytest.raises(TrainingDivergedError, match="parameters after optimizer update"):
            # second huge step pushes weights to +/- inf
            adam_update(p, init_adam(p, lr=1e308), np.concatenate([np.full(12, 1e30), np.ones(4)]))

    def test_invalid_hyperparameters_rejected(self):
        p = init_mlp((2, 2), 0)
        with pytest.raises(ValueError):
            init_adam(p, lr=-1.0)

    def test_flat_update_matches_per_layer_adam_bitwise(self):
        # Adam written out per array (W0, b0, W1, b1, ...): the flat update
        # must give the same bits at every step, across lr changes.
        per_layer = lambda ws, bs: [a for pair in zip(ws, bs) for a in pair]
        flat = lambda arrays: np.concatenate([a.ravel() for a in arrays]).tobytes()
        p = init_mlp((4, 8, 6, 5), 3)
        s = init_adam(p)
        params = [np.array(a) for a in per_layer(p.weights, p.biases)]
        ms = [np.zeros_like(a) for a in params]
        vs = [np.zeros_like(a) for a in params]
        rng = np.random.default_rng(4)
        for t, lr in enumerate((1e-3, 1e-3, 1e-4, 1e-4, 2.5e-2), start=1):
            grad = rng.normal(0.0, 1.0, p.size) * 10.0 ** rng.integers(-6, 3, p.size)
            p, s = adam_update(p, replace(s, lr=lr), grad)
            bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for k, g in enumerate(per_layer(*_layer_views(p.dims, grad))):
                ms[k] = 0.9 * ms[k] + (1.0 - 0.9) * g
                vs[k] = 0.999 * vs[k] + (1.0 - 0.999) * (g * g)
                params[k] = params[k] - lr * (ms[k] / bc1) / (np.sqrt(vs[k] / bc2) + 1e-8)
            assert s.step == t
            assert p.vec.tobytes() == flat(params)
            assert s.m.tobytes() == flat(ms) and s.v.tobytes() == flat(vs)

    @pytest.mark.parametrize("which", ["grad", "m", "v"])
    def test_length_mismatch_rejected(self, which):
        p = init_mlp((3, 4), 0)
        s = init_adam(p)
        grad = np.ones(p.size)
        short = np.zeros(p.size - 1)
        if which == "grad":
            grad = short
        else:
            s = replace(s, **{which: short})
        with pytest.raises(ValueError, match=f"must have shape \\({p.size},\\)"):
            adam_update(p, s, grad)


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

class TestTrainStep:
    def batch(self, n=20, d=4, seed=5):
        ds = gen_synthetic(n, d, G101, (2.0, 6.0), seed=seed)
        return ds.features, ds.target_pmfs

    @staticmethod
    def mean_total(params, batch, g, spec):
        """Mean total loss of ``params`` on ``batch``, from a forward and loss pass of its own."""
        feats, targets = batch
        return float(np.mean(batch_loss(targets, forward(params, feats), g, spec)["total"]))

    def test_zero_lr_reports_loss_without_update(self):
        p = init_mlp((4, 16, 101), 42)
        s = init_adam(p, lr=0.0)
        p2, s2, _ = train_step(p, s, self.batch(), G101, LossSpec(FAMILY_FULL_KL))
        assert params_equal(p, p2)
        assert self.mean_total(p2, self.batch(), G101, LossSpec(FAMILY_FULL_KL)) > 0.0
        assert s2.step == 1

    def test_stationary_point_no_change(self):
        # uniform target + zero network: head gradient is exactly zero
        p = MlpParams((3, 5), np.zeros(20))
        s = init_adam(p)
        X = np.array([[0.3, -0.2, 0.9]])
        T = np.full((1, 5), 0.2)
        p2, _, _ = train_step(p, s, (X, T), G5, LossSpec(FAMILY_FULL_KL))
        assert params_equal(p, p2)
        assert self.mean_total(p, (X, T), G5, LossSpec(FAMILY_FULL_KL)) == 0.0

    def test_smoke_loss_halves_in_200_steps(self):
        p = init_mlp((4, 64, 64, 101), 42)
        s = init_adam(p)
        batch = self.batch()
        first = self.mean_total(p, batch, G101, LossSpec(FAMILY_FULL_KL))
        for _ in range(200):
            p, s, _ = train_step(p, s, batch, G101, LossSpec(FAMILY_FULL_KL))
        assert self.mean_total(p, batch, G101, LossSpec(FAMILY_FULL_KL)) <= 0.5 * first

    def test_reference_family(self):
        p = init_mlp((4, 16, 101), 1)
        s = init_adam(p)
        p2, _, _ = train_step(p, s, self.batch(), G101, LossSpec(FAMILY_REFERENCE, 1.0))
        assert not params_equal(p, p2)

    def test_empty_batch_rejected(self):
        p = init_mlp((4, 16, 101), 1)
        with pytest.raises(ValueError):
            train_step(p, init_adam(p), (np.zeros((0, 4)), np.zeros((0, 101))), G101, LossSpec(FAMILY_FULL_KL))

    def test_shape_mismatch_rejected(self):
        p = init_mlp((4, 16, 101), 1)
        X, T = self.batch()
        with pytest.raises(ValueError):
            train_step(p, init_adam(p), (X, T[:, :50]), G101, LossSpec(FAMILY_FULL_KL))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self):
        p = init_mlp((4, 16, 101), 1)
        s = init_adam(p, lr=1e200)
        batch = self.batch()
        with pytest.raises(TrainingDivergedError):
            for _ in range(3):
                p, s, _ = train_step(p, s, batch, G101, LossSpec(FAMILY_FULL_KL))

    @pytest.mark.parametrize("term", ["l_ld", "l_exp", "l_smooth", "gradient"])
    def test_divergence_names_the_loss_term(self, monkeypatch, term):
        def poisoned(*args):
            comps, grad = batch_loss_and_grad(*args)
            comps, grad = dict(comps), grad.copy()
            if term == "gradient":
                grad[2, 5] = np.nan
            else:
                comps[term] = comps[term].copy()
                comps[term][2] = np.nan
                comps["total"] = comps["l_ld"] + comps["l_exp"] + comps["l_smooth"]
            return comps, grad

        monkeypatch.setattr(fullkl.model, "batch_loss_and_grad", poisoned)
        p = init_mlp((4, 16, 101), 1)
        with pytest.raises(TrainingDivergedError, match=rf"^non-finite {term} at batch row\(s\) \[2\]$") as info:
            train_step(p, init_adam(p), self.batch(), G101, LossSpec(FAMILY_FULL_KL))
        assert info.value.rows.tolist() == [2]

    def test_inputs_unchanged_and_outputs_read_only(self):
        p = init_mlp((4, 16, 101), 9)
        s = init_adam(p)
        for _ in range(2):
            p, s, _ = train_step(p, s, self.batch(), G101, LossSpec(FAMILY_FULL_KL))
        before = [a.tobytes() for a in (p.vec, *p.weights, *p.biases, s.m, s.v)]
        p2, s2, _ = train_step(p, s, self.batch(), G101, LossSpec(FAMILY_FULL_KL))
        assert [a.tobytes() for a in (p.vec, *p.weights, *p.biases, s.m, s.v)] == before
        assert s.step == 2 and s2.step == 3
        returned = (p2.vec, *p2.weights, *p2.biases, s2.m, s2.v)
        assert not any(a.flags.writeable for a in returned)
        assert not any(np.shares_memory(a, b) for a in returned for b in (p.vec, s.m, s.v))

    def test_one_adam_pass_and_no_revalidation_per_step(self, monkeypatch):
        calls = []
        adam_arrays, params_init = fullkl.model._adam_arrays, MlpParams.__init__
        monkeypatch.setattr(fullkl.model, "_adam_arrays", lambda *a: calls.append("adam") or adam_arrays(*a))
        monkeypatch.setattr(MlpParams, "__init__", lambda *a: calls.append("init") or params_init(*a))
        p = init_mlp((4, 16, 16, 101), 9)
        s = init_adam(p)
        assert calls == ["init"]
        for _ in range(3):
            p, s, _ = train_step(p, s, self.batch(), G101, LossSpec(FAMILY_FULL_KL))
        assert calls == ["init"] + ["adam"] * 3

    @pytest.mark.parametrize("spec", [LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.0)],
                             ids=["full_kl", "reference"])
    def test_comps_are_the_batch_loss_at_the_pre_step_params(self, spec):
        p = init_mlp((4, 16, 101), 3)
        s = init_adam(p)
        feats, targets = self.batch()
        for _ in range(3):
            expected = batch_loss(targets, forward(p, feats), G101, spec)
            p, s, comps = train_step(p, s, (feats, targets), G101, spec)
            assert sorted(comps) == sorted(expected)
            assert all(comps[k].tobytes() == expected[k].tobytes() for k in expected)

    def test_deterministic(self):
        batch = self.batch()
        outs = []
        for _ in range(2):
            p = init_mlp((4, 16, 101), 9)
            s = init_adam(p)
            p2, s2, _ = train_step(p, s, batch, G101, LossSpec(FAMILY_FULL_KL))
            outs.append([a.tobytes() for a in (p2.vec, s2.m, s2.v)])
        assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# end-to-end gradient (network + loss head)
# ---------------------------------------------------------------------------

class TestEndToEndGradient:
    @pytest.mark.parametrize(
        "spec",
        [LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.0)],
        ids=["full_kl", "reference"],
    )
    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_tiny_network_matches_fd(self, spec, seed):
        dims = (3, 4, 5)
        g = LabelGrid(0.0, 4.0, 1.0)
        rng = np.random.default_rng(seed)
        params = init_mlp(dims, seed)
        X = rng.uniform(-1.0, 1.0, (4, 3))
        T = np.exp(rng.normal(0.0, 1.5, (4, 5)))
        T /= T.sum(axis=1, keepdims=True)

        def loss_of_vec(vec):
            logits = forward(MlpParams(dims, vec), X)
            comps, _ = batch_loss_and_grad(T, logits, g, spec)
            return float(np.mean(comps["total"]))

        logits, caches = _forward_cached(params, X)
        _, dlogits = batch_loss_and_grad(T, logits, g, spec)
        analytic = _backward(params, caches, dlogits / X.shape[0])
        vec = params.vec
        numeric = fd_grad(loss_of_vec, vec, 1e-5 * np.maximum(1.0, np.abs(vec)))
        assert rel_norm_error(analytic, numeric) <= 1e-5


# ---------------------------------------------------------------------------
# schedule / prediction / evaluation
# ---------------------------------------------------------------------------

class TestLrAt:
    def test_boundaries(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == 1e-3
        assert lr_at(29, cfg) == 1e-3
        assert lr_at(30, cfg) == pytest.approx(1e-4, rel=1e-12)
        assert lr_at(59, cfg) == pytest.approx(1e-4, rel=1e-12)
        assert lr_at(60, cfg) == pytest.approx(1e-5, rel=1e-12)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, TrainConfig())


class TestPredict:
    def test_uniform_center(self):
        p = bias_only(np.zeros(101))
        assert predict(p, np.array([0.5, 0.5, 0.5]), G101) == pytest.approx(50.0, abs=1e-9)

    def test_saturated_bin(self):
        b = np.zeros(101)
        b[23] = 50.0
        p = bias_only(b)
        assert predict(p, np.array([0.1, 0.2, 0.3]), G101) == pytest.approx(23.0, abs=1e-6)

    def test_always_inside_grid(self):
        p = init_mlp((4, 8, 101), 0)
        X = np.random.default_rng(2).uniform(-1, 1, (50, 4))
        preds = predict(p, X, G101)
        assert preds.shape == (50,)
        assert np.all(preds >= 0.0) and np.all(preds <= 100.0)

    def test_grid_size_mismatch_rejected(self):
        p = init_mlp((4, 8, 101), 0)
        with pytest.raises(ValueError):
            predict(p, np.zeros(4), G5)


class TestEvaluate:
    def test_perfect_predictor(self):
        # every row shares one Gaussian target t; a bias-only net with bias
        # ln t emits softmax(ln t) = t for every input, so l_ld, l_exp and the
        # MAE vanish and the total is the target's own smoothness
        n = 8
        X = np.random.default_rng(3).uniform(-1, 1, (n, 3))
        ds = Dataset(G101, np.arange(n), X, np.full(n, 50.0), np.full(n, 5.0))
        target = ds.target_pmfs[0]
        p = bias_only(np.log(target))
        m = evaluate(p, ds, LossSpec(FAMILY_FULL_KL), 0, "val")
        assert m.mae == pytest.approx(0.0, abs=1e-9)
        assert m.l_ld == pytest.approx(0.0, abs=1e-10)
        assert m.l_exp == pytest.approx(0.0, abs=1e-10)
        assert m.total == pytest.approx(smoothness(target), rel=1e-9)

    def test_constant_predictor_offset(self):
        n = 6
        X = np.random.default_rng(4).uniform(-1, 1, (n, 3))
        ds = Dataset(G101, np.arange(n), X, np.full(n, 30.0), np.full(n, 5.0))
        p = bias_only(np.zeros(101))
        m = evaluate(p, ds, LossSpec(FAMILY_REFERENCE, 1.0), 0, "val")
        assert m.mae == pytest.approx(20.0, abs=1e-9)

    def test_purity(self):
        ds = gen_synthetic(30, 4, G101, (2.0, 6.0), seed=0)
        p = init_mlp((4, 8, 101), 0)
        m1 = evaluate(p, ds, LossSpec(FAMILY_FULL_KL), 0, "val")
        m2 = evaluate(p, ds, LossSpec(FAMILY_FULL_KL), 0, "val")
        assert m1 == m2

    def test_grid_mismatch_rejected(self):
        ds = gen_synthetic(10, 4, G101, (2.0, 6.0), seed=0)
        p = init_mlp((4, 8, 5), 0)
        with pytest.raises(ValueError):
            evaluate(p, ds, LossSpec(FAMILY_FULL_KL), 0, "val")

    @staticmethod
    def whole_split_metrics(params, ds, spec):
        """One forward and one loss pass over the whole split, as evaluate did unchunked."""
        comps = batch_loss(ds.target_pmfs, forward(params, ds.features), G101, spec)
        smooth = float(np.mean(comps["l_smooth"])) if spec.family == FAMILY_FULL_KL else None
        mae = float(np.mean(np.abs(comps["pred_mu"] - ds.target_mu)))
        return Metrics(
            spec.family, float(np.mean(comps["l_ld"])), float(np.mean(comps["l_exp"])),
            smooth, float(np.mean(comps["total"])), epoch=4, split="val", mae=mae,
        )

    @pytest.mark.parametrize("n", [
        BLOCK_ROWS // 2,        # shorter than one block
        2 * BLOCK_ROWS + 37,    # not a multiple of the block size
        2 * BLOCK_ROWS + 1,     # a one-row tail, which a gemv would compute differently
    ])
    @pytest.mark.parametrize("spec", [LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.0)])
    def test_chunked_matches_whole_split_bitwise(self, n, spec):
        ds = gen_synthetic(n, 16, G101, (2.0, 6.0), seed=n)
        params = init_mlp((16, 64, 64, 101), 1)
        m = evaluate(params, ds, spec, 4, "val")
        assert m == self.whole_split_metrics(params, ds, spec)

    @pytest.mark.parametrize("n", [1, 2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   BLOCK_ROWS + 2, 2 * BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 37])
    def test_row_chunks_cover_rows_without_one_row_tail(self, n):
        chunks = row_blocks(n)
        assert [c.start for c in chunks[1:]] == [c.stop for c in chunks[:-1]]
        assert chunks[0].start == 0 and chunks[-1].stop == n
        sizes = [c.stop - c.start for c in chunks]
        assert max(sizes) <= BLOCK_ROWS + 1
        assert min(sizes) > 1 or n == 1

    def test_chunk_rows_match_whole_forward_bitwise(self):
        # The means in Metrics can absorb a last-bit change in one row, so the
        # per-row logits are compared directly.
        x = np.random.default_rng(8).uniform(-1.0, 1.0, (2 * BLOCK_ROWS + 1, 16))
        params = init_mlp((16, 64, 64, 101), 2)
        joined = np.concatenate([forward(params, x[rows]) for rows in row_blocks(len(x))])
        assert joined.tobytes() == forward(params, x).tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_names_epoch_split_rows_and_ids(self):
        # Only rows of the second row block overflow; the reported rows count
        # from the start of the split, not of the block.
        n = BLOCK_ROWS + 40
        bad = [BLOCK_ROWS + 5, BLOCK_ROWS + 30]
        X = np.zeros((n, 3))
        X[bad] = 1e200
        ds = Dataset(G101, 1000 + np.arange(n), X, np.full(n, 50.0), np.full(n, 5.0))
        assert [rows.start for rows in row_blocks(n)] == [0, BLOCK_ROWS]
        params = MlpParams((3, 101), init_mlp((3, 101), 0).vec * 1e200)
        expected = (f"epoch 3, val evaluation: non-finite activations in forward pass at batch row(s) {bad}; "
                    f"sample id(s) {[1000 + r for r in bad]}")
        with pytest.raises(TrainingDivergedError, match=f"^{re.escape(expected)}$") as info:
            evaluate(params, ds, LossSpec(FAMILY_FULL_KL), 3, "val")
        assert info.value.rows.tolist() == bad

    def test_metrics_validation(self):
        b = LossSpec(FAMILY_FULL_KL)
        ds = gen_synthetic(10, 4, G101, (2.0, 6.0), seed=0)
        m = evaluate(init_mlp((4, 8, 101), 0), ds, b, 3, "val")
        assert m.epoch == 3 and m.split == "val"
        assert isinstance(m, LossBreakdown) and m.family == FAMILY_FULL_KL
        terms = (m.family, m.l_ld, m.l_exp, m.l_smooth, m.total)
        with pytest.raises(ValueError, match="epoch"):
            Metrics(*terms, epoch=-1, split="train", mae=1.0)
        with pytest.raises(ValueError, match="split"):
            Metrics(*terms, epoch=0, split="test", mae=1.0)
        with pytest.raises(ValueError, match="mae"):
            Metrics(*terms, epoch=0, split="train", mae=-1.0)
        # the loss terms are checked by LossBreakdown, before the labels
        with pytest.raises(ValueError, match="^loss components must be finite$"):
            Metrics(m.family, m.l_ld, np.inf, m.l_smooth, m.total, epoch=-1, split="train", mae=1.0)
        with pytest.raises(ValueError, match="^full-KL breakdown requires l_smooth$"):
            Metrics(m.family, m.l_ld, m.l_exp, None, m.total, epoch=3, split="val", mae=1.0)
        with pytest.raises(ValueError, match="^reference breakdown has no smoothness term$"):
            Metrics(FAMILY_REFERENCE, m.l_ld, m.l_exp, m.l_smooth, m.total, epoch=3, split="val", mae=1.0)
        with pytest.raises(TypeError):  # the added fields are keyword-only
            Metrics(*terms, 3, "val", 1.0)


# ---------------------------------------------------------------------------
# TrainConfig / derive_seeds / train_run
# ---------------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_follow_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 60 and cfg.batch_size == 128
        assert cfg.lr == 1e-3 and cfg.lr_decay_factor == 0.1 and cfg.lr_decay_every == 30
        assert cfg.hidden == (64, 64) and cfg.val_fraction == 0.2
        assert cfg.loss.family == FAMILY_FULL_KL

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"lr": -1.0},
            {"lr_decay_factor": 0.0},
            {"lr_decay_factor": 1.5},
            {"lr_decay_every": 0},
            {"hidden": (0,)},
            {"val_fraction": 0.0},
            {"val_fraction": 1.0},
            {"loss": "full_kl"},
            {"epochs": 2**63},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("bad", [2.5, True, "3"])
    @pytest.mark.parametrize("name", ["epochs", "batch_size", "lr_decay_every", "seed", "hidden"])
    def test_integer_fields_reject_fraction_bool_and_string(self, name, bad):
        value = (bad, 8) if name == "hidden" else bad
        with pytest.raises(ValueError, match=re.escape(f"{name}: expected an integer, got {bad!r}")):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("bad", [5, "88", None])
    def test_hidden_must_be_a_list(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"hidden: expected a list of integers, got {bad!r}")):
            TrainConfig(hidden=bad)

    def test_integer_fields_accept_whole_numbers(self):
        cfg = TrainConfig(epochs=3.0, batch_size=np.int64(16), seed=np.uint32(7), hidden=(8.0, np.int32(4)))
        assert (cfg.epochs, cfg.batch_size, cfg.seed, cfg.hidden) == (3, 16, 7, (8, 4))
        assert all(type(v) is int for v in (cfg.epochs, cfg.batch_size, cfg.seed, *cfg.hidden))


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_seeds(0)
        assert a == derive_seeds(0)
        assert len(set(a)) == 3
        assert a != derive_seeds(1)


class TestTrainRun:
    def small_run(self, seed=0, epochs=2, family=FAMILY_FULL_KL, lam=None):
        ds = gen_synthetic(60, 4, G101, (2.0, 6.0), seed=11)
        split_seed, _, _ = derive_seeds(seed)
        train_ds, val_ds = split(ds, 0.2, split_seed)
        cfg = TrainConfig(
            epochs=epochs, batch_size=16, hidden=(8, 8),
            loss=LossSpec(family, lam), seed=seed,
        )
        return train_run(train_ds, val_ds, cfg, quiet=True)

    def test_history_structure(self):
        res = self.small_run(epochs=3)
        assert len(res.history) == 6
        for e in range(3):
            tr, va = res.history[2 * e], res.history[2 * e + 1]
            assert tr.epoch == va.epoch == e + 1
            assert tr.split == "train" and va.split == "val"

    def test_bit_reproducible(self):
        r1 = self.small_run()
        r2 = self.small_run()
        assert params_equal(r1.params, r2.params)
        assert r1.history == r2.history

    def test_seed_changes_run(self):
        assert not params_equal(self.small_run(seed=0).params, self.small_run(seed=1).params)

    @pytest.mark.parametrize("family, lam", [(FAMILY_FULL_KL, None), (FAMILY_REFERENCE, 1.0)],
                             ids=["full_kl", "reference"])
    def test_train_row_is_the_loss_at_the_params_before_the_epoch(self, family, lam):
        # batch_size >= n_train: each epoch is one step, so its train row is evaluate's at the epoch's start.
        ds = gen_synthetic(60, 4, G101, (2.0, 6.0), seed=11)
        train_ds, val_ds = split(ds, 0.2, derive_seeds(0)[0])
        cfg = TrainConfig(epochs=2, batch_size=64, hidden=(8, 8), loss=LossSpec(family, lam), seed=0)
        assert len(train_ds) <= cfg.batch_size
        history = train_run(train_ds, val_ds, cfg, quiet=True).history
        start = init_mlp((train_ds.d_in, *cfg.hidden, len(G101)), derive_seeds(cfg.seed)[1])
        after_one = train_run(train_ds, val_ds, replace(cfg, epochs=1), quiet=True).params
        for epoch, params in ((1, start), (2, after_one)):
            row, oracle = history[2 * (epoch - 1)], evaluate(params, train_ds, cfg.loss, epoch, "train")
            assert (row.family, row.epoch, row.split) == (oracle.family, oracle.epoch, oracle.split)
            assert (row.l_smooth is None) == (oracle.l_smooth is None) == (family == FAMILY_REFERENCE)
            for name in ("l_ld", "l_exp", "l_smooth", "total", "mae"):
                if getattr(oracle, name) is not None:
                    assert getattr(row, name) == pytest.approx(getattr(oracle, name), rel=1e-12, abs=0.0), name

    def test_one_val_evaluation_per_epoch_and_one_loss_pass_per_step(self, monkeypatch):
        # No second pass over the train split: its metrics come from the steps' own loss values.
        splits, batches = [], []
        evaluate_, loss_and_grad = fullkl.model.evaluate, fullkl.model.batch_loss_and_grad

        def counted_evaluate(params, dataset, spec, epoch, split):
            splits.append(split)
            return evaluate_(params, dataset, spec, epoch, split)

        monkeypatch.setattr(fullkl.model, "evaluate", counted_evaluate)
        monkeypatch.setattr(fullkl.model, "batch_loss_and_grad", lambda *a: batches.append(1) or loss_and_grad(*a))
        ds = gen_synthetic(60, 4, G101, (2.0, 6.0), seed=11)
        train_ds, val_ds = split(ds, 0.2, 0)
        cfg = TrainConfig(epochs=3, batch_size=20, hidden=(8,))
        assert len(train_ds) % cfg.batch_size != 0
        train_run(train_ds, val_ds, cfg, quiet=True)
        assert splits == ["val"] * cfg.epochs
        assert len(batches) == math.ceil(len(train_ds) / cfg.batch_size) * cfg.epochs

    def test_val_grid_must_match_train_grid(self):
        # same bin count, other bin values: the network's bins are train_ds.grid's
        train_ds = gen_synthetic(20, 4, G101, (2.0, 6.0), seed=11)
        val_ds = gen_synthetic(10, 4, LabelGrid(1.0, 101.0, 1.0), (2.0, 6.0), seed=12)
        cfg = TrainConfig(epochs=1, batch_size=16, hidden=(8,))
        with pytest.raises(ValueError, match=re.escape("val_ds has grid LabelGrid(lo=1.0, hi=101.0, spacing=1.0), but")):
            train_run(train_ds, val_ds, cfg, quiet=True)
        # an equal grid built separately is accepted
        train_run(train_ds, gen_synthetic(10, 4, LabelGrid(0.0, 100.0, 1.0), (2.0, 6.0), seed=12), cfg, quiet=True)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_reports_epoch_and_step(self):
        ds = gen_synthetic(40, 4, G101, (2.0, 6.0), seed=11)
        train_ds, val_ds = split(ds, 0.2, 0)
        cfg = TrainConfig(epochs=2, batch_size=16, hidden=(8,), lr=1e200)
        with pytest.raises(TrainingDivergedError, match=r"epoch \d+, step \d+") as info:
            train_run(train_ds, val_ds, cfg, quiet=True)
        # the step's rows are reported as sample ids of the training set
        ids = re.search(r"sample id\(s\) \[([\d, ]+)\]", str(info.value))
        assert ids is not None and info.value.rows is not None
        ids = [int(i) for i in ids.group(1).split(",")]
        assert 1 <= len(ids) <= 10 and set(ids) <= set(train_ds.ids.tolist())

    def test_divergence_in_the_update_blames_the_parameters(self, monkeypatch):
        ds = gen_synthetic(40, 4, G101, (2.0, 6.0), seed=11)
        train_ds, val_ds = split(ds, 0.2, 0)
        blow_up = lambda p, g, m, v, *rest: (p + np.inf, m, v)
        monkeypatch.setattr(fullkl.model, "_adam_arrays", blow_up)
        cfg = TrainConfig(epochs=1, batch_size=16, hidden=(8,))
        with pytest.raises(TrainingDivergedError, match=r"^epoch 1, step 1: non-finite parameters") as info:
            train_run(train_ds, val_ds, cfg, quiet=True)
        assert info.value.rows is None and "sample id" not in str(info.value)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("lr", [1e80, 1e100])
    def test_overflowing_second_moment_is_a_divergence(self, lr):
        # g * g overflows v to inf while the params stay finite: the step m / inf = 0 would freeze them.
        ds = gen_synthetic(300, 4, G101, (2.0, 6.0), seed=11)
        train_ds, val_ds = split(ds, 0.2, 0)
        cfg = TrainConfig(epochs=3, batch_size=128, hidden=(64, 64), lr=lr)
        with pytest.raises(TrainingDivergedError, match=r"^epoch 1, step 2: non-finite optimizer state after update$"):
            train_run(train_ds, val_ds, cfg, quiet=True)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

class TestCheckpoints:
    def test_vec_round_trip(self):
        p = init_mlp((4, 8, 5), 0)
        assert params_equal(p, MlpParams(p.dims, p.vec))

    def test_vec_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            MlpParams((4, 8, 5), np.zeros(10))

    def test_save_load_lossless(self, tmp_path):
        p = init_mlp((4, 16, 101), 3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        assert params_equal(p, load_checkpoint(path))

    def test_save_is_byte_deterministic(self, tmp_path):
        p = init_mlp((4, 16, 5), 3)
        save_checkpoint(p, tmp_path / "a.ckpt")
        save_checkpoint(p, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_header_carries_format_and_dims(self, tmp_path):
        p = init_mlp((3, 4), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        header = path.read_bytes().split(b"\n", 1)[0].decode()
        assert CHECKPOINT_FORMAT in header and "[3, 4]" in header

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"\x00\x01\x02 not a checkpoint\n\xff")
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, error", [
        ([1], f"not a {CHECKPOINT_FORMAT} checkpoint"),
        ({"format": CHECKPOINT_FORMAT}, "checkpoint header lacks a dims list"),
    ], ids=["not_an_object", "no_dims"])
    def test_header_without_format_or_dims_rejected(self, tmp_path, header, error):
        path = tmp_path / "m.ckpt"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(8))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {error}')}$"):
            load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        p = init_mlp((3, 4), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(blob[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_header_nested_past_the_decoder_depth_names_path(self, tmp_path):
        path = tmp_path / "deep.ckpt"
        path.write_bytes(b"[" * 100_000 + b"\n" + bytes(8))
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: not a {CHECKPOINT_FORMAT} checkpoint')}$"):
            load_checkpoint(path)

    def test_dims_beyond_the_address_space_name_path(self, tmp_path):
        # 8 * the parameter count of these dims has more digits than str() of an int may print.
        path = tmp_path / "huge.ckpt"
        dims = [10**4000, 10**4000]
        path.write_bytes(json.dumps({"dims": dims, "format": CHECKPOINT_FORMAT}).encode() + b"\n" + bytes(8))
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        assert str(info.value) == (f"{path}: dims {tuple(dims)} need at least {MAX_BINS} float64 values: "
                                   "a whole 128 TiB address space")

    @pytest.mark.parametrize("bad", [4.5, True, "4"])
    def test_dims_must_be_whole_numbers(self, tmp_path, bad):
        with pytest.raises(ValueError, match=re.escape(f"dims: expected an integer, got {bad!r}")):
            init_mlp((3, bad), 0)
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_mlp((3, 4), 0), path)
        payload = path.read_bytes().split(b"\n", 1)[1]
        header = json.dumps({"dims": [3, bad], "format": CHECKPOINT_FORMAT})
        path.write_bytes(header.encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: dims: expected an integer, got {bad!r}")):
            load_checkpoint(path)
        path.write_bytes(json.dumps({"dims": [3, 0], "format": CHECKPOINT_FORMAT}).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match=re.escape(f"{path}: dims must list at least 2 sizes")):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_payload_names_path(self, tmp_path, value):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_mlp((3, 4), 0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8] + np.array([value], dtype="<f8").tobytes())
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: parameters must be finite')}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut, extra", [(3, b""), (8, b""), (0, b"\x00" * 8)],
                             ids=["cut-3-bytes", "cut-8-bytes", "append-8-bytes"])
    def test_wrong_payload_length_names_path_and_byte_counts(self, tmp_path, cut, extra):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_mlp((3, 4), 0), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - cut] + extra)
        expected, actual = 8 * 16, 8 * 16 - cut + len(extra)
        with pytest.raises(ValueError) as info:
            load_checkpoint(path)
        msg = str(info.value)
        assert str(path) in msg and f"{expected}-byte" in msg and f"got {actual} bytes" in msg
