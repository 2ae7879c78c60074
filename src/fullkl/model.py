"""Minimal feed-forward network with a softmax distribution head.

Hidden layers are affine + rectifier; the output layer emits raw logits over
the label grid, and predictions are the expectation of the softmaxed pmf.
Backpropagation is written out directly: the only nontrivial gradient is the
loss head, which losses.py supplies analytically, and everything upstream is
the standard affine/rectifier chain rule.  Training is functional —
``train_step`` consumes (params, opt_state) and returns fresh ones — which is
what makes runs bit-reproducible given (seed, config, dataset).

The training state is flat: params, the gradient and both Adam moments are
float64 vectors in the ``MlpParams.vec`` layout, and ``MlpParams``
exposes read-only per-layer views into its vector.  ``_backward`` writes each
layer's gradient into its slice of one vector, and ``adam_update`` makes one
``_adam_arrays`` call over the whole vector and checks that the new params
and ``v`` are finite.  The one way in is ``MlpParams(dims, vec)``, which
copies and checks the vector; ``init_mlp``, ``load_checkpoint``, pickling
and copying all go through it, and only ``adam_update`` wraps its own fresh
vector without a second check.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, atomic_write
from .grid import LabelGrid, _number, _rectify, _whole_int, pmf_moments, row_blocks, softmax_probs
from .losses import FAMILY_FULL_KL, LossBreakdown, LossSpec, _breakdown, batch_loss, batch_loss_and_grad

__all__ = [
    "CHECKPOINT_FORMAT", "SPLIT_TAGS", "TrainingDivergedError", "MlpParams", "OptimizerState",
    "TrainConfig", "Metrics", "TrainResult", "init_mlp", "forward", "adam_update",
    "init_adam", "train_step", "lr_at", "predict", "evaluate", "derive_seeds",
    "train_run", "save_checkpoint", "load_checkpoint",
]

log = logging.getLogger(__name__)

CHECKPOINT_FORMAT = "mlp-ckpt-v1"

# Adam's fixed decay rates and denominator floor (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

class TrainingDivergedError(RuntimeError):
    """A forward pass, loss, or parameter update produced non-finite values.

    ``rows`` holds the offending batch rows, or None when the parameters or
    the Adam moments are at fault.
    """

    def __init__(self, message: str, rows=None):
        super().__init__(message)
        self.rows = rows


def _in_context(where: str, exc: TrainingDivergedError, ids: np.ndarray) -> TrainingDivergedError:
    """``exc`` with ``where`` in front and, if it names rows, the sample ids ``ids`` holds at those rows."""
    msg = f"{where}: {exc}"
    if exc.rows is not None:
        msg += f"; sample id(s) {ids[exc.rows[:10]].tolist()}"
    return TrainingDivergedError(msg, exc.rows)


def _forward_diverged(rows: np.ndarray) -> TrainingDivergedError:
    return TrainingDivergedError(f"non-finite activations in forward pass at batch row(s) {rows[:10].tolist()}", rows)


def _validated_dims(dims, where: str = "dims") -> tuple[int, ...]:
    out = tuple(_whole_int(d, where) for d in dims)
    if len(out) < 2 or any(d < 1 for d in out):
        raise ValueError(f"{where} must list at least 2 sizes, all >= 1, got {out}")
    return out


def _layer_views(dims, vec: np.ndarray):
    """Per-layer (weights, biases) views into a flat vector of ``_param_count(dims)``."""
    ws, bs, pos = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        ws.append(vec[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        bs.append(vec[pos:pos + fan_out])
        pos += fan_out
    return tuple(ws), tuple(bs)


def _param_count(dims) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


@dataclass(frozen=True, init=False, eq=False)
class MlpParams:
    """Immutable layer parameters for dims [d_in, hidden..., n_bins].

    One read-only float64 vector ``vec`` holds them in the layout W0
    (row-major), b0, W1, b1, ...; ``weights`` and ``biases`` are views into
    it.  The constructor copies ``vec`` and checks its length and values;
    pickling and copying go through it, so a copy keeps its views.  Params
    compare and hash by identity.
    """

    dims: tuple[int, ...]
    vec: np.ndarray
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __init__(self, dims, vec):
        dims = _validated_dims(dims)
        vec = np.array(vec, dtype=np.float64)
        if vec.shape != (_param_count(dims),):
            raise ValueError(f"dims {dims} need a vector of shape ({_param_count(dims)},), got {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("parameters must be finite")
        self.__dict__.update(MlpParams._wrap(dims, vec).__dict__)

    def __reduce__(self):
        return MlpParams, (self.dims, self.vec)

    @classmethod
    def _wrap(cls, dims: tuple[int, ...], vec: np.ndarray) -> "MlpParams":
        """No-copy, no-check constructor over a vector the caller just made."""
        params = object.__new__(cls)
        vec.flags.writeable = False  # before the views, so they inherit it
        ws, bs = _layer_views(dims, vec)
        params.__dict__.update(dims=dims, vec=vec, weights=ws, biases=bs)
        return params

    @property
    def n_layers(self) -> int:
        return len(self.dims) - 1

    @property
    def d_in(self) -> int:
        return self.dims[0]

    @property
    def n_bins(self) -> int:
        return self.dims[-1]

    @property
    def size(self) -> int:
        return self.vec.size


def init_mlp(dims, seed: int) -> MlpParams:
    """Seeded init: weights zero-mean normal scaled by 1/sqrt(fan_in), biases zero."""
    dims = _validated_dims(dims)
    rng = np.random.default_rng(seed)
    parts = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        parts += [rng.normal(0.0, 1.0 / np.sqrt(fan_in), fan_in * fan_out), np.zeros(fan_out)]
    return MlpParams(dims, np.concatenate(parts))


def _forward_cached(params: MlpParams, x: np.ndarray):
    """Batch forward pass returning logits plus per-layer backprop caches.

    Cache entry i holds (input to layer i, the :func:`_rectify` keep bits of
    layer i's output or None for the final linear layer).
    """
    caches, h = [], x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        a = h @ w + b
        keep = np.negative(a > 0.0, dtype=np.int64) if i < params.n_layers - 1 else None
        caches.append((h, keep))
        h = a if keep is None else _rectify(a, keep)
    if not np.all(np.isfinite(h)):
        raise _forward_diverged(np.flatnonzero(~np.isfinite(h).all(axis=-1)))
    return h, caches


def forward(params: MlpParams, features) -> np.ndarray:
    """Logits for one feature vector (d_in,) or a batch (batch, d_in)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.d_in:
        raise ValueError(f"features must have shape (..., {params.d_in}), got {x.shape}")
    logits, _ = _forward_cached(params, np.atleast_2d(x))
    return logits[0] if x.ndim == 1 else logits


def _backward(params: MlpParams, caches, d_logits: np.ndarray) -> np.ndarray:
    """Flat gradient of a scalar loss w.r.t. ``params.vec``, given d loss/d logits."""
    grad = np.empty(params.size)
    gw, gb = _layer_views(params.dims, grad)
    d_a = d_logits
    for i in range(params.n_layers - 1, -1, -1):
        np.matmul(caches[i][0].T, d_a, out=gw[i])
        d_a.sum(axis=0, out=gb[i])
        if i > 0:
            d_a = _rectify(d_a @ params.weights[i].T, caches[i - 1][1])
    return grad


@dataclass(frozen=True, eq=False)
class OptimizerState:
    """Adam state: learning rate, step counter, and moments ``m``, ``v`` (float64
    vectors in the layout of ``MlpParams.vec``), which the constructor makes
    read-only in place, without a copy.  Pickling and copying rebuild through
    it; states compare and hash by identity.
    """

    lr: float
    step: int
    m: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr!r}")
        if self.step < 0:
            raise ValueError(f"step must be >= 0, got {self.step!r}")
        for arr in (self.m, self.v):
            arr.flags.writeable = False

    def __reduce__(self):
        return OptimizerState, (self.lr, self.step, self.m, self.v)


def init_adam(params: MlpParams, lr: float = 1e-3) -> OptimizerState:
    return OptimizerState(lr, 0, np.zeros(params.size), np.zeros(params.size))


def _adam_arrays(p, g, m, v, lr: float, bc1: float, bc2: float):
    m2 = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
    v2 = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
    return p - lr * (m2 / bc1) / (np.sqrt(v2 / bc2) + ADAM_EPS), m2, v2


def adam_update(params: MlpParams, state: OptimizerState, grad: np.ndarray):
    """One bias-corrected Adam step over the flat vector; returns (params', state')."""
    if not grad.shape == state.m.shape == state.v.shape == (params.size,):
        shapes = f"{grad.shape}, {state.m.shape} and {state.v.shape}"
        raise ValueError(f"grad, m and v must have shape ({params.size},), got {shapes}")
    t = state.step + 1
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    p2, m2, v2 = _adam_arrays(params.vec, grad, state.m, state.v, state.lr, bc1, bc2)
    if not np.all(np.isfinite(p2)):
        raise TrainingDivergedError("non-finite parameters after optimizer update")
    if not np.all(np.isfinite(v2)):
        # A non-finite m makes p non-finite, but an inf in v (g * g overflowed) only
        # freezes its coordinate: the step m / inf is 0.
        raise TrainingDivergedError("non-finite optimizer state after update")
    return MlpParams._wrap(params.dims, p2), replace(state, step=t, m=m2, v=v2)


def _non_finite_terms(comps: dict, dlogits: np.ndarray) -> str:
    """Which loss terms, or the gradient, hold a non-finite value (the error path only)."""
    names = [k for k in ("l_ld", "l_exp", "l_smooth") if k in comps and not np.all(np.isfinite(comps[k]))]
    if not np.all(np.isfinite(dlogits)):
        names.append("gradient")
    return ", ".join(names) or "total"


def train_step(
    params: MlpParams,
    opt_state: OptimizerState,
    batch,
    g: LabelGrid,
    spec: LossSpec,
    target_moments: tuple[np.ndarray, np.ndarray] | None = None,
):
    """One optimizer step on a (features, target_pmfs) batch; returns (params', opt_state').

    The batch gradient is the arithmetic mean of per-sample loss gradients in
    the given order.  ``target_moments`` optionally passes the batch's cached
    target (mu, var) through to the loss.  The step's loss values are only
    checked for finiteness; ``evaluate`` reports losses.
    """
    feats, targets = batch
    feats = np.asarray(feats, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] != params.d_in:
        raise ValueError(f"batch features must have shape (b >= 1, {params.d_in}), got {feats.shape}")
    if targets.shape != (feats.shape[0], params.n_bins):
        raise ValueError(
            f"batch targets must have shape ({feats.shape[0]}, {params.n_bins}), got {targets.shape}"
        )
    logits, caches = _forward_cached(params, feats)
    comps, dlogits = batch_loss_and_grad(targets, logits, g, spec, target_moments)
    bad = np.flatnonzero(~(np.isfinite(comps["total"]) & np.isfinite(dlogits).all(axis=-1)))
    if bad.size:
        raise TrainingDivergedError(
            f"non-finite {_non_finite_terms(comps, dlogits)} at batch row(s) {bad[:10].tolist()}", bad
        )
    grad = _backward(params, caches, dlogits / feats.shape[0])
    return adam_update(params, opt_state, grad)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer protocol and architecture for one seeded run."""

    epochs: int = 60
    batch_size: int = 128
    lr: float = 1e-3
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 30
    loss: LossSpec = field(default_factory=lambda: LossSpec(FAMILY_FULL_KL))
    seed: int = 0
    hidden: tuple[int, ...] = (64, 64)
    val_fraction: float = 0.2

    def __post_init__(self):
        """Checks every field; each error message starts with the field's name."""
        for name in ("epochs", "batch_size", "lr_decay_every", "seed"):
            value = _whole_int(getattr(self, name), name)
            least = 0 if name == "seed" else 1
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value!r}")
            object.__setattr__(self, name, value)
        for name in ("lr", "lr_decay_factor", "val_fraction"):
            object.__setattr__(self, name, _number(getattr(self, name), name))
        if not isinstance(self.hidden, (list, tuple)):
            raise ValueError(f"hidden: expected a list of integers, got {self.hidden!r}")
        object.__setattr__(self, "hidden", tuple(_whole_int(h, "hidden") for h in self.hidden))
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ValueError(f"lr must be finite and >= 0, got {self.lr!r}")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError(f"lr_decay_factor must be in (0, 1], got {self.lr_decay_factor!r}")
        if not isinstance(self.loss, LossSpec):
            raise ValueError("loss must be a LossSpec")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden sizes must be >= 1, got {self.hidden!r}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction!r}")


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Stepped decay: lr * factor^floor(epoch / every); epoch is 0-based."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch!r}")
    return cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)


def predict(params: MlpParams, features, g: LabelGrid):
    """Expectation of the predicted pmf: a real label, not a bin index."""
    if len(g) != params.n_bins:
        raise ValueError(f"grid has {len(g)} bins but the network emits {params.n_bins}")
    probs = softmax_probs(forward(params, features))
    mu, _ = pmf_moments(probs, g.values)
    return float(mu) if np.ndim(mu) == 0 else mu


# The partitions ``train_run`` evaluates each epoch, in the order it records them.
SPLIT_TAGS = ("train", "val")


@dataclass(frozen=True)
class Metrics:
    """Per-split evaluation snapshot: mean loss components plus MAE."""

    epoch: int
    split: str
    breakdown: LossBreakdown
    mae: float

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError(f"epoch must be >= 0, got {self.epoch!r}")
        if self.split not in SPLIT_TAGS:
            raise ValueError(f"split must be one of {SPLIT_TAGS}, got {self.split!r}")
        if not (np.isfinite(self.mae) and self.mae >= 0.0):
            raise ValueError(f"mae must be finite and >= 0, got {self.mae!r}")


def evaluate(params: MlpParams, dataset: Dataset, spec: LossSpec, epoch: int, split: str) -> Metrics:
    """Mean loss components and MAE of ``params`` over ``dataset``, on its own grid.

    ``epoch`` and ``split`` (one of ``SPLIT_TAGS``) label the returned
    ``Metrics``.  Runs one ``grid.row_blocks`` block of rows at a time; the
    per-row values are joined before the means are taken, so the result has
    the bits of one pass over the whole dataset.  A non-finite forward pass
    raises with the epoch, the split, and its rows and ids in ``dataset``.
    """
    mu_t, var_t = dataset.target_moments
    chunks = []
    for rows in row_blocks(len(dataset)):
        try:
            logits = forward(params, dataset.features[rows])
        except TrainingDivergedError as exc:
            bad = _forward_diverged(exc.rows + rows.start)
            raise _in_context(f"epoch {epoch}, {split} evaluation", bad, dataset.ids) from exc
        moments = (mu_t[rows], var_t[rows])
        chunks.append(batch_loss(dataset.target_pmfs[rows], logits, dataset.grid, spec, moments))
    comps = {key: np.concatenate([c[key] for c in chunks]) for key in chunks[0]}
    mae = float(np.mean(np.abs(comps["pred_mu"] - dataset.target_mu)))
    return Metrics(epoch, split, _breakdown(spec.family, comps), mae)


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """Spawn independent (split, init, shuffle) sub-seeds from one run seed."""
    split_seed, init_seed, shuffle_seed = np.random.SeedSequence(seed).generate_state(3)
    return int(split_seed), int(init_seed), int(shuffle_seed)


@dataclass(frozen=True)
class TrainResult:
    """Final parameters plus the (train, val) metrics pair for every epoch."""

    params: MlpParams
    history: tuple[Metrics, ...]


def train_run(train_ds: Dataset, val_ds: Dataset, cfg: TrainConfig, quiet: bool = False) -> TrainResult:
    """One seeded training run: shuffled mini-batches, stepped lr, per-epoch metrics.

    The network's output bins are ``train_ds.grid``, which ``val_ds`` must
    share.  Initialization and shuffling use sub-seeds derived from
    ``cfg.seed``, so the run is a deterministic function of (seed, config,
    datasets).
    """
    g = train_ds.grid
    if val_ds.grid != g:
        raise ValueError(f"val_ds has grid {val_ds.grid}, but train_ds has {g}")
    _, init_seed, shuffle_seed = derive_seeds(cfg.seed)
    params = init_mlp((train_ds.d_in, *cfg.hidden, len(g)), init_seed)
    opt = init_adam(params, lr=cfg.lr)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    n = len(train_ds)
    mu_t, var_t = train_ds.target_moments
    history: list[Metrics] = []
    for epoch in range(cfg.epochs):
        opt = replace(opt, lr=lr_at(epoch, cfg))
        perm = shuffle_rng.permutation(n)
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = perm[start:start + cfg.batch_size]
            batch = (train_ds.features[idx], train_ds.target_pmfs[idx])
            try:
                params, opt = train_step(params, opt, batch, g, cfg.loss, (mu_t[idx], var_t[idx]))
            except TrainingDivergedError as exc:
                raise _in_context(f"epoch {epoch + 1}, step {step + 1}", exc, train_ds.ids[idx]) from exc
        train_m, val_m = (evaluate(params, ds, cfg.loss, epoch + 1, tag)
                          for tag, ds in zip(SPLIT_TAGS, (train_ds, val_ds)))
        history += [train_m, val_m]
        if not quiet:
            log.info(
                "epoch %3d  lr %.1e  train total %.6f  val total %.6f  val mae %.4f",
                epoch + 1, opt.lr, train_m.breakdown.total, val_m.breakdown.total, val_m.mae,
            )
    return TrainResult(params, tuple(history))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(params: MlpParams, path) -> None:
    """Lossless binary checkpoint: one JSON header line (format tag + dims)
    followed by the raw little-endian float64 bytes of the flat parameter
    vector.  Byte-identical for identical params; written atomically."""
    header = json.dumps({"dims": list(params.dims), "format": CHECKPOINT_FORMAT}, sort_keys=True)
    with atomic_write(path, binary=True) as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(params.vec, dtype="<f8").tobytes())


def load_checkpoint(path) -> MlpParams:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint") from None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    dims = header.get("dims")
    if not isinstance(dims, list):
        raise ValueError(f"{path}: checkpoint header lacks a dims list")
    expected = 8 * _param_count(_validated_dims(dims, f"{path}: dims"))
    if len(payload) != expected:
        raise ValueError(f"{path}: dims {dims} need a {expected}-byte payload, got {len(payload)} bytes")
    return MlpParams(dims, np.frombuffer(payload, dtype="<f8"))
