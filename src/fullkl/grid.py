"""Label grids, probability mass functions, moments, and Gaussian discretization.

Shared numeric substrate for the distribution losses: a regression range is
discretized into evenly spaced bins (a :class:`LabelGrid` is uniform by
construction), targets and predictions live on that grid as pmfs, and
(mu, var) moments are read directly off a pmf.  Everything here is
a pure function of immutable values, so instances are safe to share across
threads.  A ``LabelGrid`` or ``Pmf`` is built only by its constructor:
pickling and copying rebuild through it, so a copy is checked again and its
arrays stay read-only.

As the lowest layer that holds a config value, it also has the rules every
config type applies to its own fields, ``_whole_int``, ``_number`` and the
size rule ``_allocatable``, whose errors start with the field's config key.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LabelGrid",
    "Pmf",
    "Moments",
    "softmax",
    "softmax_probs",
    "moments",
    "pmf_moments",
    "gaussian_probs",
    "discretize_gaussian",
    "row_blocks",
]

PMF_SUM_TOL = 1e-9
MIN_SIGMA_FACTOR = 0.5    # narrower targets degenerate to a near-one-hot pmf
TRUNCATION_SIGMAS = 5.0   # beyond this the renormalized pmf stops resembling the Gaussian

# The one numeric floor: EPS_VAR floors predicted variances in denominators
# and logs, in label units squared.  No pmf is floored: losses.kl_div and
# losses.smoothness are inf where a zero makes a log ratio infinite.  All
# logarithms are natural: losses are in nats.
EPS_VAR = 1e-8

# 2**44 float64 values are 2**47 bytes, the whole 128 TiB user address space of 64-bit Linux.
MAX_BINS = 2**44

# Rows per block wherever a (rows, n_bins) array is built or reduced block by
# block (target pmfs and moments in data, evaluate in model).  It keeps each
# float64 temporary near 200 KiB at 101 bins, in cache, instead of the size of
# a whole split.  Per-row results do not depend on the blocking, with one
# exception: numpy sends a one-row matmul to gemv, whose bits differ from
# gemm's, so row_blocks never leaves a one-row tail.
BLOCK_ROWS = 256


def _whole_int(value, key: str) -> int:
    """``value`` as an int, if it is a whole number; bools and strings are not."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not whole:
        raise ValueError(f"{key}: expected an integer, got {value!r}")
    return int(value)


def _number(value, key: str) -> float:
    """``value`` as a float, if it is a real number; bools and strings are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{key}: expected a number within float range") from None


def _allocatable(count, what: str) -> None:
    """The one size rule, before numpy tries; ``what`` starts with the config key.  Only the builder
    of each allocating value applies it: ``LabelGrid``, ``data.DatasetSpec``, ``model._validated_dims``."""
    if not count < MAX_BINS:  # also an infinite count
        raise ValueError(f"{what} need at least {MAX_BINS} float64 values: a whole 128 TiB address space")


def row_blocks(n: int) -> list[slice]:
    """Slices of up to BLOCK_ROWS rows covering range(n), but a one-row tail joins the slice before: 257 -> [0:257]."""
    starts = list(range(0, max(n - 1, 1), BLOCK_ROWS))
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


@dataclass(frozen=True)
class LabelGrid:
    """Evenly spaced bin centers from ``lo`` to ``hi`` inclusive, ``spacing`` apart.

    ``(hi - lo) / spacing`` must be a whole number of steps (within 1e-9
    relative).  ``values`` is ``np.linspace(lo, hi, n)``: derived, read-only,
    and left out of ``==``, ``hash`` and ``repr``, which see only the three
    fields.  Errors name the config keys ``start``, ``stop`` and ``step``.
    """

    lo: float
    hi: float
    spacing: float
    values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        keys = ("start", "stop", "step")
        lo, hi, spacing = (_number(v, key) for v, key in zip((self.lo, self.hi, self.spacing), keys))
        for value, key in zip((lo, hi, spacing), keys):
            if not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if spacing <= 0:
            raise ValueError(f"step must be positive, got {spacing!r}")
        if hi <= lo:
            raise ValueError(f"stop must exceed start, got [{lo!r}, {hi!r}]")
        n_steps = (hi - lo) / spacing
        _allocatable(n_steps + 1, f"step: the bins of [{lo!r}, {hi!r}] at step {spacing!r}")
        n = round(n_steps)  # finite: an infinite count was refused
        if n < 1 or abs(n_steps - n) > 1e-9 * max(1.0, n_steps):
            raise ValueError(f"step: [{lo!r}, {hi!r}] is not an integral number of {spacing!r} steps")
        values = np.linspace(lo, hi, n + 1)
        values.flags.writeable = False
        for name, value in (("lo", lo), ("hi", hi), ("spacing", spacing), ("values", values)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        return LabelGrid, (self.lo, self.hi, self.spacing)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def span(self) -> float:
        return self.hi - self.lo

    @property
    def sigma_floor(self) -> float:
        """The narrowest target std this grid admits: MIN_SIGMA_FACTOR bin spacings."""
        return MIN_SIGMA_FACTOR * self.spacing


@dataclass(frozen=True, eq=False)
class Pmf:
    """Read-only pmf over a label grid: non-negative, sums to 1; compared by identity."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        if probs.ndim != 1:
            raise ValueError(f"pmf probabilities must be one-dimensional, got shape {probs.shape}")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if probs.size == 0:
            raise ValueError("pmf must not be empty")
        if not np.all(np.isfinite(probs)):
            raise ValueError("pmf entries must be finite")
        if np.any(probs < 0):
            raise ValueError("pmf entries must be non-negative")
        total = float(probs.sum())
        if abs(total - 1.0) > PMF_SUM_TOL:
            raise ValueError(f"pmf must sum to 1 within {PMF_SUM_TOL}, got {total!r}")

    def __reduce__(self):
        return Pmf, (self.probs,)

    def __len__(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class Moments:
    """Expectation and variance of a pmf, in label units and label units squared."""

    mu: float
    var: float

    def __post_init__(self):
        if not (np.isfinite(self.mu) and np.isfinite(self.var)):
            raise ValueError("moments must be finite")
        if self.var < 0:
            raise ValueError("variance must be non-negative")


def softmax_probs(logits: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis (raw-array form, batch friendly).

    The running maximum is subtracted before exponentiation, so the result is
    overflow free and bit-identical under any logit shift that is itself
    exactly representable.
    """
    z = np.asarray(logits, dtype=np.float64)
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.asarray(np.einsum("...j->...", e))[..., np.newaxis]  # a row sum without BLAS, as in pmf_moments
    return e


def softmax(logits) -> Pmf:
    """Softmax of a logit vector, as a strictly positive pmf."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("softmax expects a non-empty logit vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax logits must be finite")
    return Pmf(softmax_probs(z))


def pmf_moments(probs: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance along the last axis: mu = sum(y p), var = sum((y-mu)^2 p), in two passes.

    The row sums are ``np.einsum`` loops, never BLAS, so a row's bits do not
    depend on the rows around it, and target and predicted moments come from
    the same arithmetic.
    """
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    mu = np.einsum("...j,j->...", p, y)
    sq = y - np.asarray(mu)[..., np.newaxis]
    np.square(sq, out=sq)
    var = np.einsum("...j,...j->...", p, sq)
    return mu, var


def moments(p: Pmf, g: LabelGrid) -> Moments:
    """Expectation and variance of ``p`` over the bin values of ``g``."""
    if len(p) != len(g):
        raise ValueError(f"pmf has {len(p)} bins but grid has {len(g)}")
    mu, var = pmf_moments(p.probs, g.values)
    return Moments(float(mu), float(var))


def gaussian_probs(mu, sigma, values: np.ndarray) -> np.ndarray:
    """Normal densities at ``values``, renormalized along the last axis.

    Raw-array form of :func:`discretize_gaussian` without its checks.
    ``mu`` and ``sigma`` broadcast against ``values``: scalars give one pmf,
    (N, 1) columns give N rows, and a row's bits do not depend on the others.
    """
    exponent = -((values - mu) ** 2) / (2.0 * sigma * sigma)
    w = np.exp(exponent - exponent.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def discretize_gaussian(mu: float, sigma: float, g: LabelGrid) -> Pmf:
    """Normal density sampled at the bin centers of ``g``, renormalized.

    Requires ``sigma >= 0.5 * spacing`` (below that the pmf collapses towards
    one-hot and its variance stops tracking sigma^2) and ``mu`` no further
    than five sigma outside the grid span (beyond that most of the requested
    mass would be truncated away).
    """
    if not (np.isfinite(mu) and np.isfinite(sigma)):
        raise ValueError("mu and sigma must be finite")
    if sigma < g.sigma_floor:
        raise ValueError(f"sigma={sigma!r} below floor {g.sigma_floor!r} (half the bin spacing)")
    if mu < g.lo - TRUNCATION_SIGMAS * sigma or mu > g.hi + TRUNCATION_SIGMAS * sigma:
        raise ValueError(
            f"mu={mu!r} lies more than {TRUNCATION_SIGMAS} sigma outside [{g.lo}, {g.hi}]"
        )
    return Pmf(gaussian_probs(mu, sigma, g.values))
