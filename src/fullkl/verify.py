"""Oracles for the loss values, closed forms and analytic gradients.

Four judges here share no code with the losses they check: the brute-force
quadrature of the closed-form Gaussian-moment KL, the long-double
re-derivation of every loss component from its definition
(:func:`exact_components`), central finite differences as a method against
the analytic gradient, and the test for the reference loss's L1 kink.  The
rest does share code: the finite differences evaluate :func:`batch_loss`,
the trainer's own value kernel, and the random instances are built with the
grid's ``softmax_probs`` and ``gaussian_probs``.  So the gradient,
invariance, non-negativity and exact-zero checks hold for a loss whose
terms are consistently reweighted, and only ``kernel_values`` catches a
fault in the values, as ``TestPlantedFaults`` in ``tests/test_verify.py``
shows.  The trainer is only trusted after this module's suite passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .grid import (
    EPS_VAR,
    LabelGrid,
    Moments,
    Pmf,
    discretize_gaussian,
    gaussian_probs,
    softmax_probs,
)
from .losses import (
    FAMILY_FULL_KL,
    FAMILY_REFERENCE,
    LossSpec,
    batch_loss,
    batch_loss_and_grad,
    full_kl_grad,
    full_kl_loss,
    gaussian_kl,
    kl_div,
    smoothness,
)

__all__ = [
    "SweepRow",
    "SweepResult",
    "FidelityResult",
    "CheckResult",
    "REL_ERROR_FLOOR",
    "fd_grad",
    "fd_grad_rows",
    "rel_norm_error",
    "numeric_gaussian_kl",
    "gaussian_kl_sweep",
    "random_instance",
    "gradient_fidelity",
    "affine_invariance_errors",
    "exact_zero_violations",
    "component_minima",
    "exact_components",
    "kernel_value_errors",
    "run_all_checks",
]

REL_ERROR_FLOOR = 1e-12  # absolute floor in relative-error denominators

# A reference-family instance is redrawn when |mu_hat - mu| is within this
# many first-order finite-difference reaches of the L1 kink (see
# gradient_fidelity); the factor covers the second-order terms.
KINK_REACH_MARGIN = 2.0

# component_minima's default instance count, the one run_all_checks uses, and the most
# rows one of its batch_loss calls evaluates.  The block bounds evaluation only: each
# grid size's instances are drawn in one call, about 33 floats per instance in all.
MINIMA_INSTANCES = 10_000
MINIMA_BLOCK = 1024

MIN_QUADRATURE_POINTS = 10_000

# The suites' fixed settings: the quadrature window (in wider sigmas past both
# means), the sweep's sigma and mean-offset grids, gradient_fidelity's grid
# sizes and relative step, affine_invariance_errors' y -> a*y + b, and the
# reference family's lambda there, in component_minima and in run_all_checks.
SPAN_SIGMAS = 8.0
SWEEP_SIGMAS, SWEEP_DMUS = (0.5, 1.0, 2.0, 5.0, 10.0), (0.0, 1.0, 10.0)
FIDELITY_SIZES, FD_REL_STEP = (2, 5, 101), 1e-5
AFFINE_SCALE, AFFINE_SHIFT = 3.0, 7.0
ORACLE_LAMBDA = 1.0

# kernel_value_errors' logit standard deviations, grid sizes, rows per (spread, size) and
# relative bound: batch_loss against the long-double re-derivation on Gaussian targets.
KERNEL_VALUE_SPREADS = (2.0, 10.0, 30.0, 200.0)
KERNEL_VALUE_SIZES = (2, 5, 101, 300)
KERNEL_VALUE_ROWS = 8
KERNEL_VALUE_TOL = 1e-12


def fd_grad(loss_fn: Callable[[np.ndarray], float], logits, h) -> np.ndarray:
    """Central-difference gradient (f(x+h e_i) - f(x-h e_i)) / (2h).

    ``h`` may be a positive scalar or a per-coordinate vector of steps (the
    randomized suites use h_i = 1e-5 * max(1, |x_i|)).  Exact to rounding on
    polynomials of degree <= 2.  Works for any real argument vector, not
    just logits.  It is :func:`fd_grad_rows` on one vector, with ``loss_fn``
    called on a copy of each perturbed row in turn, so ``loss_fn`` may
    write into its argument.
    """
    if np.ndim(logits) != 1:
        raise ValueError("fd_grad expects a non-empty vector")
    return fd_grad_rows(lambda rows: [float(loss_fn(row.copy())) for row in rows], logits, h)


def fd_grad_rows(loss_rows: Callable[[np.ndarray], np.ndarray], x, h) -> np.ndarray:
    """:func:`fd_grad` with every perturbed point evaluated in one call.

    ``x`` is one vector of n coordinates or a (k, n) stack of k of them,
    with ``h`` broadcast to its shape.  ``loss_rows`` maps a (k*2n, n) stack
    of rows to their (k*2n,) vector of losses, laid out instance by
    instance: for instance j, rows 2n*j..2n*j+n-1 are x_j + h_ji e_i and
    the next n are x_j - h_ji e_i.  Returns the gradients in ``x``'s
    shape.  The stack holds k*2n^2 floats: the network-parameter check has
    n = 41 and k = 1, and :func:`gradient_fidelity` keeps each stack within
    the 2*max(FIDELITY_SIZES)^2 floats of one n = 101 instance, so it stays
    under 170 kB.
    """
    x = np.array(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.size == 0:
        raise ValueError("fd_grad expects a non-empty vector")
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    if not np.all(steps > 0):
        raise ValueError("finite-difference step must be positive")
    xs, hs = np.atleast_2d(x), np.atleast_2d(steps)
    k, n = xs.shape
    rows = np.repeat(xs, 2 * n, axis=0)
    stack = rows.reshape(k, 2 * n, n)
    i = np.arange(n)
    stack[:, i, i] += hs
    stack[:, n + i, i] -= hs
    f = np.asarray(loss_rows(rows), dtype=np.float64)
    if f.shape != (2 * k * n,):
        raise ValueError(f"loss_rows must return one loss per row, shape {(2 * k * n,)}, got {f.shape}")
    f = f.reshape(k, 2 * n)
    fp, fm = f[:, :n], f[:, n:]
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if np.any(bad):
        j, c = divmod(int(np.argmax(bad)), n)
        where = f" in instance {j}" if x.ndim == 2 else ""
        raise ValueError(f"loss_fn non-finite{where} near coordinate {c}")
    return ((fp - fm) / (2.0 * hs)).reshape(x.shape)


def rel_norm_error(analytic, numeric) -> float:
    """||a - n||_2 / max(1e-12, ||a||_2 + ||n||_2) — the randomized-suite metric."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.linalg.norm(a - n) / max(REL_ERROR_FLOOR, np.linalg.norm(a) + np.linalg.norm(n)))


def _log_kernel(x: np.ndarray, m: Moments, out: np.ndarray) -> np.ndarray:
    """-(x - mu)^2 / (2 var) of a Gaussian with moments ``m``, written into ``out``.

    The negation rides in the divisor, (x - mu)^2 / (-2 var): IEEE division
    rounds |a / b| the same whatever the signs, so the bits are those of
    negating first.
    """
    np.subtract(x, m.mu, out=out)
    np.square(out, out=out)
    return np.divide(out, -2.0 * m.var, out=out)


def _log_normalize(a: np.ndarray, scratch: np.ndarray) -> None:
    """a -= logsumexp(a) in place, with ``scratch`` (same shape) as the work buffer."""
    m = float(np.max(a))
    np.exp(np.subtract(a, m, out=scratch), out=scratch)
    np.subtract(a, m + float(np.log(np.sum(scratch))), out=a)


def _window(target_m: Moments, pred_m: Moments) -> tuple[float, float]:
    """The quadrature window (lo, hi): both means +- SPAN_SIGMAS * the wider sigma."""
    reach = SPAN_SIGMAS * math.sqrt(max(target_m.var, pred_m.var))
    return min(target_m.mu, pred_m.mu) - reach, max(target_m.mu, pred_m.mu) + reach


def _window_kls(window: tuple[float, float], points: int, held: Moments, held_is_target: bool,
                others: list[Moments]) -> list[float]:
    """Discrete KLs on one window between ``held`` and each moment pair of ``others``.

    ``held`` is the target of every KL when ``held_is_target``, else the
    prediction.  Each density is sampled on ``np.linspace(*window,
    points)`` and renormalized in log space; ``held``'s is built once.
    At most three ``points``-long buffers are live: the held log-density,
    the current one (its abscissae are regenerated into it) and a scratch.
    """
    log_h = np.linspace(*window, points)
    _log_kernel(log_h, held, log_h)
    scratch = np.empty(points)
    _log_normalize(log_h, scratch)
    kls = []
    for m in others:
        log_m = np.linspace(*window, points)
        _log_kernel(log_m, m, log_m)
        _log_normalize(log_m, scratch)
        if held_is_target:  # log t - log p over the prediction, t into the scratch
            np.subtract(log_h, log_m, out=log_m)
            np.exp(log_h, out=scratch)
        else:  # log t - log p into the scratch, t over its own log
            np.subtract(log_m, log_h, out=scratch)
            np.exp(log_m, out=log_m)
        kls.append(float(np.sum(np.multiply(scratch, log_m, out=scratch))))
        del log_m  # the next density is allocated with only log_h and the scratch live
    return kls


def numeric_gaussian_kl(target_m: Moments, pred_m: Moments, points: int = 100_000) -> float:
    """Quadrature oracle for the closed-form Gaussian-moment KL.

    Both densities are sampled on a shared uniform grid covering both means
    +- SPAN_SIGMAS * max(sigma, sigma_hat), renormalized, and fed through
    the discrete KL sum.  All of it runs in log space (log-densities and a
    log-sum-exp normalizer), so extreme moment pairs — where one density
    underflows across most of the window — lose nothing to rounding.  It is
    the one-pair case of :func:`_window_kls`: three ``points``-long buffers
    (log t, log p and a scratch), with the float operations of the plain
    whole-array expression in the same order, so it returns the same bits.
    """
    if points < MIN_QUADRATURE_POINTS:
        raise ValueError(f"points must be >= {MIN_QUADRATURE_POINTS}, got {points}")
    if target_m.var < EPS_VAR or pred_m.var < EPS_VAR:
        raise ValueError("variances must sit above the EPS_VAR floor")
    (kl,) = _window_kls(_window(target_m, pred_m), points, target_m, True, [pred_m])
    return kl


@dataclass(frozen=True)
class SweepRow:
    sigma_t: float
    sigma_p: float
    dmu: float
    closed: float
    numeric: float
    abs_err: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    max_abs_err: float

    @property
    def worst(self) -> SweepRow:
        return max(self.rows, key=lambda r: r.abs_err)


def gaussian_kl_sweep() -> SweepResult:
    """Closed-form gaussian_kl vs quadrature oracle over the SWEEP_SIGMAS x SWEEP_DMUS moment pairs.

    The pairs whose wider sigma and mean offset agree share one window, so
    the 75 pairs take 15 windows.  Per window, the target N(0, wide^2) is
    held against every prediction N(dmu, s^2) with s <= wide, and the
    prediction N(dmu, wide^2) against every target N(0, s^2) with s < wide:
    102 log-densities, each on :func:`numeric_gaussian_kl`'s 100,000 points,
    and every KL the bits of that function's.
    """
    quadrature = {}
    for dmu in SWEEP_DMUS:
        for wide in SWEEP_SIGMAS:
            held_t, held_p = Moments(0.0, wide * wide), Moments(float(dmu), wide * wide)
            window = _window(held_t, held_p)
            within = [s for s in SWEEP_SIGMAS if s <= wide]
            kls = _window_kls(window, 100_000, held_t, True, [Moments(float(dmu), s * s) for s in within])
            quadrature.update(((wide, s, dmu), kl) for s, kl in zip(within, kls))
            narrower = [s for s in SWEEP_SIGMAS if s < wide]
            if narrower:
                kls = _window_kls(window, 100_000, held_p, False, [Moments(0.0, s * s) for s in narrower])
                quadrature.update(((s, wide, dmu), kl) for s, kl in zip(narrower, kls))
    rows = []
    for sigma_t in SWEEP_SIGMAS:
        for sigma_p in SWEEP_SIGMAS:
            for dmu in SWEEP_DMUS:
                target_m = Moments(0.0, sigma_t * sigma_t)
                pred_m = Moments(float(dmu), sigma_p * sigma_p)
                closed = gaussian_kl(target_m, pred_m)
                numeric = quadrature[sigma_t, sigma_p, dmu]
                rows.append(SweepRow(sigma_t, sigma_p, float(dmu), closed, numeric, abs(closed - numeric)))
    return SweepResult(tuple(rows), max(r.abs_err for r in rows))


# ---------------------------------------------------------------------------
# Randomized gradient fidelity
# ---------------------------------------------------------------------------


def _require_instances(n_instances: int) -> None:
    """Raise unless a randomized suite is asked for at least one instance; with none it would test nothing."""
    if n_instances < 1:
        raise ValueError(f"n_instances must be at least 1, got {n_instances}")


def _draw_rows(rng: np.random.Generator, g: LabelGrid, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k random instances on ``g``: (target pmfs, logits), each (k, n).

    The draws are taken kind by kind: the (k, n) N(0, 2^2) logits, k
    target-kind coins, the softmax targets' N(0, 1.5^2) logit rows, then
    the Gaussian targets' means and then their sigmas.  That order is part
    of the suites' format: a given seed always yields the same instances.
    All softmax targets go through one ``softmax_probs`` call and all
    Gaussian ones through one ``gaussian_probs`` call.  A row's bits do not
    depend on the others.  No ``Pmf`` is made: these pmfs come from the
    grid's own formulas, and re-validating them checks nothing.
    """
    n = len(g)
    logits = rng.normal(0.0, 2.0, (k, n))
    soft = rng.random(k) < 0.5
    n_soft = int(np.count_nonzero(soft))
    targets = np.empty_like(logits)
    targets[soft] = softmax_probs(rng.normal(0.0, 1.5, (n_soft, n)))
    sigma_lo = g.sigma_floor
    mu = rng.uniform(g.lo, g.hi, (k - n_soft, 1))
    sigma = rng.uniform(sigma_lo, max(sigma_lo, g.span / 4.0), (k - n_soft, 1))
    targets[~soft] = gaussian_probs(mu, sigma, g.values)
    return targets, logits


def _by_size(rng: np.random.Generator, sizes: Iterable[int],
             counts: Iterable[int]) -> Iterator[tuple[LabelGrid, np.ndarray, np.ndarray]]:
    """For each grid size n of ``sizes`` in order, (g, targets, logits): ``counts``' rows in one draw.

    ``g`` is the unit grid 0..n-1 and the rows come from one :func:`_draw_rows`
    call.  The generator is lazy, so a size's rows are drawn only when the
    loop reaches it, after whatever the loop drew for the sizes before.
    """
    for n, count in zip(sizes, counts):
        g = LabelGrid(0.0, float(n - 1), 1.0)
        yield (g, *_draw_rows(rng, g, int(count)))


def random_instance(rng: np.random.Generator, g: LabelGrid) -> tuple[Pmf, np.ndarray]:
    """A random (target pmf, logits) pair on ``g``.

    Targets alternate between discretized Gaussians (the structured shapes
    the trainer sees) and softmax draws (arbitrary valid pmfs); logits are
    mild N(0, 2^2) draws.  No kernel pmf is floored, so the spread is not
    needed for finiteness: it keeps the predicted variance far above the
    EPS_VAR floor, where the Gaussian-moment gradient becomes a subgradient,
    and keeps the losses smooth on the scale of the finite-difference steps.
    It is :func:`_draw_rows` with k = 1, wrapped in a ``Pmf`` for the
    per-sample API.  The suites do not call it: each draws all the rows of
    a grid size in one :func:`_draw_rows` call and wraps none.  Its callers
    are the tests that need one checked instance.
    """
    targets, logits = _draw_rows(rng, g, 1)
    return Pmf(targets[0]), logits[0]


@dataclass(frozen=True)
class FidelityResult:
    family: str
    sizes: tuple[int, ...]
    n_instances: int
    max_rel_error: float
    worst_size: int
    worst_instance: int
    redraws: int


def _near_l1_kink(targets: np.ndarray, logits: np.ndarray, values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row mask: whether central differences with steps ``h`` can cross mu_hat = mu.

    Moving logit i by h_i moves mu_hat by about p_i * |y_i - mu_hat| * h_i.
    Computed here from the definitions, independently of the losses module.
    """
    e = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    p = e / np.sum(e, axis=-1, keepdims=True)
    mu_hat = np.sum(p * values, axis=-1)
    mu = np.sum(targets * values, axis=-1)
    reach = np.max(p * np.abs(values - mu_hat[..., np.newaxis]) * h, axis=-1)
    return np.abs(mu_hat - mu) <= KINK_REACH_MARGIN * reach


def gradient_fidelity(spec: LossSpec, n_instances: int = 100, seed: int = 100) -> FidelityResult:
    """Analytic vs central-finite-difference gradients on random instances.

    The analytic gradients are :func:`batch_loss_and_grad`'s, the entry
    point ``train_step`` calls; the finite differences read
    :func:`batch_loss` of the same kernel, so they judge the gradient
    against its own loss value, not the value itself.  On grids of
    FIDELITY_SIZES bins, per instance the step is h_i = FD_REL_STEP *
    max(1, |logit_i|) and the discrepancy is measured with
    :func:`rel_norm_error`.

    The stream: for each size in order, one :func:`_draw_rows` call for
    its ``n_instances`` rows.  The reference loss has a kink where mu_hat =
    mu; before the next size is drawn, the rows whose steps could cross it
    are redrawn together, one :func:`_draw_rows` call per round until none
    is left, since central differences straddling the kink measure neither
    one-sided gradient.  ``redraws`` counts the redrawn rows.

    Each size's rows are evaluated in blocks: one
    :func:`batch_loss_and_grad` and one :func:`fd_grad_rows` call per block.
    A block's perturbed-row stack holds at most the 2*max(FIDELITY_SIZES)^2
    floats of one instance on the largest grid, so the small grids take one
    block each and the largest takes one instance per block.  A row's bits
    do not depend on its batch, so every error equals the one-instance
    evaluation's; ``worst_instance`` is the row within its size.
    """
    _require_instances(n_instances)
    rng = np.random.default_rng(seed)
    worst = (-1.0, 0, 0)
    redraws = 0
    for g, targets, logits in _by_size(rng, FIDELITY_SIZES, [n_instances] * len(FIDELITY_SIZES)):
        n = len(g)
        while spec.family == FAMILY_REFERENCE:
            near = _near_l1_kink(targets, logits, g.values, FD_REL_STEP * np.maximum(1.0, np.abs(logits)))
            m = int(np.count_nonzero(near))
            if not m:
                break
            targets[near], logits[near] = _draw_rows(rng, g, m)
            redraws += m
        block = max(FIDELITY_SIZES) ** 2 // n ** 2  # instances whose 2n^2-float stacks fit in one of the largest
        for start in range(0, n_instances, block):
            t, z = targets[start:start + block], logits[start:start + block]
            analytic = batch_loss_and_grad(t, z, g, spec)[1]
            # Instance j's 2n perturbed rows share its target: a (k, 2n, n) view, not a copy.
            shape = (len(z), 2 * n, n)
            repeated = np.broadcast_to(t[:, np.newaxis], shape)
            numeric = fd_grad_rows(
                lambda rows: batch_loss(repeated, rows.reshape(shape), g, spec)["total"].reshape(-1),
                z,
                FD_REL_STEP * np.maximum(1.0, np.abs(z)),
            )
            for j in range(len(z)):
                err = rel_norm_error(analytic[j], numeric[j])
                if err > worst[0]:
                    worst = (err, n, start + j)
    return FidelityResult(spec.family, FIDELITY_SIZES, n_instances, worst[0], worst[1], worst[2], redraws)


# ---------------------------------------------------------------------------
# Invariance suite
# ---------------------------------------------------------------------------


def _require_finite(*comps: dict[str, np.ndarray]) -> None:
    """Raise unless every component array of every kernel result is finite."""
    if not all(np.all(np.isfinite(v)) for c in comps for v in c.values()):
        raise ValueError("loss components must be finite")


def affine_invariance_errors(n_instances: int = 100) -> dict[str, float]:
    """Deviations under the grid transform y -> a*y + b (AFFINE_SCALE, AFFINE_SHIFT), pmfs fixed.

    Returns the worst relative deviation of the full-KL total (expected 0
    within 1e-9), the worst relative deviation of the reference l_exp from
    an exact a-fold scaling (expected fp-exact, ~1e-16), and the worst
    absolute change of l_ld and l_smooth (expected exactly 0.0 — neither
    touches the grid values).

    The stream: every instance's grid size in one ``integers(2, 40)`` call,
    then, for each size in ascending order, one :func:`_draw_rows` call for
    all of that size's instances, as in :func:`component_minima`; each size
    is one :func:`batch_loss` call per grid and family.  A worst value does
    not depend on the evaluation order.
    """
    _require_instances(n_instances)
    a, b = AFFINE_SCALE, AFFINE_SHIFT
    rng = np.random.default_rng(200)
    full, ref = LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, ORACLE_LAMBDA)
    out = {"full_total_rel": 0.0, "ref_scale_rel": 0.0, "unchanged_abs": 0.0}
    for g1, targets, logits in _by_size(rng, *np.unique(rng.integers(2, 40, n_instances), return_counts=True)):
        g2 = LabelGrid(a * g1.lo + b, a * g1.hi + b, a * g1.spacing)
        f1, f2 = (batch_loss(targets, logits, g, full) for g in (g1, g2))
        r1, r2 = (batch_loss(targets, logits, g, ref) for g in (g1, g2))
        _require_finite(f1, f2, r1, r2)
        full_rel = np.abs(f2["total"] - f1["total"]) / np.maximum(REL_ERROR_FLOOR, np.abs(f1["total"]))
        scaled = a * r1["l_exp"]
        ref_rel = np.abs(r2["l_exp"] - scaled) / np.maximum(REL_ERROR_FLOOR, np.abs(scaled))
        moved = [np.abs(f2["l_ld"] - f1["l_ld"]), np.abs(f2["l_smooth"] - f1["l_smooth"]),
                 np.abs(r2["l_ld"] - r1["l_ld"])]
        out["full_total_rel"] = max(out["full_total_rel"], float(np.max(full_rel)))
        out["ref_scale_rel"] = max(out["ref_scale_rel"], float(np.max(ref_rel)))
        out["unchanged_abs"] = max(out["unchanged_abs"], *(float(np.max(d)) for d in moved))
    return out


def exact_zero_violations() -> dict[str, float]:
    """Identities that must hold exactly (0.0, not approximately).

    kl_div(p, p) = 0 for every pmf, zeros included (each t / p is 1, or
    under t = 0 contributes 0); smoothness(uniform) = 0; gaussian_kl(m, m) =
    0; and the full-KL loss and gradient vanish at the global minimum
    (uniform target, constant logits).  Returns the absolute deviations, all
    of which must be 0.0.
    """
    g = LabelGrid(0.0, 100.0, 1.0)
    uniform = Pmf(np.full(101, 1.0 / 101.0))
    smooth_target = discretize_gaussian(50.0, 20.0, g)
    spiky = Pmf(np.array([1.0, 0.0]))
    m = Moments(40.0, 25.0)

    out = {
        "kl_self_smooth": abs(kl_div(smooth_target, smooth_target)),
        "kl_self_uniform": abs(kl_div(uniform, uniform)),
        "kl_self_onehot": abs(kl_div(spiky, spiky)),
        "smoothness_uniform": abs(smoothness(uniform)),
        "gaussian_kl_self": abs(gaussian_kl(m, m)),
    }
    breakdown = full_kl_loss(uniform, np.zeros(101), g)
    out["full_kl_at_minimum"] = max(
        abs(breakdown.l_ld), abs(breakdown.l_exp), abs(breakdown.l_smooth), abs(breakdown.total)
    )
    grad = full_kl_grad(uniform, np.zeros(101), g)
    out["full_kl_grad_at_minimum"] = float(np.max(np.abs(grad)))
    return out


def component_minima(n_instances: int = MINIMA_INSTANCES, seed: int = 300) -> dict[str, float]:
    """Minimum observed value of every loss component on random instances.

    All minima must be >= 0: l_ld, l_exp and l_smooth are KL divergences
    (the full-KL family) and the reference l_exp is an absolute value.

    The stream: every instance's grid size in one ``integers(2, 32)`` call,
    then, for each size in ascending order, one :func:`_draw_rows` call for
    all of that size's instances.  Each size's rows are evaluated in blocks
    of at most MINIMA_BLOCK, one :func:`batch_loss` call per block and
    family, so the instances do not depend on the block.
    """
    _require_instances(n_instances)
    rng = np.random.default_rng(seed)
    full, ref = LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, ORACLE_LAMBDA)
    mins = {"l_ld": np.inf, "full_l_exp": np.inf, "l_smooth": np.inf, "ref_l_exp": np.inf}
    for g, targets, logits in _by_size(rng, *np.unique(rng.integers(2, 32, n_instances), return_counts=True)):
        for start in range(0, len(targets), MINIMA_BLOCK):
            rows = slice(start, start + MINIMA_BLOCK)
            f = batch_loss(targets[rows], logits[rows], g, full)
            r = batch_loss(targets[rows], logits[rows], g, ref)
            _require_finite(f, r)
            mins["l_ld"] = min(mins["l_ld"], np.min(f["l_ld"]), np.min(r["l_ld"]))
            mins["full_l_exp"] = min(mins["full_l_exp"], np.min(f["l_exp"]))
            mins["l_smooth"] = min(mins["l_smooth"], np.min(f["l_smooth"]))
            mins["ref_l_exp"] = min(mins["ref_l_exp"], np.min(r["l_exp"]))
    return {k: float(v) for k, v in mins.items()}


# ---------------------------------------------------------------------------
# Value oracle
# ---------------------------------------------------------------------------


def exact_components(targets, logits, values) -> dict[str, np.ndarray]:
    """The full-KL components of each row, re-derived in ``np.longdouble`` from the definitions.

    ln p is the log-softmax of the logits, so no pmf entry is floored or
    underflows on the way: l_ld = sum_{t>0} t (ln t - ln p), l_exp is the
    Gaussian-moment KL of the two pmfs' two-pass moments with the predicted
    variance floored at EPS_VAR, l_smooth = 1/2 sum (p_i - p_{i+1}) ln(p_i /
    p_{i+1}), and total is their sum.  Returns long-double arrays.
    """
    t = np.asarray(targets, dtype=np.longdouble)
    z = np.asarray(logits, dtype=np.longdouble)
    y = np.asarray(values, dtype=np.longdouble)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    log_p = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    p = np.exp(log_p)
    log_t = np.log(np.where(t > 0, t, 1))  # t = 0 terms are 0 * finite = 0
    l_ld = np.sum(t * (log_t - log_p), axis=-1)

    def two_pass(q):
        mu = np.sum(q * y, axis=-1)
        return mu, np.sum(q * (y - mu[..., np.newaxis]) ** 2, axis=-1)

    (mu_t, var_t), (mu_p, var_p) = two_pass(t), two_pass(p)
    vf = np.maximum(var_p, np.longdouble(EPS_VAR))
    l_exp = 0.5 * np.log(vf / var_t) + (var_t + (mu_p - mu_t) ** 2) / (2 * vf) - 0.5
    l_smooth = 0.5 * np.sum((p[..., :-1] - p[..., 1:]) * (log_p[..., :-1] - log_p[..., 1:]), axis=-1)
    return {"l_ld": l_ld, "l_exp": l_exp, "l_smooth": l_smooth, "total": l_ld + l_exp + l_smooth}


def kernel_value_errors() -> dict[float, dict[str, float]]:
    """Worst relative error of each full-KL ``batch_loss`` component against :func:`exact_components`.

    Per logit spread s in KERNEL_VALUE_SPREADS and grid size in
    KERNEL_VALUE_SIZES, KERNEL_VALUE_ROWS rows pair a Gaussian target (mean uniform
    on the grid, std uniform from the grid's sigma floor to a quarter of its
    span) with N(0, s^2) logits.  The error is |kernel - oracle| /
    max(|oracle|, REL_ERROR_FLOOR); the result maps s to the worst error of
    each component over the sizes.

    The |oracle| denominator is meaningful only while l_ld stays large next
    to its summands, as it does on these Gaussian-target rows.  Near t = p
    the ratio form's rounding of ln(t/p) dominates: on n = 2, t = [0.3, 0.7],
    z = ln t + [0, delta], a correct kernel's l_ld reads from 7.5e-12
    relative at l_ld ~ 1e-5 to 8.6e-6 at l_ld ~ 1e-11, over the bound.
    """
    rng = np.random.default_rng(400)
    spec = LossSpec(FAMILY_FULL_KL)
    out = {}
    for s in KERNEL_VALUE_SPREADS:
        worst = dict.fromkeys(("l_ld", "l_exp", "l_smooth", "total"), 0.0)
        for n in KERNEL_VALUE_SIZES:
            g = LabelGrid(0.0, float(n - 1), 1.0)
            mu = rng.uniform(g.lo, g.hi, (KERNEL_VALUE_ROWS, 1))
            sigma = rng.uniform(g.sigma_floor, max(g.sigma_floor, g.span / 4.0), (KERNEL_VALUE_ROWS, 1))
            targets = gaussian_probs(mu, sigma, g.values)
            logits = rng.normal(0.0, s, (KERNEL_VALUE_ROWS, n))
            got = batch_loss(targets, logits, g, spec)
            for key, exact in exact_components(targets, logits, g.values).items():
                err = np.abs(got[key] - exact) / np.maximum(np.abs(exact), REL_ERROR_FLOOR)
                worst[key] = max(worst[key], float(np.max(err)))
        out[s] = worst
    return out


# ---------------------------------------------------------------------------
# Composed verification suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    detail: str = ""


def run_all_checks() -> tuple[CheckResult, ...]:
    """Every oracle check at the suites' default counts and seeds, as a pass/fail list with max errors."""
    checks: list[CheckResult] = []

    sweep = gaussian_kl_sweep()
    checks.append(
        CheckResult(
            "gaussian_kl_sweep",
            sweep.max_abs_err <= 1e-4,
            sweep.max_abs_err,
            f"{len(sweep.rows)} moment pairs, "
            f"worst at sigma=({sweep.worst.sigma_t},{sweep.worst.sigma_p}), dmu={sweep.worst.dmu}",
        )
    )

    hard_t, hard_p = Moments(0.0, 100.0), Moments(10.0, 0.25)
    closed = gaussian_kl(hard_t, hard_p)
    err_lo = abs(numeric_gaussian_kl(hard_t, hard_p, 10_000) - closed)
    err_hi = abs(numeric_gaussian_kl(hard_t, hard_p, 100_000) - closed)
    checks.append(
        CheckResult(
            "quadrature_convergence",
            err_hi <= max(err_lo, 1e-9),
            max(err_lo, err_hi),
            f"hardest pair: err(1e4)={err_lo:.3g}, err(1e5)={err_hi:.3g}",
        )
    )

    for spec in (LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, ORACLE_LAMBDA)):
        fid = gradient_fidelity(spec)
        redrawn = f", {fid.redraws} redrawn next to the L1 kink" if fid.redraws else ""
        checks.append(
            CheckResult(
                f"grad_fidelity_{spec.family}",
                fid.max_rel_error <= 1e-6,
                fid.max_rel_error,
                f"{fid.n_instances} instances x n in {fid.sizes}, worst n={fid.worst_size}{redrawn}",
            )
        )

    aff = affine_invariance_errors()
    checks.append(
        CheckResult(
            "affine_invariance",
            aff["full_total_rel"] <= 1e-9 and aff["ref_scale_rel"] <= 1e-12 and aff["unchanged_abs"] == 0.0,
            max(aff.values()),
            "full total invariant; reference l_exp scales by a; l_ld/l_smooth untouched",
        )
    )

    zeros = exact_zero_violations()
    checks.append(
        CheckResult(
            "exact_zeros",
            max(zeros.values()) == 0.0,
            max(zeros.values()),
            "kl_div(p,p), smoothness(uniform), gaussian_kl(m,m), full-KL global minimum",
        )
    )

    minima = component_minima()
    checks.append(
        CheckResult(
            "nonnegativity",
            min(minima.values()) >= 0.0,
            max(0.0, -min(minima.values())),
            f"{MINIMA_INSTANCES} random instances, every component",
        )
    )

    values = kernel_value_errors()
    worst_s, worst = max(values.items(), key=lambda kv: max(kv[1].values()))
    worst_key = max(worst, key=worst.get)
    checks.append(
        CheckResult(
            "kernel_values",
            worst[worst_key] <= KERNEL_VALUE_TOL,
            worst[worst_key],
            f"full_kl batch_loss vs long double, {KERNEL_VALUE_ROWS} rows x n in {KERNEL_VALUE_SIZES}"
            f" x logit sd in {KERNEL_VALUE_SPREADS}, worst {worst_key} at sd={worst_s}",
        )
    )

    return tuple(checks)
