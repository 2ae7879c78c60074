"""Independent oracles for the loss values, closed forms and analytic gradients.

Nothing here shares code with the losses it checks: the Gaussian-moment KL
is re-derived by brute-force quadrature, every loss component is re-derived
in long double from its definition, and every analytic gradient is
compared against central finite differences.  The trainer is only trusted
after this module's suite passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    reference_loss,
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

# component_minima's default instance count, the one run_all_checks uses, drawn and
# evaluated in blocks of MINIMA_BLOCK so the row stacks stay small at any count.
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
    just logits.  It is :func:`fd_grad_rows` with ``loss_fn`` called on a
    copy of each perturbed row in turn, so ``loss_fn`` may write into its
    argument.
    """
    return fd_grad_rows(lambda rows: [float(loss_fn(row.copy())) for row in rows], logits, h)


def fd_grad_rows(loss_rows: Callable[[np.ndarray], np.ndarray], x, h) -> np.ndarray:
    """:func:`fd_grad` with every perturbed point evaluated in one call.

    ``loss_rows`` maps a (2n, n) stack of rows to their (2n,) vector of losses:
    rows 0..n-1 are x + h_i e_i and rows n..2n-1 are x - h_i e_i.  The stack
    holds 2n^2 floats; every caller has n <= 101 (logits) or n = 41 (network
    parameters), so it stays under 170 kB.
    """
    x = np.array(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("fd_grad expects a non-empty vector")
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    if not np.all(steps > 0):
        raise ValueError("finite-difference step must be positive")
    n = x.size
    rows = np.tile(x, (2 * n, 1))
    i = np.arange(n)
    rows[i, i] += steps
    rows[n + i, i] -= steps
    f = np.asarray(loss_rows(rows), dtype=np.float64)
    if f.shape != (2 * n,):
        raise ValueError(f"loss_rows must return one loss per row, shape {(2 * n,)}, got {f.shape}")
    fp, fm = f[:n], f[n:]
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if np.any(bad):
        raise ValueError(f"loss_fn non-finite near coordinate {int(np.argmax(bad))}")
    return (fp - fm) / (2.0 * steps)


def rel_norm_error(analytic, numeric) -> float:
    """||a - n||_2 / max(1e-12, ||a||_2 + ||n||_2) — the randomized-suite metric."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    return float(np.linalg.norm(a - n) / max(REL_ERROR_FLOOR, np.linalg.norm(a) + np.linalg.norm(n)))


def _log_kernel(x: np.ndarray, m: Moments, out: np.ndarray) -> np.ndarray:
    """-(x - mu)^2 / (2 var) of a Gaussian with moments ``m``, written into ``out``."""
    np.subtract(x, m.mu, out=out)
    np.square(out, out=out)
    np.negative(out, out=out)
    return np.divide(out, 2.0 * m.var, out=out)


def _log_normalize(a: np.ndarray, scratch: np.ndarray) -> None:
    """a -= logsumexp(a) in place, with ``scratch`` (same shape) as the work buffer."""
    m = float(np.max(a))
    np.exp(np.subtract(a, m, out=scratch), out=scratch)
    np.subtract(a, m + float(np.log(np.sum(scratch))), out=a)


def numeric_gaussian_kl(target_m: Moments, pred_m: Moments, points: int = 100_000) -> float:
    """Quadrature oracle for the closed-form Gaussian-moment KL.

    Both densities are sampled on a shared uniform grid covering both means
    +- SPAN_SIGMAS * max(sigma, sigma_hat), renormalized, and fed through
    the discrete KL sum.  All of it runs in log space (log-densities and a
    log-sum-exp normalizer), so extreme moment pairs — where one density
    underflows across most of the window — lose nothing to rounding.  It
    runs in place over three ``points``-long buffers (the abscissae, later
    scratch; log t; log p) with the float operations of the plain
    whole-array expression in the same order, so it returns the same bits.
    """
    if points < MIN_QUADRATURE_POINTS:
        raise ValueError(f"points must be >= {MIN_QUADRATURE_POINTS}, got {points}")
    if target_m.var < EPS_VAR or pred_m.var < EPS_VAR:
        raise ValueError("variances must sit above the EPS_VAR floor")
    reach = SPAN_SIGMAS * math.sqrt(max(target_m.var, pred_m.var))
    lo = min(target_m.mu, pred_m.mu) - reach
    hi = max(target_m.mu, pred_m.mu) + reach
    x = np.linspace(lo, hi, points)
    log_t = _log_kernel(x, target_m, np.empty_like(x))
    log_p = _log_kernel(x, pred_m, np.empty_like(x))
    scratch = x  # the abscissae are spent
    _log_normalize(log_t, scratch)
    _log_normalize(log_p, scratch)
    np.subtract(log_t, log_p, out=log_p)
    return float(np.sum(np.multiply(np.exp(log_t, out=scratch), log_p, out=scratch)))


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
    """Closed-form gaussian_kl vs quadrature oracle over the SWEEP_SIGMAS x SWEEP_DMUS moment pairs."""
    rows = []
    for sigma_t in SWEEP_SIGMAS:
        for sigma_p in SWEEP_SIGMAS:
            for dmu in SWEEP_DMUS:
                target_m = Moments(0.0, sigma_t * sigma_t)
                pred_m = Moments(float(dmu), sigma_p * sigma_p)
                closed = gaussian_kl(target_m, pred_m)
                numeric = numeric_gaussian_kl(target_m, pred_m)
                rows.append(SweepRow(sigma_t, sigma_p, float(dmu), closed, numeric, abs(closed - numeric)))
    return SweepResult(tuple(rows), max(r.abs_err for r in rows))


# ---------------------------------------------------------------------------
# Randomized gradient fidelity
# ---------------------------------------------------------------------------


def _draw(rng: np.random.Generator, g: LabelGrid) -> tuple[np.ndarray, np.ndarray | tuple[float, float]]:
    """One instance's RNG draws on ``g``: (logits, target draw).

    The target draw is a logit vector for a softmax target or a (mu, sigma)
    pair for a discretized-Gaussian one.  The draw order (logits, the
    target-kind coin, then the target's draws) is part of the suite's
    format: a given seed always yields the same instances.
    """
    n = len(g)
    logits = rng.normal(0.0, 2.0, n)
    if rng.random() < 0.5:
        return logits, rng.normal(0.0, 1.5, n)
    sigma_lo = g.sigma_floor
    sigma_hi = max(sigma_lo, g.span / 4.0)
    mu = rng.uniform(g.lo, g.hi)
    return logits, (mu, rng.uniform(sigma_lo, sigma_hi))


def _build(draws, g: LabelGrid) -> tuple[np.ndarray, np.ndarray]:
    """(target pmfs, logits), each (k, n), for k :func:`_draw` results on ``g``.

    All softmax targets go through one ``softmax_probs`` call and all
    Gaussian ones through one ``gaussian_probs`` call; a row's bits do not
    depend on the others, so they equal the one-row build's.  No ``Pmf`` is
    made: these pmfs come from the grid's own formulas, and re-validating
    them checks nothing.
    """
    logits = np.stack([z for z, _ in draws])
    targets = np.empty_like(logits)
    soft = [i for i, (_, t) in enumerate(draws) if isinstance(t, np.ndarray)]
    gauss = [i for i, (_, t) in enumerate(draws) if not isinstance(t, np.ndarray)]
    if soft:
        targets[soft] = softmax_probs(np.stack([draws[i][1] for i in soft]))
    if gauss:
        mu, sigma = np.array([draws[i][1] for i in gauss]).T[..., np.newaxis]
        targets[gauss] = gaussian_probs(mu, sigma, g.values)
    return targets, logits


def random_instance(rng: np.random.Generator, g: LabelGrid) -> tuple[Pmf, np.ndarray]:
    """A random (target pmf, logits) pair on ``g``.

    Targets alternate between discretized Gaussians (the structured shapes
    the trainer sees) and softmax draws (arbitrary valid pmfs); logits are
    mild N(0, 2^2) draws.  No kernel pmf is floored, so the spread is not
    needed for finiteness: it keeps the predicted variance far above the
    EPS_VAR floor, where the Gaussian-moment gradient becomes a subgradient,
    and keeps the losses smooth on the scale of the finite-difference steps.
    It is :func:`_draw` then :func:`_build` for one row, wrapped in a
    ``Pmf`` for the per-sample API; :func:`component_minima` builds whole
    groups of draws and wraps none.
    """
    targets, logits = _build([_draw(rng, g)], g)
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


def _near_l1_kink(target: Pmf, logits: np.ndarray, values: np.ndarray, h: np.ndarray) -> bool:
    """Whether central differences with steps ``h`` can cross mu_hat = mu.

    Moving logit i by h_i moves mu_hat by about p_i * |y_i - mu_hat| * h_i.
    Computed here from the definitions, independently of the losses module.
    """
    e = np.exp(logits - np.max(logits))
    p = e / np.sum(e)
    mu_hat = float(np.sum(p * values))
    mu = float(np.sum(target.probs * values))
    reach = float(np.max(p * np.abs(values - mu_hat) * h))
    return abs(mu_hat - mu) <= KINK_REACH_MARGIN * reach


def gradient_fidelity(spec: LossSpec, n_instances: int = 100, seed: int = 100) -> FidelityResult:
    """Analytic vs central-finite-difference gradients on random instances.

    The analytic gradient is :func:`batch_loss_and_grad`'s on the instance's
    one-row batch, the entry point ``train_step`` calls; the finite
    differences read :func:`batch_loss` of the same kernel.  On grids of
    FIDELITY_SIZES bins, per instance the step is h_i =
    FD_REL_STEP * max(1, |logit_i|) and the discrepancy is measured with
    :func:`rel_norm_error`.  The reference loss has a kink where mu_hat =
    mu; a reference instance whose steps could cross it is redrawn, since
    central differences straddling the kink measure neither one-sided
    gradient.  ``redraws`` counts them.
    """
    rng = np.random.default_rng(seed)
    worst = (-1.0, 0, 0)
    redraws = 0
    for n in FIDELITY_SIZES:
        g = LabelGrid(0.0, float(n - 1), 1.0)
        for k in range(n_instances):
            while True:
                target, logits = random_instance(rng, g)
                h = FD_REL_STEP * np.maximum(1.0, np.abs(logits))
                if spec.family != FAMILY_REFERENCE or not _near_l1_kink(target, logits, g.values, h):
                    break
                redraws += 1
            analytic = batch_loss_and_grad(target.probs[np.newaxis], logits[np.newaxis], g, spec)[1][0]

            def loss_rows(rows, _t=target, _g=g):
                return batch_loss(np.broadcast_to(_t.probs, rows.shape), rows, _g, spec)["total"]

            numeric = fd_grad_rows(loss_rows, logits, h)
            err = rel_norm_error(analytic, numeric)
            if err > worst[0]:
                worst = (err, n, k)
    return FidelityResult(spec.family, FIDELITY_SIZES, n_instances, worst[0], worst[1], worst[2], redraws)


# ---------------------------------------------------------------------------
# Invariance suite
# ---------------------------------------------------------------------------


def affine_invariance_errors(n_instances: int = 100) -> dict[str, float]:
    """Deviations under the grid transform y -> a*y + b (AFFINE_SCALE, AFFINE_SHIFT), pmfs fixed.

    Returns the worst relative deviation of the full-KL total (expected 0
    within 1e-9), the worst relative deviation of the reference l_exp from
    an exact a-fold scaling (expected fp-exact, ~1e-16), and the worst
    absolute change of l_ld and l_smooth (expected exactly 0.0 — neither
    touches the grid values).
    """
    a, b = AFFINE_SCALE, AFFINE_SHIFT
    rng = np.random.default_rng(200)
    out = {"full_total_rel": 0.0, "ref_scale_rel": 0.0, "unchanged_abs": 0.0}
    for _ in range(n_instances):
        n = int(rng.integers(2, 40))
        g1 = LabelGrid(0.0, float(n - 1), 1.0)
        g2 = LabelGrid(a * g1.lo + b, a * g1.hi + b, a * g1.spacing)
        target, logits = random_instance(rng, g1)

        f1 = full_kl_loss(target, logits, g1)
        f2 = full_kl_loss(target, logits, g2)
        denom = max(REL_ERROR_FLOOR, abs(f1.total))
        out["full_total_rel"] = max(out["full_total_rel"], abs(f2.total - f1.total) / denom)
        out["unchanged_abs"] = max(
            out["unchanged_abs"], abs(f2.l_ld - f1.l_ld), abs(f2.l_smooth - f1.l_smooth)
        )

        r1 = reference_loss(target, logits, g1, ORACLE_LAMBDA)
        r2 = reference_loss(target, logits, g2, ORACLE_LAMBDA)
        denom = max(REL_ERROR_FLOOR, abs(a * r1.l_exp))
        out["ref_scale_rel"] = max(out["ref_scale_rel"], abs(r2.l_exp - a * r1.l_exp) / denom)
        out["unchanged_abs"] = max(out["unchanged_abs"], abs(r2.l_ld - r1.l_ld))
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
    """
    rng = np.random.default_rng(seed)
    full, ref = LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, ORACLE_LAMBDA)
    grids: dict[int, LabelGrid] = {}
    mins = {"l_ld": np.inf, "full_l_exp": np.inf, "l_smooth": np.inf, "ref_l_exp": np.inf}
    for start in range(0, n_instances, MINIMA_BLOCK):
        # The draws keep the RNG stream's order; grouping them by n reorders only
        # the evaluation, and a minimum does not depend on that order.
        by_n: dict[int, list] = {}
        for _ in range(min(MINIMA_BLOCK, n_instances - start)):
            n = int(rng.integers(2, 32))
            if n not in grids:
                grids[n] = LabelGrid(0.0, float(n - 1), 1.0)
            by_n.setdefault(n, []).append(_draw(rng, grids[n]))
        for n, draws in by_n.items():
            targets, logits = _build(draws, grids[n])
            f = batch_loss(targets, logits, grids[n], full)
            r = batch_loss(targets, logits, grids[n], ref)
            if not all(np.all(np.isfinite(v)) for v in (*f.values(), *r.values())):
                raise ValueError("loss components must be finite")
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
