"""Loss components and analytic logit gradients for both loss families.

The reference family combines the distribution KL with a lambda-weighted L1
penalty on the predicted expectation.  The full-KL family replaces the L1
term with a Gaussian-moment KL and adds a shift-KL smoothness penalty, so
all three components are KL divergences in nats and combine by a plain
unweighted sum — no weighting hyperparameter to tune.

Predictions enter every loss as raw logits, and the kernel works in logit
space: no pmf is floored.  l_ld takes the ratio form sum t ln(t/p) of the
softmax p, and the log-softmax form only in rows where p underflowed under
target mass; l_smooth uses ln(p_i/p_{i+1}) = z_i - z_{i+1}.  Gradients are
with respect to the logits and are composed analytically with the softmax
Jacobian; no autodiff framework is involved.  Only the pmf-input functions
``kl_div`` and ``smoothness`` floor their pmf at ``grid.EPS_LOG``, since a
pmf they are given may hold zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    EPS_LOG,
    EPS_VAR,
    LabelGrid,
    Moments,
    Pmf,
    _number,
    pmf_moments,
    softmax_probs,
)

__all__ = [
    "FAMILY_REFERENCE",
    "FAMILY_FULL_KL",
    "FAMILIES",
    "LossBreakdown",
    "LossSpec",
    "kl_div",
    "gaussian_kl",
    "smoothness",
    "reference_loss",
    "reference_grad",
    "full_kl_loss",
    "full_kl_grad",
    "batch_loss",
    "batch_loss_and_grad",
]

FAMILY_REFERENCE = "reference"
FAMILY_FULL_KL = "full_kl"
FAMILIES = (FAMILY_REFERENCE, FAMILY_FULL_KL)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-component loss record for either family.

    ``l_ld`` and ``l_smooth`` are in nats.  ``l_exp`` is in nats for the
    full-KL family and in label units (the raw, unweighted L1) for the
    reference family.  ``total`` is ``l_ld + lam*l_exp`` for the reference
    family and ``l_ld + l_exp + l_smooth`` for the full-KL family.
    ``l_smooth`` is ``None`` for the reference family, which has no
    smoothness term.
    """

    family: str
    l_ld: float
    l_exp: float
    l_smooth: float | None
    total: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown loss family {self.family!r}")
        fields = [self.l_ld, self.l_exp, self.total]
        if self.family == FAMILY_FULL_KL:
            if self.l_smooth is None:
                raise ValueError("full-KL breakdown requires l_smooth")
            fields.append(self.l_smooth)
        elif self.l_smooth is not None:
            raise ValueError("reference breakdown has no smoothness term")
        if not all(np.isfinite(v) for v in fields):
            raise ValueError("loss components must be finite")


@dataclass(frozen=True)
class LossSpec:
    """Loss-family selector carried through configs and the trainer.

    ``lam`` is the lambda of the reference family's ``total = l_ld +
    lam*l_exp``.  It has no principled default — exposing it reproduces
    exactly the tuning burden the full-KL family removes — so the reference
    family requires it, and the full-KL family (which by construction has
    nothing to weight) must omit it.  ``lam`` is stored as a float, and
    errors name the config keys ``family`` and ``lambda``.
    """

    family: str
    lam: float | None = None

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(f"family: unknown loss family {self.family!r}; expected one of {FAMILIES}")
        if self.family == FAMILY_REFERENCE:
            if self.lam is None:
                raise ValueError("lambda: the reference family requires lambda")
            lam = _number(self.lam, "lambda")
            if not (np.isfinite(lam) and lam >= 0):
                raise ValueError(f"lambda must be finite and >= 0, got {lam!r}")
            object.__setattr__(self, "lam", lam)
        elif self.lam is not None:
            raise ValueError("lambda: the full_kl family takes no lambda")


_FULL_KL_SPEC = LossSpec(FAMILY_FULL_KL)


# ---------------------------------------------------------------------------
# Input coercion
# ---------------------------------------------------------------------------


def _as_probs(p) -> np.ndarray:
    """Probabilities of a Pmf, or validate an array-like as a pmf."""
    if isinstance(p, Pmf):
        return p.probs
    return Pmf(np.asarray(p, dtype=np.float64)).probs


def _as_logits(logits, n: int) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 1 or z.size != n:
        raise ValueError(f"logits must be a vector of length {n}, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite")
    return z


# ---------------------------------------------------------------------------
# Batched kernels (last-axis semantics; also accept plain 1-D vectors)
# ---------------------------------------------------------------------------


# Floor of the log ratio in _kl_div_vals: the smallest positive float64.
_TINY = np.nextafter(0.0, 1.0)


def _row_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum(a * b) along the last axis, as an ``np.einsum`` loop: no BLAS, whose row bits depend on batch height."""
    return np.einsum("...j,...j->...", a, b)


def _kl_div_vals(targets: np.ndarray, preds: np.ndarray) -> np.ndarray:
    # Only the prediction is floored inside the log, and only by the caller
    # (kl_div floors at EPS_LOG; the kernel passes the softmax unfloored).  For
    # t > 0 the clamp never acts: the prediction is at most about 1, so t / p
    # does not round below t.  For t = 0 it keeps the log finite, so the term
    # is 0 * log(_TINY) = 0 (0 ln 0 := 0), and no per-element branch is
    # needed.  A prediction that underflowed to 0, or so far that t / p
    # overflows, makes its row inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = targets / preds
    np.fmax(ratio, _TINY, out=ratio)
    return _row_sum(targets, np.log(ratio, out=ratio))


def _distribution_kl(targets: np.ndarray, preds: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """l_ld of each row from the unfloored softmax ``preds`` of ``logits``.

    The ratio form, and only in the rows where that is not finite (p
    underflowed under target mass) sum_{t>0} t (ln t - ln p) with ln p = z -
    logsumexp(z), which costs another exp and log per entry.  (The literal
    sum t ln t - sum t z + logsumexp z would leave 8.9e-16 at the full-KL
    global minimum.)
    """
    l_ld = np.asarray(_kl_div_vals(targets, preds))
    bad = ~np.isfinite(l_ld)
    if np.any(bad):
        t, log_p = targets[bad], logits[bad]  # copies
        log_p -= log_p.max(axis=-1, keepdims=True)
        log_p -= np.log(np.einsum("...j->...", np.exp(log_p)))[..., np.newaxis]
        log_t = np.log(np.where(t > 0.0, t, 1.0))  # t = 0 terms are 0 * finite = 0
        l_ld = l_ld.copy()
        l_ld[bad] = _row_sum(t, log_t - log_p)
    return l_ld


def _adjacent_diff(x: np.ndarray) -> np.ndarray:
    """D x of each row, x_i - x_{i+1}, with each row's last slot set to 0.

    One contiguous subtraction over the flattened array: each row's last
    slot, the only one that mixes two rows, is then overwritten.
    """
    out = np.empty(x.shape)
    flat, x_flat = out.reshape(-1), x.reshape(-1)
    np.subtract(x_flat[:-1], x_flat[1:], out=flat[:-1])
    out[..., -1] = 0.0
    return out


def _adjacent_diff_t(v: np.ndarray) -> np.ndarray:
    """D^T v of each row, v_j - v_{j-1} with v_{-1} = 0, for ``v`` from :func:`_adjacent_diff`.

    Over the flattened array a row's first slot subtracts the previous row's
    last slot, which is 0, so one contiguous subtraction serves every row.
    """
    out = np.empty(v.shape)
    flat, v_flat = out.reshape(-1), v.reshape(-1)
    flat[:1] = v_flat[:1]
    np.subtract(v_flat[1:], v_flat[:-1], out=flat[1:])
    return out


def _gaussian_term(mu_t, var_t, mu_p, var_p, values, want_grad):
    """(l_exp, d l_exp / d pred up to a per-row constant, or None): the Gaussian-moment KL of each
    row, from the target and predicted moments over the bin ``values``, with the predicted variance
    floored at EPS_VAR.  The softmax Jacobian maps a per-row constant to 0, so the gradient is
    a (y - mu_hat) + b (y - mu_hat)^2 rather than a y + b (y - mu_hat)^2: near the EPS_VAR floor
    a = (mu_hat - mu) / var_hat reaches 1e10, and a y would cancel in the chain, leaving gradient
    rows that sum to 1e-4 of their size instead of 0."""
    if np.any(var_t < EPS_VAR):
        raise ValueError(f"target variance below the {EPS_VAR!r} floor")
    vf = np.maximum(var_p, EPS_VAR)
    dmu = mu_p - mu_t
    ratio = (var_t + dmu * dmu) / (2.0 * vf)
    value = 0.5 * np.log(vf / var_t) + ratio - 0.5
    if not want_grad:
        return value, None
    # dmu/dp_i = y_i and dvar/dp_i = (y_i - mu_hat)^2, the mu-dependence of the
    # predicted variance included; the variance is treated as constant at the
    # EPS_VAR floor (subgradient choice).
    a = np.asarray(dmu / vf)[..., np.newaxis]
    b = np.asarray(np.where(var_p > EPS_VAR, (0.5 - ratio) / vf, 0.0))[..., np.newaxis]
    dev = values - np.asarray(mu_p)[..., np.newaxis]
    out = b * dev
    out += a
    out *= dev
    return value, out


def _smooth_term(preds: np.ndarray, logs: np.ndarray, want_grad):
    """(l_smooth, (d/d pred, d/d logs) or None): the shift-KL smoothness of each row of ``preds``.

    ``logs`` is ln ``preds`` up to a per-row shift, which every difference
    cancels: the logits of a softmax ``preds`` (ln(p_i/p_{i+1}) = z_i -
    z_{i+1} exactly), or ``smoothness``'s pmf floored at EPS_LOG, then
    logged.  The value is 1/2 sum_i (p_i - p_{i+1})(z_i - z_{i+1}), every
    summand non-negative.  With D the adjacent-difference operator it is
    1/2 <Dp, Dz>, whose partial derivatives are 1/2 D^T D z in the pmf and
    1/2 D^T D p in the logs; both arrays are C-contiguous.
    """
    dp = _adjacent_diff(preds)
    dz = _adjacent_diff(logs)
    value = 0.5 * _row_sum(dp, dz)
    if not want_grad:
        return value, None
    d_pred = _adjacent_diff_t(dz)
    del dz
    d_pred *= 0.5
    d_logs = _adjacent_diff_t(dp)
    d_logs *= 0.5
    return value, (d_pred, d_logs)


def _softmax_chain(preds: np.ndarray, dldp: np.ndarray) -> np.ndarray:
    # Compose d loss / d pred with the softmax Jacobian diag(p) - p p^T, in place over ``dldp``.
    dldp -= np.asarray(_row_sum(dldp, preds))[..., np.newaxis]
    dldp *= preds
    return dldp


# ---------------------------------------------------------------------------
# Public per-sample API
# ---------------------------------------------------------------------------


def kl_div(target, pred) -> float:
    """Discrete KL divergence sum_i target_i ln(target_i / pred_i) in nats.

    Prediction entries are floored at ``grid.EPS_LOG`` inside the log;
    terms with ``target_i == 0`` contribute exactly 0.  Non-negative up to
    an EPS_LOG-induced error below 1e-9 (only when the target itself has
    positive entries under the floor).
    """
    t = _as_probs(target)
    q = _as_probs(pred)
    if t.shape != q.shape:
        raise ValueError(f"pmf lengths differ: {t.size} vs {q.size}")
    return float(_kl_div_vals(t, np.maximum(q, EPS_LOG)))


def gaussian_kl(target_m: Moments, pred_m: Moments) -> float:
    """Closed-form KL(N(mu, var) || N(mu_hat, var_hat)) in nats.

    ``ln(sigma_hat/sigma) + (var + (mu_hat-mu)^2) / (2 var_hat) - 1/2`` with
    the predicted variance floored at ``grid.EPS_VAR`` in both the log and
    the denominator.  The target variance must already sit at or above the
    floor (``data.Dataset`` checks this of its narrowest target); the result
    is then non-negative for all inputs and zero exactly when the moments
    coincide.
    """
    return float(
        _gaussian_term(
            np.float64(target_m.mu), np.float64(target_m.var),
            np.float64(pred_m.mu), np.float64(pred_m.var), None, want_grad=False,
        )[0]
    )


def smoothness(pred) -> float:
    """Symmetrized shift-KL smoothness penalty of a pmf, in nats.

    ``(1/2) sum_{i=1}^{n-1} (p_i - p_{i+1}) ln(p_i / p_{i+1})`` over the
    n-1 adjacent index pairs, entries floored at ``grid.EPS_LOG`` inside
    the logs.  Every summand is non-negative because the difference and the
    log-ratio share sign; the total is 0 exactly for a uniform pmf.
    """
    p = _as_probs(pred)
    if p.size < 2:
        raise ValueError("smoothness needs a pmf of length >= 2")
    return float(_smooth_term(p, np.log(np.maximum(p, EPS_LOG)), want_grad=False)[0])


def reference_loss(
    target,
    logits,
    g: LabelGrid,
    lam: float,
) -> LossBreakdown:
    """Reference-family loss: l_ld + lam * |mu_hat - mu|.

    ``l_exp`` in the returned breakdown is the raw L1 term in label units;
    lambda enters only the total.
    """
    spec = LossSpec(FAMILY_REFERENCE, lam)
    return _breakdown(spec.family, _sample_kernel(target, logits, g, spec, want_grad=False)[0])


def reference_grad(
    target,
    logits,
    g: LabelGrid,
    lam: float,
) -> np.ndarray:
    """Analytic gradient of the reference loss with respect to the logits.

    ``(pred - target) + lam * sign(mu_hat - mu) * dmu_hat/dlogits`` with the
    L1 subgradient at zero set to 0.
    """
    return _sample_kernel(target, logits, g, LossSpec(FAMILY_REFERENCE, lam), want_grad=True)[1]


def full_kl_loss(
    target,
    logits,
    g: LabelGrid,
) -> LossBreakdown:
    """Full-KL loss: distribution KL + Gaussian-moment KL + shift-KL smoothness.

    The three components are summed unweighted.  Note the total is not
    generally zero at pred = target: the smoothness term penalizes the
    target's own roughness.
    """
    return _breakdown(FAMILY_FULL_KL, _sample_kernel(target, logits, g, _FULL_KL_SPEC, want_grad=False)[0])


def full_kl_grad(
    target,
    logits,
    g: LabelGrid,
) -> np.ndarray:
    """Analytic gradient of the full-KL total with respect to the logits.

    It is ``p - t + p * (h - <h, p>) + (1/2) D^T D p`` with D the
    adjacent-difference operator and ``h = a (y - mu_hat) + b (y -
    mu_hat)^2 + (1/2) D^T D z``.  The l_ld part contributes ``p - t``.  The
    l_exp part flows through both predicted moments (``dmu/dp_i = y_i`` and
    ``dvar/dp_i = (y_i - mu_hat)^2``, mu-dependence included), so ``a =
    (mu_hat - mu) / var_hat`` and ``b = (1/2 - ratio) / var_hat``; its
    ``a mu_hat`` is a per-row constant, which the softmax Jacobian removes.  The smoothness part,
    ``(1/2) <Dp, Dz>``, flows through the pmf (``(1/2) D^T D z``) and
    directly through the logits (``(1/2) D^T D p``).  The pmf parts are
    composed with the softmax Jacobian once; no ``1/p`` term is left.  At
    the EPS_VAR floor the predicted variance is treated as constant
    (subgradient choice).
    """
    return _sample_kernel(target, logits, g, _FULL_KL_SPEC, want_grad=True)[1]


def _breakdown(family: str, comps: dict, record=LossBreakdown, **labels):
    """``record`` (``LossBreakdown`` or a subclass such as ``model.Metrics``, whose added fields are ``labels``)
    of the mean over rows of each kernel component (of one row: its value); ``l_smooth`` is None when absent."""
    means = {k: float(np.mean(comps[k])) for k in ("l_ld", "l_exp", "l_smooth", "total") if k in comps}
    return record(family, means["l_ld"], means["l_exp"], means.get("l_smooth"), means["total"], **labels)


def _sample_kernel(target, logits, g: LabelGrid, spec: LossSpec, want_grad: bool):
    """Validate one (target pmf, logit vector) pair and run it through the kernel as a 1-D row."""
    t = _as_probs(target)
    if t.size != len(g):
        raise ValueError(f"target pmf has {t.size} bins but grid has {len(g)}")
    z = _as_logits(logits, len(g))
    return _batch_kernel(t, z, g, spec, None, want_grad)


# ---------------------------------------------------------------------------
# The loss kernel (shared by the per-sample API and the trainer)
# ---------------------------------------------------------------------------


def _batch_kernel(targets, logits, g, spec, target_moments, want_grad):
    """Shared body of :func:`batch_loss`, :func:`batch_loss_and_grad` and the per-sample API.

    Both families share one head: ``softmax_probs``, then l_ld, then
    ``pmf_moments``; after it the kernel splits by family.  Every row sum
    is an ``np.einsum`` loop, so a row's bits do not depend on the batch.
    Returns (components, gradient); the gradient is None unless ``want_grad``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    logits = np.ascontiguousarray(logits, dtype=np.float64)
    if targets.shape != logits.shape or targets.shape[-1] != len(g):
        raise ValueError(
            f"targets {targets.shape} and logits {logits.shape} must share shape (..., {len(g)})"
        )
    values = g.values
    preds = softmax_probs(logits)
    l_ld = _distribution_kl(targets, preds, logits)
    if target_moments is None:
        target_moments = pmf_moments(targets, values)
    mu_t, var_t = target_moments
    mu_p, var_p = pmf_moments(preds, values)
    if spec.family == FAMILY_FULL_KL:
        l_exp, head = _gaussian_term(mu_t, var_t, mu_p, var_p, values, want_grad)
        l_smooth, d_smooth = _smooth_term(preds, logits, want_grad)
        comps = {"l_ld": l_ld, "l_exp": l_exp, "l_smooth": l_smooth, "total": l_ld + l_exp + l_smooth}
        if want_grad:
            d_pred, d_logits = d_smooth
            head += d_pred
            del d_pred, d_smooth
            _softmax_chain(preds, head)
            head += d_logits
            del d_logits
    else:
        l_exp = np.abs(mu_p - mu_t)
        comps = {"l_ld": l_ld, "l_exp": l_exp, "total": l_ld + spec.lam * l_exp}
        if want_grad:
            head = values - np.asarray(mu_p)[..., np.newaxis]
            head *= preds  # dmu_hat / dz
            head *= (spec.lam * np.sign(mu_p - mu_t))[..., np.newaxis]
    comps["pred_mu"] = mu_p
    if not want_grad:
        return comps, None
    # preds - targets is the distribution KL's logit gradient, exact for every
    # softmax (its zeros included).
    head += preds
    head -= targets
    return comps, head


def batch_loss(
    targets: np.ndarray,
    logits: np.ndarray,
    g: LabelGrid,
    spec: LossSpec,
    target_moments: tuple[np.ndarray, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Vectorized per-sample loss components without the gradient.

    Same contract and arithmetic as :func:`batch_loss_and_grad`, for
    evaluation passes where the gradient would be wasted work.
    """
    return _batch_kernel(targets, logits, g, spec, target_moments, want_grad=False)[0]


def batch_loss_and_grad(
    targets: np.ndarray,
    logits: np.ndarray,
    g: LabelGrid,
    spec: LossSpec,
    target_moments: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Vectorized per-sample components and logit gradients for a batch.

    ``targets`` and ``logits`` share shape (..., n) with n = len(g); rows of
    ``targets`` must already be valid pmfs (the dataset materialization
    guarantees this — rows are not re-validated here).  ``target_moments``
    optionally supplies ``pmf_moments(targets, g.values)`` precomputed (the
    dataset caches them); it must be exactly that, since it is not checked.
    Returns a dict of per-sample arrays keyed ``l_ld``, ``l_exp``, ``total``,
    ``pred_mu`` (plus ``l_smooth`` for the full-KL family) and the gradient
    array of the same shape as ``logits``.  Row i of the gradient is
    d total_i / d logits_i.  The per-sample API runs the same kernel on a
    single row, so results agree bit for bit.
    """
    return _batch_kernel(targets, logits, g, spec, target_moments, want_grad=True)
