"""The verification oracles themselves: finite differences, quadrature, suites."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fullkl.losses as losses
import fullkl.verify as verify
from fullkl.grid import LabelGrid, Moments, Pmf, discretize_gaussian, pmf_moments, softmax, softmax_probs
from fullkl.losses import (
    FAMILY_FULL_KL,
    FAMILY_REFERENCE,
    LossSpec,
    batch_loss,
    full_kl_grad,
    full_kl_loss,
    gaussian_kl,
    reference_grad,
    reference_loss,
)
from fullkl.verify import (
    CheckResult,
    FidelityResult,
    component_minima,
    exact_components,
    exact_zero_violations,
    affine_invariance_errors,
    fd_grad,
    fd_grad_rows,
    gaussian_kl_sweep,
    gradient_fidelity,
    kernel_value_errors,
    numeric_gaussian_kl,
    random_instance,
    rel_norm_error,
    run_all_checks,
)
from test_losses import gaussian_logit_grad, smooth_logit_grad


# ---------------------------------------------------------------------------
# fd_grad
# ---------------------------------------------------------------------------

class TestFdGrad:
    def test_exact_on_quadratics(self):
        # central differences are exact (to rounding) for degree <= 2
        a = np.array([1.5, -2.0, 0.5])
        b = np.array([0.25, 1.0, -3.0])

        def f(x):
            return float(np.sum(a * x * x + b * x))

        x0 = np.array([0.3, -1.2, 2.0])
        grad = fd_grad(f, x0, 1e-4)
        np.testing.assert_allclose(grad, 2.0 * a * x0 + b, rtol=1e-9)

    def test_per_coordinate_steps(self):
        # cubic: central-difference error is h^2 * x, so the two coordinates
        # only come out right if their individual steps are actually used
        def f(x):
            return float(np.sum(x ** 3))

        x0 = np.array([1.0, 1.0])
        grad = fd_grad(f, x0, np.array([1e-3, 1e-6]))
        err = np.abs(grad - 3.0)
        assert 1e-7 < err[0] < 1e-5  # h^2 = 1e-6 leaves a visible bias
        assert err[1] < 1e-9  # h^2 = 1e-12 does not

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            fd_grad(lambda x: 0.0, np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            fd_grad(lambda x: 0.0, np.array([1.0, 1.0]), np.array([1e-5, -1e-5]))

    def test_non_finite_loss_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            fd_grad(lambda x: math.inf, np.array([1.0]), 1e-5)

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            fd_grad(lambda x: 0.0, np.array([]), 1e-5)


# ---------------------------------------------------------------------------
# fd_grad_rows: the one engine, against the per-point loop it replaced
# ---------------------------------------------------------------------------

def fd_grad_reference(loss_fn, logits, h):
    """fd_grad as it was written before it became one fd_grad_rows call, kept as its reference."""
    x = np.array(logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("fd_grad expects a non-empty vector")
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), x.shape)
    if not np.all(steps > 0):
        raise ValueError("finite-difference step must be positive")
    fp = np.empty_like(x)
    fm = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += steps[i]
        xm[i] -= steps[i]
        fp[i] = float(loss_fn(xp))
        fm[i] = float(loss_fn(xm))
    bad = ~(np.isfinite(fp) & np.isfinite(fm))
    if np.any(bad):
        raise ValueError(f"loss_fn non-finite near coordinate {int(np.argmax(bad))}")
    return (fp - fm) / (2.0 * steps)


def per_sample_total(spec, target, g):
    """The loss at one logit vector, through the per-sample API."""
    if spec.family == FAMILY_REFERENCE:
        return lambda z: reference_loss(target, z, g, spec.lam).total
    return lambda z: full_kl_loss(target, z, g).total


def batched_total(spec, target, g):
    """The loss at every row of a logit stack, through the batched kernel."""
    return lambda rows: batch_loss(np.broadcast_to(target.probs, rows.shape), rows, g, spec)["total"]


SPECS = [LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.0)]


class TestFdGradRows:
    @pytest.mark.parametrize("n", [2, 5, 101])
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_bitwise_equal_to_fd_grad_on_losses(self, spec, n):
        rng = np.random.default_rng(n)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        for _ in range(3):
            target, logits = random_instance(rng, g)
            h = 1e-5 * np.maximum(1.0, np.abs(logits))
            rows = fd_grad_rows(batched_total(spec, target, g), logits, h)
            loop = fd_grad_reference(per_sample_total(spec, target, g), logits, h)
            assert rows.tobytes() == loop.tobytes()
            assert fd_grad(per_sample_total(spec, target, g), logits, h).tobytes() == loop.tobytes()

    def test_scalar_step_and_quadratic(self):
        a = np.array([1.5, -2.0, 0.5])
        x0 = np.array([0.3, -1.2, 2.0])
        rows = fd_grad_rows(lambda r: np.sum(a * r * r, axis=1), x0, 1e-4)
        assert rows.tobytes() == fd_grad_reference(lambda x: float(np.sum(a * x * x)), x0, 1e-4).tobytes()

    def test_non_finite_row_names_the_same_coordinate(self):
        x0 = np.zeros(6)

        def f(x):  # non-finite once coordinate 3 or 5 moves up
            return math.inf if x[3] > 0.0 or x[5] > 0.0 else float(np.sum(x))

        with pytest.raises(ValueError, match="non-finite near coordinate 3") as loop:
            fd_grad_reference(f, x0, 1e-5)
        with pytest.raises(ValueError) as rows:
            fd_grad_rows(lambda r: np.array([f(x) for x in r]), x0, 1e-5)
        with pytest.raises(ValueError) as engine:
            fd_grad(f, x0, 1e-5)
        assert str(rows.value) == str(engine.value) == str(loop.value)

    def test_validation_matches_fd_grad(self):
        # The texts of the loop fd_grad was before it became one fd_grad_rows call.  A (k, n)
        # stack is fd_grad_rows' stacked form, so only fd_grad, the one-vector case, refuses it.
        bad = [(np.array([1.0, 1.0]), np.array([1e-5, -1e-5])), (np.array([1.0]), 0.0), (np.array([]), 1e-5),
               (np.float64(1.0), 1e-5), (np.zeros((2, 2, 2)), 1e-5)]
        for x, h in bad + [(np.zeros((2, 2)), 1e-5)]:
            with pytest.raises(ValueError) as loop:
                fd_grad_reference(lambda z: 0.0, x, h)
            with pytest.raises(ValueError) as engine:
                fd_grad(lambda z: 0.0, x, h)
            assert str(engine.value) == str(loop.value)
            if x.ndim != 2:
                with pytest.raises(ValueError) as rows:
                    fd_grad_rows(lambda r: np.zeros(len(r)), x, h)
                assert str(rows.value) == str(loop.value)

    def test_one_loss_per_row_required(self):
        with pytest.raises(ValueError, match="one loss per row"):
            fd_grad_rows(lambda r: np.zeros(3), np.zeros(2), 1e-5)

    def test_loss_fn_gets_a_fresh_copy_it_may_write_into(self):
        # Like fd_grad_reference, fd_grad hands every call its own copy, so a loss_fn
        # that scales its argument in place neither sees nor leaves a changed point.
        a = np.array([1.5, -2.0, 0.5])
        x0 = np.array([0.3, -1.2, 2.0])
        seen = []

        def f(x):
            seen.append(x)
            x *= 2.0
            return float(np.sum(a * x * x)) / 4.0

        got = fd_grad(f, x0, 1e-4)
        assert got.tobytes() == fd_grad_reference(f, x0, 1e-4).tobytes()
        assert x0.tolist() == [0.3, -1.2, 2.0]
        assert len(seen) == 2 * 2 * x0.size and all(x.flags.owndata for x in seen)


class TestFdGradRowsStacked:
    """fd_grad_rows on a (k, n) stack: k instances in one loss_rows call."""

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("per_coordinate", [False, True], ids=["scalar_h", "vector_h"])
    def test_bitwise_equal_to_one_call_per_instance(self, k, per_coordinate):
        rng = np.random.default_rng(k)
        x = rng.normal(0.0, 2.0, (k, 5))
        h = 1e-5 * np.maximum(1.0, np.abs(x)) if per_coordinate else 1e-4
        a = np.array([1.5, -2.0, 0.5, 0.25, 3.0])

        def loss_rows(rows):
            return np.einsum("ij,ij->i", rows, a * rows) + np.sin(rows).sum(axis=1)

        calls = []
        stacked = fd_grad_rows(lambda rows: calls.append(rows.shape) or loss_rows(rows), x, h)
        assert stacked.shape == x.shape and calls == [(2 * 5 * k, 5)]
        for j in range(k):
            one = fd_grad_rows(loss_rows, x[j], h[j] if per_coordinate else h)
            assert stacked[j].tobytes() == one.tobytes(), j

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_rows_are_laid_out_instance_by_instance(self, spec):
        # Instance j owns rows 2n*j .. 2n*j + 2n - 1, so its target repeats 2n times.
        rng = np.random.default_rng(7)
        g = LabelGrid(0.0, 4.0, 1.0)
        instances = [random_instance(rng, g) for _ in range(3)]
        targets = np.stack([t.probs for t, _ in instances])
        logits = np.stack([z for _, z in instances])
        h = 1e-5 * np.maximum(1.0, np.abs(logits))
        stacked = fd_grad_rows(
            lambda rows: batch_loss(np.repeat(targets, 2 * len(g), axis=0), rows, g, spec)["total"], logits, h)
        for j, (target, z) in enumerate(instances):
            assert stacked[j].tobytes() == fd_grad_rows(batched_total(spec, target, g), z, h[j]).tobytes()

    def test_non_finite_loss_names_instance_and_coordinate(self):
        x = np.zeros((3, 4))

        def loss_rows(rows):  # instance 1's rows are 8..15; coordinate 2 moving down is row 14
            out = rows.sum(axis=1)
            out[14] = math.nan
            return out

        with pytest.raises(ValueError, match="^loss_fn non-finite in instance 1 near coordinate 2$"):
            fd_grad_rows(loss_rows, x, 1e-5)

    def test_stack_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            fd_grad_rows(lambda r: np.zeros(len(r)), np.zeros((2, 0)), 1e-5)
        with pytest.raises(ValueError, match="step must be positive"):
            fd_grad_rows(lambda r: np.zeros(len(r)), np.zeros((2, 2)), np.array([[1e-5, 1e-5], [1e-5, 0.0]]))
        with pytest.raises(ValueError, match=r"one loss per row, shape \(12,\)"):
            fd_grad_rows(lambda r: np.zeros(4), np.zeros((3, 2)), 1e-5)


# ---------------------------------------------------------------------------
# rel_norm_error
# ---------------------------------------------------------------------------

class TestRelNormError:
    def test_rel_norm_error(self):
        assert rel_norm_error(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == 0.0
        v = rel_norm_error(np.array([1.0, 0.0]), np.array([1.0, 2e-6]))
        assert v == pytest.approx(2e-6 / (1.0 + math.sqrt(1.0 + 4e-12)), rel=1e-6)


# ---------------------------------------------------------------------------
# numeric_gaussian_kl
# ---------------------------------------------------------------------------

class TestNumericGaussianKl:
    @pytest.mark.parametrize(
        "t, p",
        [
            (Moments(0.0, 1.0), Moments(1.0, 1.0)),
            (Moments(0.0, 1.0), Moments(0.0, 4.0)),
            (Moments(5.0, 0.25), Moments(4.0, 9.0)),
            (Moments(0.0, 100.0), Moments(10.0, 0.25)),  # hardest sweep pair
        ],
    )
    def test_matches_closed_form(self, t, p):
        assert numeric_gaussian_kl(t, p) == pytest.approx(gaussian_kl(t, p), abs=1e-9)

    def test_extreme_pair_from_acceptance_sweep(self):
        # closed form ~396.5 nats; the naive (non-log-space) quadrature fails
        # here because the narrow prediction underflows across the window
        t, p = Moments(0.0, 100.0), Moments(10.0, 0.25)
        closed = gaussian_kl(t, p)
        assert closed == pytest.approx(math.log(0.5 / 10.0) + 200.0 / 0.5 - 0.5, rel=1e-12)
        assert abs(numeric_gaussian_kl(t, p) - closed) <= 1e-4

    def test_identical_moments_near_zero(self):
        m = Moments(3.0, 4.0)
        assert abs(numeric_gaussian_kl(m, m)) <= 1e-12

    def test_minimum_points_enforced(self):
        with pytest.raises(ValueError, match="points"):
            numeric_gaussian_kl(Moments(0.0, 1.0), Moments(0.0, 1.0), points=999)

    def test_degenerate_variance_rejected(self):
        with pytest.raises(ValueError):
            numeric_gaussian_kl(Moments(0.0, 0.0), Moments(0.0, 1.0))

    @given(
        dmu=st.floats(min_value=-5.0, max_value=5.0),
        var_t=st.floats(min_value=0.25, max_value=25.0),
        var_p=st.floats(min_value=0.25, max_value=25.0),
    )
    def test_agreement_property(self, dmu, var_t, var_p):
        t, p = Moments(0.0, var_t), Moments(dmu, var_p)
        # modest point count keeps the property fast; accuracy is already
        # far below the acceptance tolerance at 1e4 points
        assert numeric_gaussian_kl(t, p, points=10_000) == pytest.approx(
            gaussian_kl(t, p), abs=1e-6
        )


def numeric_gaussian_kl_expression(target_m, pred_m, points=100_000, span_sigmas=8.0):
    """The whole-array form of numeric_gaussian_kl, kept as its bitwise reference."""
    def logsumexp(a):
        m = float(np.max(a))
        return m + float(np.log(np.sum(np.exp(a - m))))

    reach = span_sigmas * math.sqrt(max(target_m.var, pred_m.var))
    x = np.linspace(min(target_m.mu, pred_m.mu) - reach, max(target_m.mu, pred_m.mu) + reach, points)
    log_t = -((x - target_m.mu) ** 2) / (2.0 * target_m.var)
    log_p = -((x - pred_m.mu) ** 2) / (2.0 * pred_m.var)
    log_t = log_t - logsumexp(log_t)
    log_p = log_p - logsumexp(log_p)
    return float(np.sum(np.exp(log_t) * (log_t - log_p)))


SIGMAS = (0.5, 1.0, 2.0, 5.0, 10.0)
SWEEP_PAIRS = [
    (Moments(0.0, s_t * s_t), Moments(dmu, s_p * s_p))
    for s_t in SIGMAS for s_p in SIGMAS for dmu in (0.0, 1.0, 10.0)
]


class TestNumericGaussianKlInPlace:
    def test_bitwise_equal_to_the_expression_on_the_sweep_pairs(self):
        assert len(SWEEP_PAIRS) == 75
        for t, p in SWEEP_PAIRS:
            assert numeric_gaussian_kl(t, p).hex() == numeric_gaussian_kl_expression(t, p).hex(), (t, p)

    @pytest.mark.parametrize("points", [10_000, 100_000])
    def test_bitwise_equal_to_the_expression_on_the_hard_pair(self, points):
        t, p = Moments(0.0, 100.0), Moments(10.0, 0.25)
        assert numeric_gaussian_kl(t, p, points).hex() == numeric_gaussian_kl_expression(t, p, points).hex()

    def test_peak_memory_is_three_buffers(self):
        points = 100_000
        t, p = Moments(0.0, 100.0), Moments(10.0, 0.25)
        numeric_gaussian_kl(t, p, points)  # warm up any lazy allocations
        tracemalloc.start()
        try:
            numeric_gaussian_kl(t, p, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * points * 8 + 64 * 1024, peak


# ---------------------------------------------------------------------------
# sweep + mutation sensitivity
# ---------------------------------------------------------------------------

class TestGaussianKlSweep:
    def test_sweep_passes_with_margin(self):
        res = gaussian_kl_sweep()
        assert len(res.rows) == 5 * 5 * 3
        assert res.max_abs_err <= 1e-4
        assert res.worst.abs_err == res.max_abs_err

    def test_mutated_constant_fails_sweep(self, monkeypatch):
        # the classic off-by-a-constant bug: -1/2 -> -0.49 must be caught
        monkeypatch.setattr(verify, "gaussian_kl", lambda t, p: gaussian_kl(t, p) + 0.01)
        assert gaussian_kl_sweep().max_abs_err > 1e-4

    def test_mutated_mean_term_fails_sweep(self, monkeypatch):
        def mutated(t, p):
            vf = max(p.var, 1e-8)
            return 0.5 * math.log(vf / t.var) + (t.var + 1.1 * (p.mu - t.mu) ** 2) / (2.0 * vf) - 0.5

        monkeypatch.setattr(verify, "gaussian_kl", mutated)
        assert gaussian_kl_sweep().max_abs_err > 1e-4


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

class TestRandomInstance:
    def test_produces_valid_instances(self):
        rng = np.random.default_rng(0)
        g = LabelGrid(0.0, 20.0, 1.0)
        for _ in range(50):
            target, logits = random_instance(rng, g)
            assert isinstance(target, Pmf)
            assert len(target) == len(g) == logits.shape[0]
            assert np.all(np.isfinite(logits))


def random_instance_reference(rng, g):
    """random_instance as it was written before the draw/build split, kept as its reference."""
    n = len(g)
    logits = rng.normal(0.0, 2.0, n)
    if rng.random() < 0.5:
        target = softmax(rng.normal(0.0, 1.5, n))
    else:
        sigma_lo = 0.5 * g.spacing
        sigma_hi = max(sigma_lo, g.span / 4.0)
        target = discretize_gaussian(rng.uniform(g.lo, g.hi), rng.uniform(sigma_lo, sigma_hi), g)
    return target, logits


def draw_rows_reference(rng, g, k):
    """verify._draw_rows' declared stream, each row built on its own with softmax or discretize_gaussian.

    The draws come kind by kind: the (k, n) logits, k target-kind coins, the
    softmax targets' logit rows, the Gaussian targets' means, then their sigmas.
    Returns a list of k (target pmf, logits) pairs in row order.
    """
    n = len(g)
    logits = rng.normal(0.0, 2.0, (k, n))
    soft = rng.random(k) < 0.5
    soft_logits = iter(rng.normal(0.0, 1.5, (int(soft.sum()), n)))
    sigma_lo = 0.5 * g.spacing
    mus = rng.uniform(g.lo, g.hi, k - int(soft.sum()))
    gauss = iter(zip(mus, rng.uniform(sigma_lo, max(sigma_lo, g.span / 4.0), len(mus))))
    targets = [softmax(next(soft_logits)) if s else discretize_gaussian(*next(gauss), g) for s in soft]
    return list(zip(targets, logits))


def record_softmax_rows(monkeypatch):
    """A list that gets the row count of every softmax_probs call verify makes."""
    counts, real = [], verify.softmax_probs
    monkeypatch.setattr(verify, "softmax_probs", lambda z: counts.append(len(z)) or real(z))
    return counts


class TestDrawAndBuild:
    @pytest.mark.parametrize("n", [2, 5, 31, 101])
    def test_batched_build_equals_random_instance_bytewise(self, monkeypatch, n):
        # k = 1 is the one-instance stream random_instance always drew.
        g = LabelGrid(0.0, float(n - 1), 1.0)
        rng = np.random.default_rng(1000 + n)
        soft = record_softmax_rows(monkeypatch)
        rows = [verify._draw_rows(rng, g, 1) for _ in range(40)]
        assert 0 < len(soft) < 40 and set(soft) == {1}, "both target kinds, and no empty softmax_probs call"
        rng1, rng2 = np.random.default_rng(1000 + n), np.random.default_rng(1000 + n)
        for targets, logits in rows:
            assert targets.shape == logits.shape == (1, n)
            target, z = random_instance(rng1, g)
            old_target, old_z = random_instance_reference(rng2, g)
            assert targets[0].tobytes() == target.probs.tobytes() == old_target.probs.tobytes()
            assert logits[0].tobytes() == z.tobytes() == old_z.tobytes()
        # the same stream position afterwards: no draw was added or dropped
        assert rng.random() == rng1.random() == rng2.random()

    @pytest.mark.parametrize("n", [2, 5, 31, 101])
    def test_many_rows_equal_the_kind_by_kind_reference(self, monkeypatch, n):
        g = LabelGrid(0.0, float(n - 1), 1.0)
        rng, ref = np.random.default_rng(2000 + n), np.random.default_rng(2000 + n)
        soft = record_softmax_rows(monkeypatch)
        targets, logits = verify._draw_rows(rng, g, 40)
        assert len(soft) == 1 and 0 < soft[0] < 40, "both target kinds, one softmax_probs call"
        assert targets.shape == logits.shape == (40, n)
        for row, (target, z) in enumerate(draw_rows_reference(ref, g, 40)):
            assert targets[row].tobytes() == target.probs.tobytes(), row
            assert logits[row].tobytes() == z.tobytes(), row
        assert rng.random() == ref.random()

    def test_component_minima_constructs_no_pmf(self, monkeypatch):
        made = []
        real = Pmf.__post_init__

        def counting(self):
            made.append(1)
            real(self)

        monkeypatch.setattr(Pmf, "__post_init__", counting)
        random_instance(np.random.default_rng(0), LabelGrid(0.0, 4.0, 1.0))
        assert len(made) == 1  # the counter sees Pmf construction
        made.clear()
        component_minima(n_instances=300, seed=4)
        assert made == []


class TestGradientFidelity:
    def test_full_kl(self):
        res = gradient_fidelity(LossSpec(FAMILY_FULL_KL), n_instances=20)
        assert res.max_rel_error <= 1e-6
        assert res.sizes == (2, 5, 101)

    def test_reference(self):
        res = gradient_fidelity(LossSpec(FAMILY_REFERENCE, 1.0), n_instances=20)
        assert res.max_rel_error <= 1e-6

    def test_reference_redraws_instances_next_to_the_l1_kink(self):
        # Seed 110's instance 67 at n=101 has mu_hat - mu = -1.4e-5: central
        # differences straddle the kink there and measured a 0.569 relative
        # error before the redraw.  The default seed never takes this path.
        res = gradient_fidelity(LossSpec(FAMILY_REFERENCE, 1.0), seed=110)
        assert res.redraws >= 1
        assert res.max_rel_error <= 1e-6

    def test_smooth_family_never_redraws(self):
        assert gradient_fidelity(LossSpec(FAMILY_FULL_KL), n_instances=20, seed=110).redraws == 0

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_refuses_an_empty_suite(self, spec):
        for n_instances in (0, -1):
            with pytest.raises(ValueError, match=f"^n_instances must be at least 1, got {n_instances}$"):
                gradient_fidelity(spec, n_instances=n_instances)


def gradient_fidelity_per_sample(spec, n_instances, sizes=(2, 5, 101), seed=100, rel_step=1e-5):
    """The one-call-per-perturbation form of gradient_fidelity, kept as its reference."""
    rng = np.random.default_rng(seed)
    worst = (-1.0, 0, 0)
    redraws = 0
    for n in sizes:
        g = LabelGrid(0.0, float(n - 1), 1.0)
        for k in range(n_instances):
            while True:
                target, logits = random_instance(rng, g)
                h = rel_step * np.maximum(1.0, np.abs(logits))
                if spec.family != FAMILY_REFERENCE or not verify._near_l1_kink(target, logits, g.values, h):
                    break
                redraws += 1
            if spec.family == FAMILY_REFERENCE:
                analytic = reference_grad(target, logits, g, spec.lam)
            else:
                analytic = full_kl_grad(target, logits, g)
            err = rel_norm_error(analytic, fd_grad(per_sample_total(spec, target, g), logits, h))
            if err > worst[0]:
                worst = (err, n, k)
    return FidelityResult(spec.family, tuple(sizes), n_instances, worst[0], worst[1], worst[2], redraws)


def component_minima_per_sample(n_instances, seed=300, lam=1.0):
    """The one-instance-at-a-time form of component_minima, kept as its reference.

    It draws component_minima's stream: every grid size in one call, then each
    size's instances, in ascending size, through draw_rows_reference.
    """
    rng = np.random.default_rng(seed)
    mins = {"l_ld": np.inf, "full_l_exp": np.inf, "l_smooth": np.inf, "ref_l_exp": np.inf}
    sizes = rng.integers(2, 32, n_instances).tolist()
    for n in sorted(set(sizes)):
        g = LabelGrid(0.0, float(n - 1), 1.0)
        for target, logits in draw_rows_reference(rng, g, sizes.count(n)):
            f = full_kl_loss(target, logits, g)
            r = reference_loss(target, logits, g, lam)
            mins["l_ld"] = min(mins["l_ld"], f.l_ld, r.l_ld)
            mins["full_l_exp"] = min(mins["full_l_exp"], f.l_exp)
            mins["l_smooth"] = min(mins["l_smooth"], f.l_smooth)
            mins["ref_l_exp"] = min(mins["ref_l_exp"], r.l_exp)
    return {k: float(v) for k, v in mins.items()}


def affine_invariance_errors_per_sample(n_instances, scale=3.0, shift=7.0, lam=1.0):
    """The one-instance-at-a-time form of affine_invariance_errors, kept as its reference."""
    a, b = scale, shift
    rng = np.random.default_rng(200)
    out = {"full_total_rel": 0.0, "ref_scale_rel": 0.0, "unchanged_abs": 0.0}
    for _ in range(n_instances):
        n = int(rng.integers(2, 40))
        g1 = LabelGrid(0.0, float(n - 1), 1.0)
        g2 = LabelGrid(a * g1.lo + b, a * g1.hi + b, a * g1.spacing)
        target, logits = random_instance(rng, g1)

        f1 = full_kl_loss(target, logits, g1)
        f2 = full_kl_loss(target, logits, g2)
        denom = max(1e-12, abs(f1.total))
        out["full_total_rel"] = max(out["full_total_rel"], abs(f2.total - f1.total) / denom)
        out["unchanged_abs"] = max(
            out["unchanged_abs"], abs(f2.l_ld - f1.l_ld), abs(f2.l_smooth - f1.l_smooth)
        )

        r1 = reference_loss(target, logits, g1, lam)
        r2 = reference_loss(target, logits, g2, lam)
        denom = max(1e-12, abs(a * r1.l_exp))
        out["ref_scale_rel"] = max(out["ref_scale_rel"], abs(r2.l_exp - a * r1.l_exp) / denom)
        out["unchanged_abs"] = max(out["unchanged_abs"], abs(r2.l_ld - r1.l_ld))
    return out


class TestBatchedOraclesMatchPerSample:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_gradient_fidelity(self, spec):
        assert gradient_fidelity(spec, n_instances=20) == gradient_fidelity_per_sample(spec, 20)

    def test_gradient_fidelity_with_kink_redraw(self):
        spec = LossSpec(FAMILY_REFERENCE, 1.0)
        res = gradient_fidelity(spec, seed=110)
        assert res.redraws >= 1
        assert res == gradient_fidelity_per_sample(spec, 100, seed=110)

    def test_component_minima(self):
        assert component_minima(n_instances=500) == component_minima_per_sample(500)

    def test_component_minima_across_blocks(self, monkeypatch):
        # 500 instances in blocks of 7: many blocks per size and a short last one.  The
        # instances do not depend on the block, so the minima equal the one-block run's too.
        whole = component_minima(n_instances=500, seed=3)
        monkeypatch.setattr(verify, "MINIMA_BLOCK", 7)
        blocked = component_minima(n_instances=500, seed=3)
        assert {k: v.hex() for k, v in blocked.items()} == {k: v.hex() for k, v in whole.items()}
        assert blocked == component_minima_per_sample(500, seed=3)

    def test_component_minima_evaluates_every_draw_once_per_family(self, monkeypatch):
        # Equal minima can hide a dropped instance; the rows themselves cannot.
        seen = {FAMILY_FULL_KL: [], FAMILY_REFERENCE: []}

        def recording_batch_loss(targets, logits, g, spec):
            seen[spec.family] += [(t.tobytes(), z.tobytes()) for t, z in zip(targets, logits)]
            return batch_loss(targets, logits, g, spec)

        monkeypatch.setattr(verify, "MINIMA_BLOCK", 7)
        monkeypatch.setattr(verify, "batch_loss", recording_batch_loss)
        component_minima(n_instances=50, seed=3)
        rng = np.random.default_rng(3)
        sizes = rng.integers(2, 32, 50).tolist()
        drawn = []
        for n in sorted(set(sizes)):
            rows = draw_rows_reference(rng, LabelGrid(0.0, float(n - 1), 1.0), sizes.count(n))
            drawn += [(target.probs.tobytes(), logits.tobytes()) for target, logits in rows]
        assert seen[FAMILY_FULL_KL] == seen[FAMILY_REFERENCE] == drawn


class TestStackedSuites:
    """The randomized suites evaluate stacks of instances."""

    def test_component_minima_makes_two_calls_per_size(self, monkeypatch):
        # Each size's rows are drawn at once and fit one MINIMA_BLOCK at the default count, so
        # there is one call per size and family, sizes ascending: at most 2 x 30 calls.
        seen = []

        def recording_batch_loss(targets, logits, g, spec):
            assert targets.shape == logits.shape == (len(logits), len(g))
            seen.append((len(g), spec.family, len(logits)))
            return batch_loss(targets, logits, g, spec)

        monkeypatch.setattr(verify, "batch_loss", recording_batch_loss)
        component_minima()
        sizes = [n for n, _, _ in seen]
        assert len(seen) <= 2 * 30 and sizes == sorted(sizes)
        assert all(rows <= verify.MINIMA_BLOCK for _, _, rows in seen)
        assert sorted((n, family) for n, family, _ in seen) == sorted(
            (n, family) for n in set(sizes) for family in (FAMILY_FULL_KL, FAMILY_REFERENCE))
        assert sum(rows for _, _, rows in seen) == 2 * verify.MINIMA_INSTANCES

    def test_affine_invariance_errors_at_the_default_count(self):
        n = inspect.signature(affine_invariance_errors).parameters["n_instances"].default
        got = {k: v.hex() for k, v in affine_invariance_errors().items()}
        assert got == {k: v.hex() for k, v in affine_invariance_errors_per_sample(n).items()}

    def test_affine_invariance_errors_groups_by_size(self, monkeypatch):
        # Four calls per grid size (two grids x two families); each sees every draw of its size once.
        seen = []

        def recording_batch_loss(targets, logits, g, spec):
            seen.append((len(g), spec.family, g.lo, sorted(z.tobytes() for z in logits)))
            return batch_loss(targets, logits, g, spec)

        monkeypatch.setattr(verify, "batch_loss", recording_batch_loss)
        affine_invariance_errors(n_instances=60)
        rng = np.random.default_rng(200)
        drawn = {}
        for _ in range(60):
            n = int(rng.integers(2, 40))
            drawn.setdefault(n, []).append(random_instance(rng, LabelGrid(0.0, float(n - 1), 1.0))[1].tobytes())
        assert len(seen) == 4 * len(drawn)
        for n, family, lo, rows in seen:
            assert rows == sorted(drawn[n]), (n, family, lo)
        assert sorted((n, family, lo) for n, family, lo, _ in seen) == sorted(
            (n, family, lo) for n in drawn for family in (FAMILY_FULL_KL, FAMILY_REFERENCE) for lo in (0.0, 7.0))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.family)
    def test_gradient_fidelity_stacks_stay_small_and_see_every_instance_once(self, monkeypatch, spec):
        # Seed 110 redraws a reference instance next to the L1 kink; a redrawn one must not be evaluated.
        budget = 2 * max(verify.FIDELITY_SIZES) ** 2
        sizes, analytic, perturbed = [], [], []

        def recording_batch_loss(targets, logits, g, spec):
            sizes.append(logits.size)
            rows = zip(np.reshape(targets, (-1, len(g))), np.reshape(logits, (-1, len(g))))
            perturbed.extend((t.tobytes(), z.tobytes()) for t, z in rows)
            return batch_loss(targets, logits, g, spec)

        def recording_batch_loss_and_grad(targets, logits, g, spec):
            sizes.append(logits.size)
            analytic.extend((t.tobytes(), z.tobytes()) for t, z in zip(targets, logits))
            return losses.batch_loss_and_grad(targets, logits, g, spec)

        monkeypatch.setattr(verify, "batch_loss", recording_batch_loss)
        monkeypatch.setattr(verify, "batch_loss_and_grad", recording_batch_loss_and_grad)
        res = gradient_fidelity(spec, seed=110)
        assert max(sizes) <= budget
        assert (res.redraws >= 1) == (spec.family == FAMILY_REFERENCE)

        rng = np.random.default_rng(110)
        instances, rows = [], []
        for n in verify.FIDELITY_SIZES:
            g = LabelGrid(0.0, float(n - 1), 1.0)
            for _ in range(100):
                while True:
                    target, z = random_instance(rng, g)
                    h = 1e-5 * np.maximum(1.0, np.abs(z))
                    if spec.family != FAMILY_REFERENCE or not verify._near_l1_kink(target, z, g.values, h):
                        break
                instances.append((target.probs.tobytes(), z.tobytes()))
                for sign in (1.0, -1.0):
                    for i in range(n):
                        row = z.copy()
                        row[i] += sign * h[i]
                        rows.append((target.probs.tobytes(), row.tobytes()))
        assert analytic == instances
        assert sorted(perturbed) == sorted(rows)


class TestInvarianceSuites:
    def test_affine_invariance_errors(self):
        errs = affine_invariance_errors(n_instances=50)
        assert errs["full_total_rel"] <= 1e-9
        assert errs["ref_scale_rel"] <= 1e-12
        assert errs["unchanged_abs"] == 0.0

    @pytest.mark.parametrize("suite", [affine_invariance_errors, component_minima], ids=lambda f: f.__name__)
    def test_refuses_an_empty_suite(self, suite):
        for n_instances in (0, -1):
            with pytest.raises(ValueError, match=f"^n_instances must be at least 1, got {n_instances}$"):
                suite(n_instances=n_instances)

    def test_exact_zero_violations(self):
        violations = exact_zero_violations()
        assert violations, "suite must cover at least one identity"
        for name, v in violations.items():
            assert v == 0.0, f"{name} deviates by {v!r}"

    def test_component_minima_nonnegative(self):
        mins = component_minima(n_instances=2_000)
        for name, v in mins.items():
            assert v >= 0.0, f"{name} dipped to {v!r}"

    def test_component_minima_rejects_a_non_finite_component(self, monkeypatch):
        real = verify.batch_loss

        def nan_l_ld(*args):
            comps = real(*args)
            return {**comps, "l_ld": np.full_like(comps["l_ld"], np.nan)}

        monkeypatch.setattr(verify, "batch_loss", nan_l_ld)
        with pytest.raises(ValueError, match="^loss components must be finite$"):
            component_minima(n_instances=10)


class TestValueOracle:
    def test_worked_example(self):
        # [0.5, 0.5] against softmax([0, ln 3]) = [0.25, 0.75] on the {0, 1} grid;
        # the constants are the frozen 30-digit values of tests/test_losses.py.
        exact = exact_components([[0.5, 0.5]], [[0.0, math.log(3.0)]], [0.0, 1.0])
        assert all(v.dtype == np.longdouble and v.shape == (1,) for v in exact.values())
        expected = {"l_ld": 0.14384103622589045, "l_exp": 0.18949229710744286,
                    "l_smooth": 0.27465307216702745, "total": 0.6079864055003608}
        for key, value in expected.items():
            assert float(exact[key][0]) == pytest.approx(value, rel=1e-15, abs=0.0), key

    def test_no_pmf_floor_at_wide_spreads(self):
        # p_1 = e^-1000 is far below float64's range; the long-double
        # log-softmax keeps l_ld = 0.5 ln(0.5 / p_0) + 0.5 ln(0.5 / p_1),
        # which is ln 0.5 + 500 to within e^-1000.
        exact = exact_components([[0.5, 0.5]], [[0.0, -1000.0]], [0.0, 1.0])
        assert float(exact["l_ld"][0]) == pytest.approx(math.log(0.5) + 500.0, rel=1e-15)
        assert float(exact["l_smooth"][0]) == pytest.approx(500.0, rel=1e-15)

    @pytest.mark.parametrize("key, factor", [(k, c) for k in ("l_ld", "l_exp", "l_smooth") for c in (0.0, 2.0)])
    def test_a_weighted_term_fails(self, monkeypatch, key, factor):
        # The loss with one term dropped or doubled passes the gradient, invariance
        # and exact-zero oracles; the value oracle sees it.
        real = verify.batch_loss

        def weighted(*args):
            comps = dict(real(*args))
            comps["total"] = comps["total"] + (factor - 1.0) * comps[key]
            comps[key] = factor * comps[key]
            return comps

        monkeypatch.setattr(verify, "batch_loss", weighted)
        worst = max(max(errors.values()) for errors in kernel_value_errors().values())
        assert worst > verify.KERNEL_VALUE_TOL


# ---------------------------------------------------------------------------
# composed suite
# ---------------------------------------------------------------------------

@pytest.fixture(scope="class")
def suite_results():
    """One ``run_all_checks()`` run, at the counts ``fullkl verify`` uses, shared by the class."""
    return run_all_checks()


class TestRunAllChecks:
    def test_all_pass(self, suite_results):
        assert all(isinstance(r, CheckResult) for r in suite_results)
        failed = [r.name for r in suite_results if not r.passed]
        assert not failed, failed

    def test_instance_counts_are_the_suite_defaults(self, suite_results):
        # fullkl verify calls every suite at its defaults, so acceptance criteria
        # 2-3 and the default-seed tests judge the very instances it prints.
        assert not inspect.signature(run_all_checks).parameters
        assert "seed" not in inspect.signature(affine_invariance_errors).parameters
        details = {r.name: r.detail for r in suite_results}
        errors = {r.name: float(r.max_error).hex() for r in suite_results}
        n_grad = inspect.signature(gradient_fidelity).parameters["n_instances"].default
        for spec in SPECS:
            assert details[f"grad_fidelity_{spec.family}"].startswith(f"{n_grad} instances x n in ")
            assert errors[f"grad_fidelity_{spec.family}"] == gradient_fidelity(spec).max_rel_error.hex()
        assert errors["affine_invariance"] == max(affine_invariance_errors().values()).hex()
        assert errors["nonnegativity"] == max(0.0, -min(component_minima().values())).hex()
        assert inspect.signature(component_minima).parameters["n_instances"].default == verify.MINIMA_INSTANCES
        assert details["nonnegativity"] == f"{verify.MINIMA_INSTANCES} random instances, every component"
        worst = max(max(errors.values()) for errors in kernel_value_errors().values())
        assert errors["kernel_values"] == worst.hex()

    def test_check_names_are_stable(self, suite_results):
        names = {r.name for r in suite_results}
        assert names == {
            "gaussian_kl_sweep",
            "quadrature_convergence",
            "grad_fidelity_full_kl",
            "grad_fidelity_reference",
            "affine_invariance",
            "exact_zeros",
            "nonnegativity",
            "kernel_values",
        }


# ---------------------------------------------------------------------------
# planted faults over the whole suite
# ---------------------------------------------------------------------------

# Each full-KL term's own logit gradient, from (targets, logits, grid, target moments).
TERM_LOGIT_GRADS = {
    "l_ld": lambda t, z, g, moments: softmax_probs(z) - t,
    "l_exp": lambda t, z, g, moments: gaussian_logit_grad(moments, z, g.values),
    "l_smooth": lambda t, z, g, moments: smooth_logit_grad(z),
}


def weighted_kernel(real, key, c):
    """``real`` with the full-KL term ``key`` scaled by ``c`` in its component, the total and the gradient."""
    def kernel(targets, logits, g, spec, target_moments, want_grad):
        comps, grad = real(targets, logits, g, spec, target_moments, want_grad)
        if spec.family != FAMILY_FULL_KL:
            return comps, grad
        comps = {**comps, key: c * comps[key], "total": comps["total"] + (c - 1.0) * comps[key]}
        if want_grad:
            t, z = np.asarray(targets, dtype=np.float64), np.asarray(logits, dtype=np.float64)
            moments = pmf_moments(t, g.values) if target_moments is None else target_moments
            grad = grad + (c - 1.0) * TERM_LOGIT_GRADS[key](t, z, g, moments)
        return comps, grad

    return kernel


class TestPlantedFaults:
    """The paper's loss with one term dropped (c = 0) or doubled (c = 2), in every entry point.

    Each mutant is gradient-consistent: its value, the per-sample API and both
    batched functions all see c * term, and its logit gradient is that of its
    total.  Finite differences, affine invariance, non-negativity and the exact
    zeros hold for any such weighting; on all six mutants only
    ``kernel_values`` fails.
    """

    @pytest.mark.parametrize("key, c", [(k, c) for k in ("l_ld", "l_exp", "l_smooth") for c in (0.0, 2.0)])
    def test_each_mutant_fails_a_check(self, monkeypatch, key, c):
        g = LabelGrid(0.0, 4.0, 1.0)
        target, logits = random_instance(np.random.default_rng(0), g)
        paper = full_kl_loss(target, logits, g)
        monkeypatch.setattr(losses, "_batch_kernel", weighted_kernel(losses._batch_kernel, key, c))
        mutant = full_kl_loss(target, logits, g)  # the mutant sits behind the per-sample API too
        assert getattr(mutant, key) == c * getattr(paper, key) and mutant.total != paper.total
        failed = [r.name for r in run_all_checks() if not r.passed]
        assert failed, f"{key} x {c} passes every check"
        assert "grad_fidelity_full_kl" not in failed  # the mutant's gradient is its own total's
