"""Loss families: values, analytic gradients, invariances, edge behavior.

Expected constants were computed independently at 30 significant digits and
frozen; agreement is asserted at 1e-13 relative (double rounding budget).
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fullkl.data import gen_synthetic
from fullkl.grid import LabelGrid, Moments, Pmf, gaussian_probs, moments, pmf_moments, softmax_probs
from fullkl.losses import (
    FAMILY_FULL_KL,
    FAMILY_REFERENCE,
    LossBreakdown,
    LossSpec,
    _gaussian_term,
    _smooth_term,
    _softmax_chain,
    batch_loss,
    batch_loss_and_grad,
    full_kl_grad,
    full_kl_loss,
    gaussian_kl,
    kl_div,
    reference_grad,
    reference_loss,
    smoothness,
)
from fullkl.verify import exact_components, fd_grad, rel_norm_error

APPROX = dict(rel=1e-13, abs=0.0)

TWO_BIN = LabelGrid(0.0, 1.0, 1.0)
HALF_HALF = Pmf(np.array([0.5, 0.5]))
LOGITS_1_3 = np.array([0.0, math.log(3.0)])  # softmax -> [0.25, 0.75]


def random_pmf(rng, n):
    return Pmf(rng.dirichlet(np.ones(n)))


# ---------------------------------------------------------------------------
# kl_div
# ---------------------------------------------------------------------------

class TestKlDiv:
    def test_frozen_value(self):
        assert kl_div(HALF_HALF, Pmf(np.array([0.25, 0.75]))) == pytest.approx(
            0.14384103622589045, **APPROX
        )

    def test_one_hot_target(self):
        # the zero-probability target bin contributes exactly 0
        assert kl_div(Pmf(np.array([1.0, 0.0])), HALF_HALF) == math.log(2.0)

    def test_self_divergence_is_exactly_zero(self):
        rng = np.random.default_rng(11)
        for n in (2, 5, 101):
            p = random_pmf(rng, n)
            assert kl_div(p, p) == 0.0

    def test_asymmetry(self):
        p = Pmf(np.array([0.9, 0.1]))
        q = Pmf(np.array([0.5, 0.5]))
        assert kl_div(p, q) != kl_div(q, p)

    def test_zero_prediction_under_target_mass_is_inf(self):
        # no pmf is floored: 0.5 * ln(0.5 / 0) is inf
        assert kl_div(Pmf(np.array([0.5, 0.5])), Pmf(np.array([1.0, 0.0]))) == math.inf
        # a zero under a zero target contributes 0
        assert kl_div(Pmf(np.array([1.0, 0.0])), Pmf(np.array([1.0, 0.0]))) == 0.0

    @pytest.mark.parametrize("sd", [2.0, 10.0, 30.0, 200.0])
    @pytest.mark.parametrize("n", [2, 5, 101])
    def test_equals_the_trainers_l_ld(self, n, sd):
        # The same KL as the kernel's l_ld, bit for bit, wherever the ratio form
        # t ln(t/p) is finite; inf on exactly the rows where it is not (some p
        # underflowed under t > 0, or t / p overflows), where the kernel takes
        # its log-softmax path instead.
        rng = np.random.default_rng(1000 * n + int(sd))
        g = LabelGrid(0.0, float(n - 1), 1.0)
        targets = gaussian_probs(rng.uniform(g.lo, g.hi, (50, 1)), rng.uniform(g.sigma_floor, n, (50, 1)), g.values)
        logits = rng.normal(0.0, sd, (50, n))
        for t, z, p in zip(targets, logits, softmax_probs(logits)):
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                ratio_form_fails = bool(np.any((t > 0.0) & ~np.isfinite(t / p)))
            expected = math.inf if ratio_form_fails else full_kl_loss(t, z, g).l_ld
            assert kl_div(t, p) == expected

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            kl_div(HALF_HALF, Pmf(np.array([0.2, 0.3, 0.5])))

    def test_array_inputs_validated(self):
        with pytest.raises(ValueError):
            kl_div(np.array([0.7, 0.7]), np.array([0.5, 0.5]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nonnegative_up_to_rounding(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        t, p = random_pmf(rng, n), random_pmf(rng, n)
        # nothing is floored: only the rounding of each t ln(t/p) can put a KL near 0 below it
        assert kl_div(t, p) >= -1e-9

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_zero_iff_equal(self, seed):
        rng = np.random.default_rng(seed)
        t = random_pmf(rng, 7)
        p = random_pmf(rng, 7)
        if not np.array_equal(t.probs, p.probs):
            assert kl_div(t, p) > 0.0


# ---------------------------------------------------------------------------
# gaussian_kl
# ---------------------------------------------------------------------------

class TestGaussianKl:
    def test_spot_values(self):
        assert gaussian_kl(Moments(0.0, 1.0), Moments(1.0, 1.0)) == 0.5
        assert gaussian_kl(Moments(0.0, 1.0), Moments(0.0, 4.0)) == pytest.approx(
            0.3181471805599453, **APPROX
        )

    def test_self_is_exactly_zero(self):
        for m in (Moments(40.0, 25.0), Moments(-3.0, 1e-8), Moments(0.0, 1e6)):
            assert gaussian_kl(m, m) == 0.0

    def test_frozen_worked_value(self):
        # moments of [0.5, 0.5] and [0.25, 0.75] on the {0, 1} grid
        t = moments(HALF_HALF, TWO_BIN)
        p = moments(Pmf(np.array([0.25, 0.75])), TWO_BIN)
        assert gaussian_kl(t, p) == pytest.approx(0.18949229710744286, **APPROX)

    def test_asymmetric_in_arguments(self):
        a, b = Moments(0.0, 1.0), Moments(0.0, 4.0)
        assert gaussian_kl(a, b) != gaussian_kl(b, a)

    def test_target_variance_below_floor_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            gaussian_kl(Moments(0.0, 1e-9), Moments(0.0, 1.0))

    def test_pred_variance_floored_not_rejected(self):
        v = gaussian_kl(Moments(0.0, 1.0), Moments(0.0, 0.0))
        assert math.isfinite(v) and v > 0.0
        # flooring makes every prediction variance below EPS_VAR equivalent
        assert v == gaussian_kl(Moments(0.0, 1.0), Moments(0.0, 1e-12))

    def test_scale_invariance(self):
        # KL between Gaussians is invariant under y -> a*y + b
        a, b = 3.0, 7.0
        t, p = Moments(10.0, 4.0), Moments(12.0, 9.0)
        t2 = Moments(a * t.mu + b, a * a * t.var)
        p2 = Moments(a * p.mu + b, a * a * p.var)
        assert gaussian_kl(t2, p2) == pytest.approx(gaussian_kl(t, p), rel=1e-12)

    @given(
        mu_t=st.floats(-50.0, 50.0),
        mu_p=st.floats(-50.0, 50.0),
        var_t=st.floats(1e-8, 1e4),
        var_p=st.floats(0.0, 1e4),
    )
    def test_nonnegative(self, mu_t, mu_p, var_t, var_p):
        assert gaussian_kl(Moments(mu_t, var_t), Moments(mu_p, var_p)) >= 0.0


# ---------------------------------------------------------------------------
# smoothness
# ---------------------------------------------------------------------------

class TestSmoothness:
    def test_frozen_values(self):
        assert smoothness(Pmf(np.array([0.8, 0.2]))) == pytest.approx(
            0.4158883083359672, **APPROX
        )
        assert smoothness(Pmf(np.array([0.25, 0.75]))) == pytest.approx(
            0.27465307216702745, **APPROX
        )

    def test_uniform_is_exactly_zero(self):
        for n in (2, 5, 101):
            assert smoothness(Pmf(np.full(n, 1.0 / n))) == 0.0

    def test_symmetric_under_reversal(self):
        p = Pmf(np.array([0.1, 0.2, 0.3, 0.4]))
        q = Pmf(np.array([0.4, 0.3, 0.2, 0.1]))
        assert smoothness(p) == pytest.approx(smoothness(q), rel=1e-15)

    def test_spikier_is_larger(self):
        mild = Pmf(np.array([0.3, 0.4, 0.3]))
        spiky = Pmf(np.array([0.05, 0.9, 0.05]))
        assert smoothness(spiky) > smoothness(mild)

    def test_one_bin_rejected(self):
        with pytest.raises(ValueError, match=re.escape("smoothness needs a pmf of length >= 2")):
            smoothness(Pmf(np.array([1.0])))

    def test_exact_zero_probabilities_give_inf(self):
        # a zero next to a nonzero entry has an infinite log ratio; a pair of zeros cannot hide it
        for probs in ([1.0, 0.0, 0.0], [0.0, 1.0], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0, 0.0]):
            assert smoothness(Pmf(np.array(probs))) == math.inf

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        assert smoothness(random_pmf(rng, int(rng.integers(2, 40)))) >= 0.0


# ---------------------------------------------------------------------------
# the grid step
# ---------------------------------------------------------------------------

class TestGridStep:
    """The grid step is the smoothness term's one hidden weight.

    On the 0-100 grid at step d, a target N(50, 4^2) against the logits
    -(y - 53)^2 / (2 s^2): z_i - z_{i+1} is linear in y_i, and sum (p_i -
    p_{i+1}) y_i telescopes to d up to edge mass, so l_smooth is d^2 / (2
    s^2).  l_ld and l_exp are the Gaussian KL of the two normals up to
    aliasing and edge mass, far below rounding, whatever the step.  At s = 12
    the truncated tails move all three by up to 8e-4, hence s <= 6.
    """

    STEPS = (2.0, 1.0, 0.5, 0.25)

    @staticmethod
    def components(step, sigma_hat):
        g = LabelGrid(0.0, 100.0, step)
        targets = gaussian_probs(50.0, 4.0, g.values)[np.newaxis]
        logits = (-((g.values - 53.0) ** 2) / (2.0 * sigma_hat**2))[np.newaxis]
        return {k: float(v[0]) for k, v in batch_loss(targets, logits, g, LossSpec(FAMILY_FULL_KL)).items()}

    @pytest.mark.parametrize("sigma_hat", [3.0, 6.0])
    def test_l_smooth_is_the_step_squared_over_twice_the_variance(self, sigma_hat):
        for step in self.STEPS:
            want = step**2 / (2.0 * sigma_hat**2)
            assert self.components(step, sigma_hat)["l_smooth"] == pytest.approx(want, rel=1e-12, abs=0.0), step

    @pytest.mark.parametrize("sigma_hat", [3.0, 6.0])
    def test_l_ld_and_l_exp_do_not_depend_on_the_step(self, sigma_hat):
        base = self.components(1.0, sigma_hat)
        gaussian = math.log(sigma_hat / 4.0) + (16.0 + 9.0) / (2.0 * sigma_hat**2) - 0.5
        assert base["l_ld"] == pytest.approx(gaussian, rel=1e-12, abs=0.0)
        assert base["l_exp"] == pytest.approx(gaussian, rel=1e-12, abs=0.0)
        for step in self.STEPS:
            comps = self.components(step, sigma_hat)
            for key in ("l_ld", "l_exp"):
                assert comps[key] == pytest.approx(base[key], rel=1e-12, abs=0.0), (step, key)


# ---------------------------------------------------------------------------
# composite losses: frozen worked example
# ---------------------------------------------------------------------------

class TestWorkedExample:
    def test_full_kl_components(self):
        b = full_kl_loss(HALF_HALF, LOGITS_1_3, TWO_BIN)
        assert b.family == FAMILY_FULL_KL
        assert b.l_ld == pytest.approx(0.14384103622589045, **APPROX)
        assert b.l_exp == pytest.approx(0.18949229710744286, **APPROX)
        assert b.l_smooth == pytest.approx(0.27465307216702745, **APPROX)
        assert b.total == pytest.approx(0.6079864055003608, **APPROX)
        assert b.total == pytest.approx(b.l_ld + b.l_exp + b.l_smooth, rel=1e-15)

    def test_reference_components(self):
        b = reference_loss(HALF_HALF, LOGITS_1_3, TWO_BIN, 1.0)
        assert b.family == FAMILY_REFERENCE
        assert b.l_ld == pytest.approx(0.14384103622589045, **APPROX)
        assert b.l_exp == 0.25  # raw L1, unweighted
        assert b.l_smooth is None
        assert b.total == pytest.approx(0.39384103622589045, **APPROX)

    def test_lambda_weighs_total_not_l_exp(self):
        b2 = reference_loss(HALF_HALF, LOGITS_1_3, TWO_BIN, 2.0)
        assert b2.l_exp == 0.25
        assert b2.total == pytest.approx(b2.l_ld + 2.0 * 0.25, rel=1e-15)

    def test_lambda_zero_reduces_to_kl(self):
        b = reference_loss(HALF_HALF, LOGITS_1_3, TWO_BIN, 0.0)
        assert b.total == b.l_ld


# ---------------------------------------------------------------------------
# exact zeros and the global minimum
# ---------------------------------------------------------------------------

class TestExactZeros:
    def test_full_kl_at_global_minimum(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        uniform = Pmf(np.full(101, 1.0 / 101.0))
        b = full_kl_loss(uniform, np.zeros(101), g)
        assert (b.l_ld, b.l_exp, b.l_smooth, b.total) == (0.0, 0.0, 0.0, 0.0)

    def test_full_kl_grad_at_global_minimum(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        uniform = Pmf(np.full(101, 1.0 / 101.0))
        grad = full_kl_grad(uniform, np.zeros(101), g)
        assert np.all(grad == 0.0)

    def test_reference_grad_at_matched_distribution(self):
        g = LabelGrid(0.0, 4.0, 1.0)
        uniform = Pmf(np.full(5, 0.2))
        grad = reference_grad(uniform, np.zeros(5), g, 1.0)
        assert np.all(grad == 0.0)


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences
# ---------------------------------------------------------------------------

class TestGradients:
    @pytest.mark.parametrize("n", [2, 5, 101])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_kl_grad_matches_fd(self, n, seed):
        rng = np.random.default_rng(seed)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        target = random_pmf(rng, n)
        logits = rng.normal(0.0, 2.0, n)
        analytic = full_kl_grad(target, logits, g)
        numeric = fd_grad(
            lambda x: full_kl_loss(target, x, g).total,
            logits,
            1e-5 * np.maximum(1.0, np.abs(logits)),
        )
        assert rel_norm_error(analytic, numeric) <= 1e-6

    @pytest.mark.parametrize("n", [2, 5, 101])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reference_grad_matches_fd(self, n, seed):
        rng = np.random.default_rng(seed)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        lam = 1.0
        target = random_pmf(rng, n)
        logits = rng.normal(0.0, 2.0, n)
        analytic = reference_grad(target, logits, g, lam)
        numeric = fd_grad(
            lambda x: reference_loss(target, x, g, lam).total,
            logits,
            1e-5 * np.maximum(1.0, np.abs(logits)),
        )
        assert rel_norm_error(analytic, numeric) <= 1e-6

    def test_per_coordinate_check_on_fixed_instance(self):
        # away from softmax-gradient zero crossings even the per-coordinate
        # metric is tight
        g = LabelGrid(0.0, 4.0, 1.0)
        target = Pmf(np.array([0.1, 0.2, 0.4, 0.2, 0.1]))
        logits = np.array([0.5, -0.25, 1.0, 0.75, -1.5])
        analytic = full_kl_grad(target, logits, g)
        numeric = fd_grad(lambda x: full_kl_loss(target, x, g).total, logits, 1e-6)
        rel = np.abs(analytic - numeric) / np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
        assert rel.max() <= 1e-6, rel

    def test_grad_shift_direction(self):
        # prediction mean above target mean: l_exp pushes probability mass
        # toward lower bins (positive gradient on high-bin logits)
        g = LabelGrid(0.0, 10.0, 1.0)
        target = Pmf(np.exp(-0.5 * (g.values - 3.0) ** 2) / np.exp(-0.5 * (g.values - 3.0) ** 2).sum())
        logits = -0.1 * (g.values - 8.0) ** 2  # prediction centered near 8
        grad = full_kl_grad(target, logits, g)
        assert grad[-1] > 0.0 and grad[0] < 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_gradient_property_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 24))
        g = LabelGrid(0.0, float(n - 1), 1.0)
        target = random_pmf(rng, n)
        logits = rng.normal(0.0, 2.0, n)
        h = 1e-5 * np.maximum(1.0, np.abs(logits))
        full_a = full_kl_grad(target, logits, g)
        full_n = fd_grad(lambda x: full_kl_loss(target, x, g).total, logits, h)
        assert rel_norm_error(full_a, full_n) <= 1e-6


def gaussian_logit_grad(target_moments, logits, values):
    """The Gaussian-moment term's own logit gradient: its pmf gradient through the softmax Jacobian."""
    p = softmax_probs(logits)
    return _softmax_chain(p, _gaussian_term(*target_moments, *pmf_moments(p, values), values, want_grad=True)[1])


def smooth_logit_grad(logits):
    """The smoothness term's own logit gradient: its pmf part through the softmax Jacobian plus its logit part."""
    p = softmax_probs(logits)
    d_pred, d_logits = _smooth_term(p, logits, want_grad=True)[1]
    return _softmax_chain(p, d_pred) + d_logits


class TestTermGradients:
    """Each full-KL term's own logit gradient against central differences of that term's value.

    Each term is a function of N(0, 2) logits z through p = softmax(z):
    the Gaussian-moment KL of p's moments, and the smoothness 1/2 sum (p_i -
    p_{i+1})(z_i - z_{i+1}).  The step is h_i = 1e-5 * max(1, |z_i|).  Over
    n = 2, 9, ..., 296 and 10 seeds the relative norm error read at most 9.1e-9
    (Gaussian) and 1.1e-9 (smoothness), hence the tolerance of 1e-5;
    dropping the (y - mu_hat)^2 part of the Gaussian gradient reads at least
    1.3e-3, and dropping the 1/2 D^T D p logit part of the smoothness
    gradient at least 0.12.
    """

    TOL = 1e-5

    @staticmethod
    def instance(n, seed):
        rng = np.random.default_rng(seed)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        target_moments = pmf_moments(rng.dirichlet(np.ones(n)), g.values)
        return g, target_moments, rng.normal(0.0, 2.0, n)

    @pytest.mark.parametrize("n", [2, 5, 101, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gaussian_term_grad_matches_fd(self, n, seed):
        g, target_moments, logits = self.instance(n, seed)

        def value(z):
            return _gaussian_term(*target_moments, *pmf_moments(softmax_probs(z), g.values), g.values, False)[0]

        numeric = fd_grad(value, logits, 1e-5 * np.maximum(1.0, np.abs(logits)))
        assert rel_norm_error(gaussian_logit_grad(target_moments, logits, g.values), numeric) <= self.TOL

    @pytest.mark.parametrize("n", [2, 5, 101, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_smooth_term_grad_matches_fd(self, n, seed):
        _, _, logits = self.instance(n, seed)

        def value(z):
            return _smooth_term(softmax_probs(z), z, want_grad=False)[0]

        numeric = fd_grad(value, logits, 1e-5 * np.maximum(1.0, np.abs(logits)))
        assert rel_norm_error(smooth_logit_grad(logits), numeric) <= self.TOL

    @pytest.mark.parametrize("n", [2, 5, 101, 300])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_term_logit_gradients_sum_to_the_kernel_gradient(self, n, seed):
        # Per-term values equal the kernel's components bit for bit; per-term logit
        # gradients, each chained on its own, add up to the kernel's gradient to
        # rounding (the kernel chains the summed pmf gradient once).
        rng = np.random.default_rng(seed)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        targets = gaussian_probs(rng.uniform(g.lo, g.hi, (8, 1)), rng.uniform(g.sigma_floor, n, (8, 1)), g.values)
        logits = rng.normal(0.0, 2.0, (8, n))
        comps, grad = batch_loss_and_grad(targets, logits, g, LossSpec(FAMILY_FULL_KL))
        p = softmax_probs(logits)
        target_moments = pmf_moments(targets, g.values)
        l_exp = _gaussian_term(*target_moments, *pmf_moments(p, g.values), g.values, want_grad=False)[0]
        l_smooth = _smooth_term(p, logits, want_grad=False)[0]
        assert l_exp.tobytes() == comps["l_exp"].tobytes()
        assert l_smooth.tobytes() == comps["l_smooth"].tobytes()
        summed = (p - targets) + gaussian_logit_grad(target_moments, logits, g.values) + smooth_logit_grad(logits)
        for got, want in zip(summed, grad):
            assert rel_norm_error(got, want) <= 1e-13


# ---------------------------------------------------------------------------
# invariances
# ---------------------------------------------------------------------------

class TestAffineInvariance:
    A, B = 3.0, 7.0

    def scaled(self, g):
        return LabelGrid(self.A * g.lo + self.B, self.A * g.hi + self.B, self.A * g.spacing)

    def test_full_kl_total_invariant(self):
        rng = np.random.default_rng(4)
        g = LabelGrid(0.0, 30.0, 1.0)
        target = random_pmf(rng, 31)
        logits = rng.normal(0.0, 2.0, 31)
        b1 = full_kl_loss(target, logits, g)
        b2 = full_kl_loss(target, logits, self.scaled(g))
        assert b2.total == pytest.approx(b1.total, rel=1e-9)
        # the grid-free components do not move at all
        assert b2.l_ld == b1.l_ld
        assert b2.l_smooth == b1.l_smooth

    def test_reference_l_exp_scales_by_a(self):
        rng = np.random.default_rng(5)
        g = LabelGrid(0.0, 30.0, 1.0)
        lam = 1.0
        target = random_pmf(rng, 31)
        logits = rng.normal(0.0, 2.0, 31)
        r1 = reference_loss(target, logits, g, lam)
        r2 = reference_loss(target, logits, self.scaled(g), lam)
        assert r2.l_exp == pytest.approx(self.A * r1.l_exp, rel=1e-12)
        assert r2.l_ld == r1.l_ld


# ---------------------------------------------------------------------------
# config dataclasses
# ---------------------------------------------------------------------------

class TestLossBreakdownValidation:
    def test_reference_must_omit_l_smooth(self):
        with pytest.raises(ValueError):
            LossBreakdown(FAMILY_REFERENCE, 1.0, 1.0, 0.5, 2.0)

    def test_full_kl_must_carry_l_smooth(self):
        with pytest.raises(ValueError):
            LossBreakdown(FAMILY_FULL_KL, 1.0, 1.0, None, 2.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            LossBreakdown("other", 1.0, 1.0, None, 2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            LossBreakdown(FAMILY_REFERENCE, math.nan, 1.0, None, 2.0)


class TestLossSpec:
    def test_reference_requires_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            LossSpec(FAMILY_REFERENCE)

    def test_full_kl_forbids_lambda(self):
        with pytest.raises(ValueError, match="lambda"):
            LossSpec(FAMILY_FULL_KL, 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="finite and >= 0"):
            LossSpec(FAMILY_REFERENCE, -0.5)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_non_finite_lambda_rejected(self, lam):
        with pytest.raises(ValueError, match="finite and >= 0"):
            LossSpec(FAMILY_REFERENCE, lam)

    @pytest.mark.parametrize("lam", [-0.5, math.nan, math.inf])
    @pytest.mark.parametrize("fn", [reference_loss, reference_grad], ids=lambda f: f.__name__)
    def test_per_sample_reference_rejects_bad_lambda(self, fn, lam):
        with pytest.raises(ValueError, match="finite and >= 0"):
            fn(HALF_HALF, LOGITS_1_3, TWO_BIN, lam)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            LossSpec("huber")

    @pytest.mark.parametrize("family", [5, None, [FAMILY_FULL_KL]])
    def test_family_must_be_a_string(self, family):
        with pytest.raises(ValueError, match=f"^family: unknown loss family {re.escape(repr(family))}"):
            LossSpec(family)

    @pytest.mark.parametrize("lam", [True, "1"])
    def test_lambda_must_be_a_number(self, lam):
        with pytest.raises(ValueError, match=f"^lambda: expected a number, got {re.escape(repr(lam))}$"):
            LossSpec(FAMILY_REFERENCE, lam)

    @pytest.mark.parametrize("lam", [1, np.float32(0.5), np.int64(2)])
    def test_lambda_stored_as_float(self, lam):
        spec = LossSpec(FAMILY_REFERENCE, lam)
        assert type(spec.lam) is float and spec.lam == lam and spec == LossSpec(FAMILY_REFERENCE, float(lam))


# ---------------------------------------------------------------------------
# batch kernels agree with the per-sample API bit for bit
# ---------------------------------------------------------------------------

class TestBatchEquivalence:
    def setup_method(self):
        rng = np.random.default_rng(17)
        self.n = 11
        self.g = LabelGrid(0.0, 10.0, 1.0)
        self.targets = rng.dirichlet(np.ones(self.n), size=7)
        self.logits = rng.normal(0.0, 2.0, (7, self.n))

    def test_full_kl_batch_bitwise(self):
        spec = LossSpec(FAMILY_FULL_KL)
        comps, grads = batch_loss_and_grad(self.targets, self.logits, self.g, spec)
        vals = batch_loss(self.targets, self.logits, self.g, spec)
        for i in range(7):
            b = full_kl_loss(Pmf(self.targets[i]), self.logits[i], self.g)
            assert comps["l_ld"][i] == b.l_ld
            assert comps["l_exp"][i] == b.l_exp
            assert comps["l_smooth"][i] == b.l_smooth
            assert comps["total"][i] == b.total
            np.testing.assert_array_equal(
                grads[i], full_kl_grad(Pmf(self.targets[i]), self.logits[i], self.g)
            )
        for key in comps:
            np.testing.assert_array_equal(comps[key], vals[key])

    def test_reference_batch_bitwise(self):
        spec = LossSpec(FAMILY_REFERENCE, 1.5)
        lam = spec.lam
        comps, grads = batch_loss_and_grad(self.targets, self.logits, self.g, spec)
        for i in range(7):
            b = reference_loss(Pmf(self.targets[i]), self.logits[i], self.g, lam)
            assert comps["l_ld"][i] == b.l_ld
            assert comps["l_exp"][i] == b.l_exp
            assert comps["total"][i] == b.total
            np.testing.assert_array_equal(
                grads[i], reference_grad(Pmf(self.targets[i]), self.logits[i], self.g, lam)
            )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            batch_loss(self.targets, self.logits[:, :5], self.g, LossSpec(FAMILY_FULL_KL))

    @pytest.mark.parametrize("spec", [LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.5)])
    def test_cached_target_moments_bitwise(self, spec):
        # Moments cached over a whole dataset, then sliced to a shuffled batch,
        # must give the bits of computing them from the batch itself.
        g = LabelGrid(0.0, 100.0, 1.0)
        ds = gen_synthetic(60, 3, g, (2.0, 6.0), seed=5)
        rng = np.random.default_rng(6)
        idx = rng.permutation(len(ds))[:16]
        targets = ds.target_pmfs[idx]
        logits = rng.normal(0.0, 2.0, targets.shape)
        mu_t, var_t = ds.target_moments
        cached = (mu_t[idx], var_t[idx])
        comps, grads = batch_loss_and_grad(targets, logits, g, spec)
        comps_c, grads_c = batch_loss_and_grad(targets, logits, g, spec, target_moments=cached)
        vals = batch_loss(targets, logits, g, spec)
        vals_c = batch_loss(targets, logits, g, spec, target_moments=cached)
        assert list(comps) == list(comps_c) == list(vals) == list(vals_c)
        for key in comps:
            for other in (comps_c, vals, vals_c):
                assert other[key].tobytes() == comps[key].tobytes(), key
        assert grads_c.tobytes() == grads.tobytes()


class TestSoftmaxUnderflow:
    """Logit spreads of 800 or more make softmax return exact zeros."""

    @pytest.mark.parametrize("n", [2, 11, 101])
    @pytest.mark.parametrize(
        "spec", [LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, 1.5)], ids=lambda s: s.family
    )
    def test_values_and_gradients_finite_and_bitwise(self, spec, n):
        rng = np.random.default_rng(n)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        targets = rng.dirichlet(np.ones(n), size=4)
        logits = rng.normal(0.0, 2.0, (4, n))
        logits[:, ::2] -= 800.0  # every other bin underflows
        logits[1, :-1] = -900.0  # one surviving bin: a one-hot prediction
        logits[1, -1] = 0.0
        probs = softmax_probs(logits)
        assert np.all(probs[[0, 2, 3], ::2] == 0.0) and np.all(probs[1, :-1] == 0.0)
        comps, grads = batch_loss_and_grad(targets, logits, g, spec)
        vals = batch_loss(targets, logits, g, spec)
        assert all(np.all(np.isfinite(v)) for v in comps.values())
        assert np.all(np.isfinite(grads))
        for key in comps:
            assert vals[key].tobytes() == comps[key].tobytes(), key
        for i in range(len(targets)):
            t = Pmf(targets[i])
            if spec.family == FAMILY_FULL_KL:
                b = full_kl_loss(t, logits[i], g)
                grad = full_kl_grad(t, logits[i], g)
                assert comps["l_smooth"][i] == b.l_smooth
            else:
                b = reference_loss(t, logits[i], g, spec.lam)
                grad = reference_grad(t, logits[i], g, spec.lam)
            assert (comps["l_ld"][i], comps["l_exp"][i], comps["total"][i]) == (b.l_ld, b.l_exp, b.total)
            assert grads[i].tobytes() == grad.tobytes()


def kernel_instance(n, height, s, seed):
    """(grid, Gaussian targets, logits, shifted logits) of one kernel-property draw.

    Logits sit on a 2**-32 lattice and the per-row shifts are whole numbers,
    so z + c is exact and the shift changes no input bit; a rounded z + c is
    itself a perturbation, which moves a total near its minimum by more than
    1e-12 relative (seen at n = 2).
    """
    g = LabelGrid(0.0, float(n - 1), 1.0)
    rng = np.random.default_rng(seed)
    mu = rng.uniform(g.lo, g.hi, (height, 1))
    sigma = g.sigma_floor * np.exp(rng.uniform(0.0, math.log(n), (height, 1)))
    targets = gaussian_probs(mu, sigma, g.values)
    logits = np.ldexp(np.round(np.ldexp(s * rng.standard_normal((height, n)), 32)), -32)
    return g, targets, logits, logits + rng.integers(-50, 51, (height, 1))


def check_kernel_rows(spec, g, targets, logits, shifted, rows):
    """Properties (a) to (e) of :class:`TestKernelInvariants` on one batch and its row window ``rows``."""
    comps, grads = batch_loss_and_grad(targets, logits, g, spec)
    keys = [k for k in ("l_ld", "l_exp", "l_smooth", "total") if k in comps]
    # (e) finite, and not below -1e-9
    for key in keys:
        assert np.all(np.isfinite(comps[key])) and np.all(comps[key] >= -1e-9), key
    assert np.all(np.isfinite(grads))
    # (a) shift invariance of the total
    total = comps["total"]
    assert np.all(np.abs(batch_loss(targets, shifted, g, spec)["total"] - total) <= 1e-12 * np.abs(total))
    # (b) zero-sum gradient rows
    assert np.all(np.abs(grads.sum(axis=-1)) <= 1e-12 * np.abs(grads).sum(axis=-1))
    # (c) a row's bits do not depend on the rows around it
    sub_comps, sub_grads = batch_loss_and_grad(targets[rows], logits[rows], g, spec)
    for key in comps:
        assert sub_comps[key].tobytes() == comps[key][rows].tobytes(), key
    assert sub_grads.tobytes() == grads[rows].tobytes()
    # (d) the per-sample API equals its batch row
    for i in range(rows.start, rows.stop):
        if spec.family == FAMILY_FULL_KL:
            b = full_kl_loss(targets[i], logits[i], g)
            grad = full_kl_grad(targets[i], logits[i], g)
        else:
            b = reference_loss(targets[i], logits[i], g, spec.lam)
            grad = reference_grad(targets[i], logits[i], g, spec.lam)
        assert [getattr(b, k) for k in keys] == [comps[k][i] for k in keys]
        assert grad.tobytes() == grads[i].tobytes()


def draw_rows(data, height):
    start = data.draw(st.integers(0, height - 1), label="start")
    return slice(start, data.draw(st.integers(start + 1, height), label="stop"))


class TestKernelInvariants:
    """Properties of every kernel row at the numerical edges.

    Every loss is a function of the softmax pmf, so a per-row logit shift
    moves no value and every gradient row sums to 0.  Both families are
    drawn at logit spreads s <= 3, and full_kl also at 3 <= s <= 200, where
    softmax entries underflow and the predicted variance reaches the EPS_VAR
    floor.  There a Gaussian gradient of a y + b (y - mu_hat)^2 left rows
    summing to up to 1e-4 of their size; a (y - mu_hat) + b (y - mu_hat)^2,
    which differs by a per-row constant, reads at most 5e-14.
    """

    @given(
        n=st.integers(2, 300),
        height=st.integers(1, 48),
        s=st.floats(0.0, 3.0),
        lam=st.floats(0.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_kernel_rows(self, n, height, s, lam, seed, data):
        rows = draw_rows(data, height)
        g, targets, logits, shifted = kernel_instance(n, height, s, seed)
        for spec in (LossSpec(FAMILY_FULL_KL), LossSpec(FAMILY_REFERENCE, lam)):
            check_kernel_rows(spec, g, targets, logits, shifted, rows)

    @given(
        n=st.integers(2, 300),
        height=st.integers(1, 48),
        s=st.floats(3.0, 200.0),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_full_kl_rows_at_wide_spreads(self, n, height, s, seed, data):
        rows = draw_rows(data, height)
        g, targets, logits, shifted = kernel_instance(n, height, s, seed)
        check_kernel_rows(LossSpec(FAMILY_FULL_KL), g, targets, logits, shifted, rows)


class TestNoWarnings:
    """At logit spread 200 softmax entries underflow to 0 or to subnormals under target mass,
    and t / p overflows: the kernel takes its log-softmax path there without a warning."""

    @pytest.mark.parametrize("n", [2, 5, 101, 300])
    def test_wide_spread_is_silent_and_matches_the_oracle(self, n):
        rng = np.random.default_rng(n)
        g = LabelGrid(0.0, float(n - 1), 1.0)
        targets = gaussian_probs(rng.uniform(g.lo, g.hi, (16, 1)), rng.uniform(g.sigma_floor, n, (16, 1)), g.values)
        logits = rng.normal(0.0, 200.0, (16, n))
        spec = LossSpec(FAMILY_FULL_KL)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = batch_loss(targets, logits, g, spec)
            comps, grads = batch_loss_and_grad(targets, logits, g, spec)
            per_sample = [(full_kl_loss(t, z, g), full_kl_grad(t, z, g)) for t, z in zip(targets, logits)]
        assert np.all(np.isfinite(grads))
        exact = exact_components(targets, logits, g.values)
        for key, want in exact.items():
            assert np.all(np.abs(comps[key] - want) <= 1e-12 * np.abs(want)), key
            assert vals[key].tobytes() == comps[key].tobytes(), key
        for i, (b, grad) in enumerate(per_sample):
            assert b.total == comps["total"][i] and grad.tobytes() == grads[i].tobytes()


# ---------------------------------------------------------------------------
# input validation on the per-sample API
# ---------------------------------------------------------------------------

class TestSampleValidation:
    def test_logit_length_must_match_grid(self):
        with pytest.raises(ValueError):
            full_kl_loss(HALF_HALF, np.zeros(3), TWO_BIN)

    def test_target_length_must_match_grid(self):
        with pytest.raises(ValueError):
            full_kl_loss(Pmf(np.array([0.2, 0.3, 0.5])), np.zeros(2), TWO_BIN)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            full_kl_loss(HALF_HALF, np.array([np.nan, 0.0]), TWO_BIN)

    def test_invalid_target_array_rejected(self):
        with pytest.raises(ValueError):
            reference_loss(np.array([0.7, 0.7]), np.zeros(2), TWO_BIN, 1.0)
