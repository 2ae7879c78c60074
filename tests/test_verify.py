"""The verification oracles themselves: finite differences, quadrature, suites."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fullkl.grid import Moments, Pmf, make_grid
from fullkl.losses import FAMILY_FULL_KL, FAMILY_REFERENCE, LossSpec, gaussian_kl
from fullkl.verify import (
    CheckResult,
    check_grad,
    component_minima,
    exact_zero_violations,
    affine_invariance_errors,
    fd_grad,
    gaussian_kl_sweep,
    gradient_fidelity,
    numeric_gaussian_kl,
    random_instance,
    rel_norm_error,
    run_all_checks,
)


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
# check_grad / rel_norm_error
# ---------------------------------------------------------------------------

class TestCheckGrad:
    def test_identical_vectors_pass(self):
        r = check_grad(np.array([1.0, -2.0]), np.array([1.0, -2.0]), tol=1e-6)
        assert r.passed and r.max_rel_error == 0.0

    def test_metric_value_at_small_deviation(self):
        # |a - n| / (|a| + |n|) = 2e-6 / (2 + 2e-6), just inside 1e-6
        r = check_grad(np.array([1.0, 1.0]), np.array([1.0, 1.0 + 2e-6]), tol=1e-6)
        assert r.max_rel_error == pytest.approx(2e-6 / (2.0 + 2e-6), rel=1e-12)
        assert r.passed
        assert r.worst_index == 1

    def test_fails_beyond_tolerance(self):
        r = check_grad(np.array([1.0, 1.0]), np.array([1.0, 1.0 + 3e-6]), tol=1e-6)
        assert not r.passed
        assert r.tolerance == 1e-6

    def test_near_zero_coordinates_use_absolute_floor(self):
        # both ~0: raw relative error would explode, the floor keeps it sane
        r = check_grad(np.array([0.0]), np.array([1e-14]), tol=1e-6)
        assert not r.passed  # 1e-14 / 1e-12 = 1e-2 > tol; floor still applies
        r2 = check_grad(np.array([0.0]), np.array([1e-19]), tol=1e-6)
        assert r2.passed

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_grad(np.array([1.0]), np.array([1.0, 2.0]), tol=1e-6)

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

    def test_minimum_span_enforced(self):
        with pytest.raises(ValueError, match="span"):
            numeric_gaussian_kl(Moments(0.0, 1.0), Moments(0.0, 1.0), span_sigmas=4.0)

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


# ---------------------------------------------------------------------------
# sweep + mutation sensitivity
# ---------------------------------------------------------------------------

class TestGaussianKlSweep:
    def test_sweep_passes_with_margin(self):
        res = gaussian_kl_sweep()
        assert len(res.rows) == 5 * 5 * 3
        assert res.max_abs_err <= 1e-4
        assert res.worst.abs_err == res.max_abs_err

    def test_mutated_constant_fails_sweep(self):
        # the classic off-by-a-constant bug: -1/2 -> -0.49 must be caught
        def mutated(mu_t, var_t, mu_p, var_p):
            return gaussian_kl(Moments(mu_t, var_t), Moments(mu_p, var_p)) + 0.01

        res = gaussian_kl_sweep(closed_form=mutated)
        assert res.max_abs_err > 1e-4

    def test_mutated_mean_term_fails_sweep(self):
        def mutated(mu_t, var_t, mu_p, var_p):
            vf = max(var_p, 1e-8)
            return 0.5 * math.log(vf / var_t) + (var_t + 1.1 * (mu_p - mu_t) ** 2) / (2.0 * vf) - 0.5

        res = gaussian_kl_sweep(closed_form=mutated)
        assert res.max_abs_err > 1e-4


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------

class TestRandomInstance:
    def test_produces_valid_instances(self):
        rng = np.random.default_rng(0)
        g = make_grid(0.0, 20.0, 1.0)
        for _ in range(50):
            target, logits = random_instance(rng, g)
            assert isinstance(target, Pmf)
            assert len(target) == len(g) == logits.shape[0]
            assert np.all(np.isfinite(logits))


class TestGradientFidelity:
    def test_full_kl(self):
        res = gradient_fidelity(LossSpec(FAMILY_FULL_KL), n_instances=20)
        assert res.max_rel_error <= 1e-6
        assert res.sizes == (2, 5, 101)

    def test_reference(self):
        res = gradient_fidelity(LossSpec(FAMILY_REFERENCE, 1.0), n_instances=20)
        assert res.max_rel_error <= 1e-6

    def test_reference_redraws_instances_next_to_the_l1_kink(self):
        # run_all_checks(seed=10) draws from seed 110, whose instance 67 at
        # n=101 has mu_hat - mu = -1.4e-5: central differences straddle the
        # kink there and measured a 0.569 relative error before the redraw.
        res = gradient_fidelity(LossSpec(FAMILY_REFERENCE, 1.0), seed=110)
        assert res.redraws >= 1
        assert res.max_rel_error <= 1e-6

    def test_smooth_family_never_redraws(self):
        assert gradient_fidelity(LossSpec(FAMILY_FULL_KL), n_instances=20, seed=110).redraws == 0


class TestInvarianceSuites:
    def test_affine_invariance_errors(self):
        errs = affine_invariance_errors(n_instances=50)
        assert errs["full_total_rel"] <= 1e-9
        assert errs["ref_scale_rel"] <= 1e-12
        assert errs["unchanged_abs"] == 0.0

    def test_exact_zero_violations(self):
        violations = exact_zero_violations()
        assert violations, "suite must cover at least one identity"
        for name, v in violations.items():
            assert v == 0.0, f"{name} deviates by {v!r}"

    def test_component_minima_nonnegative(self):
        mins = component_minima(n_instances=2_000)
        for name, v in mins.items():
            assert v >= 0.0, f"{name} dipped to {v!r}"


# ---------------------------------------------------------------------------
# composed suite
# ---------------------------------------------------------------------------

class TestRunAllChecks:
    def test_all_pass(self):
        results = run_all_checks(n_grad_instances=20, n_nonneg_instances=1_000)
        assert all(isinstance(r, CheckResult) for r in results)
        failed = [r.name for r in results if not r.passed]
        assert not failed, failed

    def test_check_names_are_stable(self):
        names = {r.name for r in run_all_checks(n_grad_instances=5, n_nonneg_instances=100)}
        assert names == {
            "gaussian_kl_sweep",
            "quadrature_convergence",
            "grad_fidelity_full_kl",
            "grad_fidelity_reference",
            "affine_invariance",
            "exact_zeros",
            "nonnegativity",
        }
