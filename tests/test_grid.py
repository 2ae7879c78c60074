"""Label grids, pmfs, moments, and Gaussian discretization."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fullkl.grid import (
    EPS_LOG,
    EPS_VAR,
    MAX_BINS,
    LabelGrid,
    Moments,
    Pmf,
    discretize_gaussian,
    moments,
    pmf_moments,
    softmax,
    softmax_probs,
)


# ---------------------------------------------------------------------------
# LabelGrid
# ---------------------------------------------------------------------------

# Grids whose linspace rounding is relative to the size of the values, not to
# the step: a spacing-deviation check at 1e-12 * step rejected both.
OFFSET_GRIDS = [((1000.0, 1100.0, 0.1), 1001), ((10.0, 11.0, 0.001), 1001)]


class TestMakeGrid:
    def test_age_grid(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        assert len(g) == 101
        assert g.spacing == 1.0
        assert g.values[0] == 0.0 and g.values[-1] == 100.0
        assert g.lo == 0.0 and g.hi == 100.0 and g.span == 100.0
        assert g.sigma_floor == 0.5  # half the spacing

    def test_fractional_step(self):
        g = LabelGrid(0.0, 1.0, 0.25)
        np.testing.assert_allclose(g.values, [0.0, 0.25, 0.5, 0.75, 1.0], rtol=0, atol=0)
        assert g.sigma_floor == 0.125

    @pytest.mark.parametrize("bounds, n", OFFSET_GRIDS)
    def test_offset_grid(self, bounds, n):
        g = LabelGrid(*bounds)
        assert len(g) == n
        assert g.values[0] == bounds[0] and g.values[-1] == bounds[1]

    @pytest.mark.parametrize("start", [0.0, -5.0, 0.25, 10.0, -1e3, 1000.0, 1e4])
    def test_start_step_size_sweep(self, start):
        for step in (1.0, 0.5, 2.5, 0.1, 0.01, 0.001):
            for n_steps in (1, 2, 100, 1000):
                assert len(LabelGrid(start, start + n_steps * step, step)) == n_steps + 1

    def test_non_integral_span_rejected(self):
        with pytest.raises(ValueError, match="integral"):
            LabelGrid(0.0, 1.0, 0.3)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.inf, math.nan])
    def test_bad_step_rejected(self, step):
        with pytest.raises(ValueError):
            LabelGrid(0.0, 10.0, step)

    @pytest.mark.parametrize("start, stop", [(math.nan, 10.0), (0.0, math.inf), (-math.inf, 10.0)])
    def test_non_finite_bounds_rejected(self, start, stop):
        with pytest.raises(ValueError, match="finite"):
            LabelGrid(start, stop, 1.0)

    @pytest.mark.parametrize("bounds, key, bad", [
        ((True, 100, 1), "start", True),
        (("0", "100", "1"), "start", "0"),
        ((0, True, 0.5), "stop", True),
        ((0, 100, "1"), "step", "1"),
    ])
    def test_bools_and_strings_rejected(self, bounds, key, bad):
        with pytest.raises(ValueError, match=f"^{key}: expected a number, got {bad!r}$"):
            LabelGrid(*bounds)

    @pytest.mark.parametrize("bounds, key", [((0, 10 ** 400, 1), "stop"), ((0, 100, -10 ** 400), "step")])
    def test_integers_beyond_float_range_rejected(self, bounds, key):
        with pytest.raises(ValueError, match=f"^{key}: expected a number within float range$"):
            LabelGrid(*bounds)

    @pytest.mark.parametrize("stop, step", [
        (1e300, 1e-300),                            # round() of the count would overflow
        (1e15, 1.0),                                # 7.11 PiB of values
        (float(MAX_BINS - 1), 1.0),                 # MAX_BINS bins, the first count refused
    ], ids=["infinite_count", "petabytes", "at_the_bound"])
    def test_bin_count_beyond_the_address_space_rejected(self, stop, step):
        error = (f"step: the bins of [0.0, {stop!r}] at step {step!r} need at least {MAX_BINS} "
                 f"float64 values: a whole 128 TiB address space")
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            LabelGrid(0.0, stop, step)

    def test_single_bin_rejected(self):
        with pytest.raises(ValueError):
            LabelGrid(0.0, 0.0, 1.0)

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError):
            LabelGrid(10.0, 0.0, 1.0)

    def test_values_read_only(self):
        g = LabelGrid(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            g.values[0] = 99.0


class TestLabelGrid:
    def test_spacing_must_match_values(self):
        for bounds in [(0.0, 100.0, 1.0), (-5.0, 45.0, 0.5)] + [b for b, _ in OFFSET_GRIDS]:
            g = LabelGrid(*bounds)
            # linspace rounds each value to within an ulp or two of lo + i * spacing
            scale = max(abs(g.lo), abs(g.hi))
            np.testing.assert_allclose(np.diff(g.values), g.spacing, rtol=0, atol=4 * np.spacing(scale))

    def test_strictly_increasing_required(self):
        for bounds in [b for b, _ in OFFSET_GRIDS]:
            assert np.all(np.diff(LabelGrid(*bounds).values) > 0)
        with pytest.raises(ValueError):
            LabelGrid(2.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            LabelGrid(3.0, 1.0, 1.0)

    def test_at_least_two_values(self):
        assert len(LabelGrid(0.0, 1.0, 1.0)) == 2
        with pytest.raises(ValueError):
            LabelGrid(1.0, 1.0, 1.0)

    def test_equal_grids_compare_and_hash_equal(self):
        g1, g2 = LabelGrid(0.0, 100.0, 1.0), LabelGrid(0.0, 100.0, 1.0)
        assert g1 == g2 and not g1 != g2
        assert hash(g1) == hash(g2)
        assert len({g1, g2}) == 1
        assert g1 != LabelGrid(0.0, 100.0, 0.5)
        assert g1 != LabelGrid(1.0, 101.0, 1.0)
        assert "values" not in repr(g1)

    def test_affine_relabeling(self):
        g = LabelGrid(0.0, 4.0, 1.0)
        g2 = LabelGrid(3.0 * g.lo + 7.0, 3.0 * g.hi + 7.0, 3.0 * g.spacing)
        assert g2.spacing == 3.0
        assert g2.lo == 7.0 and g2.hi == 19.0

    @pytest.mark.parametrize("a, b", [(3.0, 7.0), (0.5, -2.0), (2.0, 0.0)])
    def test_affine_values_bitwise(self, a, b):
        # The grids verify's affine-invariance check draws: n = 2..39 bins at step 1.
        for n in range(2, 40):
            g = LabelGrid(0.0, float(n - 1), 1.0)
            g2 = LabelGrid(a * g.lo + b, a * g.hi + b, a * g.spacing)
            assert (a * g.values + b).tobytes() == g2.values.tobytes()


# ---------------------------------------------------------------------------
# Pmf / Moments / numeric floors
# ---------------------------------------------------------------------------

class TestPmf:
    def test_valid(self):
        p = Pmf(np.array([0.25, 0.75]))
        assert len(p) == 2

    def test_sum_tolerance(self):
        Pmf(np.array([0.5, 0.5 + 9e-10]))  # inside the 1e-9 budget
        with pytest.raises(ValueError, match="sum"):
            Pmf(np.array([0.5, 0.501]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Pmf(np.array([1.1, -0.1]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Pmf(np.array([np.nan, 1.0]))

    @pytest.mark.parametrize("probs, error", [
        (np.full((2, 2), 0.25), "pmf probabilities must be one-dimensional, got shape (2, 2)"),
        (np.array([]), "pmf must not be empty"),
    ], ids=["two_dimensional", "empty"])
    def test_shape_rejected(self, probs, error):
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            Pmf(probs)

    def test_exact_zero_entries_allowed(self):
        p = Pmf(np.array([1.0, 0.0, 0.0]))
        assert p.probs[1] == 0.0

    def test_read_only(self):
        p = Pmf(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 1.0


class TestMoments:
    def test_valid(self):
        m = Moments(40.0, 25.0)
        assert m.mu == 40.0 and m.var == 25.0

    def test_zero_variance_allowed(self):
        assert Moments(1.0, 0.0).var == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            Moments(0.0, -1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Moments(math.inf, 1.0)


class TestNumericPolicy:
    """The fixed numeric floors, which no caller can set."""

    def test_defaults(self):
        assert EPS_LOG == 1e-12
        assert EPS_VAR == 1e-8


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_known_value(self):
        p = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(p.probs, [0.25, 0.75], rtol=1e-15)

    def test_constant_logits_uniform(self):
        p = softmax(np.zeros(101))
        assert np.all(p.probs == 1.0 / 101.0)

    def test_integer_shift_invariance_is_bitwise(self):
        logits = np.array([0.125, -1.5, 2.25, 0.0])
        shifted = softmax(logits + 4.0)  # exactly representable shift
        np.testing.assert_array_equal(softmax(logits).probs, shifted.probs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="^softmax expects a non-empty logit vector$"):
            softmax([])

    def test_extreme_logits_no_overflow(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(np.isfinite(p.probs))
        assert p.probs[0] == pytest.approx(1.0)

    def test_batch_matches_per_row_bitwise(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(0.0, 2.0, (8, 11))
        batch = softmax_probs(logits)
        for i in range(8):
            np.testing.assert_array_equal(batch[i], softmax(logits[i]).probs)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.inf, 0.0]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_sums_to_one(self, seed):
        logits = np.random.default_rng(seed).normal(0.0, 3.0, 13)
        assert softmax(logits).probs.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

class TestMomentsOp:
    def test_uniform_age_grid(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        m = moments(Pmf(np.full(101, 1.0 / 101.0)), g)
        assert m.mu == pytest.approx(50.0, abs=1e-12)
        # discrete uniform on 0..n-1 has variance (n^2 - 1) / 12
        assert m.var == pytest.approx((101.0 ** 2 - 1.0) / 12.0, rel=1e-12)

    def test_one_hot(self):
        g = LabelGrid(0.0, 4.0, 1.0)
        probs = np.zeros(5)
        probs[3] = 1.0
        m = moments(Pmf(probs), g)
        assert m.mu == 3.0
        assert m.var == 0.0

    def test_length_mismatch_rejected(self):
        g = LabelGrid(0.0, 4.0, 1.0)
        with pytest.raises(ValueError):
            moments(Pmf(np.array([0.5, 0.5])), g)

    def test_batch_matches_single_bitwise(self):
        g = LabelGrid(0.0, 10.0, 1.0)
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(11), size=6)
        mu_b, var_b = pmf_moments(probs, g.values)
        for i in range(6):
            mu_i, var_i = pmf_moments(probs[i], g.values)
            assert mu_b[i] == mu_i and var_b[i] == var_i

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_mean_inside_grid_and_var_nonneg(self, seed):
        g = LabelGrid(0.0, 20.0, 1.0)
        probs = np.random.default_rng(seed).dirichlet(np.ones(21))
        m = moments(Pmf(probs), g)
        assert g.lo - 1e-9 <= m.mu <= g.hi + 1e-9
        assert m.var >= 0.0


# ---------------------------------------------------------------------------
# discretize_gaussian
# ---------------------------------------------------------------------------

class TestDiscretizeGaussian:
    def test_non_finite_mean_rejected(self):
        with pytest.raises(ValueError, match="^mu and sigma must be finite$"):
            discretize_gaussian(math.nan, 1.0, LabelGrid(0.0, 2.0, 1.0))

    def test_three_bin_frozen_values(self):
        p = discretize_gaussian(1.0, 1.0, LabelGrid(0.0, 2.0, 1.0))
        np.testing.assert_allclose(
            p.probs,
            [0.274068619061197, 0.45186276187760605, 0.274068619061197],
            rtol=1e-14,
        )

    def test_moment_recovery_mid_grid(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        m = moments(discretize_gaussian(40.0, 5.0, g), g)
        assert abs(m.mu - 40.0) <= 0.01
        assert abs(m.var / 25.0 - 1.0) <= 0.01

    def test_symmetry(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        p = discretize_gaussian(50.0, 7.0, g).probs
        np.testing.assert_array_equal(p, p[::-1])

    def test_sums_to_one(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        p = discretize_gaussian(18.0, 2.0, g)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_sigma_below_half_spacing_rejected(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            discretize_gaussian(50.0, 0.49, g)
        discretize_gaussian(50.0, 0.5, g)  # boundary is allowed

    def test_mean_far_outside_rejected(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            discretize_gaussian(131.0, 6.0, g)
        discretize_gaussian(129.0, 6.0, g)  # within 5 sigma of the span

    def test_narrow_sigma_concentrates(self):
        g = LabelGrid(0.0, 100.0, 1.0)
        p = discretize_gaussian(23.0, 0.5, g)
        assert p.probs[23] > 0.6
        m = moments(p, g)
        assert m.mu == pytest.approx(23.0, abs=1e-6)

    @given(
        mu=st.floats(min_value=20.0, max_value=80.0),
        sigma=st.floats(min_value=1.0, max_value=6.0),
    )
    def test_moment_recovery_property(self, mu, sigma):
        g = LabelGrid(0.0, 100.0, 1.0)
        m = moments(discretize_gaussian(mu, sigma, g), g)
        assert abs(m.mu - mu) <= 0.01
        assert abs(m.var / sigma ** 2 - 1.0) <= 0.01

    def test_moment_distortion_at_sigma_floor(self):
        # At sigma = spacing/2 (the allowed minimum) center-sampling
        # concentrates mass on few bins: moments are recovered only
        # coarsely.  This pins the known distortion so a regression to
        # something worse is caught.
        g = LabelGrid(0.0, 100.0, 1.0)
        m = moments(discretize_gaussian(20.3, 0.5, g), g)
        assert abs(m.mu - 20.3) <= 0.05
        assert abs(m.var / 0.25 - 1.0) <= 0.15
