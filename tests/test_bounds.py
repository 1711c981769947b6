"""Tests for the closed-form bound and rate calculators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelrisk.bounds import (
    BoundInputs,
    approx_error_bound,
    cost_gap_norm_bound,
    cost_gap_sup_bound,
    cost_gap_variance_bound,
    deviation_modulus_bound,
    extended_power,
    hinge_epsilon_threshold,
    hinge_noise_exponent,
    l2_rate_exponent,
    oracle_epsilon_terms,
    oracle_epsilon_threshold,
    power_loss_epsilon_threshold,
    power_loss_variance_constant,
    power_risk_rate_exponent,
    rate_zero_alpha_threshold,
    sobolev_covering_exponent,
    sobolev_optimal_rate,
    variance_condition_parameters,
)
from kernelrisk.losses import NotStrictlyConvexError


def make_inputs(**kw):
    defaults = dict(covering_scale=1.0, covering_exponent=1.0,
                    growth_exponent=1.5, variance_power=1.0,
                    variance_exponent=0.5, variance_scale=1.0,
                    threshold_constant=1.0, lam=0.5, n=100, confidence=1.0,
                    approx_error=0.0)
    defaults.update(kw)
    return BoundInputs(**defaults)


class TestExtendedPower:
    def test_infinity_convention(self):
        assert extended_power(0.5, math.inf) == 0.0
        assert extended_power(1.0, math.inf) == 1.0
        assert extended_power(2.0, math.inf) == math.inf

    def test_zero_power_zero_is_one(self):
        assert extended_power(0.0, 0.0) == 1.0

    def test_ordinary_values(self):
        assert extended_power(2.0, 3.0) == pytest.approx(8.0)
        assert extended_power(0.0, 2.5) == 0.0

    def test_overflow_saturates(self):
        assert extended_power(1e10, 400.0) == math.inf

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            extended_power(-1.0, 2.0)
        with pytest.raises(ValueError):
            extended_power(2.0, -1.0)


class TestApproxErrorBound:
    def test_trivials(self):
        assert approx_error_bound(0.0, 5.0) == 0.0
        assert approx_error_bound(0.25, 1.0) == pytest.approx(0.25)
        assert approx_error_bound(0.7, 0.0) == 0.0


class TestOracleThreshold:
    def test_all_ratios_one(self):
        inp = make_inputs(covering_scale=50.0, n=50, confidence=50.0, lam=1.0)
        terms = oracle_epsilon_terms(inp)
        assert all(t == pytest.approx(1.0) for t in terms.values())
        assert oracle_epsilon_threshold(inp) == pytest.approx(1.0)

    def test_hand_evaluated_terms(self):
        # p=1, alpha=1, v=2, theta=1, K=a=x=1, lam=1, n=16, approx_error=0:
        #   covering_main exponent 4/(8-2-4)=2 -> (1/16)^2
        #   covering_growth exponent 4/3 -> (1/16)^(4/3)
        #   confidence_main denominator 0, base 1/16 < 1 -> 0
        #   confidence_growth exponent 2 -> (1/16)^2
        inp = make_inputs(covering_exponent=1.0, growth_exponent=1.0,
                          variance_power=2.0, variance_exponent=1.0,
                          lam=1.0, n=16)
        terms = oracle_epsilon_terms(inp)
        assert terms["covering_main"] == pytest.approx(0.00390625, rel=1e-12)
        assert terms["covering_growth"] == pytest.approx(
            (1 / 16) ** (4 / 3), rel=1e-12)
        assert terms["confidence_main"] == 0.0
        assert terms["confidence_growth"] == pytest.approx(1 / 256, rel=1e-12)
        assert oracle_epsilon_threshold(inp) == pytest.approx(1.0)

    def test_alpha_two_degenerate_terms_vanish(self):
        # alpha=2 sends two exponents to infinity; with bases < 1 the
        # convention kills those terms
        inp = make_inputs(growth_exponent=2.0, lam=0.5, n=1000)
        terms = oracle_epsilon_terms(inp)
        assert terms["covering_growth"] == 0.0
        assert terms["confidence_growth"] == 0.0

    def test_alpha_two_degenerate_terms_blow_up(self):
        inp = make_inputs(growth_exponent=2.0, lam=0.01, n=2,
                          covering_scale=10.0, confidence=10.0)
        terms = oracle_epsilon_terms(inp)
        assert terms["covering_growth"] == math.inf
        assert math.isinf(oracle_epsilon_threshold(inp))

    def test_monotone_nonincreasing_in_n(self):
        vals = [oracle_epsilon_threshold(make_inputs(n=n, lam=0.2))
                for n in (10, 30, 100, 300, 1000, 1e5)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("field", ["threshold_constant", "confidence",
                                       "covering_scale"])
    def test_monotone_nondecreasing(self, field):
        vals = [oracle_epsilon_threshold(make_inputs(**{field: v}, lam=0.2,
                                                     n=500))
                for v in (1.0, 2.0, 5.0, 20.0, 100.0)]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            make_inputs(covering_scale=0.5)
        with pytest.raises(ValueError):
            make_inputs(covering_exponent=2.0)
        with pytest.raises(ValueError):
            make_inputs(growth_exponent=2.5)
        with pytest.raises(ValueError):
            make_inputs(variance_exponent=0.0)
        with pytest.raises(ValueError):
            make_inputs(lam=0.0)
        with pytest.raises(ValueError):
            make_inputs(confidence=0.5)


class TestHingeThreshold:
    def test_exponent_values(self):
        assert hinge_noise_exponent(0.0, 1.0) == pytest.approx(1.0)
        assert hinge_noise_exponent(math.inf, 1.0) == pytest.approx(4.0 / 3.0)
        assert hinge_noise_exponent(math.inf, 0.5) == pytest.approx(1.6)

    def test_exponent_strictly_increasing_in_q(self):
        for p in (0.3, 1.0, 1.7):
            qs = [0.0, 0.5, 1.0, 2.0, 5.0, 50.0, math.inf]
            vals = [hinge_noise_exponent(q, p) for q in qs]
            assert all(b > a for a, b in zip(vals, vals[1:-1]))
            assert vals[-1] >= vals[-2]

    def test_equal_sample_and_scale(self):
        # a = n makes the tail term K x^2 / lam exactly
        val = hinge_epsilon_threshold(q=1.0, p=1.0, K=2.0, a=50.0, n=50.0,
                                      x=3.0, lam=0.5, approx_error=0.1)
        assert val == pytest.approx(0.1 + 0.5 + 2.0 * 9.0 / 0.5)

    def test_precondition(self):
        with pytest.raises(ValueError):
            hinge_epsilon_threshold(1.0, 1.0, 1.0, a=10.0, n=5.0, x=1.0,
                                    lam=0.5, approx_error=0.0)


class TestCostGapBounds:
    def test_sup_bound_trivial(self):
        assert cost_gap_sup_bound(0.5, 0.0, 0.0, alpha=1.5) == pytest.approx(2.0)

    def test_sup_bound_hand_value(self):
        assert cost_gap_sup_bound(1.0, 1.0, 1.0, alpha=1.0) == pytest.approx(6.0)

    def test_norm_bound_values(self):
        assert cost_gap_norm_bound(0.5, 0.0, 0.0) == 0.0
        assert cost_gap_norm_bound(0.5, 0.1, 0.4) == pytest.approx(1.0)

    def test_variance_bound_values(self):
        assert cost_gap_variance_bound(0.5, 0.0, 0.0, c=2.0, v=1.0,
                                       theta=0.5) == 0.0
        assert cost_gap_variance_bound(1.0, 0.0, 1.0, c=1.0, v=0.0,
                                       theta=1.0) == pytest.approx(16.0)

    def test_variance_bound_linear_in_c(self):
        lo = cost_gap_variance_bound(0.3, 0.1, 0.7, c=1.5, v=1.2, theta=0.8)
        hi = cost_gap_variance_bound(0.3, 0.1, 0.7, c=3.0, v=1.2, theta=0.8)
        assert hi == pytest.approx(2.0 * lo, rel=1e-12)


class TestDeviationModulusBound:
    def test_hand_value(self):
        # approx_error=0, eps=lam=1 gives ratio 2; tau=1, a=n:
        # max{2^(alpha p / 4), 2^(alpha/2)}
        val = deviation_modulus_bound(a=32.0, p=1.0, lam=1.0, approx_error=0.0,
                                      eps=1.0, tau_eps=1.0, c_lp=1.0,
                                      alpha=1.5, n=32.0)
        assert val == pytest.approx(max(2 ** 0.375, 2 ** 0.75), rel=1e-12)

    def test_zero_constant(self):
        assert deviation_modulus_bound(8.0, 1.0, 0.5, 0.0, 0.3, 2.0,
                                       c_lp=0.0, alpha=2.0, n=64.0) == 0.0

    def test_tau_factor_dies_as_p_approaches_two(self):
        base = deviation_modulus_bound(4.0, 2.0 - 1e-12, 0.5, 0.0, 0.3,
                                       tau_eps=1.0, c_lp=1.0, alpha=1.5, n=64)
        scaled = deviation_modulus_bound(4.0, 2.0 - 1e-12, 0.5, 0.0, 0.3,
                                         tau_eps=5.0, c_lp=1.0, alpha=1.5, n=64)
        assert scaled == pytest.approx(base, rel=1e-10)


def power_loss_master(alpha, p, K, a, n, x, lam, ae):
    """The unreduced power-loss threshold: the master at v = alpha and
    theta = 1."""
    return oracle_epsilon_threshold(BoundInputs(
        covering_scale=a, covering_exponent=p, growth_exponent=alpha,
        variance_power=alpha, variance_exponent=1.0, variance_scale=1.0,
        threshold_constant=K, lam=lam, n=n, confidence=x, approx_error=ae))


class TestPowerLossThreshold:
    def test_all_ratios_one(self):
        val = power_loss_epsilon_threshold(alpha=1.5, p=1.0, K_alpha=1.0,
                                           a=20.0, n=20.0, x=1.0, lam=1.0,
                                           approx_error=0.3)
        assert val == pytest.approx(0.3 + 1.0 + 1.0)

    def test_hand_exponent(self):
        # alpha=1.5, p=1: exponent 4/((2+p)(2-alpha)) = 8/3; (1/8)^(8/3) = 2^-8
        val = power_loss_epsilon_threshold(alpha=1.5, p=1.0, K_alpha=1.0,
                                           a=16.0, n=128.0, x=1.0, lam=1.0,
                                           approx_error=0.0)
        assert val - 1.0 == pytest.approx(2.0 ** -8, rel=1e-12)

    def test_tail_vanishes_near_alpha_two(self):
        val = power_loss_epsilon_threshold(alpha=2.0 - 1e-9, p=1.0,
                                           K_alpha=1.0, a=1.0, n=8.0, x=1.0,
                                           lam=1.0, approx_error=0.0)
        assert val == pytest.approx(1.0)

    def test_simplified_dominates_unsimplified_terms(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            alpha = rng.uniform(1.05, 1.95)
            p = rng.uniform(0.1, 1.9)
            K = rng.uniform(1.0, 5.0)
            a = rng.uniform(1.0, 10.0)
            n = rng.uniform(K * a, 1e5)
            x = rng.uniform(1.0, 10.0)
            lam = rng.uniform(0.01, 1.0)
            ae = rng.uniform(0.0, lam)
            simp = power_loss_epsilon_threshold(alpha, p, K, a, n, x, lam, ae)
            full = power_loss_master(alpha, p, K, a, n, x, lam, ae)
            assert simp >= full - 1e-12 * max(1.0, abs(full))

    def test_extreme_inputs_give_no_nan_and_the_master_threshold(self):
        # alpha near 2 with small lam: lam^(-alpha/(2-alpha)) overflows while
        # the other power underflows; their product must not turn into NaN,
        # and the simplified form must dominate the master threshold at
        # v = alpha, theta = 1.  The first two cases are `bounds eval` runs; in
        # the next two lam^(alpha (2+p) / 4) underflows and x^((2+p) / 2)
        # overflows.
        cases = [(1.99, 1.0, 1.0, 1.0, 1000.0, 1.0, 1e-3, 0.0),
                 (1.5, 1.0, 1.0, 1.0, 1000.0, 1.0, 0.1, 0.0),
                 (1.5, 1.0, 1.0, 1.0, 1000.0, 1.0, 1e-300, 0.0),
                 (1.5, 1.0, 1.0, 1.0, 1000.0, 1e250, 0.1, 0.0)]
        rng = np.random.default_rng(7)
        for _ in range(2000):
            lam = 10.0 ** rng.uniform(-4.0, 0.0)
            cases.append((rng.uniform(1.001, 1.999), rng.uniform(0.05, 1.95),
                          rng.uniform(1.0, 5.0), rng.uniform(1.0, 10.0),
                          10.0 ** rng.uniform(0.0, 6.0),
                          rng.uniform(1.0, 10.0), lam, rng.uniform(0.0, lam)))
        for alpha, p, K, a, n, x, lam, ae in cases:
            master = power_loss_master(alpha, p, K, a, n, x, lam, ae)
            assert not math.isnan(master)
            if n >= K * a:
                simp = power_loss_epsilon_threshold(alpha, p, K, a, n, x,
                                                    lam, ae)
                assert not math.isnan(simp)
                # equal in exact arithmetic at x = 1; in the first case the
                # exponent 4/((2+p)(2-alpha)) = 133 magnifies rounding, and
                # the master reads 1.0000000000097e197 against the exact
                # 9.9999999999959e196 (the simplified form 9.9999999999960e196)
                assert simp >= master * (1.0 - 1e-10), (simp, master)

    def test_precondition(self):
        with pytest.raises(ValueError):
            power_loss_epsilon_threshold(1.5, 1.0, K_alpha=4.0, a=10.0, n=20.0,
                                         x=1.0, lam=0.5, approx_error=0.0)
        with pytest.raises(ValueError):
            power_loss_epsilon_threshold(2.0, 1.0, 1.0, 1.0, 10.0, 1.0, 0.5, 0.0)


class TestRateExponents:
    def test_optimal_schedule(self):
        for p in (0.5, 1.0, 1.5):
            k_opt = 2.0 / (2.0 + p)
            for alpha in (1.05, 1.3, 1.7, 1.95):
                assert l2_rate_exponent(k_opt, p, alpha) == pytest.approx(k_opt)

    def test_small_kappa_is_alpha_free(self):
        for alpha in (1.1, 1.5, 1.9, 2.0):
            assert l2_rate_exponent(0.4, 1.0, alpha) == pytest.approx(0.4)

    def test_hand_values(self):
        assert l2_rate_exponent(0.8, 1.0, 1.5) == pytest.approx(
            2 / 3 - (0.8 - 2 / 3) * 4, rel=1e-12)
        assert power_risk_rate_exponent(0.7, 1.0, 1.5) == pytest.approx(
            2 / 3 - (0.7 - 2 / 3) * 4, rel=1e-12)

    def test_zero_threshold(self):
        assert rate_zero_alpha_threshold(1.0, 1.0) == pytest.approx(1.0)
        # all alpha in (1, 2) then give rho <= 0
        for alpha in (1.1, 1.5, 1.9):
            assert l2_rate_exponent(1.0, 1.0, alpha) <= 0.0
        # and rho crosses zero exactly at the threshold
        kappa, p = 0.85, 1.0
        a0 = rate_zero_alpha_threshold(kappa, p)
        assert l2_rate_exponent(kappa, p, a0) == pytest.approx(0.0, abs=1e-12)

    def test_nonincreasing_in_alpha_beyond_optimal(self):
        vals = [l2_rate_exponent(0.9, 1.0, a)
                for a in np.linspace(1.01, 1.99, 25)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_alpha_two_branches(self):
        assert l2_rate_exponent(0.5, 1.0, 2.0) == pytest.approx(0.5)
        assert l2_rate_exponent(2 / 3, 1.0, 2.0) == pytest.approx(2 / 3)
        assert l2_rate_exponent(0.7, 1.0, 2.0) == -math.inf

    @given(st.floats(0.05, 1.5), st.floats(0.1, 1.9), st.floats(1.01, 1.99))
    @settings(max_examples=300, deadline=None)
    def test_l2_never_exceeds_kappa(self, kappa, p, alpha):
        assert l2_rate_exponent(kappa, p, alpha) <= kappa + 1e-12


class TestSobolev:
    def test_values(self):
        assert sobolev_covering_exponent(1.0, 1) == pytest.approx(1.0)
        assert sobolev_optimal_rate(1.0, 1) == pytest.approx(2.0 / 3.0)
        assert sobolev_covering_exponent(2.0, 1) == pytest.approx(0.5)
        assert sobolev_optimal_rate(2.0, 1) == pytest.approx(0.8)
        assert sobolev_covering_exponent(3.0, 3) == pytest.approx(1.0)

    def test_precondition(self):
        with pytest.raises(ValueError):
            sobolev_covering_exponent(0.5, 1)
        with pytest.raises(ValueError):
            sobolev_optimal_rate(1.0, 2)


class TestVarianceConstant:
    def test_hand_values(self):
        assert power_loss_variance_constant(2.0, 0.0) == pytest.approx(64.0)
        s = 1.7
        assert power_loss_variance_constant(2.0, s) == pytest.approx(
            16.0 * (s + 2.0) ** 2)

    def test_diverges_toward_alpha_one(self):
        vals = [power_loss_variance_constant(1.0 + 10.0 ** -k, 1.0)
                for k in range(1, 8)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_alpha_one_rejected(self):
        with pytest.raises(NotStrictlyConvexError):
            power_loss_variance_constant(1.0, 0.5)

    def test_condition_parameters(self):
        assert variance_condition_parameters(1.5) == (1.5, 1.0)
