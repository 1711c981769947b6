"""Tests for loss families, inner risks, and calibration machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelrisk.losses import (
    CalibrationFactor,
    FiniteDistribution,
    LossSpec,
    NotStrictlyConvexError,
    calibration_function_lower_bound,
    calibration_inequality_factor,
    inner_risk,
    loss_value,
    minimal_inner_risk,
    modulus_of_convexity_bound,
    power_loss,
)


def brute_force_modulus(alpha, B, eps, n_grid=2000):
    """Independent oracle: min midpoint-convexity gap over a (t1, t2) grid."""
    t = np.linspace(-B, B, n_grid)
    psi = np.abs(t) ** alpha
    gaps = (0.5 * (psi[:, None] + psi[None, :])
            - np.abs(0.5 * (t[:, None] + t[None, :])) ** alpha)
    mask = np.abs(t[:, None] - t[None, :]) >= eps - 1e-12
    return float(gaps[mask].min())


def symmetric(center, offsets):
    """Equal weights on the atoms center +- s for each offset s."""
    offsets = np.asarray(offsets, dtype=float)
    return FiniteDistribution(np.concatenate([center + offsets,
                                              center - offsets]),
                              np.ones(2 * len(offsets)))


class TestLossValues:
    def test_power_examples(self):
        assert loss_value(power_loss(1.5), 0.5, -0.5) == pytest.approx(1.0)
        assert loss_value(power_loss(2.0), 1.0, 0.5) == pytest.approx(0.25)

    def test_invalid_specs(self):
        for alpha in (2.5, 0.5, math.nan):
            with pytest.raises(ValueError):
                LossSpec(alpha)
        for cfg in ({"kind": "power"}, {"kind": "hinge"},
                    {"kind": "hinge", "alpha": 1.0},
                    {"kind": "huber", "alpha": 1.0}, {"alpha": 1.5}):
            with pytest.raises(ValueError):
                LossSpec.from_config(cfg)

    def test_config_roundtrip(self):
        spec = power_loss(1.3)
        assert spec.to_config() == {"kind": "power", "alpha": 1.3}
        assert LossSpec.from_config(spec.to_config()) == spec

    @given(st.floats(-1, 1), st.floats(-3, 3), st.floats(-3, 3),
           st.sampled_from([1.0, 1.25, 1.5, 2.0]))
    @settings(max_examples=300, deadline=None)
    def test_midpoint_convexity_and_nonnegativity(self, y, t1, t2, alpha):
        spec = power_loss(alpha)
        mid = loss_value(spec, y, 0.5 * (t1 + t2))
        avg = 0.5 * (loss_value(spec, y, t1) + loss_value(spec, y, t2))
        assert mid <= avg + 1e-12
        assert mid >= 0.0

    def test_growth_condition(self):
        # sup_{y in [-1,1]} |y - t|^alpha = (1 + |t|)^alpha, which is bounded
        # by 2^(alpha-1) (1 + |t|^alpha); the unit-constant form only holds
        # at alpha = 1 (and at t = 0, which is what R(0) <= 1 needs).
        ys = np.linspace(-1, 1, 41)
        ts = np.linspace(-6, 6, 201)
        for alpha in (1.0, 1.25, 1.5, 1.75, 2.0):
            vals = loss_value(power_loss(alpha), ys[:, None], ts[None, :])
            sup = vals.max(axis=0)
            growth = 2.0 ** (alpha - 1.0) * (1.0 + np.abs(ts) ** alpha)
            assert np.all(sup <= growth + 1e-12)
            assert sup[np.argmin(np.abs(ts))] <= 1.0 + 1e-12
        vals1 = loss_value(power_loss(1.0), ys[:, None], ts[None, :])
        assert np.all(vals1.max(axis=0) <= 1.0 + np.abs(ts) + 1e-12)


class TestLipschitzAndGrowth:
    def test_lipschitz_bound_holds_on_samples(self):
        # t -> |y - t|^alpha is alpha (B + 1)^(alpha - 1)-Lipschitz on
        # [-B, B] for y in [-1, 1], by the mean value theorem
        rng = np.random.default_rng(42)
        B = 2.5
        n = 100_000
        for alpha in (1.25, 1.8):
            spec = power_loss(alpha)
            y = rng.uniform(-1, 1, n)
            t1 = rng.uniform(-B, B, n)
            t2 = rng.uniform(-B, B, n)
            lip = alpha * (B + 1.0) ** (alpha - 1.0)
            diff = np.abs(loss_value(spec, y, t1) - loss_value(spec, y, t2))
            assert np.all(diff <= lip * np.abs(t1 - t2) + 1e-12)


class TestModulusOfConvexity:
    def test_paper_value_alpha_two(self):
        assert modulus_of_convexity_bound(2.0, 1.0, 1.0) == pytest.approx(0.25)
        assert modulus_of_convexity_bound(2.0, 5.0, 1.0) == pytest.approx(0.25)

    def test_hand_value(self):
        val = modulus_of_convexity_bound(1.5, 2.0, 0.5)
        assert val == pytest.approx(1.5 * 0.5 / 8 * 2 ** -0.5 * 0.25, rel=1e-12)
        # the brute-force modulus must dominate it
        assert brute_force_modulus(1.5, 2.0, 0.5) >= val - 1e-9

    def test_alpha_one_rejected(self):
        with pytest.raises(NotStrictlyConvexError):
            modulus_of_convexity_bound(1.0, 1.0, 0.5)

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 2.0])
    @pytest.mark.parametrize("B", [1.0, 2.0])
    def test_brute_force_dominates_bound(self, alpha, B):
        for eps in np.arange(0.1, B + 1e-9, 0.1):
            bound = modulus_of_convexity_bound(alpha, B, float(eps))
            assert brute_force_modulus(alpha, B, float(eps)) >= bound - 1e-9


class TestInnerRisk:
    def test_point_mass(self):
        q = FiniteDistribution([0.4], [1.0])
        spec = power_loss(1.5)
        assert inner_risk(spec, q, 0.1) == pytest.approx(
            loss_value(spec, 0.4, 0.1))

    def test_rademacher_at_zero(self):
        q = FiniteDistribution([-1.0, 1.0], [0.5, 0.5])
        assert inner_risk(power_loss(2.0), q, 0.0) == pytest.approx(1.0)
        assert inner_risk(power_loss(1.0), q, 0.0) == pytest.approx(1.0)

    def test_minimal_inner_risk_examples(self):
        q = FiniteDistribution([-1.0, 1.0], [0.5, 0.5])
        t, v = minimal_inner_risk(power_loss(2.0), q)
        assert t == pytest.approx(0.0, abs=1e-7)
        assert v == pytest.approx(1.0)
        t, v = minimal_inner_risk(power_loss(1.0), FiniteDistribution([0.3], [1.0]))
        assert t == pytest.approx(0.3, abs=1e-7)
        assert v == pytest.approx(0.0, abs=1e-10)
        t, v = minimal_inner_risk(power_loss(1.5), q)
        assert t == pytest.approx(0.0, abs=1e-7)
        assert v == pytest.approx(1.0)

    def test_symmetric_q_squared_excess_is_quadratic(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            mu = rng.uniform(-0.4, 0.4)
            q = symmetric(mu, rng.uniform(0, 0.5, 3))
            l2 = power_loss(2.0)
            _, cstar = minimal_inner_risk(l2, q)
            for t in np.linspace(-1, 1, 11):
                excess = inner_risk(l2, q, t) - cstar
                assert excess == pytest.approx((t - mu) ** 2, abs=1e-10)

    def test_symmetric_q_minimizer_is_center(self):
        rng = np.random.default_rng(2)
        for alpha in (1.25, 1.5, 2.0):
            for _ in range(10):
                mu = rng.uniform(-0.4, 0.4)
                q = symmetric(mu, rng.uniform(0.05, 0.5, 2))
                t, _ = minimal_inner_risk(power_loss(alpha), q)
                assert t == pytest.approx(mu, abs=1e-7)

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            FiniteDistribution([2.0], [1.0])
        with pytest.raises(ValueError):
            FiniteDistribution([0.5], [-1.0])
        with pytest.raises(ValueError):
            FiniteDistribution([], [])

    @pytest.mark.parametrize("values, weights", [
        ([math.nan, 0.5], [1.0, 1.0]),
        ([0.1, 0.5], [math.nan, 1.0]),
        ([0.1, 0.5], [math.inf, 1.0]),
    ])
    def test_distribution_rejects_non_finite(self, values, weights):
        with pytest.raises(ValueError):
            FiniteDistribution(values, weights)


class TestCalibration:
    def test_delta_max_values(self):
        assert calibration_function_lower_bound(2.0, 1.0) == pytest.approx(1.0)
        assert calibration_function_lower_bound(1.7, 0.0) == 0.0
        assert calibration_function_lower_bound(1.5, 4.0) == pytest.approx(
            0.375 * 4 ** -0.5 * 4, rel=1e-12)

    def test_factor_values(self):
        assert calibration_inequality_factor(2.0, 3.7).factor == pytest.approx(1.0)
        fac = calibration_inequality_factor(1.5, 1.0)
        assert fac.factor == pytest.approx(16.0 / 3.0, rel=1e-12)
        assert isinstance(fac, CalibrationFactor)

    def test_factor_diverges_toward_alpha_one(self):
        vals = [calibration_inequality_factor(1.0 + 10.0 ** -k, 0.5).factor
                for k in range(1, 7)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e5

    def test_factor_at_least_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            alpha = rng.uniform(1.01, 2.0)
            s = rng.uniform(0, 5)
            assert calibration_inequality_factor(alpha, s).factor >= 1.0

    def test_out_of_range(self):
        with pytest.raises(NotStrictlyConvexError):
            calibration_inequality_factor(1.0, 0.0)
        with pytest.raises(NotStrictlyConvexError):
            calibration_inequality_factor(2.2, 0.0)
        with pytest.raises(ValueError):
            calibration_inequality_factor(1.5, -0.1)

    def test_per_q_calibration_inequality(self):
        # excess squared inner risk <= factor * excess power inner risk,
        # on discrete symmetric conditionals, constant predictions t
        rng = np.random.default_rng(4)
        l2 = power_loss(2.0)
        for _ in range(40):
            mu = rng.uniform(-0.5, 0.5)
            q = symmetric(
                mu, rng.uniform(0, min(1 - abs(mu), 0.99), size=2))
            for alpha in (1.25, 1.5, 1.9):
                spec = power_loss(alpha)
                _, cstar_a = minimal_inner_risk(spec, q)
                _, cstar_2 = minimal_inner_risk(l2, q)
                for t in np.linspace(-2, 2, 17):
                    excess_2 = inner_risk(l2, q, t) - cstar_2
                    excess_a = inner_risk(spec, q, t) - cstar_a
                    fac = calibration_inequality_factor(alpha, abs(t)).factor
                    assert excess_2 <= fac * excess_a + 1e-9
