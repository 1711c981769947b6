"""Tests for the Monte-Carlo validation checks."""

import math

import numpy as np
import pytest

from kernelrisk.bounds import BoundInputs, oracle_epsilon_threshold
from kernelrisk.data import ContaminatedNoise, DataModel, UniformNoise
from kernelrisk import validate
from kernelrisk.kernels import Box, Kernel, KernelExpansion
from kernelrisk.validate import (
    _random_expansion,
    _smallest_constant,
    calibration_check,
    oracle_probability_check,
    variance_bound_check,
)

BOX = Box((0.0,), (1.0,))
KERN = Kernel("matern", BOX, sobolev_order=1.0, length_scale=0.25)


def make_model(norm=0.5, noise_width=0.5):
    centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    coefs = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
    f0 = KernelExpansion(KERN, centers, coefs)
    fstar = KernelExpansion(KERN, centers, coefs * (norm / f0.rkhs_norm()))
    return DataModel(fstar, UniformNoise(noise_width))


class TestConstantSearch:
    def make_inputs(self, K):
        return BoundInputs(covering_scale=1.0, covering_exponent=1.0,
                           growth_exponent=1.5, variance_power=1.5,
                           variance_exponent=1.0, variance_scale=1.0,
                           threshold_constant=K, lam=0.001, n=200,
                           confidence=1.0, approx_error=0.0)

    def test_returns_one_when_sufficient(self):
        assert _smallest_constant(self.make_inputs, 0.0005) == 1.0

    def test_finds_minimal_bracketing_constant(self):
        target = 10.0 * oracle_epsilon_threshold(self.make_inputs(1.0))
        K = _smallest_constant(self.make_inputs, target)
        assert K > 1.0
        assert oracle_epsilon_threshold(self.make_inputs(K)) >= target
        assert oracle_epsilon_threshold(self.make_inputs(K * 0.999)) < target


class TestRandomExpansion:
    def test_norm_targeting(self):
        rng = np.random.default_rng(0)
        f = _random_expansion(KERN, rng, 6, 1.3)
        assert f.rkhs_norm() == pytest.approx(1.3, rel=1e-9)


class TestOracleCheck:
    def test_passes_on_standard_model(self):
        model = make_model()
        rep = oracle_probability_check(
            model, KERN, alpha=2.0, lam=0.05, n=100, x=1.0, trials=60,
            covering=(1.0, 1.0), calibration_split=0.45, master_seed=1)
        assert rep.passed
        assert rep.n_calibration + rep.n_fresh == 60
        assert rep.calibrated_constant >= 1.0
        assert rep.epsilon > 0
        # threshold covers at least the advertised share of calibration runs
        covered = np.mean(np.array(rep.calibration_excesses)
                          < rep.approx_error + rep.epsilon)
        assert covered >= rep.target_probability - 1e-9

    @pytest.mark.parametrize("x, covering", [(0.5, (1.0, 1.0)),
                                             (1.0, (1.0, 2.5))],
                             ids=["confidence", "covering-exponent"])
    def test_rejects_bad_inputs_before_any_fit(self, monkeypatch, x,
                                               covering):
        def no_fit(*args, **kwargs):
            pytest.fail("fit ran before the inputs were checked")

        monkeypatch.setattr(validate, "fit", no_fit)
        with pytest.raises(ValueError):
            oracle_probability_check(make_model(), KERN, 1.5, 0.05, 50, x,
                                     trials=60, covering=covering)

    def test_requires_enough_trials(self):
        model = make_model()
        with pytest.raises(ValueError):
            oracle_probability_check(model, KERN, 2.0, 0.1, 50, 1.0,
                                     trials=40, covering=(1.0, 1.0))

    def test_monotone_event_infinite_epsilon(self):
        # frequency is 1 when the threshold is infinite (alpha = 2 with the
        # degenerate covering term blown up by a huge constant)
        model = make_model()
        rep = oracle_probability_check(
            model, KERN, alpha=2.0, lam=0.004, n=60, x=1.0, trials=52,
            covering=(4.0, 1.0), calibration_split=0.5, master_seed=2)
        assert rep.passed

    def test_accepts_covering_estimate(self):
        from kernelrisk.covering import fit_covering_exponent

        model = make_model()
        est = fit_covering_exponent(KERN, np.linspace(0, 1, 150))
        rep = oracle_probability_check(
            model, KERN, alpha=1.5, lam=0.08, n=80, x=1.0, trials=52,
            covering=est, calibration_split=0.5, master_seed=3,
            mc_points=20_000)
        assert rep.passed


class TestVarianceCheck:
    def test_passes_across_alphas(self):
        model = make_model()
        for alpha in (1.25, 1.5, 1.9):
            rep = variance_bound_check(model, alpha, n_functions=6,
                                       mc_points=40_000, master_seed=4)
            assert rep.all_passed, rep.summary()

    def test_constant_grows_toward_alpha_one(self):
        model = make_model()
        r1 = variance_bound_check(model, 1.1, n_functions=3, mc_points=5_000,
                                  master_seed=5)
        r2 = variance_bound_check(model, 1.9, n_functions=3, mc_points=5_000,
                                  master_seed=5)
        assert r1.rows[0][2] > r2.rows[0][2]

    def test_closed_form_offset_case(self):
        # constant offset against uniform noise: both moments in closed form
        model = make_model(noise_width=0.5)
        b, c = 0.5, 0.07
        f = lambda pts: model.f_star(pts) + c
        rng = np.random.default_rng(6)
        xs = rng.uniform(0, 1, size=(400_000, 1))
        ys = model.f_star(xs) + model.noise.sample(rng, 400_000)
        g = (ys - f(xs)) ** 2 - (ys - model.f_star(xs)) ** 2
        mean_exact = c * c
        second_exact = c**4 + 4 * c * c * b * b / 3
        assert g.mean() == pytest.approx(mean_exact, abs=4 * g.std() / 632)
        assert (g * g).mean() == pytest.approx(second_exact, rel=0.05)

    def test_asymmetric_model_rejected(self):
        fstar = make_model(norm=0.4).f_star
        model = DataModel(fstar, ContaminatedNoise(UniformNoise(0.2), 0.1,
                                                   0.5, asymmetric=True))
        with pytest.raises(ValueError):
            variance_bound_check(model, 1.5, n_functions=2, mc_points=1000)


class TestCalibrationCheck:
    def test_passes_for_fractional_alpha(self):
        model = make_model()
        rep = calibration_check(model, 1.5, n_functions=6, mc_points=40_000,
                                master_seed=7)
        assert rep.all_passed, rep.summary()
        assert rep.agreement_all is None

    def test_alpha_two_agreement(self):
        model = make_model()
        rep = calibration_check(model, 2.0, n_functions=6, mc_points=60_000,
                                master_seed=8)
        assert rep.all_passed
        assert rep.agreement_all

    def test_rows_carry_factor(self):
        model = make_model()
        rep = calibration_check(model, 1.25, n_functions=3, mc_points=10_000,
                                master_seed=9)
        for row in rep.rows:
            assert row[2] >= 1.0  # factor at least one


@pytest.mark.parametrize("check", [variance_bound_check, calibration_check],
                         ids=["variance", "calibration"])
@pytest.mark.parametrize("n_functions, mc_points", [(0, 1000), (2, 1)],
                         ids=["no-functions", "one-mc-point"])
def test_monte_carlo_checks_reject_untestable_sizes_before_any_draw(
        monkeypatch, check, n_functions, mc_points):
    def no_draw(*args, **kwargs):
        pytest.fail("a function was drawn before the inputs were checked")

    monkeypatch.setattr(validate, "_random_expansion", no_draw)
    with pytest.raises(ValueError):
        check(make_model(), 1.5, n_functions=n_functions, mc_points=mc_points)


class TestCostGapCheck:
    def test_all_pass_on_random_triples(self):
        from kernelrisk.validate import discrete_cost_gap_check

        rep = discrete_cost_gap_check(KERN, trials=30, master_seed=10)
        assert rep.all_passed, rep.summary()
        assert rep.skipped_negative_excess == 0
        assert len(rep.rows) == 30

    def test_rows_shape(self):
        from kernelrisk.validate import CostGapCheckReport, discrete_cost_gap_check

        rep = discrete_cost_gap_check(KERN, trials=5, master_seed=11)
        assert isinstance(rep, CostGapCheckReport)
        assert all(len(r) == len(rep.ROW_HEADER) for r in rep.rows)
