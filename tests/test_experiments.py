"""Tests for trial execution, rate experiments, and robustness studies."""

import numpy as np
import pytest

from kernelrisk import experiments
from kernelrisk.data import DataModel, UniformNoise
from kernelrisk.experiments import (
    RateReport,
    empirical_min_risk,
    loglog_slope,
    rate_experiment,
    robustness_study,
    run_trial,
)
from kernelrisk.kernels import Box, Kernel, KernelExpansion
from kernelrisk.losses import power_loss
from kernelrisk.solver import TrainingSet

BOX = Box((0.0,), (1.0,))
KERN = Kernel("matern", BOX, sobolev_order=1.0, length_scale=0.25)


def make_model(norm=0.5, noise_width=0.5):
    centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    coefs = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
    f0 = KernelExpansion(KERN, centers, coefs)
    fstar = KernelExpansion(KERN, centers, coefs * (norm / f0.rkhs_norm()))
    return DataModel(fstar, UniformNoise(noise_width))


class TestEmpiricalMinRisk:
    def test_distinct_inputs_give_zero(self):
        train = TrainingSet([[0.1], [0.2], [0.3]], [0.5, -0.5, 0.0])
        assert empirical_min_risk(power_loss(1.5), train) == 0.0

    def test_repeated_inputs_contribute_group_minimum(self):
        # two duplicated inputs with targets {-0.4, 0.4}: the conditional
        # minimum of squared loss is the variance 0.16 at t = 0
        train = TrainingSet([[0.5], [0.5], [0.9]], [0.4, -0.4, 0.2])
        val = empirical_min_risk(power_loss(2.0), train)
        assert val == pytest.approx((2 / 3) * 0.16, abs=1e-9)

    def test_weighted_repeated_inputs(self):
        # the duplicated input carries mass 0.5 + 0.25 = 0.75 with conditional
        # weights (2/3, 1/3) on targets {0.4, -0.2}: mean 0.2, weighted
        # variance (2/3) 0.2^2 + (1/3) 0.4^2 = 0.08, so the minimum is 0.06
        train = TrainingSet([[0.5], [0.5], [0.9]], [0.4, -0.2, 0.2])
        val = empirical_min_risk(power_loss(2.0), train,
                                 weights=np.array([0.5, 0.25, 0.25]))
        assert val == pytest.approx(0.75 * 0.08, abs=1e-9)


class TestRunTrial:
    def test_bit_reproducible(self):
        model = make_model()
        a = run_trial(model, KERN, 1.5, 0.05, 60, seed_index=2, master_seed=9)
        b = run_trial(model, KERN, 1.5, 0.05, 60, seed_index=2, master_seed=9)
        assert a == b

    def test_trial_independent_of_execution_order(self):
        model = make_model()
        first = [run_trial(model, KERN, 2.0, 0.1, 40, i, 5) for i in (0, 1, 2)]
        again = [run_trial(model, KERN, 2.0, 0.1, 40, i, 5) for i in (2, 0, 1)]
        assert first[0] == again[1]
        assert first[2] == again[0]

    def test_norm_budget_invariant(self):
        model = make_model()
        for alpha in (1.0, 1.5, 2.0):
            for i in range(5):
                rec = run_trial(model, KERN, alpha, 0.03, 80, i, 21)
                assert rec.rkhs_norm <= rec.norm_budget + 1e-6

    def test_excess_fields(self):
        model = make_model()
        rec = run_trial(model, KERN, 1.5, 0.05, 60, 0, 3, mc_points=20_000)
        assert rec.excess_l2 >= 0.0
        assert rec.excess_power is not None
        assert rec.excess_power_se > 0.0
        row = rec.to_row()
        assert len(row) == len(rec.ROW_HEADER)


class TestSlopeFit:
    def test_exact_power_law(self):
        ns = np.array([100, 200, 400, 800])
        means = 3.0 * ns ** -0.75
        slope, se = loglog_slope(ns, means, np.zeros(4))
        assert slope == pytest.approx(-0.75, abs=1e-12)
        assert se == 0.0

    def test_se_propagation_scale(self):
        ns = np.array([100, 400, 1600])
        means = ns ** -0.5
        ses = 0.1 * means
        _, se = loglog_slope(ns, means, ses)
        assert 0.0 < se < 0.2

    def test_degenerate_grid_rejected(self):
        with pytest.raises(ValueError):
            loglog_slope([100], [0.1], [0.01])
        with pytest.raises(ValueError):
            loglog_slope([100, 100], [0.1, 0.2], [0.01, 0.01])


class TestRateExperiment:
    def test_alpha_two_recovers_schedule_exponent(self):
        model = make_model()
        rep = rate_experiment(model, KERN, alpha=2.0, kappa=2 / 3,
                              n_grid=(50, 100, 200, 400), trials_per_n=8,
                              master_seed=17, covering_exponent=1.0)
        assert rep.predicted_rho == pytest.approx(2 / 3)
        lo, hi = rep.slope_bracket
        assert lo < rep.slope < hi
        assert rep.verdict == "pass"

    def test_no_finite_rate_verdict(self):
        model = make_model()
        rep = rate_experiment(model, KERN, alpha=1.9, kappa=1.2,
                              n_grid=(50, 100), trials_per_n=2,
                              master_seed=1, covering_exponent=1.0)
        assert rep.predicted_rho <= 0
        assert rep.verdict == "no-finite-rate"
        assert rep.slope_bracket is None

    def test_short_grid_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            rate_experiment(model, KERN, 2.0, 0.5, n_grid=(100,),
                            trials_per_n=4, master_seed=0,
                            covering_exponent=1.0)

    @pytest.mark.parametrize(
        "alpha, kappa, p, n_grid, log_factor",
        [(1.0, 0.5, 1.0, (40, 80), False),
         (1.5, 0.0, 1.0, (40, 80), False),
         (1.5, 0.5, 2.5, (40, 80), False),
         (1.5, 0.5, 1.0, (40, 40), False),
         (1.5, 0.5, 1.0, (0, 40), False),
         (1.5, 0.5, 1.0, (40, -5), False),
         (1.5, 0.5, 1.0, (40, 1), True)],
        ids=["alpha", "kappa", "covering-exponent", "repeated-size",
             "zero-size", "negative-size", "zero-lam"])
    def test_rejects_bad_rate_inputs_before_any_trial(
            self, monkeypatch, alpha, kappa, p, n_grid, log_factor):
        def no_trial(*args, **kwargs):
            pytest.fail("a trial ran before the inputs were checked")

        monkeypatch.setattr(experiments, "run_trial", no_trial)
        with pytest.raises(ValueError):
            rate_experiment(make_model(), KERN, alpha, kappa, n_grid=n_grid,
                            trials_per_n=2, master_seed=0,
                            covering_exponent=p, log_factor=log_factor)

    def test_rows_are_plot_ready(self):
        model = make_model()
        rep = rate_experiment(model, KERN, 2.0, 0.5, n_grid=(40, 80),
                              trials_per_n=3, master_seed=2,
                              covering_exponent=1.0)
        rows = rep.to_rows()
        assert len(rows) == 2
        assert all(len(r) == 3 for r in rows)
        assert rep.records[0].n == 40

    def test_log_factor_schedule_capped_at_one(self):
        model = make_model()
        rep = rate_experiment(model, KERN, 2.0, 2 / 3, n_grid=(3, 50),
                              trials_per_n=2, master_seed=4,
                              covering_exponent=1.0, log_factor=True)
        assert all(rec.lam <= 1.0 for rec in rep.records)


class TestRobustness:
    def test_table_shape_and_determinism(self):
        model_fstar = make_model(norm=0.4, noise_width=0.0).f_star
        kwargs = dict(
            f_star=model_fstar, base_noise=UniformNoise(0.3),
            eta_grid=(0.0, 0.2), alpha_grid=(1.1, 2.0), n=40, lam=0.05,
            trials=3, master_seed=11, outlier_magnitude=0.6)
        rep1 = robustness_study(**kwargs)
        rep2 = robustness_study(**kwargs)
        assert rep1.rows == rep2.rows
        assert len(rep1.rows) == 4
        assert rep1.robust_alpha == 1.1
        assert rep1.robust_beats_l2_at_max_eta in (True, False)

    def test_empty_grid_rejected(self):
        fstar = make_model(norm=0.4, noise_width=0.0).f_star
        with pytest.raises(ValueError):
            robustness_study(fstar, UniformNoise(0.3), (), (1.1, 2.0), 40,
                             0.05, 3, 0, 0.6)

    def test_clean_column_favors_squared_loss(self):
        # eta = 0 under clean symmetric noise: alpha=2 best or tied (2 se)
        fstar = make_model(norm=0.4, noise_width=0.0).f_star
        rep = robustness_study(fstar, UniformNoise(0.35), (0.0,),
                               (1.2, 2.0), n=150, lam=150 ** (-2 / 3),
                               trials=10, master_seed=13,
                               outlier_magnitude=0.6)
        _, _, mean_12, se_12, _ = rep.cell(0.0, 1.2)
        _, _, mean_2, se_2, _ = rep.cell(0.0, 2.0)
        assert mean_2 <= mean_12 + 2 * (se_12**2 + se_2**2) ** 0.5
