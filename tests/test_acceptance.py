"""Acceptance suite: every promised behavior at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s``; each check prints one
[PASS]/[FAIL] line with its runtime and asserts its runtime budget.  The
checks are numbered to fix their execution order (cheap calculators first,
the long rate-recovery experiment last).
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from kernelrisk.bounds import (
    cost_gap_norm_bound,
    cost_gap_sup_bound,
    cost_gap_variance_bound,
    deviation_modulus_bound,
    hinge_epsilon_threshold,
    hinge_noise_exponent,
    l2_rate_exponent,
    oracle_epsilon_terms,
    oracle_epsilon_threshold,
    power_loss_epsilon_threshold,
    power_loss_variance_constant,
    power_risk_rate_exponent,
    sobolev_covering_exponent,
    sobolev_optimal_rate,
)
from kernelrisk.covering import fit_covering_exponent, \
    fit_covering_exponent_from_axes
from kernelrisk.data import DataModel, UniformNoise
from kernelrisk.experiments import rate_experiment
from kernelrisk.kernels import Box, Kernel, KernelExpansion, kernel_matrix
from kernelrisk.losses import calibration_inequality_factor, \
    modulus_of_convexity_bound, power_loss
from kernelrisk.bounds import BoundInputs
from kernelrisk.solver import SolverConfig, TrainingSet, fit
from kernelrisk.validate import calibration_check, discrete_cost_gap_check, \
    oracle_probability_check, variance_bound_check

BOX = Box((0.0,), (1.0,))
KERN = Kernel("matern", BOX, sobolev_order=1.0, length_scale=0.25)


def make_inputs(**kw):
    defaults = dict(covering_scale=1.0, covering_exponent=1.0,
                    growth_exponent=1.5, variance_power=1.0,
                    variance_exponent=0.5, variance_scale=1.0,
                    threshold_constant=1.0, lam=0.5, n=100, confidence=1.0,
                    approx_error=0.0)
    defaults.update(kw)
    return BoundInputs(**defaults)


@contextmanager
def check(name: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {name} ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[PASS] {name} ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{name}: runtime budget exceeded"


@pytest.fixture(scope="module")
def model():
    centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    coefs = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
    raw = KernelExpansion(KERN, centers, coefs)
    fstar = KernelExpansion(KERN, centers,
                            coefs * (0.5 / raw.rkhs_norm()))
    return DataModel(fstar, UniformNoise(0.5))


@pytest.fixture(scope="module")
def covering_estimate():
    return fit_covering_exponent(KERN, np.linspace(0.0, 1.0, 400))


def brute_force_moduli(alpha, B, eps_list, n_grid):
    """Min midpoint-convexity gap over a grid, for each separation in turn.

    Sorting pair gaps by separation turns the per-eps masked minimum into a
    suffix minimum, so the quadratic pair grid is built once.
    """
    t = np.linspace(-B, B, n_grid)
    psi = np.abs(t) ** alpha
    gaps = (0.5 * (psi[:, None] + psi[None, :])
            - np.abs(0.5 * (t[:, None] + t[None, :])) ** alpha).ravel()
    seps = np.abs(t[:, None] - t[None, :]).ravel()
    order = np.argsort(seps)
    seps = seps[order]
    suffix_min = np.minimum.accumulate(gaps[order][::-1])[::-1]
    out = []
    for eps in eps_list:
        idx = np.searchsorted(seps, eps - 1e-12, side="left")
        out.append(float(suffix_min[idx]))
    return out


def test_01_solver_closed_form_agreement_and_analytic_cases():
    with check("solver correctness", 30.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(5, 201))
            xs = rng.uniform(0, 1, size=(n, 1))
            ys = np.clip(0.5 * np.sin(6 * xs[:, 0])
                         + 0.4 * rng.standard_normal(n), -1, 1)
            train = TrainingSet(xs, ys)
            lam = float(10.0 ** rng.uniform(-2, 0))
            exact = fit(KERN, power_loss(2.0), train, SolverConfig(lam=lam))
            iterative = fit(KERN, power_loss(2.0), train,
                            SolverConfig(lam=lam, objective_tolerance=1e-9))
            assert iterative.objective == pytest.approx(exact.objective,
                                                        rel=1e-6)

        one = TrainingSet([[0.5]], [1.0])
        for lam in (0.1, 0.5, 1.0):
            res = fit(KERN, power_loss(2.0), one, SolverConfig(lam=lam))
            assert abs(res.f.coefficients[0] - 1.0 / (1.0 + lam)) <= 1e-8
            expected_obj = lam / (1 + lam) ** 2 + (lam / (1 + lam)) ** 2
            assert abs(res.objective - expected_obj) <= 1e-8
        # alpha = 1 piecewise case: 2 lam c in the subdifferential at the
        # kink (0.2 <= 1), so c = 1 exactly
        res = fit(KERN, power_loss(1.0), one,
                  SolverConfig(lam=0.1))
        assert abs(res.f.coefficients[0] - 1.0) <= 1e-8
        assert abs(res.objective - 0.1) <= 1e-8


def test_02_convexity_modulus_brute_force_domination():
    with check("convexity modulus bound", 10.0):
        for alpha in (1.25, 1.5, 2.0):
            for B in (1.0, 2.0):
                eps_grid = [float(e) for e in np.arange(0.1, B + 1e-9, 0.1)]
                brutes = brute_force_moduli(alpha, B, eps_grid, 2000)
                for eps, brute in zip(eps_grid, brutes):
                    bound = modulus_of_convexity_bound(alpha, B, eps)
                    assert brute >= bound - 1e-9, (alpha, B, eps)
        # exact equality at alpha = 2 for small eps, on a grid containing
        # pairs exactly eps apart (2001 points -> spacing 0.001)
        brutes = brute_force_moduli(2.0, 1.0, (0.1, 0.2), 2001)
        for eps, brute in zip((0.1, 0.2), brutes):
            bound = modulus_of_convexity_bound(2.0, 1.0, eps)
            assert abs(brute - bound) <= 1e-9


def test_03_variance_bound_monte_carlo(model):
    with check("variance bound", 60.0):
        for alpha in (1.25, 1.5, 1.9):
            report = variance_bound_check(model, alpha, n_functions=20,
                                          mc_points=100_000,
                                          master_seed=101)
            assert report.all_passed, report.summary()


def test_04_calibration_inequality_monte_carlo(model):
    with check("calibration inequality", 60.0):
        for alpha in (1.25, 1.5, 1.9):
            report = calibration_check(model, alpha, n_functions=20,
                                       mc_points=100_000, master_seed=202)
            assert report.all_passed, report.summary()
        both = calibration_check(model, 2.0, n_functions=20,
                                 mc_points=100_000, master_seed=203)
        assert both.all_passed and both.agreement_all, both.summary()


def test_05_cost_gap_bounds_on_discrete_laws():
    with check("cost-gap bounds at discrete laws", 60.0):
        report = discrete_cost_gap_check(KERN, trials=100, master_seed=303,
                                         tolerance=1e-6)
        assert report.skipped_negative_excess == 0
        assert len(report.rows) == 100
        assert report.all_passed, report.summary()


def test_06_oracle_probability_coverage(model, covering_estimate):
    with check("oracle probability coverage", 300.0):
        n = 200
        # lam sits inside the finite-threshold regime for the fitted
        # covering exponent (lam^(1+p/2) n > 1), so the coverage event has
        # a finite epsilon and the check is binding for alpha = 2 as well
        lam = 0.05
        for alpha in (2.0, 1.5):
            for x in (1.0, 2.0):
                report = oracle_probability_check(
                    model, KERN, alpha=alpha, lam=lam, n=n, x=x, trials=300,
                    covering=covering_estimate, calibration_split=1.0 / 3.0,
                    master_seed=404, mc_points=200_000)
                assert report.n_fresh == 200
                assert report.passed, report.summary()


def test_07_rate_exponent_recovery_and_ordering(model, covering_estimate):
    with check("rate recovery", 600.0):
        p_hat = covering_estimate.exponent
        assert abs(p_hat - 1.0) <= 0.3  # matches dim / order for this kernel
        n_grid = (100, 200, 400, 800, 1600, 3200)
        kappa = 2.0 / (2.0 + p_hat)
        for alpha in (1.5, 2.0):
            report = rate_experiment(model, KERN, alpha, kappa, n_grid,
                                     trials_per_n=20, master_seed=505,
                                     covering_exponent=p_hat,
                                     solver_tolerance=1e-6)
            lo, hi = report.slope_bracket
            assert lo <= report.slope <= hi, report.summary()
            assert report.verdict == "pass"
            print(f"  alpha={alpha}: slope {report.slope:.4f} in "
                  f"[{lo:.4f}, {hi:.4f}]")
        # over-aggressive schedule: smaller alpha decays at least as fast
        kappa_hot = 1.3 * kappa
        slopes = {}
        for alpha in (1.2, 1.9):
            report = rate_experiment(model, KERN, alpha, kappa_hot, n_grid,
                                     trials_per_n=20, master_seed=606,
                                     covering_exponent=p_hat,
                                     solver_tolerance=1e-6)
            slopes[alpha] = (report.slope, report.slope_se)
        combined_se = math.hypot(slopes[1.2][1], slopes[1.9][1])
        print(f"  ordering: slope(1.2)={slopes[1.2][0]:.4f} vs "
              f"slope(1.9)={slopes[1.9][0]:.4f} (+2se={2 * combined_se:.4f})")
        assert slopes[1.2][0] <= slopes[1.9][0] + 2.0 * combined_se


def test_08_covering_exponent_recovery():
    with check("covering exponent recovery", 30.0):
        for p0 in (0.5, 1.0):
            n = 2000
            axes = np.arange(1.0, n + 1.0) ** (-1.0 / p0)
            grid = np.geomspace(1000.0 ** (-1.0 / p0), 20.0 ** (-1.0 / p0), 16)
            est = fit_covering_exponent_from_axes(axes, grid)
            assert not est.out_of_model
            assert abs(est.exponent - p0) <= 0.15, (p0, est.exponent)


def test_09_calculator_hand_values_and_monotonicity():
    with check("bound calculators", 5.0):
        # master threshold, hand-evaluated term by term
        inp = make_inputs(covering_exponent=1.0, growth_exponent=1.0,
                          variance_power=2.0, variance_exponent=1.0,
                          lam=1.0, n=16)
        terms = oracle_epsilon_terms(inp)
        assert terms["covering_main"] == pytest.approx(2.0 ** -8, rel=1e-12)
        assert terms["confidence_growth"] == pytest.approx(2.0 ** -8,
                                                           rel=1e-12)
        assert terms["confidence_main"] == 0.0
        assert oracle_epsilon_threshold(inp) == pytest.approx(1.0, rel=1e-12)

        # localization bounds
        assert cost_gap_sup_bound(1.0, 1.0, 1.0, alpha=1.0) == pytest.approx(
            6.0, rel=1e-12)
        assert cost_gap_norm_bound(0.5, 0.1, 0.4) == pytest.approx(
            1.0, rel=1e-12)
        assert cost_gap_variance_bound(1.0, 0.0, 1.0, 1.0, 0.0, 1.0) == \
            pytest.approx(16.0, rel=1e-12)
        assert deviation_modulus_bound(32.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0,
                                       1.5, 32.0) == pytest.approx(
            2.0 ** 0.75, rel=1e-12)

        # power-loss threshold: exponent 4/((2+p)(2-alpha)) = 8/3 at
        # alpha=1.5, p=1, and (1/8)^(8/3) = 2^-8
        val = power_loss_epsilon_threshold(1.5, 1.0, 1.0, 16.0, 128.0, 1.0,
                                           1.0, 0.0)
        assert val - 1.0 == pytest.approx(2.0 ** -8, rel=1e-12)
        assert power_loss_epsilon_threshold(
            1.5, 1.0, 1.0, 20.0, 20.0, 1.0, 1.0, 0.3) == pytest.approx(
            2.3, rel=1e-12)

        # hinge threshold
        assert hinge_noise_exponent(0.0, 1.0) == pytest.approx(1.0, rel=1e-12)
        assert hinge_noise_exponent(math.inf, 1.0) == pytest.approx(
            4.0 / 3.0, rel=1e-12)
        assert hinge_epsilon_threshold(1.0, 1.0, 2.0, 50.0, 50.0, 3.0, 0.5,
                                       0.1) == pytest.approx(
            0.6 + 2.0 * 9.0 / 0.5, rel=1e-12)

        # rate exponents against exact rational arithmetic
        expect = Fraction(2, 3) - (Fraction(8, 10) - Fraction(2, 3)) * 4
        assert l2_rate_exponent(0.8, 1.0, 1.5) == pytest.approx(
            float(expect), rel=1e-9)
        expect = Fraction(2, 3) - (Fraction(7, 10) - Fraction(2, 3)) * 4
        assert power_risk_rate_exponent(0.7, 1.0, 1.5) == pytest.approx(
            float(expect), rel=1e-9)
        assert sobolev_covering_exponent(1.0, 1) == pytest.approx(1.0)
        assert sobolev_optimal_rate(1.0, 1) == pytest.approx(2.0 / 3.0,
                                                             rel=1e-12)
        assert sobolev_covering_exponent(2.0, 1) == pytest.approx(0.5)
        assert sobolev_optimal_rate(2.0, 1) == pytest.approx(0.8, rel=1e-12)

        # loss-side constants
        assert modulus_of_convexity_bound(2.0, 1.0, 1.0) == pytest.approx(
            0.25, rel=1e-12)
        assert modulus_of_convexity_bound(1.5, 2.0, 0.5) == pytest.approx(
            1.5 * 0.5 / 8 * 2.0 ** -0.5 * 0.25, rel=1e-12)
        assert calibration_inequality_factor(1.5, 1.0).factor == \
            pytest.approx(16.0 / 3.0, rel=1e-12)
        assert power_loss_variance_constant(2.0, 0.0) == pytest.approx(
            64.0, rel=1e-12)

        # monotonicity grids
        for field, grid in (("n", (10, 40, 160, 640, 2560)),):
            vals = [oracle_epsilon_threshold(make_inputs(lam=0.2, n=v))
                    for v in grid]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        for field in ("threshold_constant", "confidence", "covering_scale"):
            vals = [oracle_epsilon_threshold(
                make_inputs(lam=0.2, n=500, **{field: v}))
                for v in (1.0, 3.0, 9.0, 27.0, 81.0)]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        for p in (0.4, 1.0, 1.6):
            qs = (0.0, 0.3, 1.0, 3.0, 10.0, 100.0, math.inf)
            vals = [hinge_noise_exponent(q, p) for q in qs]
            assert all(b > a for a, b in zip(vals[:-1], vals[1:]))
        for kappa in (0.75, 0.9, 1.1):
            vals = [l2_rate_exponent(kappa, 1.0, a)
                    for a in np.linspace(1.01, 1.99, 40)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
