"""Tests for the regularized-risk solver."""

import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from kernelrisk.data import DataModel, UniformNoise, generate
from kernelrisk.kernels import Box, Kernel, KernelExpansion, kernel_matrix
from kernelrisk.losses import LossSpec, power_loss
from kernelrisk.solver import (
    FitResult,
    SolverConfig,
    TrainingSet,
    _spd_solve,
    fit,
    fit_result_record,
    objective,
)

BOX = Box((-1.0,), (1.0,))
GAUSS = Kernel("gaussian", BOX, width=0.6)
EXPO = Kernel("matern", BOX, sobolev_order=1.0, length_scale=0.4)


def random_train(rng, n, noise=0.3):
    xs = rng.uniform(-1, 1, size=(n, 1))
    ys = np.clip(0.5 * np.sin(3 * xs[:, 0]) + noise * rng.standard_normal(n), -1, 1)
    return TrainingSet(xs, ys)


class TestTrainingSet:
    def test_rejects_out_of_range_targets(self):
        with pytest.raises(ValueError):
            TrainingSet([[0.0]], [1.5])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrainingSet(np.zeros((0, 1)), [])

    @pytest.mark.parametrize("xs, ys", [
        ([[0.1], [0.2], [0.5]], [np.nan, 0.0, 0.3]),
        ([[np.nan], [0.2], [0.5]], [0.1, 0.0, 0.3]),
    ])
    def test_rejects_non_finite(self, xs, ys):
        with pytest.raises(ValueError):
            TrainingSet(xs, ys)

    def test_one_dim_coercion(self):
        t = TrainingSet([0.1, 0.2], [0.0, 0.5])
        assert t.xs.shape == (2, 1)
        assert t.n == 2


class TestClosedForm:
    def test_single_point_analytic(self):
        # min over c of lam c^2 + (c - 1)^2 at lam = 0.5: c = 2/3, value 1/3
        train = TrainingSet([[0.0]], [1.0])
        res = fit(GAUSS, power_loss(2.0), train, SolverConfig(lam=0.5))
        assert res.f.coefficients[0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.objective == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert res.converged

    def test_zero_targets_give_zero(self):
        rng = np.random.default_rng(0)
        train = TrainingSet(rng.uniform(-1, 1, (12, 1)), np.zeros(12))
        res = fit(GAUSS, power_loss(2.0), train, SolverConfig(lam=0.3))
        np.testing.assert_allclose(res.f.coefficients, 0.0, atol=1e-12)
        assert res.objective == pytest.approx(0.0, abs=1e-14)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(1)
        train = random_train(rng, 40)
        lam = 0.07
        res = fit(GAUSS, power_loss(2.0), train, SolverConfig(lam=lam))
        K = kernel_matrix(GAUSS, train.xs)
        expected = np.linalg.solve(K + train.n * lam * np.eye(train.n), train.ys)
        np.testing.assert_allclose(res.f.coefficients, expected, atol=1e-9)

    def test_spd_solve_factors_in_place(self):
        # the ridge system is factored where it lies, with no n x n copy:
        # its C-order upper triangle becomes the transposed Cholesky factor
        rng = np.random.default_rng(11)
        train = random_train(rng, 60)
        M = kernel_matrix(GAUSS, train.xs)
        M.flat[:: train.n + 1] += 0.1
        factor, _ = cho_factor(M.copy(), lower=True)
        expected = cho_solve((factor, True), train.ys)
        system = M.copy()
        got = _spd_solve(system, train.ys)
        assert got.tobytes() == expected.tobytes()
        assert not np.array_equal(system, M)
        assert np.tril(system.T).tobytes() == np.tril(factor).tobytes()

    def test_hinge_not_trainable(self):
        # the hinge loss has no LossSpec, so a hinge fit stops where the
        # loss config is read, before the solver is reached
        train = TrainingSet([[0.0]], [1.0])
        with pytest.raises(ValueError):
            fit(GAUSS, LossSpec.from_config({"kind": "hinge", "alpha": 1.0}),
                train, SolverConfig(lam=0.5))

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            SolverConfig(lam=0.0)
        with pytest.raises(ValueError):
            SolverConfig(lam=1.5)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
    def test_objective_tolerance_out_of_range(self, tol):
        with pytest.raises(ValueError):
            SolverConfig(lam=0.1, objective_tolerance=tol)

    @pytest.mark.parametrize("weights", [
        [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0]])
    def test_rejects_bad_weights(self, weights):
        train = TrainingSet([[0.1], [0.2], [0.5]], [0.4, 0.0, 0.3])
        f = KernelExpansion(GAUSS, train.xs, np.ones(3))
        for alpha in (1.5, 2.0):
            with pytest.raises(ValueError):
                fit(GAUSS, power_loss(alpha), train, SolverConfig(lam=0.1),
                    weights=weights)
            with pytest.raises(ValueError):
                objective(GAUSS, power_loss(alpha), train, 0.1, f,
                          weights=weights)


class TestFirstOrder:
    def test_alpha_one_single_point_analytic(self):
        # min 0.1 c^2 + |c - 1|: subgradient condition picks c = 1
        train = TrainingSet([[0.0]], [1.0])
        res = fit(GAUSS, power_loss(1.0), train,
                  SolverConfig(lam=0.1))
        assert res.f.coefficients[0] == pytest.approx(1.0, abs=1e-8)
        assert res.objective == pytest.approx(0.1, abs=1e-8)
        assert res.converged

    def test_alpha_one_subgradient_interior_case(self):
        # lam = 0.7: the subgradient condition 2 lam c in d|c-1| fails at the
        # kink (1.4 > 1), so the optimum is interior: 1.4 c = 1.
        # Coefficient accuracy scales like sqrt(tol / lam), so ask for a
        # tight certified gap to pin c itself.
        train = TrainingSet([[0.0]], [1.0])
        res = fit(GAUSS, power_loss(1.0), train,
                  SolverConfig(lam=0.7, objective_tolerance=1e-13))
        c = 1.0 / 1.4
        assert res.f.coefficients[0] == pytest.approx(c, abs=1e-6)
        assert res.objective == pytest.approx(0.7 * c * c + (1 - c), abs=1e-9)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 1.9])
    def test_interior_stationarity(self, alpha):
        rng = np.random.default_rng(2)
        train = random_train(rng, 25)
        res = fit(EXPO, power_loss(alpha), train,
                  SolverConfig(lam=0.05))
        assert res.converged
        assert res.certified_gap <= 1e-8 * max(1.0, res.objective)

    @pytest.mark.parametrize("kernel", [EXPO, GAUSS], ids=["expo", "gauss"])
    @pytest.mark.parametrize("alpha", [1.0, 1.1, 1.2, 1.5])
    def test_certificate_is_honest(self, alpha, kernel):
        # converged means the duality gap is within the tolerance relative to
        # J at the ridge solution, and the gap bounds the unsmoothed
        # objective's distance to its minimum (weak duality)
        rng = np.random.default_rng(2)
        train = random_train(rng, 25)
        lam, spec = 0.05, power_loss(alpha)
        cfg = SolverConfig(lam=lam)
        res = fit(kernel, spec, train, cfg)
        K = kernel_matrix(kernel, train.xs)
        ridge = np.linalg.solve(K + train.n * lam * np.eye(train.n), train.ys)

        def J(c):
            Kc = K @ c
            return lam * c @ Kc + np.mean(np.abs(train.ys - Kc) ** alpha)

        assert res.certified_gap >= 0.0
        assert res.converged == (
            res.certified_gap <= cfg.objective_tolerance * abs(J(ridge)))
        ref = fit(kernel, spec, train,
                  SolverConfig(lam=lam, objective_tolerance=1e-14))
        assert J(res.f.coefficients) - J(ref.f.coefficients) <= \
            res.certified_gap + 1e-15

    @pytest.mark.parametrize("kernel", [EXPO, GAUSS], ids=["expo", "gauss"])
    @pytest.mark.parametrize("alpha", [1.001, 1.01, 1.05, 1.1, 1.2, 1.5, 1.9])
    def test_adaptive_passes_certify(self, alpha, kernel):
        # passes that move toward Newton curvature must still reach the
        # certified gap, also where plain Newton passes stall (alpha near 1)
        rng = np.random.default_rng(12)
        for n, lam in ((10, 0.2), (40, 0.05), (80, 80 ** -0.64)):
            train = random_train(rng, n)
            for tol in (1e-6, 1e-7, 1e-9):
                res = fit(kernel, power_loss(alpha), train,
                          SolverConfig(lam=lam, objective_tolerance=tol))
                assert res.converged, (n, tol, res.certified_gap)

    @pytest.mark.parametrize("kernel, solves", [(EXPO, 28), (GAUSS, 18)],
                             ids=["expo", "gauss"])
    def test_adaptive_pass_count(self, kernel, solves):
        # the data of test_interior_stationarity at alpha = 1.1: majorizer
        # passes alone take 50 (expo) and 42 (gauss) ridge solves
        rng = np.random.default_rng(2)
        train = random_train(rng, 25)
        res = fit(kernel, power_loss(1.1), train, SolverConfig(lam=0.05))
        assert res.converged
        assert res.iterations <= solves

    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_gap_near_alpha_one_warns_nothing(self, seed):
        # the conjugate term (|b/w| / alpha)^(alpha / (alpha - 1)) overflows
        # at alpha = 1.001 on these data; the gap is +inf, silently
        train = random_train(np.random.default_rng(seed), 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fit(GAUSS, power_loss(1.001), train, SolverConfig(lam=0.05))
        assert res.converged

    @pytest.mark.parametrize("width, lam, seed", [
        (0.3, 1e-8, 0), (0.3, 1e-8, 1), (1e6, 1e-4, 0), (0.3, 1e-6, 0)])
    def test_alpha_one_moves_floor_when_no_step_descends(self, width, lam,
                                                         seed):
        # near the Huber minimizer of a floor no step lowers the true
        # objective; the fit must go on at a lower floor, not end there
        kern = Kernel("gaussian", Box((0.0,), (1.0,)), width=width)
        centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
        coefs = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
        raw = KernelExpansion(kern, centers, coefs)
        truth = KernelExpansion(kern, centers, coefs * (0.5 / raw.rkhs_norm()))
        train = generate(DataModel(truth, UniformNoise(0.5)), 200, seed)
        res = fit(kern, power_loss(1.0), train,
                  SolverConfig(lam=lam, objective_tolerance=1e-7))
        assert res.converged, res.certified_gap

    def test_agreement_with_closed_form(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            train = random_train(rng, rng.integers(5, 60))
            lam = 10.0 ** rng.uniform(-2, 0)
            a = fit(GAUSS, power_loss(2.0), train, SolverConfig(lam=lam))
            b = fit(GAUSS, power_loss(2.0), train,
                    SolverConfig(lam=lam, objective_tolerance=1e-10))
            assert b.objective == pytest.approx(a.objective, rel=1e-7)

    def test_objective_function_matches_fit_report(self):
        rng = np.random.default_rng(4)
        train = random_train(rng, 30)
        for alpha in (2.0, 1.5):
            spec = power_loss(alpha)
            res = fit(EXPO, spec, train, SolverConfig(lam=0.2))
            assert objective(EXPO, spec, train, 0.2, res.f) == pytest.approx(
                res.objective, rel=1e-9, abs=1e-12)

    def test_zero_function_objective_bounded_by_one(self):
        rng = np.random.default_rng(5)
        train = random_train(rng, 20)
        zero = KernelExpansion(EXPO, np.zeros((0, EXPO.dim)), np.zeros(0))
        for alpha in (1.0, 1.5, 2.0):
            val = objective(EXPO, power_loss(alpha), train, 0.5, zero)
            assert val <= 1.0 + 1e-12


class TestSolverInvariants:
    def test_optimality_probe(self):
        rng = np.random.default_rng(6)
        train = random_train(rng, 30)
        for alpha in (2.0, 1.5, 1.0):
            spec = power_loss(alpha)
            res = fit(EXPO, spec, train, SolverConfig(lam=0.1))
            base = objective(EXPO, spec, train, 0.1, res.f)
            for _ in range(200):
                delta = rng.standard_normal(train.n)
                delta *= 0.1 * rng.uniform() / np.linalg.norm(delta)
                perturbed = KernelExpansion(
                    EXPO, train.xs, res.f.coefficients + delta)
                assert objective(EXPO, spec, train, 0.1, perturbed) >= base - 1e-9

    def test_norm_budget(self):
        rng = np.random.default_rng(7)
        for alpha in (1.0, 1.5, 2.0):
            for lam in (0.01, 0.1, 1.0):
                train = random_train(rng, 40)
                res = fit(EXPO, power_loss(alpha), train,
                          SolverConfig(lam=lam))
                assert res.f.rkhs_norm() <= lam ** -0.5 + 1e-6

    def test_norm_monotone_in_lambda(self):
        rng = np.random.default_rng(8)
        train = random_train(rng, 50)
        for alpha in (1.5, 2.0):
            norms = [
                fit(EXPO, power_loss(alpha), train,
                    SolverConfig(lam=lam)).f.rkhs_norm()
                for lam in (0.01, 0.03, 0.1, 0.3, 1.0)
            ]
            diffs = np.diff(norms)
            assert np.all(diffs <= 1e-8)

    def test_weighted_fit_matches_replication(self):
        # fitting with weights (2/3, 1/3) == fitting the duplicated sample
        xs = np.array([[0.2], [-0.5]])
        ys = np.array([0.8, -0.3])
        lam = 0.15
        res_w = fit(GAUSS, power_loss(2.0), TrainingSet(xs, ys),
                    SolverConfig(lam=lam), weights=np.array([2.0, 1.0]))
        xs3 = np.array([[0.2], [0.2], [-0.5]])
        ys3 = np.array([0.8, 0.8, -0.3])
        res_3 = fit(GAUSS, power_loss(2.0), TrainingSet(xs3, ys3),
                    SolverConfig(lam=lam))
        pred_w = res_w.f([[0.0], [0.4]])
        pred_3 = res_3.f([[0.0], [0.4]])
        np.testing.assert_allclose(pred_w, pred_3, atol=1e-9)
        assert res_w.objective == pytest.approx(res_3.objective, rel=1e-9)


class TestSerialization:
    def test_fit_result_record_roundtrip(self):
        import json

        rng = np.random.default_rng(9)
        train = random_train(rng, 10)
        spec = power_loss(1.5)
        res = fit(EXPO, spec, train,
                  SolverConfig(lam=0.3))
        rec = json.loads(json.dumps(fit_result_record(res, spec, 0.3)))
        assert rec["lam"] == 0.3
        assert rec["loss"]["alpha"] == 1.5
        from kernelrisk.kernels import kernel_from_config

        k2 = kernel_from_config(rec["kernel"])
        f2 = KernelExpansion(k2, np.array(rec["centers"]),
                             np.array(rec["coefficients"]))
        x = rng.uniform(-1, 1, 5)
        np.testing.assert_allclose(f2(x), res.f(x), atol=1e-12)
