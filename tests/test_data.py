"""Tests for synthetic data models and excess-risk evaluation."""

import numpy as np
import pytest

from kernelrisk.data import (
    ContaminatedNoise,
    DataModel,
    TruncatedGaussianNoise,
    UniformNoise,
    excess_l2_risk,
    excess_power_risk,
    generate,
    trial_seed,
    _grid_order,
    _quadrature_nodes,
)
from kernelrisk.kernels import Box, Kernel, KernelExpansion, combine_expansions

BOX = Box((0.0,), (1.0,))
KERN = Kernel("matern", BOX, sobolev_order=1.0, length_scale=0.25)
GAUSS = Kernel("gaussian", BOX, width=0.3)


def make_fstar(kernel=KERN, norm=0.5):
    centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    coefs = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
    f0 = KernelExpansion(kernel, centers, coefs)
    return KernelExpansion(kernel, centers, coefs * (norm / f0.rkhs_norm()))


def make_model(noise=None, kernel=KERN):
    return DataModel(make_fstar(kernel), noise or UniformNoise(0.5))


class TestNoise:
    @pytest.mark.parametrize("build", [
        lambda: UniformNoise(np.nan),
        lambda: UniformNoise(-0.1),
        lambda: TruncatedGaussianNoise(np.nan, 0.5),
        lambda: TruncatedGaussianNoise(0.4, np.nan),
        lambda: TruncatedGaussianNoise(0.0, 0.5),
        lambda: ContaminatedNoise(UniformNoise(0.2), 0.1, np.nan),
        lambda: ContaminatedNoise(UniformNoise(0.2), 0.1, -0.4),
    ], ids=["uniform-nan", "uniform-negative", "gauss-sigma-nan",
            "gauss-width-nan", "gauss-sigma-zero", "outlier-nan",
            "outlier-negative"])
    def test_bad_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_uniform_bound_and_symmetry(self):
        noise = UniformNoise(0.4)
        assert noise.bound == 0.4
        assert noise.symmetric
        rng = np.random.default_rng(0)
        vals = noise.sample(rng, 20_000)
        assert np.max(np.abs(vals)) <= 0.4
        assert abs(vals.mean()) < 0.01

    def test_truncated_gaussian_respects_bound(self):
        noise = TruncatedGaussianNoise(sigma=0.5, half_width=0.3)
        vals = noise.sample(np.random.default_rng(1), 50_000)
        assert np.max(np.abs(vals)) <= 0.3
        assert abs(vals.mean()) < 0.01

    def test_contaminated_symmetric_outliers(self):
        noise = ContaminatedNoise(UniformNoise(0.2), 0.3, 0.5)
        assert noise.bound == 0.5
        assert noise.symmetric
        vals = noise.sample(np.random.default_rng(2), 100_000)
        frac = np.mean(np.abs(vals) == 0.5)
        assert frac == pytest.approx(0.3, abs=0.01)
        assert abs(vals.mean()) < 0.01

    def test_contaminated_zero_fraction_matches_base(self):
        base = UniformNoise(0.25)
        noise = ContaminatedNoise(base, 0.0, 0.6)
        a = noise.sample(np.random.default_rng(3), 1000)
        b = base.sample(np.random.default_rng(3), 1000)
        np.testing.assert_array_equal(a, b)

    def test_asymmetric_flagged(self):
        noise = ContaminatedNoise(UniformNoise(0.2), 0.2, 0.5, asymmetric=True)
        assert not noise.symmetric
        vals = noise.sample(np.random.default_rng(4), 50_000)
        assert vals.mean() > 0.05


class TestDataModel:
    def test_range_guard(self):
        with pytest.raises(ValueError):
            DataModel(make_fstar(norm=0.7), UniformNoise(0.5))
        DataModel(make_fstar(norm=0.5), UniformNoise(0.5))  # exactly 1: fine

    def test_range_guard_rejects_nan(self):
        with pytest.raises(ValueError, match="range guard"):
            DataModel(make_fstar(norm=np.nan), UniformNoise(0.5))

    def test_symmetry_flag(self):
        assert make_model().symmetric
        noisy = ContaminatedNoise(UniformNoise(0.2), 0.1, 0.4, asymmetric=True)
        assert not make_model(noise=noisy).symmetric


class TestGenerate:
    def test_zero_noise_reproduces_truth(self):
        model = make_model(noise=UniformNoise(0.0))
        train = generate(model, 50, 7)
        np.testing.assert_allclose(train.ys, model.f_star(train.xs),
                                   atol=1e-12)

    def test_deterministic_given_seed(self):
        model = make_model()
        a = generate(model, 64, trial_seed(5, 3))
        b = generate(model, 64, trial_seed(5, 3))
        np.testing.assert_array_equal(a.xs, b.xs)
        np.testing.assert_array_equal(a.ys, b.ys)
        c = generate(model, 64, trial_seed(5, 4))
        assert not np.array_equal(a.ys, c.ys)

    def test_responses_in_range_and_inputs_in_box(self):
        model = make_model(noise=TruncatedGaussianNoise(0.4, 0.5))
        train = generate(model, 5000, 11)
        assert np.max(np.abs(train.ys)) <= 1.0
        assert np.all((train.xs >= 0.0) & (train.xs <= 1.0))


class TestExcessRisks:
    def test_truth_has_zero_excess(self):
        model = make_model()
        assert excess_l2_risk(model, model.f_star) == pytest.approx(0.0,
                                                                    abs=1e-15)

    def test_constant_shift_excess(self):
        model = make_model(noise=UniformNoise(0.3))
        for c in (0.05, -0.12):
            shifted = lambda pts, c=c: model.f_star(pts) + c
            assert excess_l2_risk(model, shifted) == pytest.approx(
                c * c, rel=1e-9)

    def test_quadrature_matches_monte_carlo_oracle(self):
        for kernel in (KERN, GAUSS):
            model = make_model(kernel=kernel)
            zero = lambda pts: np.zeros(len(pts))
            quad = excess_l2_risk(model, zero)
            rng = np.random.default_rng(12)
            xs = rng.uniform(0, 1, size=(1_000_000, 1))
            mc = float(np.mean(model.f_star(xs) ** 2))
            se = float(np.std(model.f_star(xs) ** 2) / 1000.0)
            assert quad == pytest.approx(mc, abs=3 * se)

    def test_quadrature_tolerance_on_expansions(self):
        # against a dense-grid trapezoid oracle at 2e6 points
        model = make_model()
        rng = np.random.default_rng(13)
        f = KernelExpansion(KERN, rng.uniform(0, 1, (40, 1)),
                            0.2 * rng.standard_normal(40))
        quad = excess_l2_risk(model, f)
        grid = np.linspace(0, 1, 2_000_001).reshape(-1, 1)
        vals = (f(grid) - model.f_star(grid)) ** 2
        oracle = float(np.trapezoid(vals.ravel(), dx=1 / 2_000_000))
        assert quad == pytest.approx(oracle, abs=1e-6)

    def test_excess_power_zero_at_truth(self):
        model = make_model()
        est, se = excess_power_risk(model, model.f_star, 1.5, 20_000, 3)
        assert abs(est) <= max(3 * se, 1e-12)

    def test_excess_power_alpha2_matches_quadrature(self):
        model = make_model()
        f = lambda pts: model.f_star(pts) + 0.1
        quad = excess_l2_risk(model, f)
        est, se = excess_power_risk(model, f, 2.0, 300_000, 4)
        assert est == pytest.approx(quad, abs=3 * se)

    def test_excess_power_nonnegative_within_noise(self):
        model = make_model()
        rng = np.random.default_rng(5)
        for alpha in (1.25, 1.75):
            f = KernelExpansion(KERN, rng.uniform(0, 1, (4, 1)),
                                0.3 * rng.standard_normal(4))
            est, se = excess_power_risk(model, f, alpha, 50_000, 6)
            assert est >= -3 * se

    def test_asymmetric_model_rejected(self):
        noisy = ContaminatedNoise(UniformNoise(0.2), 0.1, 0.4, asymmetric=True)
        model = make_model(noise=noisy)
        with pytest.raises(ValueError):
            excess_power_risk(model, model.f_star, 1.5, 1000, 0)

    def test_excess_positive_off_the_truth(self):
        # zero exactly at f*, strictly positive for any visible deviation
        model = make_model()
        rng = np.random.default_rng(14)
        for _ in range(5):
            bump = KernelExpansion(KERN, rng.uniform(0, 1, (2, 1)),
                                   0.05 * rng.standard_normal(2))
            f = combine_expansions(model.f_star, bump)
            if bump.rkhs_norm() < 1e-6:
                continue
            assert excess_l2_risk(model, f) > 0.0

    def test_difference_of_expansions_path(self):
        # expansion f measured against expansion truth, same kernel
        model = make_model()
        bump = KernelExpansion(KERN, [[0.5]], [0.1])
        f = combine_expansions(model.f_star, bump)
        direct = excess_l2_risk(model, f)
        assert direct == pytest.approx(excess_l2_risk(model, lambda p: f(p)),
                                       rel=1e-10)

    @pytest.mark.parametrize("alpha", [1.2, 1.5, 2.0])
    def test_expansion_matches_two_evaluations(self, alpha):
        # an expansion over the model's kernel is measured through the single
        # expansion f - f*; the result must match evaluating f and f* apart
        model = make_model()
        rng = np.random.default_rng(15)
        f = KernelExpansion(KERN, rng.uniform(0, 1, (200, 1)),
                            0.02 * rng.standard_normal(200))
        nodes, weights = _quadrature_nodes(model, f, 16384)
        diff = f(nodes) - model.f_star(nodes)
        l2 = float(np.sum(weights * diff * diff))
        assert excess_l2_risk(model, f) == pytest.approx(l2, rel=1e-12)

        m, seed = 50_000, 16
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0, 1, size=(m, 1))
        truth = model.f_star(xs)
        ys = truth + model.noise.sample(rng, m)
        g = np.abs(ys - f(xs)) ** alpha - np.abs(ys - truth) ** alpha
        est, se = excess_power_risk(model, f, alpha, m, seed)
        assert est == pytest.approx(g.mean(), rel=1e-12)
        assert se == pytest.approx(g.std() / np.sqrt(m), rel=1e-12)


class TestTensorQuadrature:
    """In d >= 2 the rule is a tensor grid; a Gaussian expansion is summed
    there from per-axis factors, every other kernel point by point."""

    @staticmethod
    def expansion(kernel, rng, n=300):
        box = kernel.domain
        return KernelExpansion(kernel, rng.uniform(box.lower, box.upper,
                                                   (n, box.dim)),
                               0.1 * rng.standard_normal(n))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gaussian_grid_matches_dense_sum(self, dim):
        # unequal axes, so a mixed-up axis order cannot pass
        box = Box((-1.0, 0.0, 0.5)[:dim], (1.0, 2.0, 0.8)[:dim])
        kernel = Kernel("gaussian", box, width=0.4)
        rng = np.random.default_rng(17 + dim)
        f = self.expansion(kernel, rng)
        model = DataModel(self.expansion(kernel, rng, n=5), UniformNoise(0.3))
        nodes, weights = _quadrature_nodes(model, f, 16384)
        shape = (_grid_order(dim, 16384),) * dim
        dense = kernel.pairwise(nodes, f.centers) @ f.coefficients
        grid = f.on_grid(nodes, shape)
        assert np.max(np.abs(grid - dense)) <= 1e-12 * np.max(np.abs(dense))
        diff = f(nodes) - model.f_star(nodes)
        assert excess_l2_risk(model, f) == pytest.approx(
            float(np.sum(weights * diff * diff)), rel=1e-12)

    def test_matern_grid_stays_dense(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        kernel = Kernel("matern", box, sobolev_order=1.5, length_scale=0.25)
        rng = np.random.default_rng(23)
        f = self.expansion(kernel, rng)
        model = DataModel(self.expansion(kernel, rng, n=5), UniformNoise(0.3))
        nodes, weights = _quadrature_nodes(model, f, 16384)
        dense = kernel.pairwise(nodes, f.centers) @ f.coefficients
        assert np.array_equal(f.on_grid(nodes, (96, 96)), dense)
        deviation = combine_expansions(f, model.f_star, 1.0, -1.0)(nodes)
        assert excess_l2_risk(model, f) == float(
            np.sum(weights * deviation * deviation))
