"""Tests for kernels, Gram matrices, and expansions."""

import math

import numpy as np
import pytest

from kernelrisk.kernels import (
    Box,
    DomainError,
    IndefiniteGramError,
    Kernel,
    KernelExpansion,
    combine_expansions,
    kernel_from_config,
    kernel_matrix,
    _exponential_scan_eval,
    _locate,
)

UNIT = Box((0.0,), (1.0,))
SYM = Box((-1.0,), (1.0,))
BOX2 = Box((0.0, 0.0), (1.0, 1.0))


def gaussian(width=1.0, box=SYM):
    return Kernel("gaussian", box, width=width)


def exponential(ell=1.0, box=SYM):
    return Kernel("matern", box, sobolev_order=1.0, length_scale=ell)


class TestBox:
    @pytest.mark.parametrize("lower, upper", [
        ((0.0,), (0.0,)), ((1.0,), (0.0,)), ((math.nan,), (1.0,)),
        ((0.0,), (math.inf,)), ((-math.inf,), (0.0,)),
        ((0.0, 0.0), (1.0, 0.0)), ((0.0, 0.0), (1.0, math.nan)),
        ((-1e308,), (1e308,)),
    ], ids=["zero-width", "reversed", "nan", "inf", "minus-inf",
            "zero-width-axis", "nan-axis", "width-overflows"])
    def test_needs_finite_bounds_and_positive_width(self, lower, upper):
        with pytest.raises(ValueError, match="finite bounds"):
            Box(lower, upper)


class TestKernelConstruction:
    @pytest.mark.parametrize("params", [
        {"family": "gaussian", "width": math.nan},
        {"family": "matern", "sobolev_order": 1.0, "length_scale": math.nan},
        {"family": "matern", "sobolev_order": math.nan, "length_scale": 1.0},
        {"family": "matern", "sobolev_order": math.inf, "length_scale": 1.0},
    ], ids=["width-nan", "length-scale-nan", "order-nan", "order-inf"])
    def test_non_finite_parameters_rejected(self, params):
        with pytest.raises(ValueError, match="kernel needs"):
            Kernel(domain=UNIT, **params)

    def test_gaussian_requires_positive_width(self):
        with pytest.raises(ValueError):
            Kernel("gaussian", UNIT, width=0.0)

    def test_matern_order_must_give_half_integer_smoothness(self):
        # m=1.5 in d=1 gives nu=1, which has no closed half-integer form
        with pytest.raises(ValueError):
            Kernel("matern", UNIT, sobolev_order=1.5, length_scale=1.0)
        # m=1.5 in d=2 gives nu=0.5: valid
        Kernel("matern", BOX2, sobolev_order=1.5, length_scale=1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Kernel("cauchy", UNIT, width=1.0)

    def test_config_roundtrip(self):
        for k in (gaussian(0.7), exponential(0.3),
                  Kernel("linear", BOX2),
                  Kernel("matern", UNIT, sobolev_order=2.0, length_scale=0.5)):
            k2 = kernel_from_config(k.to_config())
            assert k2 == k


class TestKernelMatrix:
    def test_single_point_gaussian_is_one(self):
        K = kernel_matrix(gaussian(), [[0.3]])
        np.testing.assert_allclose(K, [[1.0]])

    def test_identical_points(self):
        K = kernel_matrix(gaussian(), [[0.0], [0.0]])
        np.testing.assert_allclose(K, np.ones((2, 2)))

    def test_exponential_offdiagonal(self):
        # hand-evaluated closed form: exp(-|0-1|/1)
        K = kernel_matrix(exponential(1.0), [[0.0], [1.0]])
        np.testing.assert_allclose(K[0, 1], math.exp(-1.0), rtol=1e-15)
        np.testing.assert_allclose(K[1, 0], K[0, 1])

    def test_matern_three_halves_closed_form(self):
        # nu = 3/2: k(r) = (1 + sqrt(3) r / l) exp(-sqrt(3) r / l)
        k = Kernel("matern", SYM, sobolev_order=2.0, length_scale=0.5)
        r = 0.4
        K = kernel_matrix(k, [[0.0], [r]])
        z = math.sqrt(3.0) * r / 0.5
        np.testing.assert_allclose(K[0, 1], (1 + z) * math.exp(-z), rtol=1e-14)

    def test_linear_normalized_on_box(self):
        k = Kernel("linear", BOX2)
        K = kernel_matrix(k, [[1.0, 1.0], [0.5, 0.0]])
        # sup ||x||^2 over the unit square is 2, attained at (1, 1)
        np.testing.assert_allclose(K[0, 0], 1.0)
        np.testing.assert_allclose(K[0, 1], 0.25)

    def test_point_outside_domain_raises(self):
        with pytest.raises(DomainError):
            kernel_matrix(gaussian(box=UNIT), [[1.5]])

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(20, 1))
        K = kernel_matrix(gaussian(0.5), pts)
        perm = rng.permutation(20)
        Kp = kernel_matrix(gaussian(0.5), pts[perm])
        np.testing.assert_allclose(Kp, K[np.ix_(perm, perm)], atol=1e-15)

    @pytest.mark.parametrize("maker", [
        lambda: gaussian(0.3),
        lambda: exponential(0.2),
        lambda: Kernel("matern", SYM, sobolev_order=3.0, length_scale=0.4),
        lambda: Kernel("linear", BOX2),
    ])
    def test_psd_within_tolerance(self, maker):
        k = maker()
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, size=(60, k.dim))
        if k.dim == 1:
            pts = 2 * pts - 1 if k.domain == SYM else pts
        K = kernel_matrix(k, pts)
        w = np.linalg.eigvalsh(K)
        assert w.min() >= -1e-8 * np.trace(K)

    @pytest.mark.parametrize("n", [1, 2, 7, 257])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", ["gaussian", "linear", "matern-1/2",
                                        "matern-3/2", "matern-5/2"])
    def test_gram_is_exactly_symmetric_for_every_layout(self, family, dim, n):
        # The solver factors K's transpose in place as if it were K, and
        # covering feeds K to eigvalsh, so symmetry must hold bit for bit.
        box = Box((0.0,) * dim, (1.0,) * dim)
        if family == "gaussian":
            k = Kernel("gaussian", box, width=0.3)
        elif family == "linear":
            k = Kernel("linear", box)
        else:
            nu = {"matern-1/2": 0.5, "matern-3/2": 1.5,
                  "matern-5/2": 2.5}[family]
            k = Kernel("matern", box, sobolev_order=nu + dim / 2,
                       length_scale=0.25)
        rng = np.random.default_rng(100 * n + dim)
        base = rng.uniform(0.0, 1.0, size=(2 * n, 2 * dim))
        pts = np.ascontiguousarray(base[:n, :dim])
        layouts = {
            "c-order": pts,
            "fortran-order": np.asfortranarray(pts),
            "strided-view": base[::2, ::2],
            "list": pts.tolist(),
            "integer": rng.integers(0, 2, size=(n, dim)),
        }
        if dim == 1:
            layouts["flat"] = pts.ravel()
            layouts["flat-strided-view"] = base[::2, 0]
        for name, x in layouts.items():
            K = kernel_matrix(k, x)
            assert K.shape == (n, n), name
            assert np.array_equal(K, K.T), name

    def test_diagonal_at_most_one(self):
        for k in (gaussian(0.4), exponential(0.7), Kernel("linear", BOX2)):
            axes = [np.linspace(lo, hi, 9)
                    for lo, hi in zip(k.domain.lower, k.domain.upper)]
            pts = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, k.dim)
            K = kernel_matrix(k, pts)
            assert np.max(np.diag(K)) <= 1.0 + 1e-12


class TestExpansion:
    def test_zero_coefficients_evaluate_to_zero(self):
        f = KernelExpansion(gaussian(), [[0.2]], [0.0])
        assert f(0.7) == 0.0
        assert f.rkhs_norm() == 0.0

    def test_reproducing_value_at_center(self):
        f = KernelExpansion(gaussian(), [[0.25]], [1.0])
        np.testing.assert_allclose(f(0.25), [1.0])

    def test_hand_summed_evaluation(self):
        # c = [1, 1], centers {0, 1}, gaussian width 1, at 0: 1 + e^{-1}
        f = KernelExpansion(gaussian(), [[0.0], [1.0]], [1.0, 1.0])
        np.testing.assert_allclose(f(0.0), [1.0 + math.exp(-1.0)], rtol=1e-15)

    def test_norm_single_center(self):
        f = KernelExpansion(gaussian(), [[0.0]], [2.0])
        np.testing.assert_allclose(f.rkhs_norm(), 2.0)

    def test_norm_cancellation(self):
        f = KernelExpansion(gaussian(), [[0.3], [0.3]], [1.0, -1.0])
        assert f.rkhs_norm() <= 1e-7

    def test_indefinite_quadratic_form_raises(self):
        f = KernelExpansion(gaussian(), [[0.3], [0.6]], [1.0, 3e3])

        class Bad:
            family = "gaussian"
            dim = 1

            def pairwise(self, a, b):
                return np.array([[1.0, 0.0], [0.0, -1.0]])

        object.__setattr__(f, "kernel", Bad())
        with pytest.raises(IndefiniteGramError):
            f.rkhs_norm()

    def test_center_outside_domain(self):
        with pytest.raises(DomainError):
            KernelExpansion(gaussian(box=UNIT), [[2.0]], [1.0])

    def test_grid_sup_never_exceeds_certified_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.integers(1, 8)
            f = KernelExpansion(
                exponential(0.4),
                rng.uniform(-1, 1, size=(m, 1)),
                rng.normal(size=m),
            )
            grid = np.linspace(-1.0, 1.0, 10_000)
            assert np.max(np.abs(f(grid))) <= f.sup_norm_bound() + 1e-9

    def test_triangle_inequality_for_sums(self):
        rng = np.random.default_rng(5)
        k = gaussian(0.6)
        for _ in range(20):
            f = KernelExpansion(k, rng.uniform(-1, 1, (3, 1)), rng.normal(size=3))
            g = KernelExpansion(k, rng.uniform(-1, 1, (4, 1)), rng.normal(size=4))
            s = combine_expansions(f, g)
            assert s.rkhs_norm() <= f.rkhs_norm() + g.rkhs_norm() + 1e-9

    def test_combine_requires_same_kernel(self):
        f = KernelExpansion(gaussian(0.5), [[0.0]], [1.0])
        g = KernelExpansion(gaussian(0.7), [[0.0]], [1.0])
        with pytest.raises(ValueError):
            combine_expansions(f, g)

    def test_zero_expansion(self):
        z = KernelExpansion(gaussian(), np.zeros((0, 1)), np.zeros(0))
        assert len(z) == 0
        assert z.rkhs_norm() == 0.0
        np.testing.assert_array_equal(z([[0.1], [0.2]]), [0.0, 0.0])
        f = KernelExpansion(gaussian(), [[0.1]], [2.0])
        s = combine_expansions(z, f, b=0.5)
        np.testing.assert_allclose(s(0.1), [1.0])

    def test_immutable_arrays(self):
        f = KernelExpansion(gaussian(), [[0.0]], [1.0])
        with pytest.raises(ValueError):
            f.coefficients[0] = 2.0


class TestScanEvaluation:
    def test_scan_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        k = exponential(0.23)
        m = 300
        f = KernelExpansion(k, rng.uniform(-1, 1, (m, 1)), rng.normal(size=m))
        x = rng.uniform(-1, 1, 500)
        direct = k.pairwise(x, f.centers) @ f.coefficients
        scan = _exponential_scan_eval(f, x)
        np.testing.assert_allclose(scan, direct, rtol=1e-11, atol=1e-12)

    def test_call_uses_scan_above_threshold(self, monkeypatch):
        import kernelrisk.kernels as km

        monkeypatch.setattr(km, "_SCAN_THRESHOLD", 10)
        rng = np.random.default_rng(2)
        k = exponential(0.4)
        f = KernelExpansion(k, rng.uniform(-1, 1, (40, 1)), rng.normal(size=40))
        x = rng.uniform(-1, 1, 37)
        direct = k.pairwise(x, f.centers) @ f.coefficients
        np.testing.assert_allclose(f(x), direct, rtol=1e-11, atol=1e-12)

    def test_no_overflow_at_short_length_scale(self):
        # absolute exponents exp(+-(x - mid) / l) overflowed here: 711 NaN
        k = exponential(2e-4, box=UNIT)
        rng = np.random.default_rng(0)
        f = KernelExpansion(k, rng.uniform(0, 1, (200, 1)), rng.normal(size=200))
        x = np.linspace(0, 1, 1000)
        scan = _exponential_scan_eval(f, x)
        assert not np.any(np.isnan(scan))
        dense = np.concatenate([k.pairwise(chunk, f.centers) @ f.coefficients
                                for chunk in np.array_split(x, 10)])
        tol = 1e-12 * np.sum(np.abs(f.coefficients))
        assert np.max(np.abs(scan - dense)) <= tol

    @pytest.mark.parametrize("case", ["tied_centers", "at_centers",
                                      "outside_span"])
    def test_scan_edge_points(self, case):
        rng = np.random.default_rng(4)
        k = exponential(0.05)
        centers = rng.uniform(-0.5, 0.5, 60)
        x = rng.uniform(-0.5, 0.5, 200)
        if case == "tied_centers":
            centers = np.repeat(centers[:20], 3)
            x = np.concatenate([x, centers])
        elif case == "at_centers":
            x = centers.copy()
        else:
            x = np.concatenate([np.linspace(-1, -0.5, 50),
                                np.linspace(0.5, 1, 50)])
        f = KernelExpansion(k, centers.reshape(-1, 1),
                            rng.normal(size=len(centers)))
        dense = k.pairwise(x, f.centers) @ f.coefficients
        tol = 1e-12 * np.sum(np.abs(f.coefficients))
        assert np.max(np.abs(_exponential_scan_eval(f, x) - dense)) <= tol

    @pytest.mark.parametrize("kind", ["uniform", "tied", "clustered",
                                      "single"])
    def test_locate_matches_searchsorted(self, kind):
        rng = np.random.default_rng(6)
        s = {
            "uniform": rng.uniform(0, 1, 200),
            "tied": np.repeat(rng.uniform(0, 1, 30), 7),
            # most centers crowd one bucket, so the search goes deep
            "clustered": np.concatenate([rng.uniform(0, 1, 40),
                                         0.5 + 1e-9 * rng.uniform(0, 1, 300)]),
            "single": np.array([0.3]),
        }[kind]
        s = np.sort(s)
        x = np.concatenate([rng.uniform(-0.5, 1.5, 5000), s, s + 1e-12,
                            s - 1e-12, [-np.inf, np.inf]])
        np.testing.assert_array_equal(_locate(s, x),
                                      np.searchsorted(s, x, side="right"))

    def test_scan_norm_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(8)
        k = exponential(0.25, box=UNIT)
        f = KernelExpansion(k, rng.uniform(0, 1, (1600, 1)),
                            rng.normal(size=1600))
        c = f.coefficients
        dense = float(c @ (k.pairwise(f.centers, f.centers) @ c))
        assert f.rkhs_norm() ** 2 == pytest.approx(dense, rel=1e-12)
