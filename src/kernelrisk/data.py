"""Synthetic regression models with a known truth, and excess risks.

A :class:`DataModel` couples a regression function living in the kernel's
Hilbert space (so its norm is known exactly) with a symmetric, bounded
conditional noise law and a range guard certifying y in [-1, 1].  Because
the noise is symmetric about zero, the model's regression function is
simultaneously the risk minimizer for every power loss, which makes excess
risks computable against it directly:

* the excess squared risk of f is the noise-free quantity
  E_x (f(x) - f*(x))^2, evaluated by quadrature over the input box;
* the excess power-loss risk is estimated by Monte Carlo with a reported
  standard error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import Box, Kernel, KernelExpansion, combine_expansions
from .solver import TrainingSet

__all__ = [
    "UniformNoise",
    "TruncatedGaussianNoise",
    "ContaminatedNoise",
    "DataModel",
    "trial_seed",
    "generate",
    "excess_l2_risk",
    "excess_power_risk",
]


@dataclass(frozen=True)
class UniformNoise:
    """Uniform noise on [-half_width, half_width]."""

    half_width: float

    def __post_init__(self):
        if not self.half_width >= 0:
            raise ValueError("half_width must be nonnegative")

    @property
    def bound(self) -> float:
        return self.half_width

    @property
    def symmetric(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.half_width == 0.0:
            return np.zeros(size)
        return rng.uniform(-self.half_width, self.half_width, size)


@dataclass(frozen=True)
class TruncatedGaussianNoise:
    """Centered Gaussian, rejection-sampled into [-half_width, half_width]."""

    sigma: float
    half_width: float

    def __post_init__(self):
        if not (self.sigma > 0 and self.half_width > 0):
            raise ValueError("sigma and half_width must be positive")

    @property
    def bound(self) -> float:
        return self.half_width

    @property
    def symmetric(self) -> bool:
        return True

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = rng.normal(0.0, self.sigma, size)
        bad = np.abs(out) > self.half_width
        while np.any(bad):
            out[bad] = rng.normal(0.0, self.sigma, int(bad.sum()))
            bad = np.abs(out) > self.half_width
        return out


@dataclass(frozen=True)
class ContaminatedNoise:
    """Base noise with an outlier fraction at fixed magnitude.

    Outliers are +-magnitude with equal probability, keeping the law
    symmetric; ``asymmetric=True`` places them all at +magnitude, a
    deliberate diagnostic violation of the symmetry assumption (flagged via
    :attr:`symmetric`).
    """

    base: UniformNoise | TruncatedGaussianNoise
    outlier_fraction: float
    outlier_magnitude: float
    asymmetric: bool = False

    def __post_init__(self):
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must lie in [0, 1]")
        if not self.outlier_magnitude >= 0:
            raise ValueError("outlier_magnitude must be nonnegative")

    @property
    def bound(self) -> float:
        return max(self.base.bound, self.outlier_magnitude)

    @property
    def symmetric(self) -> bool:
        return not self.asymmetric

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        out = self.base.sample(rng, size)
        hit = rng.random(size) < self.outlier_fraction
        count = int(hit.sum())
        if count:
            if self.asymmetric:
                out[hit] = self.outlier_magnitude
            else:
                out[hit] = self.outlier_magnitude * rng.choice(
                    (-1.0, 1.0), size=count)
        return out


@dataclass(frozen=True)
class DataModel:
    """Known truth f* in the hypothesis space plus bounded conditional noise.

    The range guard uses the certified sup-norm bound ||f*||_H, so
    |f*(x)| + |noise| <= 1 is guaranteed, not sampled.
    """

    f_star: KernelExpansion
    noise: UniformNoise | TruncatedGaussianNoise | ContaminatedNoise

    def __post_init__(self):
        guard = self.f_star.sup_norm_bound() + self.noise.bound
        if not guard <= 1.0 + 1e-9:
            raise ValueError(
                f"range guard violated: ||f*||_H + noise bound = {guard} > 1")

    @property
    def kernel(self) -> Kernel:
        return self.f_star.kernel

    @property
    def domain(self) -> Box:
        return self.f_star.kernel.domain

    @property
    def symmetric(self) -> bool:
        return self.noise.symmetric


def trial_seed(master_seed: int, index: int) -> np.random.SeedSequence:
    """Deterministic, platform-independent per-trial seed stream."""
    return np.random.SeedSequence(entropy=(int(master_seed), int(index)))


def _rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def generate(model: DataModel, n: int, seed) -> TrainingSet:
    """n i.i.d. draws: x uniform on the box, y = f*(x) + noise."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = _rng(seed)
    box = model.domain
    xs = rng.uniform(box.lower, box.upper, size=(n, box.dim))
    ys = model.f_star(xs) + model.noise.sample(rng, n)
    # the certified guard makes this a pure float-dust clamp
    np.clip(ys, -1.0, 1.0, out=ys)
    return TrainingSet(xs, ys)


@lru_cache(maxsize=32)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(order)


def _grid_order(dim: int, eval_budget: int) -> int:
    """Gauss-Legendre order on every axis of the tensor rule for dim >= 2."""
    return min(max(2, int(round(eval_budget ** (1.0 / dim)))), 96)


def _quadrature_nodes(model: DataModel, f, eval_budget: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Panelized Gauss-Legendre nodes/weights over the box (weights sum to 1).

    In one dimension the panels split at every expansion center when the
    kernel has limited smoothness there (half-integer Matern), so the
    integrand is analytic inside each panel.
    """
    box = model.domain
    if box.dim == 1:
        breaks = [np.asarray(box.lower), np.asarray(box.upper)]
        if model.kernel.family == "matern" and model.kernel.nu < 2.0:
            breaks.append(model.f_star.centers[:, 0])
            if isinstance(f, KernelExpansion) and f.kernel.family == "matern":
                breaks.append(f.centers[:, 0])
        pts = np.unique(np.clip(np.concatenate(breaks),
                                box.lower[0], box.upper[0]))
        if len(pts) < 2:
            pts = np.array([box.lower[0], box.upper[0]])
        order = int(np.clip(eval_budget // max(1, len(pts) - 1), 4, 12))
        xi, wi = _gauss_legendre(order)
        lo = pts[:-1][:, None]
        hi = pts[1:][:, None]
        nodes = (0.5 * (lo + hi) + 0.5 * (hi - lo) * xi[None, :]).ravel()
        weights = (0.5 * (hi - lo) * wi[None, :]).ravel()
        return nodes.reshape(-1, 1), weights / (box.upper[0] - box.lower[0])
    xi, wi = _gauss_legendre(_grid_order(box.dim, eval_budget))
    axes, wts = [], []
    for lo, hi in zip(box.lower, box.upper):
        axes.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * xi)
        wts.append(0.5 * (hi - lo) * wi)
    grids = np.meshgrid(*axes, indexing="ij")
    nodes = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*wts, indexing="ij")
    weights = np.prod(np.stack([g.ravel() for g in wgrids], axis=1), axis=1)
    return nodes, weights / box.volume


def _deviation(model: DataModel, f):
    """The function f - f*.

    An expansion over the model's kernel is combined with f* into one
    expansion, so each point costs one evaluation; any other callable is
    evaluated apart from f*.
    """
    if isinstance(f, KernelExpansion) and f.kernel == model.kernel:
        return combine_expansions(f, model.f_star, 1.0, -1.0)
    return lambda xs: np.asarray(f(xs), dtype=float) - model.f_star(xs)


def excess_l2_risk(model: DataModel, f, eval_budget: int = 16384) -> float:
    """E_x (f(x) - f*(x))^2 for x uniform on the box, by quadrature.

    Equals the excess squared-loss risk of f: the conditional noise cancels
    from the difference.  ``f`` may be an expansion or any callable mapping
    an (m, d) point array to m values.
    """
    nodes, weights = _quadrature_nodes(model, f, eval_budget)
    deviation = _deviation(model, f)
    dim = model.domain.dim
    if dim > 1 and isinstance(deviation, KernelExpansion):
        diff = deviation.on_grid(nodes, (_grid_order(dim, eval_budget),) * dim)
    else:
        diff = deviation(nodes)
    return float(np.sum(weights * diff * diff))


def excess_power_risk(model: DataModel, f, alpha: float, mc_points: int,
                      seed) -> tuple[float, float]:
    """Monte-Carlo estimate (value, stderr) of the excess power-loss risk

        E |y - f(x)|^alpha - E |y - f*(x)|^alpha
            = E |noise - d(x)|^alpha - E |noise|^alpha,   d = f - f*,

    which is the excess risk of f because symmetric conditionals make f*
    the power-loss risk minimizer.
    """
    if not model.symmetric:
        raise ValueError("excess power risk against f* needs symmetric noise")
    if mc_points < 2:
        raise ValueError("mc_points must be at least 2")
    rng = _rng(seed)
    box = model.domain
    deviation = _deviation(model, f)
    total = 0.0
    total_sq = 0.0
    remaining = int(mc_points)
    chunk = 262_144
    while remaining > 0:
        m = min(chunk, remaining)
        xs = rng.uniform(box.lower, box.upper, size=(m, box.dim))
        noise = model.noise.sample(rng, m)
        g = np.abs(noise - deviation(xs)) ** alpha - np.abs(noise) ** alpha
        total += float(g.sum())
        total_sq += float((g * g).sum())
        remaining -= m
    mean = total / mc_points
    var = max(total_sq / mc_points - mean * mean, 0.0)
    stderr = (var / mc_points) ** 0.5
    return mean, stderr
