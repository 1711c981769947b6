"""Empirical covering-number growth of the unit ball in empirical L2.

The unit ball of the kernel's Hilbert space, evaluated at n sample points
and measured in the empirical L2 norm, is an ellipsoid whose semi-axes are
sqrt(mu_j / n) for the kernel-matrix eigenvalues mu_j.  Volumetric bounds on
ellipsoid covering numbers bracket log N(delta) from both sides, and a
log-log least-squares fit of the bracket against delta estimates the
polynomial growth law  log N(delta) <= scale * delta^(-exponent).

Constructive nets are deliberately avoided: they are exponential in the
effective dimension, while the volumetric bracket is tight enough for
exponent fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, kernel_matrix

__all__ = [
    "CoveringEstimate",
    "ellipsoid_semi_axes",
    "ellipsoid_log_covering",
    "default_delta_grid",
    "fit_covering_exponent",
    "fit_covering_exponent_from_axes",
]

# Grid points participate in the fit when the volumetric lower estimate is
# at least one (handles the scale >= 1 normalization without forcing) and
# when no more than half the axes are active (beyond that the finite
# spectrum truncates the growth law).
_MIN_LOG_COVER = 1.0
_ACTIVE_FRACTION_CAP = 0.5
# Root-mean-square log-residual beyond which the power law is rejected.
_RESIDUAL_CAP = 0.1


def ellipsoid_semi_axes(gram: np.ndarray) -> np.ndarray:
    """Descending semi-axes sqrt(mu_j / n) of the evaluated unit ball."""
    gram = np.asarray(gram, dtype=float)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
        raise ValueError("gram must be a square matrix")
    mu = np.linalg.eigvalsh(gram)
    mu = np.clip(mu, 0.0, None)[::-1]
    return np.sqrt(mu / gram.shape[0])


def ellipsoid_log_covering(semi_axes: np.ndarray,
                           delta: float) -> tuple[float, float]:
    """Volumetric bracket (lower, upper) for log N(ellipsoid, delta).

    lower: volume comparison in the subspace of axes exceeding delta;
    upper: product-grid count with a 3^d_eff packing factor.  Always
    lower <= upper, both nonincreasing in delta, and both invariant under
    joint rescaling of axes and delta.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    s = np.asarray(semi_axes, dtype=float)
    ratio = s / delta
    lower = float(np.sum(np.log(ratio[ratio > 1.0])))
    d_eff = int(np.sum(ratio > 1.0))
    upper = float(np.sum(np.log1p(2.0 * ratio)) + d_eff * math.log(3.0))
    return lower, upper


def default_delta_grid(semi_axes: np.ndarray) -> np.ndarray:
    """16 log-spaced deltas spanning [0.01 s_max, s_max]."""
    s_max = float(np.max(semi_axes))
    if s_max <= 0:
        raise ValueError("all semi-axes are zero")
    return np.geomspace(0.01 * s_max, s_max, 16)


@dataclass(frozen=True)
class CoveringEstimate:
    """Fitted covering growth law scale * delta^(-exponent).

    ``scale`` is inflated so the fitted curve dominates every per-delta
    lower estimate on the grid and is at least one.  ``exponent`` outside
    (0, 2), a poor log-log fit, or a too-small usable grid raise the
    ``out_of_model`` flag (details in ``flags``).
    """

    scale: float
    exponent: float
    delta_grid: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    used: np.ndarray
    fit_residual: float
    out_of_model: bool
    flags: tuple[str, ...]

    def curve(self, delta) -> np.ndarray:
        return self.scale * np.asarray(delta, dtype=float) ** (-self.exponent)


def fit_covering_exponent_from_axes(
        semi_axes: np.ndarray,
        delta_grid: np.ndarray | None = None) -> CoveringEstimate:
    """Fit the growth law to the volumetric bracket of one spectrum."""
    s = np.asarray(semi_axes, dtype=float)
    if delta_grid is None:
        delta_grid = default_delta_grid(s)
    delta_grid = np.asarray(delta_grid, dtype=float)
    pairs = [ellipsoid_log_covering(s, d) for d in delta_grid]
    lower = np.array([p[0] for p in pairs])
    upper = np.array([p[1] for p in pairs])
    d_eff = np.array([np.sum(s > d) for d in delta_grid])

    used = (lower >= _MIN_LOG_COVER) & (d_eff <= _ACTIVE_FRACTION_CAP * len(s))
    flags: list[str] = []
    if not np.all(lower >= _MIN_LOG_COVER):
        flags.append("excluded-small-log-cover")
    if not np.all(d_eff <= _ACTIVE_FRACTION_CAP * len(s)):
        flags.append("excluded-spectrum-truncation")

    if np.sum(used) < 3:
        flags.append("insufficient-grid")
        scale = max(1.0, float(np.max(lower * delta_grid, initial=1.0)))
        return CoveringEstimate(scale, math.nan, delta_grid, lower, upper,
                                used, math.inf, True, tuple(flags))

    lx = np.log(delta_grid[used])
    ly = np.log(lower[used])
    design = np.vstack([np.ones(lx.size), lx]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    exponent = -float(coef[1])
    residual = float(np.sqrt(np.mean((design @ coef - ly) ** 2)))

    out_of_model = False
    if not 0.0 < exponent < 2.0:
        flags.append("exponent-out-of-range")
        exponent = float(np.clip(exponent, 1e-6, 2.0 - 1e-6))
        out_of_model = True
    if residual > _RESIDUAL_CAP:
        flags.append("poor-power-law-fit")
        out_of_model = True

    # Inflate the scale so the curve dominates the lower series everywhere.
    needed = float(np.max(lower * delta_grid**exponent))
    scale = max(1.0, math.exp(float(coef[0])), needed)
    return CoveringEstimate(scale, exponent, delta_grid, lower, upper, used,
                            residual, out_of_model, tuple(flags))


def fit_covering_exponent(kernel: Kernel, sample_xs) -> CoveringEstimate:
    """Covering growth law of the kernel's unit ball on one sample."""
    gram = kernel_matrix(kernel, sample_xs)
    return fit_covering_exponent_from_axes(ellipsoid_semi_axes(gram))
