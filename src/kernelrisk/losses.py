"""The power loss family and its analytic constants.

Implements the power losses L_alpha(y, t) = |y - t|^alpha for alpha in [1, 2],
together with the quantities the risk bounds are built from: the modulus of
convexity of |.|^alpha on an interval, inner risks of discrete conditional
distributions, and the calibration factor that transfers excess power-loss
risk to excess squared-loss risk for symmetric conditionals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LossSpec",
    "FiniteDistribution",
    "CalibrationFactor",
    "NotStrictlyConvexError",
    "power_loss",
    "loss_value",
    "modulus_of_convexity_bound",
    "inner_risk",
    "minimal_inner_risk",
    "calibration_function_lower_bound",
    "calibration_inequality_factor",
]


class NotStrictlyConvexError(ValueError):
    """Raised when an operation needs alpha > 1 but got alpha <= 1.

    |t| is convex but not strictly convex, so its modulus of convexity is
    zero and the variance/calibration constants diverge.
    """


@dataclass(frozen=True)
class LossSpec:
    """The power loss |y - t|^alpha with exponent alpha in [1, 2]."""

    alpha: float

    def __post_init__(self):
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError("power loss needs alpha in [1, 2]")

    def to_config(self) -> dict:
        return {"kind": "power", "alpha": self.alpha}

    @staticmethod
    def from_config(cfg: dict) -> "LossSpec":
        if cfg.get("kind") != "power" or "alpha" not in cfg:
            raise ValueError(f"not a power loss with an alpha: {cfg!r}")
        return LossSpec(cfg["alpha"])


def power_loss(alpha: float) -> LossSpec:
    return LossSpec(float(alpha))


def loss_value(spec: LossSpec, y, t):
    """L(y, t), vectorized over y and t with numpy broadcasting."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    return np.abs(y - t) ** spec.alpha


def modulus_of_convexity_bound(alpha: float, interval_bound: float,
                               eps: float) -> float:
    """Lower bound on the modulus of convexity of |.|^alpha on [-B, B].

        delta(eps) >= alpha (alpha - 1) / 8 * B^(alpha-2) * eps^2

    where delta(eps) is the infimum of (psi(t1) + psi(t2))/2 - psi((t1+t2)/2)
    over pairs in [-B, B] at least eps apart.  Exact for alpha = 2.
    """
    if not 1.0 < alpha <= 2.0:
        raise NotStrictlyConvexError(
            f"modulus bound needs alpha in (1, 2], got {alpha}")
    if interval_bound <= 0 or eps <= 0:
        raise ValueError("interval_bound and eps must be positive")
    return (alpha * (alpha - 1.0) / 8.0
            * interval_bound ** (alpha - 2.0) * eps**2)


@dataclass(frozen=True)
class FiniteDistribution:
    """A finite distribution on Y subset of [-1, 1]: atoms and weights."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float).reshape(-1).copy()
        w = np.asarray(self.weights, dtype=float).reshape(-1).copy()
        if len(v) != len(w) or len(v) == 0:
            raise ValueError("values and weights must be nonempty, same length")
        if not (np.all(np.isfinite(w) & (w >= 0)) and w.sum() > 0):
            raise ValueError("weights must be nonnegative with positive sum")
        if not np.all(np.abs(v) <= 1.0 + 1e-12):
            raise ValueError("atoms must lie in [-1, 1]")
        w = w / w.sum()
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)


def inner_risk(spec: LossSpec, q: FiniteDistribution, t: float) -> float:
    """C_{L,Q}(t) = sum_i w_i L(y_i, t), the conditional risk at t."""
    return float(loss_value(spec, q.values, float(t)) @ q.weights)


def minimal_inner_risk(spec: LossSpec,
                       q: FiniteDistribution) -> tuple[float, float]:
    """(t*, C*_{L,Q}) via golden-section search on [-1, 1], down to an
    interval of width 1e-12.

    The map t -> C_{L,Q}(t) is convex and its minimizer lies in the convex
    hull of the support, hence in [-1, 1].
    """
    g = lambda t: inner_risk(spec, q, t)
    lo, hi = -1.0, 1.0
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    ga, gb = g(a), g(b)
    while hi - lo > 1e-12:
        if ga <= gb:
            hi, b, gb = b, a, ga
            a = hi - inv_phi * (hi - lo)
            ga = g(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + inv_phi * (hi - lo)
            gb = g(b)
    t_star = 0.5 * (lo + hi)
    return t_star, g(t_star)


def calibration_function_lower_bound(alpha: float, eps: float) -> float:
    """Lower bound on the squared-loss vs power-loss calibration function.

        phi(eps) = alpha (alpha - 1) / 2 * (2 + sqrt(eps))^(alpha-2) * eps

    Any t whose excess squared inner risk is eps (under a symmetric
    conditional Q) has excess power-loss inner risk at least phi(eps).
    """
    if not 1.0 < alpha <= 2.0:
        raise NotStrictlyConvexError(
            f"calibration needs alpha in (1, 2], got {alpha}")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return 0.0
    return (alpha * (alpha - 1.0) / 2.0
            * (2.0 + math.sqrt(eps)) ** (alpha - 2.0) * eps)


@dataclass(frozen=True)
class CalibrationFactor:
    """Multiplier transferring excess power-loss risk to excess squared risk.

    For symmetric conditional distributions and any f with
    ||f||_inf <= sup_norm_bound:

        excess squared risk of f <= factor * excess power-loss risk of f.
    """

    alpha: float
    sup_norm_bound: float
    factor: float


def calibration_inequality_factor(alpha: float,
                                  sup_norm_f: float) -> CalibrationFactor:
    """factor = 2 / (alpha (alpha - 1)) * (3 + ||f||_inf)^(2 - alpha).

    Comes from chord-linearizing the concave calibration function on
    [0, (||f||_inf + 1)^2] (its Fenchel-Legendre bi-conjugate there).
    The factor is 1 at alpha = 2 and diverges as alpha -> 1.
    """
    if not 1.0 < alpha <= 2.0:
        raise NotStrictlyConvexError(
            f"calibration factor needs alpha in (1, 2], got {alpha}")
    if sup_norm_f < 0:
        raise ValueError("sup_norm_f must be nonnegative")
    factor = (2.0 / (alpha * (alpha - 1.0))
              * (3.0 + sup_norm_f) ** (2.0 - alpha))
    return CalibrationFactor(alpha, sup_norm_f, factor)
