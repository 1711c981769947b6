"""Loss families and their analytic constants.

Implements the power losses L_alpha(y, t) = |y - t|^alpha for alpha in [1, 2]
and the hinge loss max(0, 1 - y t), together with the quantities the risk
bounds are built from: growth and Lipschitz constants, the modulus of
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
    "hinge_loss",
    "loss_value",
    "lipschitz_constant",
    "growth_constant",
    "modulus_of_convexity_bound",
    "inner_risk",
    "minimal_inner_risk",
    "mean_template_inner_risk",
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
    """A loss family: ``power`` with exponent alpha in [1, 2], or ``hinge``."""

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind == "power":
            if self.alpha is None or not 1.0 <= self.alpha <= 2.0:
                raise ValueError("power loss needs alpha in [1, 2]")
        elif self.kind == "hinge":
            if self.alpha is not None:
                raise ValueError("hinge loss takes no alpha")
        else:
            raise ValueError(f"unknown loss kind {self.kind!r}")

    @property
    def growth_exponent(self) -> float:
        """Growth order: sup_y L(y, t) <= 2^(alpha-1) (1 + |t|^alpha).

        Power losses have sup_y |y - t|^alpha = (1 + |t|)^alpha on
        Y = [-1, 1]; the hinge loss grows linearly.  In particular the
        risk of the zero function is at most 1 for every family here.
        """
        return self.alpha if self.kind == "power" else 1.0

    def to_config(self) -> dict:
        cfg = {"kind": self.kind}
        if self.alpha is not None:
            cfg["alpha"] = self.alpha
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "LossSpec":
        return LossSpec(cfg["kind"], cfg.get("alpha"))


def power_loss(alpha: float) -> LossSpec:
    return LossSpec("power", float(alpha))


def hinge_loss() -> LossSpec:
    return LossSpec("hinge")


def loss_value(spec: LossSpec, y, t):
    """L(y, t), vectorized over y and t with numpy broadcasting."""
    y = np.asarray(y, dtype=float)
    t = np.asarray(t, dtype=float)
    if spec.kind == "power":
        return np.abs(y - t) ** spec.alpha
    return np.maximum(0.0, 1.0 - y * t)


def lipschitz_constant(spec: LossSpec, bound: float) -> float:
    """Lipschitz constant of t -> L(y, t) on [-bound, bound], y in [-1, 1].

    For the power loss this is alpha (bound + 1)^(alpha - 1), from the mean
    value theorem; the hinge loss is globally 1-Lipschitz.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if spec.kind == "hinge":
        return 1.0
    return spec.alpha * (bound + 1.0) ** (spec.alpha - 1.0)


def growth_constant(spec: LossSpec) -> float:
    """c_L with Lip(L on Y x [-t, t]) <= c_L t^(alpha-1) for t >= 1.

    Realized as alpha 2^(alpha-1) for power losses (tight at t -> 1 from
    alpha (t+1)^(alpha-1) <= alpha (2t)^(alpha-1)); 1 for hinge.
    """
    if spec.kind == "hinge":
        return 1.0
    return spec.alpha * 2.0 ** (spec.alpha - 1.0)


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

    @property
    def mean(self) -> float:
        return float(self.values @ self.weights)

    @staticmethod
    def point_mass(y: float) -> "FiniteDistribution":
        return FiniteDistribution(np.array([y]), np.array([1.0]))

    @staticmethod
    def symmetric(center: float, offsets, weights=None) -> "FiniteDistribution":
        """Distribution symmetric about ``center`` with atoms center +- s."""
        offsets = np.asarray(offsets, dtype=float)
        if weights is None:
            weights = np.ones_like(offsets)
        weights = np.asarray(weights, dtype=float)
        vals = np.concatenate([center + offsets, center - offsets])
        wts = np.concatenate([weights, weights])
        return FiniteDistribution(vals, wts)


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


def mean_template_inner_risk(q: FiniteDistribution, t: float) -> float:
    """The template inner risk |E Q - t| used to anchor mean calibration."""
    return abs(q.mean - float(t))


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
