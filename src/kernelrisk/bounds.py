"""Closed-form thresholds, bounds, and learning-rate exponents.

Deterministic calculators for the quantities controlling regularized kernel
risk minimization: the high-probability excess-risk threshold under a
polynomial covering-growth condition and a Bernstein-type variance
condition, its specializations to power losses and to hinge-loss
classification under a low-noise exponent, the localization bounds on the
regularized cost increments, and the rate exponents obtained from the
schedule lam = n^(-kappa).

All evaluators are total over their stated domains: diverging terms come
back as +inf so max-compositions stay well defined.  The constants that the
theory only asserts to exist (the threshold constant K, the modulus constant
c_lp) are explicit inputs defaulting to 1; the validation harness calibrates
them empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .losses import NotStrictlyConvexError

__all__ = [
    "BoundInputs",
    "extended_power",
    "approx_error_bound",
    "oracle_epsilon_threshold",
    "oracle_epsilon_terms",
    "hinge_noise_exponent",
    "hinge_epsilon_threshold",
    "cost_gap_sup_bound",
    "cost_gap_norm_bound",
    "cost_gap_variance_bound",
    "deviation_modulus_bound",
    "power_loss_epsilon_threshold",
    "l2_rate_exponent",
    "power_risk_rate_exponent",
    "rate_zero_alpha_threshold",
    "sobolev_covering_exponent",
    "sobolev_optimal_rate",
    "power_loss_variance_constant",
    "variance_condition_parameters",
]


def extended_power(base: float, exponent: float) -> float:
    """base ** exponent with the conventions 0^0 := 1 and

        a^inf := 0 for a < 1,  1 for a = 1,  inf for a > 1,

    overflow-safe (huge finite results saturate to +inf).
    """
    if base < 0:
        raise ValueError("base must be nonnegative")
    if exponent == 0.0:
        return 1.0
    if exponent < 0:
        raise ValueError("exponent must be positive (or +inf)")
    if math.isinf(exponent):
        if base < 1.0:
            return 0.0
        return 1.0 if base == 1.0 else math.inf
    if base == 0.0:
        return 0.0
    logv = exponent * math.log(base)
    if logv >= 709.0:
        return math.inf
    return math.exp(logv)


def approx_error_bound(lam: float, rkhs_norm_fstar: float) -> float:
    """Upper bound lam * ||f*||_H^2 on the approximation error at lam.

    Valid whenever the risk minimizer f* lies in the hypothesis space: the
    regularized risk of f* itself already exceeds the regularized optimum by
    at most the regularization term.
    """
    if lam < 0 or rkhs_norm_fstar < 0:
        raise ValueError("lam and rkhs_norm_fstar must be nonnegative")
    return lam * rkhs_norm_fstar**2


@dataclass(frozen=True)
class BoundInputs:
    """Inputs of the master excess-risk threshold.

    covering_scale / covering_exponent: the pair (a, p) with
        sup_T log N(unit ball, delta, empirical L2) <= a delta^(-p).
    growth_exponent: the loss growth order alpha in [1, 2].
    variance_power / variance_exponent / variance_scale: the constants
        (v, theta, c) of the variance condition
        E (L.f - L.f*)^2 <= c (||f||_inf + 1)^v (E L.f - L.f*)^theta.
    threshold_constant: the existential constant K >= 1 (calibratable).
    confidence: x >= 1; the conclusion fails with probability <= e^(-x).
    approx_error: a(lam), or any upper bound for it.
    """

    covering_scale: float
    covering_exponent: float
    growth_exponent: float
    variance_power: float
    variance_exponent: float
    variance_scale: float
    threshold_constant: float
    lam: float
    n: float
    confidence: float
    approx_error: float

    def __post_init__(self):
        checks = [
            (self.covering_scale >= 1.0, "covering_scale must be >= 1"),
            (0.0 < self.covering_exponent < 2.0,
             "covering_exponent must lie in (0, 2)"),
            (1.0 <= self.growth_exponent <= 2.0,
             "growth_exponent must lie in [1, 2]"),
            (0.0 <= self.variance_power <= 2.0,
             "variance_power must lie in [0, 2]"),
            (0.0 < self.variance_exponent <= 1.0,
             "variance_exponent must lie in (0, 1]"),
            (self.variance_scale >= 1.0, "variance_scale must be >= 1"),
            (self.threshold_constant >= 1.0,
             "threshold_constant must be >= 1"),
            (0.0 < self.lam <= 1.0, "lam must lie in (0, 1]"),
            (self.n >= 1, "n must be >= 1"),
            (self.confidence >= 1.0, "confidence must be >= 1"),
            (self.approx_error >= 0.0, "approx_error must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)


def oracle_epsilon_terms(inp: BoundInputs) -> dict[str, float]:
    """The five terms whose max is the excess-risk threshold.

    With probability at least 1 - e^(-x) the excess risk of the empirical
    regularized minimizer stays below approx_error + eps for every eps at
    least this threshold.  Exponent denominators vanish only in the
    degenerate corners (alpha = 2, or v = 2 and theta = 1), where the
    extended-power convention applies.
    """
    a = inp.covering_scale
    p = inp.covering_exponent
    alpha = inp.growth_exponent
    v = inp.variance_power
    theta = inp.variance_exponent
    K = inp.threshold_constant
    lam, n, x = inp.lam, inp.n, inp.confidence

    # Exponent denominators, spelled out to keep them auditable.  Within the
    # validated input ranges they are nonnegative; zero falls through to the
    # extended-power convention.
    d2 = 8.0 - 2.0 * alpha * p - (v + 2.0 * theta) * (2.0 - p)
    d3 = (2.0 + p) * (2.0 - alpha)
    d4 = 4.0 - v - 2.0 * theta
    d5 = 2.0 - alpha
    for d in (d2, d3, d4, d5):
        if d < -1e-15:
            raise ValueError("negative exponent denominator: inputs outside "
                             "the valid regime")

    return {
        "approx_plus_lam": inp.approx_error + lam,
        "covering_main": _power_term(
            K * a, lam, (2.0 * alpha * p + v * (2.0 - p)) / 4.0, n, 4.0, d2),
        "covering_growth": _power_term(
            K * a, lam, alpha * (2.0 + p) / 4.0, n, 4.0, d3),
        "confidence_main": _power_term(K * x, lam, v / 2.0, n, 2.0, d4),
        "confidence_growth": _power_term(K * x, lam, alpha / 2.0, n, 2.0, d5),
    }


def _power_term(num, lam, lam_pow, n, num_exp, denom):
    """(num / (lam^lam_pow n))^(num_exp / denom), with an infinite exponent
    at denom <= 0 and an infinite base where lam^lam_pow underflows to 0."""
    scale = lam**lam_pow * n
    base = num / scale if scale > 0.0 else math.inf
    return extended_power(base, math.inf if denom <= 0.0 else num_exp / denom)


def oracle_epsilon_threshold(inp: BoundInputs) -> float:
    """Max of the five threshold terms; see :func:`oracle_epsilon_terms`."""
    return max(oracle_epsilon_terms(inp).values())


def hinge_noise_exponent(q: float, p: float) -> float:
    """Sample-size exponent 4(q+1) / (2q + pq + 4) of the hinge threshold.

    Strictly increasing in the low-noise exponent q in [0, inf]; the limit
    q = inf gives 4 / (2 + p).
    """
    if q < 0:
        raise ValueError("q must lie in [0, inf]")
    if not 0.0 < p < 2.0:
        raise ValueError("p must lie in (0, 2)")
    if math.isinf(q):
        return 4.0 / (2.0 + p)
    return 4.0 * (q + 1.0) / (2.0 * q + p * q + 4.0)


def hinge_epsilon_threshold(q: float, p: float, K: float, a: float, n: float,
                            x: float, lam: float, approx_error: float) -> float:
    """Excess-risk threshold for hinge-loss classification:

        approx_error + lam + K x^2 / lam * (a / n)^(4(q+1)/(2q+pq+4)),

    valid for n >= a >= 1.
    """
    if not n >= a >= 1.0:
        raise ValueError("requires n >= a >= 1")
    if K < 1.0 or x < 1.0 or not 0.0 < lam <= 1.0 or approx_error < 0.0:
        raise ValueError("K >= 1, x >= 1, lam in (0, 1], approx_error >= 0")
    exp = hinge_noise_exponent(q, p)
    return approx_error + lam + K * x * x / lam * extended_power(a / n, exp)


def cost_gap_sup_bound(lam: float, approx_error: float, excess: float,
                       alpha: float) -> float:
    """Sup-norm bound on a regularized-cost increment with mean ``excess``:

        3 (excess / lam)^(alpha/2) + (approx_error / lam)^(alpha/2) + 2.

    Here the increment is the pointwise regularized cost of some f in the
    lam^(-1/2) ball minus that of the regularized optimum.
    """
    _check_gap_args(lam, approx_error, excess)
    half = alpha / 2.0
    return (3.0 * (excess / lam) ** half
            + (approx_error / lam) ** half + 2.0)


def cost_gap_norm_bound(lam: float, approx_error: float,
                        excess: float) -> float:
    """Norm bound sqrt((approx_error + excess) / lam) for the same f."""
    _check_gap_args(lam, approx_error, excess)
    return math.sqrt((approx_error + excess) / lam)


def cost_gap_variance_bound(lam: float, approx_error: float, excess: float,
                            c: float, v: float, theta: float) -> float:
    """Second-moment bound on a regularized-cost increment:

        16 c ((excess/lam)^(1/2) + (approx_error/lam)^(1/2) + 1)^v
             * (excess^theta + 2 approx_error^theta).
    """
    _check_gap_args(lam, approx_error, excess)
    if c < 1.0 or not 0.0 <= v <= 2.0 or not 0.0 < theta <= 1.0:
        raise ValueError("needs c >= 1, v in [0, 2], theta in (0, 1]")
    envelope = math.sqrt(excess / lam) + math.sqrt(approx_error / lam) + 1.0
    return (16.0 * c * envelope**v
            * (excess**theta + 2.0 * approx_error**theta))


def deviation_modulus_bound(a: float, p: float, lam: float,
                            approx_error: float, eps: float, tau_eps: float,
                            c_lp: float, alpha: float, n: float) -> float:
    """Bound on the expected localized empirical deviation:

        c_lp * max{ r^(alpha p / 4) tau_eps^((2-p)/4) (a/n)^(1/2),
                    r^(alpha / 2) (a/n)^(2/(2+p)) },

    with r = (approx_error + eps) / lam + 1 and tau_eps any bound on the
    second moment over the eps-localized cost increments.  c_lp is the
    loss- and p-dependent constant, supplied by the caller.
    """
    if c_lp < 0 or tau_eps < 0 or eps < 0:
        raise ValueError("c_lp, tau_eps, eps must be nonnegative")
    _check_gap_args(lam, approx_error, 0.0)
    if not 0.0 < p < 2.0 or n < 1:
        raise ValueError("p must lie in (0, 2) and n >= 1")
    r = (approx_error + eps) / lam + 1.0
    ratio = a / n
    return c_lp * max(
        r ** (alpha * p / 4.0) * tau_eps ** ((2.0 - p) / 4.0) * ratio**0.5,
        r ** (alpha / 2.0) * ratio ** (2.0 / (2.0 + p)),
    )


def power_loss_epsilon_threshold(alpha: float, p: float, K_alpha: float,
                                 a: float, n: float, x: float, lam: float,
                                 approx_error: float) -> float:
    """Simplified excess power-loss risk threshold for alpha in (1, 2).

    This sufficient form, valid for n >= K_alpha * a, is

        approx_error + lam
            + lam^(-alpha/(2-alpha)) x^(2/(2-alpha))
              (K_alpha a / n)^(4 / ((2+p)(2-alpha))).

    It dominates the unreduced three-term max

        max{approx_error + lam,
            lam^(-alpha/(2-alpha)) (K_alpha a / n)^(4/((2+p)(2-alpha))),
            lam^(-alpha/(2-alpha)) (K_alpha x / n)^(2/(2-alpha))},

    which is :func:`oracle_epsilon_threshold` at variance_power = alpha and
    variance_exponent = 1.
    """
    if not 1.0 < alpha < 2.0:
        raise ValueError("alpha must lie strictly between 1 and 2")
    if not 0.0 < p < 2.0 or K_alpha < 1.0 or a < 1.0 or n < 1 or x < 1.0:
        raise ValueError("invalid threshold inputs")
    if not 0.0 < lam <= 1.0 or approx_error < 0.0:
        raise ValueError("lam in (0, 1], approx_error >= 0")
    if n < K_alpha * a:
        raise ValueError("simplified threshold requires n >= K_alpha * a")
    # one power of one base, so no factor overflows while another underflows
    return approx_error + lam + _power_term(
        K_alpha * a * extended_power(x, (2.0 + p) / 2.0), lam,
        alpha * (2.0 + p) / 4.0, n, 4.0, (2.0 + p) * (2.0 - alpha))


def l2_rate_exponent(kappa: float, p: float, alpha: float) -> float:
    """Rate exponent rho of the excess squared risk under lam = n^(-kappa):

        rho = min(kappa, 2/(2+p) + (2/(2+p) - kappa) * 2/(2-alpha)).

    Below the optimal schedule kappa <= 2/(2+p) this is kappa for every
    alpha.  At alpha = 2 only the schedule branch survives: kappa when
    kappa <= 2/(2+p) (with a log factor exactly at equality), no finite
    rate (-inf) beyond it.  rho <= 0 means no rate is implied.
    """
    _check_rate_args(kappa, p, alpha, allow_two=True)
    k_opt = 2.0 / (2.0 + p)
    if kappa <= k_opt:
        return kappa
    if alpha == 2.0:
        return -math.inf
    return min(kappa, k_opt + (k_opt - kappa) * 2.0 / (2.0 - alpha))


def power_risk_rate_exponent(kappa: float, p: float, alpha: float) -> float:
    """Rate exponent for the excess power-loss risk itself; same form:

        min(kappa, 2/(2+p) - (kappa - 2/(2+p)) * 2/(2-alpha)),

    for alpha strictly inside (1, 2).
    """
    _check_rate_args(kappa, p, alpha, allow_two=False)
    k_opt = 2.0 / (2.0 + p)
    if kappa <= k_opt:
        return kappa
    return min(kappa, k_opt - (kappa - k_opt) * 2.0 / (2.0 - alpha))


def rate_zero_alpha_threshold(kappa: float, p: float) -> float:
    """Smallest alpha at which the rate degenerates (rho <= 0) for kappa:

        alpha_0 = 2 - (kappa - 2/(2+p)) (2+p);

    meaningful for kappa > 2/(2+p), where rho <= 0 on [alpha_0, 2].
    """
    if not 0.0 < p < 2.0 or kappa <= 0:
        raise ValueError("needs p in (0, 2) and kappa > 0")
    return 2.0 - (kappa - 2.0 / (2.0 + p)) * (2.0 + p)


def _check_rate_args(kappa, p, alpha, allow_two):
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    if not 0.0 < p < 2.0:
        raise ValueError("covering exponent must lie in (0, 2)")
    hi_ok = alpha <= 2.0 if allow_two else alpha < 2.0
    if not (1.0 < alpha and hi_ok):
        raise ValueError("alpha out of range for the rate formula")


def sobolev_covering_exponent(order: float, dim: int) -> float:
    """p = dim / order for a Sobolev space of the given order (> dim/2)."""
    if order <= dim / 2.0:
        raise ValueError("Sobolev order must exceed dim / 2")
    return dim / order


def sobolev_optimal_rate(order: float, dim: int) -> float:
    """The minimax exponent 2 order / (2 order + dim) of n^(-rate)."""
    if order <= dim / 2.0:
        raise ValueError("Sobolev order must exceed dim / 2")
    return 2.0 * order / (2.0 * order + dim)


def power_loss_variance_constant(alpha: float, sup_norm_f: float) -> float:
    """Variance-condition constant for the power loss under symmetric noise:

        8 alpha / (alpha - 1) * (||f||_inf + 2)^alpha,

    bounding E g_f^2 <= const * E g_f for the loss increment g_f of any
    bounded f against the (bounded-by-one) risk minimizer.  Diverges as
    alpha -> 1.  Feeds the master threshold as v = alpha, theta = 1.
    """
    if not 1.0 < alpha <= 2.0:
        raise NotStrictlyConvexError(
            f"variance constant needs alpha in (1, 2], got {alpha}")
    if sup_norm_f < 0:
        raise ValueError("sup_norm_f must be nonnegative")
    return 8.0 * alpha / (alpha - 1.0) * (sup_norm_f + 2.0) ** alpha


def variance_condition_parameters(alpha: float) -> tuple[float, float]:
    """(v, theta) = (alpha, 1) used with the power-loss variance constant."""
    if not 1.0 < alpha <= 2.0:
        raise NotStrictlyConvexError(
            f"variance parameters need alpha in (1, 2], got {alpha}")
    return alpha, 1.0


def _check_gap_args(lam, approx_error, excess):
    if not 0.0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if approx_error < 0 or excess < 0:
        raise ValueError("approx_error and excess must be nonnegative")
