"""Monte-Carlo validation of the probabilistic guarantees.

Three checks, each against a synthetic model whose truth is known exactly:

* oracle probability: calibrate the threshold constant K on one batch of
  independent training runs, then verify on fresh runs that the excess risk
  stays below approx_error + epsilon(K) with at least the advertised
  frequency 1 - e^(-x);
* variance bound: for random bounded functions f, the second moment of the
  loss increment g_f is dominated by the closed-form constant times its
  mean;
* calibration: excess squared risk is dominated by the calibration factor
  times excess power-loss risk.

Calibration and validation use disjoint seed streams, so the calibrated K
is never tested on the data that produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    BoundInputs,
    approx_error_bound,
    cost_gap_norm_bound,
    cost_gap_sup_bound,
    oracle_epsilon_threshold,
    power_loss_variance_constant,
    variance_condition_parameters,
)
from .covering import CoveringEstimate
from .data import DataModel, excess_l2_risk, excess_power_risk, generate, \
    trial_seed
from .experiments import empirical_min_risk
from .kernels import Kernel, KernelExpansion
from .losses import calibration_inequality_factor, loss_value, power_loss
from .solver import SolverConfig, TrainingSet, fit

__all__ = [
    "OracleCheckReport",
    "VarianceCheckReport",
    "CalibrationCheckReport",
    "CostGapCheckReport",
    "oracle_probability_check",
    "variance_bound_check",
    "calibration_check",
    "discrete_cost_gap_check",
]


@dataclass(frozen=True)
class OracleCheckReport:
    alpha: float
    lam: float
    n: int
    confidence: float
    n_calibration: int
    n_fresh: int
    calibrated_constant: float
    epsilon: float
    approx_error: float
    frequency: float
    target_probability: float
    binomial_se: float
    passed: bool
    calibration_excesses: tuple[float, ...] = field(repr=False)
    fresh_excesses: tuple[float, ...] = field(repr=False)

    ROW_HEADER = ("alpha", "lam", "n", "confidence", "calibrated_constant",
                  "epsilon", "approx_error", "frequency",
                  "target_probability", "binomial_se", "passed")

    def to_rows(self) -> list[tuple]:
        return [(self.alpha, self.lam, self.n, self.confidence,
                 self.calibrated_constant, self.epsilon, self.approx_error,
                 self.frequency, self.target_probability, self.binomial_se,
                 self.passed)]

    def summary(self) -> str:
        return (f"oracle check alpha={self.alpha} x={self.confidence}: "
                f"K={self.calibrated_constant:.4g} eps={self.epsilon:.4g}; "
                f"fresh frequency {self.frequency:.4f} vs target "
                f"{self.target_probability:.4f} - 2*{self.binomial_se:.4f} "
                f"-> {'pass' if self.passed else 'FAIL'}")


def _trial_excess(model, kernel, alpha, lam, n, seed_index, master_seed,
                  mc_points) -> float:
    ss = trial_seed(master_seed, seed_index)
    data_seed, mc_seed = ss.spawn(2)
    train = generate(model, n, data_seed)
    result = fit(kernel, power_loss(alpha), train,
                 SolverConfig(lam=lam, objective_tolerance=1e-7))
    if alpha == 2.0:
        return excess_l2_risk(model, result.f)
    value, _ = excess_power_risk(model, result.f, alpha, mc_points, mc_seed)
    return value


def _smallest_constant(make_inputs, target: float) -> float:
    """Smallest K >= 1 with epsilon(K) >= target (epsilon nondecreasing)."""
    if oracle_epsilon_threshold(make_inputs(1.0)) >= target:
        return 1.0
    hi = 2.0
    while oracle_epsilon_threshold(make_inputs(hi)) < target:
        hi *= 4.0
        if hi > 1e15:  # epsilon(K) -> inf, so this cannot trigger
            raise RuntimeError("threshold constant search failed to bracket")
    lo = hi / 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if oracle_epsilon_threshold(make_inputs(mid)) >= target:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


def oracle_probability_check(
        model: DataModel, kernel: Kernel, alpha: float, lam: float, n: int,
        x: float, trials: int, covering, calibration_split: float = 1.0 / 3.0,
        master_seed: int = 0,
        mc_points: int = 200_000) -> OracleCheckReport:
    """Calibrate K on one split, validate the coverage event on the rest.

    ``covering`` is a :class:`~kernelrisk.covering.CoveringEstimate` or an
    (scale, exponent) pair.  The approximation error is replaced by its
    certified upper bound lam ||f*||_H^2, which only enlarges the event.
    Every trial fits to a relative certified gap of 1e-7.
    """
    if trials < 50:
        raise ValueError("need at least 50 trials for a meaningful check")
    if not 0.0 < calibration_split < 1.0:
        raise ValueError("calibration_split must lie in (0, 1)")
    if isinstance(covering, CoveringEstimate):
        cov_scale, cov_exp = covering.scale, covering.exponent
    else:
        cov_scale, cov_exp = covering
    v, theta = variance_condition_parameters(alpha)
    approx = approx_error_bound(lam, model.f_star.rkhs_norm())

    n_cal = max(25, int(round(trials * calibration_split)))
    n_fresh = trials - n_cal
    if n_fresh < 25:
        raise ValueError("too few fresh trials after the calibration split")

    def make_inputs(constant: float) -> BoundInputs:
        return BoundInputs(
            covering_scale=max(cov_scale, 1.0), covering_exponent=cov_exp,
            growth_exponent=alpha, variance_power=v, variance_exponent=theta,
            variance_scale=1.0, threshold_constant=constant, lam=lam, n=n,
            confidence=x, approx_error=approx)

    make_inputs(1.0)  # rejects bad inputs before the first fit

    # calibration stream: indices 0 .. n_cal-1; fresh: n_cal .. trials-1
    excesses = np.array([
        _trial_excess(model, kernel, alpha, lam, n, i, master_seed, mc_points)
        for i in range(trials)
    ])
    cal, fresh = excesses[:n_cal], excesses[n_cal:]
    target_prob = 1.0 - math.exp(-x)
    target_eps = float(np.quantile(cal - approx, target_prob,
                                   method="higher"))

    constant = _smallest_constant(make_inputs, target_eps)
    eps = oracle_epsilon_threshold(make_inputs(constant))
    frequency = float(np.mean(fresh < approx + eps))
    se = math.sqrt(target_prob * (1.0 - target_prob) / n_fresh)
    passed = frequency >= target_prob - 2.0 * se
    return OracleCheckReport(
        alpha=alpha, lam=lam, n=n, confidence=x, n_calibration=n_cal,
        n_fresh=n_fresh, calibrated_constant=constant, epsilon=eps,
        approx_error=approx, frequency=frequency,
        target_probability=target_prob, binomial_se=se, passed=passed,
        calibration_excesses=tuple(cal), fresh_excesses=tuple(fresh),
    )


def _random_expansion(kernel: Kernel, rng: np.random.Generator,
                      n_centers: int, target_norm: float) -> KernelExpansion:
    box = kernel.domain
    for _ in range(100):
        centers = rng.uniform(box.lower, box.upper, size=(n_centers, box.dim))
        coefs = rng.standard_normal(n_centers)
        f = KernelExpansion(kernel, centers, coefs)
        norm = f.rkhs_norm()
        if norm > 1e-9:
            return KernelExpansion(kernel, centers,
                                   coefs * (target_norm / norm))
    raise RuntimeError("failed to draw a nondegenerate expansion")


@dataclass(frozen=True)
class VarianceCheckReport:
    alpha: float
    mc_points: int
    rows: tuple[tuple, ...]  # (idx, norm, constant, mean_g, mean_g2, margin)
    all_passed: bool

    ROW_HEADER = ("index", "rkhs_norm", "constant", "mean_increment",
                  "mean_squared_increment", "margin_sigmas", "passed")

    def to_rows(self) -> list[tuple]:
        return list(self.rows)

    def summary(self) -> str:
        worst = max(r[5] for r in self.rows)
        return (f"variance check alpha={self.alpha}: {len(self.rows)} "
                f"functions, worst margin {worst:.2f} sigma -> "
                f"{'pass' if self.all_passed else 'FAIL'}")


def variance_bound_check(model: DataModel, alpha: float,
                         n_functions: int = 20, mc_points: int = 100_000,
                         master_seed: int = 0) -> VarianceCheckReport:
    """E g_f^2 <= constant(alpha, ||f||) * E g_f within 3 Monte-Carlo sigma.

    g_f is the power-loss increment of a random bounded expansion f against
    the model truth, with six centers and an RKHS norm drawn from
    [0.25, 2]; the certified sup-norm bound of f feeds the constant, which
    only makes the inequality harder to violate from the right.
    """
    if not model.symmetric:
        raise ValueError("the variance bound needs symmetric conditionals")
    if n_functions < 1 or mc_points < 2:
        raise ValueError("need n_functions >= 1 and mc_points >= 2")
    rng = np.random.default_rng(trial_seed(master_seed, 977))
    box = model.domain
    rows = []
    all_passed = True
    for idx in range(n_functions):
        f = _random_expansion(model.kernel, rng, 6, rng.uniform(0.25, 2.0))
        constant = power_loss_variance_constant(alpha, f.sup_norm_bound())
        xs = rng.uniform(box.lower, box.upper, size=(mc_points, box.dim))
        truth = model.f_star(xs)
        ys = truth + model.noise.sample(rng, mc_points)
        g = np.abs(ys - f(xs)) ** alpha - np.abs(ys - truth) ** alpha
        d = g * g - constant * g
        d_mean = float(d.mean())
        d_se = float(d.std(ddof=1) / math.sqrt(mc_points))
        margin = d_mean / d_se if d_se > 0 else -math.inf
        passed = d_mean <= 3.0 * d_se
        all_passed &= passed
        rows.append((idx, f.rkhs_norm(), constant, float(g.mean()),
                     float((g * g).mean()), margin, passed))
    return VarianceCheckReport(alpha=alpha, mc_points=mc_points,
                               rows=tuple(rows), all_passed=all_passed)


@dataclass(frozen=True)
class CostGapCheckReport:
    trials: int
    tolerance: float
    rows: tuple[tuple, ...]
    all_passed: bool
    skipped_negative_excess: int

    ROW_HEADER = ("trial", "alpha", "lam", "approx_error", "excess",
                  "sup_increment", "sup_bound", "norm_f", "norm_bound",
                  "passed")

    def to_rows(self) -> list[tuple]:
        return list(self.rows)

    def summary(self) -> str:
        return (f"cost-gap bounds: {len(self.rows)} discrete triples, "
                f"{'pass' if self.all_passed else 'FAIL'} at tolerance "
                f"{self.tolerance}")


def discrete_cost_gap_check(kernel: Kernel, trials: int = 100,
                            master_seed: int = 0,
                            tolerance: float = 1e-6) -> CostGapCheckReport:
    """Exact check of the localization bounds at finite discrete laws.

    For random (distribution, lam, f) triples with f in the lam^(-1/2)
    ball and alpha drawn from {1.1, 1.25, 1.5, 1.75, 2}, the regularized
    optimum is computed by a weighted fit and the pointwise cost increment
    g = cost(f) - cost(optimum) is evaluated exactly on the support.  Both
    closed-form bounds must hold:

        max |g|   <= cost_gap_sup_bound(lam, a(lam), E g, alpha) + tol
        ||f||_H   <= cost_gap_norm_bound(lam, a(lam), E g) + tol

    whenever E g >= 0 (true up to solver tolerance, since the optimum
    minimizes the cost).
    """
    rng = np.random.default_rng(trial_seed(master_seed, 40_111))
    box = kernel.domain
    rows = []
    all_passed = True
    skipped = 0
    for t in range(trials):
        m = int(rng.integers(3, 12))
        xs = rng.uniform(box.lower, box.upper, size=(m, box.dim))
        ys = rng.uniform(-1.0, 1.0, m)
        weights = rng.dirichlet(np.ones(m))
        alpha = float(rng.choice((1.1, 1.25, 1.5, 1.75, 2.0)))
        lam = float(10.0 ** rng.uniform(-2, 0))
        spec = power_loss(alpha)
        train = TrainingSet(xs, ys)
        result = fit(kernel, spec, train,
                     SolverConfig(lam=lam, objective_tolerance=1e-12),
                     weights=weights)
        f_opt = result.f

        k = int(rng.integers(1, 6))
        cand = KernelExpansion(kernel,
                               rng.uniform(box.lower, box.upper, (k, box.dim)),
                               rng.standard_normal(k))
        scale = (rng.uniform(0.1, 1.0) * lam**-0.5
                 / max(cand.rkhs_norm(), 1e-12))
        f = KernelExpansion(kernel, cand.centers, cand.coefficients * scale)

        cost_f_points = (lam * f.rkhs_norm() ** 2
                         + loss_value(spec, ys, f(xs)))
        cost_opt_points = (lam * f_opt.rkhs_norm() ** 2
                           + loss_value(spec, ys, f_opt(xs)))
        g = cost_f_points - cost_opt_points
        cost_opt = float(weights @ cost_opt_points)
        excess = float(weights @ g)
        approx = cost_opt - empirical_min_risk(spec, train, weights)
        if excess < 0.0:
            if excess < -1e-8:
                skipped += 1
                continue
            excess = 0.0
        sup_g = float(np.max(np.abs(g)))
        sup_bound = cost_gap_sup_bound(lam, approx, excess, alpha)
        norm_bound = cost_gap_norm_bound(lam, approx, excess)
        passed = (sup_g <= sup_bound + tolerance
                  and f.rkhs_norm() <= norm_bound + tolerance)
        all_passed &= passed
        rows.append((t, alpha, lam, approx, excess, sup_g, sup_bound,
                     f.rkhs_norm(), norm_bound, passed))
    return CostGapCheckReport(trials=trials, tolerance=tolerance,
                              rows=tuple(rows), all_passed=all_passed,
                              skipped_negative_excess=skipped)


@dataclass(frozen=True)
class CalibrationCheckReport:
    alpha: float
    mc_points: int
    rows: tuple[tuple, ...]
    all_passed: bool
    agreement_all: bool | None  # two-sided match at alpha = 2

    ROW_HEADER = ("index", "rkhs_norm", "factor", "excess_l2", "excess_power",
                  "power_se", "slack_sigmas", "passed")

    def to_rows(self) -> list[tuple]:
        return list(self.rows)

    def summary(self) -> str:
        txt = (f"calibration check alpha={self.alpha}: {len(self.rows)} "
               f"functions -> {'pass' if self.all_passed else 'FAIL'}")
        if self.agreement_all is not None:
            txt += (f"; two-sided agreement "
                    f"{'pass' if self.agreement_all else 'FAIL'}")
        return txt


def calibration_check(model: DataModel, alpha: float, n_functions: int = 20,
                      mc_points: int = 100_000,
                      master_seed: int = 0) -> CalibrationCheckReport:
    """Excess squared risk <= factor * excess power risk, within 3 sigma.

    f is a random expansion with six centers and an RKHS norm drawn from
    [0.25, 2].  The left side is exact (quadrature); the right side is Monte
    Carlo with its standard error.  At alpha = 2 the factor is 1 and the two
    risks are the same quantity, so the check also asserts two-sided
    agreement.
    """
    if not model.symmetric:
        raise ValueError("the calibration inequality needs symmetric "
                         "conditionals")
    if n_functions < 1 or mc_points < 2:
        raise ValueError("need n_functions >= 1 and mc_points >= 2")
    rng = np.random.default_rng(trial_seed(master_seed, 1753))
    rows = []
    all_passed = True
    agreement = True if alpha == 2.0 else None
    for idx in range(n_functions):
        f = _random_expansion(model.kernel, rng, 6, rng.uniform(0.25, 2.0))
        factor = calibration_inequality_factor(alpha, f.sup_norm_bound()).factor
        exc2 = excess_l2_risk(model, f)
        exc_a, se_a = excess_power_risk(model, f, alpha, mc_points,
                                        rng.integers(2**63))
        slack = factor * (exc_a + 3.0 * se_a) - exc2
        sigmas = ((exc2 - factor * exc_a) / (factor * se_a)
                  if se_a > 0 else -math.inf)
        passed = slack >= 0.0
        all_passed &= passed
        if alpha == 2.0:
            agreement &= abs(exc2 - exc_a) <= 3.0 * se_a
        rows.append((idx, f.rkhs_norm(), factor, exc2, exc_a, se_a, sigmas,
                     passed))
    return CalibrationCheckReport(alpha=alpha, mc_points=mc_points,
                                  rows=tuple(rows), all_passed=all_passed,
                                  agreement_all=agreement)
