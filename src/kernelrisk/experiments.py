"""Trial execution, learning-rate experiments, and robustness studies.

A trial draws a training set from a :class:`~kernelrisk.data.DataModel`,
fits the regularized minimizer, and measures excess risks against the known
truth.  Rate experiments sweep the sample size under the schedule
lam = n^(-kappa), average excess squared risk over independent trials, and
compare the fitted log-log slope with the predicted rate exponent.  The
robustness study sweeps outlier contamination against the training loss
exponent; it is exploratory and reports means with standard errors rather
than pass/fail verdicts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import l2_rate_exponent
from .data import DataModel, ContaminatedNoise, excess_l2_risk, \
    excess_power_risk, generate, trial_seed
from .kernels import Kernel, KernelExpansion
from .losses import FiniteDistribution, LossSpec, loss_value, \
    minimal_inner_risk, power_loss
from .solver import SolverConfig, TrainingSet, fit

__all__ = [
    "TrialRecord",
    "RateReport",
    "RobustnessReport",
    "run_trial",
    "empirical_min_risk",
    "loglog_slope",
    "rate_experiment",
    "robustness_study",
]


@dataclass(frozen=True)
class TrialRecord:
    """One training run with its excess risks and solver diagnostics."""

    seed_index: int
    n: int
    lam: float
    alpha: float
    excess_l2: float
    excess_power: float | None
    excess_power_se: float | None
    rkhs_norm: float
    objective: float
    iterations: int
    converged: bool
    certified_gap: float
    norm_budget: float

    ROW_HEADER = ("seed_index", "n", "lam", "alpha", "excess_l2",
                  "excess_power", "excess_power_se", "rkhs_norm", "objective",
                  "iterations", "converged", "certified_gap", "norm_budget")

    def to_row(self) -> tuple:
        return (self.seed_index, self.n, self.lam, self.alpha, self.excess_l2,
                self.excess_power, self.excess_power_se, self.rkhs_norm,
                self.objective, self.iterations, self.converged,
                self.certified_gap, self.norm_budget)


def empirical_min_risk(spec: LossSpec, train: TrainingSet,
                       weights: np.ndarray | None = None) -> float:
    """Minimal risk over all functions: per-input conditional minima.

    ``weights`` are the samples' probability masses, normalized like
    :func:`~kernelrisk.solver.fit` does (default: the empirical measure).
    Zero whenever the inputs are distinct; with repeated inputs each group
    contributes its minimal inner risk times the group's mass.
    """
    _, inverse, counts = np.unique(train.xs, axis=0, return_inverse=True,
                                   return_counts=True)
    w = np.ones(train.n) if weights is None \
        else np.asarray(weights, dtype=float).reshape(-1)
    total = 0.0
    for g in np.flatnonzero(counts > 1):
        mask = inverse == g
        _, val = minimal_inner_risk(spec, FiniteDistribution(train.ys[mask],
                                                             w[mask]))
        total += float(val * w[mask].sum() / w.sum())
    return total


def run_trial(model: DataModel, kernel: Kernel, alpha: float, lam: float,
              n: int, seed_index: int, master_seed: int,
              solver_tolerance: float = 1e-7, mc_points: int = 0,
              eval_budget: int = 16384) -> TrialRecord:
    """Draw data, fit, and measure; bit-reproducible given the seed pair.
    The excess power risk takes ``mc_points`` Monte-Carlo points (None at 0)."""
    ss = trial_seed(master_seed, seed_index)
    data_seed, mc_seed = ss.spawn(2)
    train = generate(model, n, data_seed)
    spec = power_loss(alpha)
    result = fit(kernel, spec, train,
                 SolverConfig(lam=lam, objective_tolerance=solver_tolerance))

    exc2 = excess_l2_risk(model, result.f, eval_budget=eval_budget)
    exc_a = se_a = None
    if mc_points > 0:
        exc_a, se_a = excess_power_risk(model, result.f, alpha, mc_points,
                                        mc_seed)

    # norm budget from the regularized cost of f* at the empirical measure
    risk_fstar = float(np.mean(loss_value(spec, train.ys,
                                          model.f_star(train.xs))))
    budget_sq = (lam * model.f_star.rkhs_norm() ** 2
                 + risk_fstar - empirical_min_risk(spec, train)) / lam
    return TrialRecord(
        seed_index=seed_index, n=n, lam=lam, alpha=alpha, excess_l2=exc2,
        excess_power=exc_a, excess_power_se=se_a,
        rkhs_norm=result.rkhs_norm, objective=result.objective,
        iterations=result.iterations, converged=result.converged,
        certified_gap=result.certified_gap,
        norm_budget=math.sqrt(max(budget_sq, 0.0)),
    )


def loglog_slope(ns, means, stderrs) -> tuple[float, float]:
    """Least-squares slope of log(mean) against log(n), with its stderr.

    The slope's standard error propagates the per-point standard errors of
    the means through the regression weights.
    """
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(means, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    if len(np.unique(ns)) < 2:
        raise ValueError("need two distinct sample sizes to fit a slope")
    if np.any(means <= 0):
        raise ValueError("all mean excess risks must be positive")
    x = np.log(ns)
    y = np.log(means)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ y) / sxx
    # d log(mean) = stderr / mean
    slope_se = math.sqrt(float(np.sum((xc / sxx) ** 2 * (stderrs / means) ** 2)))
    return slope, slope_se


@dataclass(frozen=True)
class RateReport:
    """Per-n mean excess risks with the fitted slope and the prediction."""

    alpha: float
    kappa: float
    covering_exponent: float
    n_grid: tuple[int, ...]
    trials_per_n: int
    means: tuple[float, ...]
    stderrs: tuple[float, ...]
    slope: float
    slope_se: float
    predicted_rho: float
    verdict: str
    records: tuple[TrialRecord, ...] = field(repr=False)

    ROW_HEADER = ("n", "mean_excess_l2", "stderr")

    def to_rows(self) -> list[tuple]:
        return list(zip(self.n_grid, self.means, self.stderrs))

    @property
    def slope_bracket(self) -> tuple[float, float] | None:
        if self.predicted_rho <= 0 or math.isinf(self.predicted_rho):
            return None
        return (-1.5 * self.predicted_rho, -0.5 * self.predicted_rho)

    def summary(self) -> str:
        lines = [
            f"rate experiment: alpha={self.alpha} kappa={self.kappa:.4f} "
            f"p={self.covering_exponent:.4f} trials/n={self.trials_per_n}",
            f"fitted slope {self.slope:.4f} +- {self.slope_se:.4f}; "
            f"predicted rho {self.predicted_rho:.4f} "
            f"(slope target {-self.predicted_rho:.4f})",
            f"verdict: {self.verdict}",
        ]
        return "\n".join(lines)


def rate_experiment(model: DataModel, kernel: Kernel, alpha: float,
                    kappa: float, n_grid, trials_per_n: int, master_seed: int,
                    covering_exponent: float, log_factor: bool = False,
                    solver_tolerance: float = 1e-7,
                    mc_points: int = 0) -> RateReport:
    """Train along lam = n^(-kappa) (optionally * log n) and fit the slope.

    The verdict compares the fitted log-log slope against the bracket
    [-1.5 rho, -0.5 rho] around the predicted exponent; when the theory
    predicts no rate (rho <= 0) the verdict is "no-finite-rate".
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2:
        raise ValueError("n_grid must contain at least two sample sizes")
    if min(n_grid) < 1 or len(set(n_grid)) < len(n_grid):
        raise ValueError(f"n_grid needs distinct sizes >= 1, got {n_grid}")
    if trials_per_n < 2:
        raise ValueError("need at least two trials per sample size")
    rho = l2_rate_exponent(kappa, covering_exponent, alpha)
    lams = []
    for n in n_grid:
        lam = float(n) ** (-kappa)
        if log_factor:
            lam *= math.log(n)
        if not lam > 0:
            raise ValueError(f"the schedule gives lam = {lam} <= 0 at n = {n}")
        lams.append(min(lam, 1.0))

    records: list[TrialRecord] = []
    means, ses = [], []
    for level, (n, lam) in enumerate(zip(n_grid, lams)):
        vals = []
        for t in range(trials_per_n):
            rec = run_trial(model, kernel, alpha, lam, n,
                            seed_index=level * trials_per_n + t,
                            master_seed=master_seed,
                            solver_tolerance=solver_tolerance,
                            mc_points=mc_points)
            records.append(rec)
            vals.append(rec.excess_l2)
        vals = np.asarray(vals)
        means.append(float(vals.mean()))
        ses.append(float(vals.std(ddof=1) / math.sqrt(trials_per_n)))

    slope, slope_se = loglog_slope(n_grid, means, ses)
    if rho <= 0 or math.isinf(rho):
        verdict = "no-finite-rate"
    else:
        lo, hi = -1.5 * rho, -0.5 * rho
        verdict = "pass" if lo <= slope <= hi else "fail"
    return RateReport(
        alpha=alpha, kappa=kappa, covering_exponent=covering_exponent,
        n_grid=n_grid, trials_per_n=trials_per_n, means=tuple(means),
        stderrs=tuple(ses), slope=slope, slope_se=slope_se, predicted_rho=rho,
        verdict=verdict, records=tuple(records),
    )


@dataclass(frozen=True)
class RobustnessReport:
    """Mean excess squared risk per (contamination, alpha) cell."""

    eta_grid: tuple[float, ...]
    alpha_grid: tuple[float, ...]
    n: int
    lam: float
    trials: int
    rows: tuple[tuple, ...]  # (eta, alpha, mean, stderr, trials)
    robust_alpha: float | None
    robust_beats_l2_at_max_eta: bool | None
    asymmetric: bool

    ROW_HEADER = ("eta", "alpha", "mean_excess_l2", "stderr", "trials")

    def to_rows(self) -> list[tuple]:
        return list(self.rows)

    def cell(self, eta: float, alpha: float) -> tuple:
        for row in self.rows:
            if row[0] == eta and row[1] == alpha:
                return row
        raise KeyError((eta, alpha))

    def summary(self) -> str:
        lines = [f"robustness study: n={self.n} lam={self.lam:.5f} "
                 f"trials/cell={self.trials} asymmetric={self.asymmetric}"]
        if self.robust_beats_l2_at_max_eta is not None:
            verb = "beats" if self.robust_beats_l2_at_max_eta else "does not beat"
            lines.append(
                f"alpha={self.robust_alpha} {verb} alpha=2 at eta="
                f"{max(self.eta_grid)} (mean excess comparison)")
        return "\n".join(lines)


def robustness_study(f_star: KernelExpansion, base_noise, eta_grid,
                     alpha_grid, n: int, lam: float, trials: int,
                     master_seed: int, outlier_magnitude: float,
                     asymmetric: bool = False,
                     solver_tolerance: float = 1e-7,
                     eval_budget: int = 16384) -> RobustnessReport:
    """Sweep contamination fraction against training-loss exponent.

    Every (eta, alpha) cell reuses the same per-trial seed stream, so cells
    differ only through the contamination level and the loss.  The report
    flags whether the most robust alpha in the grid (the smallest one at or
    below 1.2) beats alpha = 2 at the largest contamination.
    """
    eta_grid = tuple(float(e) for e in eta_grid)
    alpha_grid = tuple(float(a) for a in alpha_grid)
    if not eta_grid or not alpha_grid:
        raise ValueError("eta_grid and alpha_grid must be nonempty")
    if trials < 2:
        raise ValueError("need at least two trials per cell")

    kernel = f_star.kernel
    rows = []
    cell_means: dict[tuple[float, float], float] = {}
    for i_eta, eta in enumerate(eta_grid):
        noise = ContaminatedNoise(base_noise, eta, outlier_magnitude,
                                  asymmetric=asymmetric)
        model = DataModel(f_star, noise)
        for alpha in alpha_grid:
            vals = []
            for t in range(trials):
                rec = run_trial(model, kernel, alpha, lam, n,
                                seed_index=i_eta * trials + t,
                                master_seed=master_seed,
                                solver_tolerance=solver_tolerance,
                                eval_budget=eval_budget)
                vals.append(rec.excess_l2)
            vals = np.asarray(vals)
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(trials))
            rows.append((eta, alpha, mean, se, trials))
            cell_means[(eta, alpha)] = mean

    robust_alpha = min((a for a in alpha_grid if a <= 1.2), default=None)
    beats = None
    if robust_alpha is not None and 2.0 in alpha_grid:
        eta_max = max(eta_grid)
        beats = cell_means[(eta_max, robust_alpha)] < cell_means[(eta_max, 2.0)]
    return RobustnessReport(
        eta_grid=eta_grid, alpha_grid=alpha_grid, n=n, lam=lam, trials=trials,
        rows=tuple(rows), robust_alpha=robust_alpha,
        robust_beats_l2_at_max_eta=beats, asymmetric=asymmetric,
    )
