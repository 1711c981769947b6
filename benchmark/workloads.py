"""The three workloads, the wrappers they are measured through, and their
checks.

A workload is run in whole rounds.  Every round performs the same list of
operations; one operation is one trial (draw data, fit, measure the excess
risk).  Round ``r`` of a run with ``--seed s`` draws its data from master
seed ``10000 * s + r``.  Results are captured during the timed phase and
checked after it by :mod:`checks`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import kernelrisk.covering as covering
import kernelrisk.data as data
import kernelrisk.experiments as experiments
import kernelrisk.kernels as kernels
import kernelrisk.solver as solver
import kernelrisk.validate as validate
from kernelrisk.data import DataModel, UniformNoise
from kernelrisk.kernels import Box, Kernel, KernelExpansion
from kernelrisk.losses import power_loss

import checks
from tracing import Tracer, arg


@dataclass
class Capture:
    """What the wrapped calls return, in call order; one fit per trial."""

    fits: list = field(default_factory=list)      # (kernel, alpha, train, cfg, result)
    records: list = field(default_factory=list)   # experiments.TrialRecord
    mc: list = field(default_factory=list)        # (value, stderr) from validate

    def clear(self) -> None:
        for part in (self.fits, self.records, self.mc):
            part.clear()


def instrument(tracer: Tracer, cap: Capture) -> None:
    """Wrap each layer's public names where the library looks them up."""

    def count_gram(c, args, kwargs, out):
        c["gram_entries"] += out.shape[0] * out.shape[1]

    def count_fit(c, args, kwargs, res):
        cfg = arg(args, kwargs, 3, "cfg")
        c["fits"] += 1
        c["iterations"] += res.iterations
        if res.converged and res.certified_gap > \
                cfg.objective_tolerance * abs(res.objective):
            c["stall_stops"] += 1

    def capture_fit(args, kwargs, res):
        spec = arg(args, kwargs, 1, "spec")
        cap.fits.append((arg(args, kwargs, 0, "kernel"), spec.alpha,
                         arg(args, kwargs, 2, "train"),
                         arg(args, kwargs, 3, "cfg"), res))

    def count_factor(c, args, kwargs, out):
        n = arg(args, kwargs, 0, "a").shape[0]
        c["factorizations"] += 1
        c["factor_gflop"] += n ** 3 / 3.0 / 1e9

    def count_eval(c, args, kwargs, out):
        c["eval_kernel_terms"] += len(out) * len(args[0])

    def count_nodes(c, args, kwargs, out):
        c["quadrature_nodes"] += len(out[0])

    def count_mc(c, args, kwargs, out):
        c["mc_points"] += int(arg(args, kwargs, 3, "mc_points"))

    def count_threshold(c, args, kwargs, out):
        c["threshold_evals"] += 1

    w = tracer.wrap
    w(experiments, "run_trial", "experiments.run_trial", trial=True,
      capture=lambda a, k, out: cap.records.append(out))
    w(validate, "_trial_excess", "validate.trial", trial=True)
    for mod in (experiments, validate):
        w(mod, "generate", "data.generate")
        w(mod, "fit", "solver.fit", count=count_fit, capture=capture_fit)
        w(mod, "excess_l2_risk", "data.quadrature")
    w(experiments, "excess_power_risk", "data.mc", count=count_mc)
    w(validate, "excess_power_risk", "data.mc", count=count_mc,
      capture=lambda a, k, out: cap.mc.append(out))
    w(data, "_quadrature_nodes", "data.quadrature_rule", count=count_nodes)
    w(solver, "kernel_matrix", "kernels.gram", count=count_gram)
    w(covering, "kernel_matrix", "kernels.gram", count=count_gram)
    w(solver, "cho_factor", "solver.factor", count=count_factor)
    w(kernels.KernelExpansion, "__call__", "kernels.eval", count=count_eval)
    w(validate, "oracle_epsilon_threshold", "validate.threshold",
      count=count_threshold)
    w(covering, "fit_covering_exponent", "covering.fit")
    w(covering, "ellipsoid_semi_axes", "covering.eigvalsh")


# The acceptance model: Matern order 1 (the exponential kernel) on [0, 1],
# five alternating bumps scaled to ||f*||_H = 0.5, uniform noise of
# half-width 0.5.
ACCEPT_KERNEL = Kernel("matern", Box((0.0,), (1.0,)), sobolev_order=1.0,
                       length_scale=0.25)


def acceptance_model() -> DataModel:
    centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
    coefs = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
    raw = KernelExpansion(ACCEPT_KERNEL, centers, coefs)
    return DataModel(KernelExpansion(ACCEPT_KERNEL, centers,
                                     coefs * (0.5 / raw.rkhs_norm())),
                     UniformNoise(0.5))


def acceptance_covering():
    """Covering law of the acceptance kernel on a 400-point grid."""
    return covering.fit_covering_exponent(ACCEPT_KERNEL,
                                          np.linspace(0.0, 1.0, 400))


def warm_up(model: DataModel, alpha: float, n: int, lam: float) -> None:
    """One untimed fit, so lazy imports and first-call costs land in set-up."""
    train = data.generate(model, n, np.random.default_rng(0))
    solver.fit(model.kernel, power_loss(alpha), train,
               solver.SolverConfig(lam=lam, method="proximal_first_order"))


class Workload:
    """Set-up, whole rounds and after-the-fact checks of one workload."""

    name = ""

    def __init__(self, tracer: Tracer, cap: Capture, tiny: bool):
        self.tracer = tracer
        self.cap = cap
        self.tiny = tiny
        self.rounds: list[dict] = []

    def run_round(self, master_seed: int) -> int:
        """Run one round; return the number of trials it performed."""
        lo = len(self.cap.fits)
        info = self._round(master_seed)
        info["ops"] = (lo, len(self.cap.fits))
        self.rounds.append(info)
        return len(self.cap.fits) - lo

    def check(self) -> tuple[int, dict[int, list[str]]]:
        """(operations attempted, problems per failed operation index)."""
        problems: dict[int, list[str]] = {}
        for i, (kern, alpha, train, cfg, res) in enumerate(self.cap.fits):
            for p in checks.fit_problems(kern, alpha, train, cfg, res,
                                         self.f_star):
                problems.setdefault(i, []).append(p)
        self._check_rounds(problems)
        return len(self.cap.fits), problems

    def known_fault(self, op: int, problem: str) -> bool:
        """Whether ``problem`` is the counted program fault of this workload."""
        return False


class Rates1d(Workload):
    """``experiments.rate_experiment`` on the acceptance model.

    Dense Gram builds and Cholesky factorizations dominate; one round runs
    alpha = 2 and alpha = 1.5 along the doubling grid.
    """

    name = "rates-1d"
    alphas = (2.0, 1.5)

    def setup(self):
        self.model = acceptance_model()
        self.f_star = self.model.f_star
        est = acceptance_covering()
        self.p_hat = est.exponent
        self.kappa = 2.0 / (2.0 + self.p_hat)
        self.n_grid = (50, 100) if self.tiny else (100, 200, 400, 800, 1600)
        self.trials_per_n = 2
        warm_up(self.model, 1.5, 200, 200.0 ** -self.kappa)

    def _round(self, master_seed):
        reports = []
        for alpha in self.alphas:
            with self.tracer.block("experiments.rate_experiment"):
                reports.append(experiments.rate_experiment(
                    self.model, ACCEPT_KERNEL, alpha, self.kappa, self.n_grid,
                    self.trials_per_n, master_seed,
                    covering_exponent=self.p_hat, solver_tolerance=1e-6))
        return {"reports": reports}

    def _check_rounds(self, problems):
        ns = np.asarray(self.n_grid, dtype=float)
        per_alpha = len(self.n_grid) * self.trials_per_n
        pooled = {a: [[] for _ in ns] for a in self.alphas}
        ops_of = {a: [] for a in self.alphas}
        for rnd in self.rounds:
            lo = rnd["ops"][0]
            for j, (alpha, rep) in enumerate(zip(self.alphas, rnd["reports"])):
                ops = range(lo + j * per_alpha, lo + (j + 1) * per_alpha)
                ops_of[alpha].extend(ops)
                vals = np.array([self.cap.records[i].excess_l2 for i in ops]
                                ).reshape(len(ns), self.trials_per_n)
                means = vals.mean(axis=1)
                for k in range(len(ns)):
                    pooled[alpha][k].extend(vals[k])
                bad = []
                if not np.allclose(rep.means, means, rtol=1e-12, atol=0.0):
                    bad.append("per-n means differ from the trial records")
                slope = checks.loglog_slope(ns, means)
                if not abs(rep.slope - slope) <= 1e-9:
                    bad.append(f"slope {rep.slope!r} != polyfit {slope!r}")
                for i in ops if bad else ():
                    problems.setdefault(i, []).extend(bad)
        # On the optimal schedule kappa = 2/(2+p) the predicted exponent of
        # the excess squared risk is rho = kappa for every alpha.  The slope
        # is refit from the per-n means pooled over every round of the run.
        rho = self.kappa
        for alpha in self.alphas:
            means = [np.mean(v) for v in pooled[alpha]]
            slope = checks.loglog_slope(ns, means)
            if not -1.5 * rho <= slope <= -0.5 * rho:
                msg = (f"alpha={alpha}: pooled slope {slope:.4f} outside "
                       f"[{-1.5 * rho:.4f}, {-0.5 * rho:.4f}]")
                for i in ops_of[alpha]:
                    problems.setdefault(i, []).append(msg)


class Oracle1d(Workload):
    """``validate.oracle_probability_check`` with the acceptance settings
    for alpha = 1.5 and x = 1: n = 200, lam = 0.05, 200 000 Monte-Carlo
    points per trial, 50 trials per round (25 calibration, 25 fresh).

    Monte-Carlo excess power risk dominates; fits take under a tenth.
    """

    name = "oracle-1d"
    alpha, lam, x, trials = 1.5, 0.05, 1.0, 50

    def setup(self):
        self.model = acceptance_model()
        self.f_star = self.model.f_star
        self.covering = acceptance_covering()
        self.n = 50 if self.tiny else 200
        self.mc_points = 2_000 if self.tiny else 200_000
        warm_up(self.model, self.alpha, self.n, self.lam)

    def _round(self, master_seed):
        with self.tracer.block("validate.oracle_probability_check"):
            rep = validate.oracle_probability_check(
                self.model, ACCEPT_KERNEL, alpha=self.alpha, lam=self.lam,
                n=self.n, x=self.x, trials=self.trials,
                covering=self.covering, master_seed=master_seed,
                mc_points=self.mc_points)
        return {"report": rep, "seed": master_seed}

    def _check_rounds(self, problems):
        a = self.f_star.coefficients
        approx = self.lam * float(a @ checks.gram(
            ACCEPT_KERNEL, self.f_star.centers, self.f_star.centers) @ a)
        for rnd in self.rounds:
            rep, (lo, hi) = rnd["report"], rnd["ops"]
            bad = []
            excess = np.array(rep.calibration_excesses + rep.fresh_excesses)
            captured = np.array([v for v, _ in self.cap.mc[lo:hi]])
            if not np.array_equal(excess, captured):
                bad.append("reported excesses differ from the trials' values")
            if not abs(rep.approx_error - approx) <= checks.RTOL * approx:
                bad.append(f"approx error {rep.approx_error!r} != {approx!r}")
            fresh = np.array(rep.fresh_excesses)
            freq = float(np.mean(fresh < rep.approx_error + rep.epsilon))
            if freq != rep.frequency:
                bad.append(f"frequency {rep.frequency!r} != recomputed {freq!r}")
            target = float(np.quantile(
                np.array(rep.calibration_excesses) - approx,
                1.0 - math.exp(-self.x), method="higher"))
            if not rep.epsilon >= target * (1.0 - checks.RTOL):
                bad.append(f"epsilon {rep.epsilon!r} below the calibration "
                           f"quantile {target!r}")
            for i in range(lo, hi) if bad else ():
                problems.setdefault(i, []).extend(bad)
            # the first calibration trial and the first fresh trial
            rng = np.random.default_rng((rnd["seed"], 0x6d63))
            for i in (lo, lo + rep.n_calibration):
                value, se = self.cap.mc[i]
                own, own_se = checks.excess_power_mc(
                    ACCEPT_KERNEL, self.cap.fits[i][4].f, self.f_star,
                    self.model.noise.half_width, self.alpha, self.mc_points,
                    rng)
                if not abs(value - own) <= checks.MC_SIGMAS * math.hypot(
                        se, own_se):
                    problems.setdefault(i, []).append(
                        f"excess power risk {value:.5g} +- {se:.2g} vs own "
                        f"estimate {own:.5g} +- {own_se:.2g}")


class Robust2d(Workload):
    """``experiments.robustness_study`` with the Gaussian kernel on [0, 1]^2.

    Per round: eta in {0, 0.2} x alpha in {1.5, 2} with two trials per cell
    on seeded data, and eta in {0, 0.2} x alpha = 1.1 with two trials per
    cell on data from the fixed master seed FAULT_SEED.  The alpha = 1.1
    fits stop on the solver's stall rule with certified gaps far above the
    tolerance; keeping them on inputs that do not depend on the seed makes
    the failed share of every run exactly 4 of 12 until that is fixed.
    """

    name = "robust-2d"
    etas = (0.0, 0.2)
    seeded_alphas = (1.5, 2.0)
    fault_alphas = (1.1,)
    FAULT_SEED = 7
    trials = 2

    def setup(self):
        box = Box((0.0, 0.0), (1.0, 1.0))
        self.kernel = Kernel("gaussian", box, width=0.3)
        # the CLI's truth: five alternating bumps on an interior grid
        axis = np.linspace(0.1, 0.9, 5)
        centers = np.stack(np.meshgrid(axis, axis, indexing="ij"),
                           axis=-1).reshape(-1, 2)[:5]
        pattern = np.array([(0.9 - 0.1 * (i % 3)) * (-1.0) ** i
                            for i in range(5)])
        raw = KernelExpansion(self.kernel, centers, pattern)
        self.f_star = KernelExpansion(self.kernel, centers,
                                      pattern * (0.4 / raw.rkhs_norm()))
        self.noise = UniformNoise(0.3)
        self.magnitude = 1.0 - self.f_star.rkhs_norm()
        self.n = 100 if self.tiny else 800
        self.lam = self.n ** (-2.0 / 3.0)
        self.eval_budget = 1024 if self.tiny else 16384
        warm_up(DataModel(self.f_star, self.noise), 1.5, 200, self.lam)

    def _study(self, alphas, master_seed):
        with self.tracer.block("experiments.robustness_study"):
            return experiments.robustness_study(
                self.f_star, self.noise, self.etas, alphas, self.n, self.lam,
                self.trials, master_seed, self.magnitude,
                eval_budget=self.eval_budget)

    def _round(self, master_seed):
        return {"reports": [self._study(self.seeded_alphas, master_seed),
                            self._study(self.fault_alphas, self.FAULT_SEED)],
                "grids": [self.seeded_alphas, self.fault_alphas]}

    def known_fault(self, op, problem):
        lo = self.rounds[0]["ops"][0]
        per_round = len(self.etas) * self.trials * (
            len(self.seeded_alphas) + len(self.fault_alphas))
        seeded = len(self.etas) * self.trials * len(self.seeded_alphas)
        return (op - lo) % per_round >= seeded \
            and checks.is_certificate_fault(problem)

    def _check_rounds(self, problems):
        for rnd in self.rounds:
            i = rnd["ops"][0]
            for rep, alphas in zip(rnd["reports"], rnd["grids"]):
                for eta in self.etas:
                    for alpha in alphas:
                        ops = range(i, i + self.trials)
                        i += self.trials
                        vals = [self.cap.records[j].excess_l2 for j in ops]
                        mean = rep.cell(eta, alpha)[2]
                        if not abs(mean - np.mean(vals)) <= 1e-12 * mean:
                            for j in ops:
                                problems.setdefault(j, []).append(
                                    f"cell ({eta}, {alpha}) mean differs "
                                    f"from its trials")
                        for j in ops:
                            own = checks.excess_l2_tensor(
                                self.kernel, self.cap.fits[j][4].f,
                                self.f_star)
                            got = self.cap.records[j].excess_l2
                            if not abs(got - own) <= 1e-6 * own:
                                problems.setdefault(j, []).append(
                                    f"excess_l2 {got!r} vs tensor rule "
                                    f"{own!r}")


WORKLOADS = {w.name: w for w in (Rates1d, Oracle1d, Robust2d)}
