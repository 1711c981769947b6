"""Empirical regularized risk minimization over a kernel's Hilbert space.

Computes f minimizing lam ||f||_H^2 + sum_i w_i L(y_i, f(x_i)) over the span
of the training inputs.  The restriction to that span is exact: the
orthogonal complement cannot lower the data term and only inflates the
regularizer.  The squared loss is solved in closed form through its normal
equations; other power exponents go through a line-searched reweighting
stage and an accelerated descent stage in function space, with a certified
duality gap from the 2*lam strong convexity of the objective:

    J(f) - J* <= ||grad J||_H^2 / (4 lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, LinAlgError

from .kernels import Kernel, KernelExpansion, as_points, kernel_matrix
from .losses import LossSpec, loss_subgradient, loss_value

__all__ = [
    "TrainingSet",
    "SolverConfig",
    "FitResult",
    "SolverError",
    "fit",
    "objective",
    "fit_result_record",
]

# Continuation schedule for the alpha = 1 smoothing parameter.  The final
# level keeps the smoothing bias (mu / 2) far below the 1e-8 scale at which
# solutions are compared against analytic minimizers.
_MU_SCHEDULE = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)

# Residual-magnitude floor inside reweighting for alpha in (1, 2); keeps the
# per-point curvature proxy |u|^(alpha-2) finite.
_IRLS_FLOOR = 1e-9


class SolverError(RuntimeError):
    """Linear-algebra failure (non-positive-definite system) during a fit."""


@dataclass(frozen=True)
class TrainingSet:
    """Inputs xs in the domain box and responses ys in [-1, 1]."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float).copy()
        if xs.ndim == 0:
            xs = xs.reshape(1, 1)
        elif xs.ndim == 1:
            xs = xs.reshape(-1, 1)
        if xs.ndim != 2:
            raise ValueError(f"xs must be (n, d), got shape {xs.shape}")
        ys = np.asarray(self.ys, dtype=float).reshape(-1).copy()
        if len(xs) != len(ys) or len(ys) == 0:
            raise ValueError("xs and ys must be nonempty with equal length")
        if np.max(np.abs(ys)) > 1.0 + 1e-12:
            raise ValueError("responses must lie in [-1, 1]; got "
                             f"max |y| = {np.max(np.abs(ys))}")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return len(self.ys)


@dataclass(frozen=True)
class SolverConfig:
    lam: float
    method: str = "closed_form_quadratic"
    max_iters: int = 5000
    objective_tolerance: float = 1e-9  # relative certified-gap target
    smoothing_mu: float | None = None  # explicit alpha=1 smoothing level

    def __post_init__(self):
        if not 0.0 < self.lam <= 1.0:
            raise ValueError("lam must lie in (0, 1]")
        if self.method not in ("closed_form_quadratic", "proximal_first_order"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.smoothing_mu is not None and self.smoothing_mu < 0:
            raise ValueError("smoothing_mu must be nonnegative")


@dataclass(frozen=True)
class FitResult:
    f: KernelExpansion
    objective: float
    iterations: int
    converged: bool
    certified_gap: float
    smoothing_used: float = 0.0
    method: str = ""


class _Objective:
    """J(c) = lam c'Kc + sum_i w_i L(y_i, (Kc)_i) over expansion coefficients.

    With mu > 0 (alpha = 1 only) the data term is the Huber smoothing of
    |y - t| at level mu.  The certified gap of c is g'Kg / (4 lam), where g
    is the coefficient gradient.
    """

    def __init__(self, K, y, w, lam, spec: LossSpec, mu: float = 0.0):
        self.K, self.y, self.w, self.lam = K, y, w, lam
        self.spec, self.mu = spec, mu

    def __call__(self, c, Kc=None):
        """(J(c), Kc); pass Kc when it is already known."""
        if Kc is None:
            Kc = self.K @ c
        if self.mu:
            u = np.abs(self.y - Kc)
            data = np.where(u <= self.mu, u * u / (2.0 * self.mu),
                            u - 0.5 * self.mu)
        else:
            data = loss_value(self.spec, self.y, Kc)
        return float(self.lam * c @ Kc + self.w @ data), Kc

    def grad(self, c, Kc):
        if self.mu:
            deriv = np.clip((Kc - self.y) / self.mu, -1.0, 1.0)
        else:
            deriv = loss_subgradient(self.spec, self.y, Kc)
        return 2.0 * self.lam * c + self.w * deriv

    def gap(self, c, Kc):
        g = self.grad(c, Kc)
        return float(g @ (self.K @ g)) / (4.0 * self.lam)


def _spd_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve M c = rhs for SPD M; destroys M (callers build it fresh)."""
    try:
        return cho_solve(
            cho_factor(M, lower=True, check_finite=False, overwrite_a=True),
            rhs, check_finite=False)
    except LinAlgError as exc:
        raise SolverError(f"kernel system not positive definite: {exc}") from exc


def _ridge_system(K: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """K + diag(diag) without materializing a dense diagonal matrix."""
    M = K.copy()
    M.flat[:: K.shape[0] + 1] += diag
    return M


def fit(kernel: Kernel, spec: LossSpec, train: TrainingSet, cfg: SolverConfig,
        weights: np.ndarray | None = None) -> FitResult:
    """Minimize lam ||f||_H^2 + sum_i w_i L(y_i, f(x_i)) over H.

    ``weights`` default to the empirical measure 1/n; passing explicit
    weights fits the regularized risk of a finite discrete distribution.
    Only power losses are trainable here.
    """
    if spec.kind != "power":
        raise ValueError("only power losses are trainable")
    K = kernel_matrix(kernel, train.xs)
    y = train.ys
    n = train.n
    lam = cfg.lam
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float).reshape(-1)
        if len(w) != n or np.any(w <= 0):
            raise ValueError("weights must be positive, one per sample")
        w = w / w.sum()

    if spec.alpha == 2.0 and cfg.method == "closed_form_quadratic":
        c = _spd_solve(_ridge_system(K, lam / w), y)
        J = _Objective(K, y, w, lam, spec)
        obj, Kc = J(c)
        return FitResult(KernelExpansion(kernel, train.xs, c), obj,
                         iterations=1, converged=True,
                         certified_gap=J.gap(c, Kc), method=cfg.method)

    return _fit_first_order(kernel, spec, K, y, w, cfg, train)


def _fit_first_order(kernel, spec, K, y, w, cfg, train) -> FitResult:
    lam = cfg.lam
    n = len(y)
    alpha = spec.alpha
    if alpha == 1.0:
        mus = (cfg.smoothing_mu,) if cfg.smoothing_mu else _MU_SCHEDULE
    else:
        mus = (0.0,)

    if alpha < 2.0:
        # Ridge warm start: cheap and always feasible (J decreases from here).
        c = _spd_solve(_ridge_system(K, lam / w), y)
    else:
        c = np.zeros(n)

    iters = 0
    converged = False
    gap = math.inf
    obj = math.inf
    mu = mus[-1] if alpha == 1.0 else 0.0
    for mu_level in mus:
        final_level = mu_level == mus[-1]
        J = _Objective(K, y, w, lam, spec, mu_level)
        obj, Kc = J(c)
        tol = cfg.objective_tolerance * max(abs(obj), 1e-15)
        if not final_level:
            # Intermediate smoothing levels only need accuracy at the mu scale.
            tol = max(tol, 0.05 * mu_level)

        # Stage 1: safeguarded reweighted ridge passes (alpha < 2 only).
        if alpha < 2.0:
            # With smoothing continuation the certificate at the final level
            # can already sit under tol while the iterate still carries the
            # previous level's bias; always attempt one pass there.
            force_first = alpha == 1.0 and final_level
            for pass_idx in range(30):
                if iters >= cfg.max_iters:
                    break
                gap = J.gap(c, Kc)
                if gap <= tol and not (force_first and pass_idx == 0):
                    break
                u = y - Kc
                if alpha > 1.0:
                    omega = 0.5 * alpha * np.maximum(np.abs(u), _IRLS_FLOOR) ** (alpha - 2.0)
                else:
                    omega = 0.5 / np.maximum(np.abs(u), max(mu_level, 1e-12))
                try:
                    c_new = _spd_solve(_ridge_system(K, lam / (w * omega)), y)
                except SolverError:
                    break
                step = 1.0
                obj_new, Kc_new = J(c + step * (c_new - c))
                while obj_new > obj - 1e-12 and step > 1e-6:
                    step *= 0.5
                    obj_new, Kc_new = J(c + step * (c_new - c))
                iters += 1
                if obj_new > obj - 1e-12:
                    break
                improve = obj - obj_new
                c, obj, Kc = c + step * (c_new - c), obj_new, Kc_new
                if improve < 0.1 * tol:
                    break

        # Stage 2: accelerated descent in function space with backtracking.
        c, obj, Kc, gap, it2, converged = _accelerated_descent(
            J, c, obj, Kc, tol, cfg.max_iters - iters,
            cfg.objective_tolerance)
        iters += it2
        mu = mu_level
        if iters >= cfg.max_iters:
            break

    if alpha == 1.0:
        # Report the true (unsmoothed) objective of the returned iterate.
        obj, _ = _Objective(K, y, w, lam, spec)(c)
    f = KernelExpansion(kernel, train.xs, c)
    return FitResult(f, obj, iterations=iters, converged=converged,
                     certified_gap=gap, smoothing_used=mu,
                     method="proximal_first_order")


def _accelerated_descent(J: _Objective, c, obj, Kc, tol, budget, rel_tol):
    """Nesterov-style descent on J with Armijo backtracking and restarts.

    Returns the best iterate found with its certified gap.
    """
    gap = J.gap(c, Kc)
    if gap <= tol or budget <= 0:
        return c, obj, Kc, gap, 0, gap <= tol

    step = 1.0 / (2.0 * J.lam + 2.0)  # conservative first guess
    c_prev = c.copy()
    best_c, best_obj, best_Kc = c.copy(), obj, Kc.copy()
    stall = 0
    theta = 1.0
    iters = 0
    converged = False
    while iters < budget:
        iters += 1
        theta_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_new
        z = c + beta * (c - c_prev)
        obj_z, Kz = J(z)
        gz = J.grad(z, Kz)
        Kgz = J.K @ gz
        slope = float(gz @ Kgz)
        step *= 1.25
        while True:
            cand = z - step * gz
            obj_cand, Kcand = J(cand, Kz - step * Kgz)
            if obj_cand <= obj_z - 1e-4 * step * slope or step < 1e-18:
                break
            step *= 0.5
        if obj_cand > best_obj:
            # momentum overshoot: restart from the best point
            c_prev = best_c.copy()
            c = best_c.copy()
            theta = 1.0
            continue
        c_prev, c = c, cand
        theta = theta_new
        improved = best_obj - obj_cand
        if obj_cand < best_obj:
            best_c, best_obj, best_Kc = cand, obj_cand, Kcand
        gap = J.gap(best_c, best_Kc)
        if gap <= tol:
            converged = True
            break
        stall = stall + 1 if improved < rel_tol * max(abs(best_obj), 1e-15) else 0
        if stall >= 10:
            converged = True
            break
    return best_c, best_obj, best_Kc, gap, iters, converged


def objective(kernel: Kernel, spec: LossSpec, train: TrainingSet, lam: float,
              f: KernelExpansion, weights: np.ndarray | None = None) -> float:
    """lam ||f||_H^2 + sum_i w_i L(y_i, f(x_i)), for any expansion f.

    Evaluates f pointwise through its own expansion; serves as the
    independent check on :func:`fit`.
    """
    if weights is None:
        w = np.full(train.n, 1.0 / train.n)
    else:
        w = np.asarray(weights, dtype=float).reshape(-1)
        w = w / w.sum()
    preds = f(train.xs)
    return float(lam * f.rkhs_norm() ** 2
                 + w @ loss_value(spec, train.ys, preds))


def fit_result_record(result: FitResult, spec: LossSpec, lam: float) -> dict:
    """JSON-ready record of a fit (kernel config, expansion, diagnostics)."""
    return {
        "kernel": result.f.kernel.to_config(),
        "loss": spec.to_config(),
        "lam": lam,
        "centers": result.f.centers.tolist(),
        "coefficients": result.f.coefficients.tolist(),
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "certified_gap": result.certified_gap,
        "smoothing_used": result.smoothing_used,
        "method": result.method,
    }
