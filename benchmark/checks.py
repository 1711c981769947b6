"""Output checks computed apart from the library.

Each check rebuilds what it needs from the kernel formula and NumPy alone:
its own Gram matrices, ridge solves, objectives, quadrature rules and
Monte-Carlo draws.  Nothing here compares against a stored copy of earlier
output.  Every function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

# Relative agreement asked of two computations of one quantity in double
# precision: Gram entries, objectives and ridge coefficients.
RTOL = 1e-8
# Two independent Monte-Carlo estimates must agree within this many combined
# standard errors; a true mean difference of zero exceeds it with
# probability below 1e-6 per comparison.
MC_SIGMAS = 5.0


def gram(kernel, xa, xb) -> np.ndarray:
    """k(xa_i, xb_j) from the kernel formula, by explicit differences."""
    xa = np.asarray(xa, dtype=float).reshape(len(xa), -1)
    xb = np.asarray(xb, dtype=float).reshape(len(xb), -1)
    if kernel.family == "gaussian":
        sq = np.zeros((len(xa), len(xb)))
        for d in range(xa.shape[1]):
            sq += np.subtract.outer(xa[:, d], xb[:, d]) ** 2
        return np.exp(sq / -kernel.width ** 2)
    if kernel.family == "matern" and kernel.dim == 1 \
            and kernel.sobolev_order == 1.0:
        r = np.abs(np.subtract.outer(xa[:, 0], xb[:, 0]))
        return np.exp(r / -kernel.length_scale)
    raise NotImplementedError(f"no reference formula for {kernel.family}")


def dense_eval(kernel, centers, coefs, xs) -> np.ndarray:
    """sum_i c_i k(center_i, x) at every x, a chunk of points at a time."""
    chunk = max(1, (1 << 20) // (len(centers) * kernel.dim))
    out = np.empty(len(xs))
    for lo in range(0, len(xs), chunk):
        out[lo:lo + chunk] = gram(kernel, xs[lo:lo + chunk], centers) @ coefs
    return out


def _objective(K, c, y, lam, alpha) -> float:
    Kc = K @ c
    return float(lam * c @ Kc + np.mean(np.abs(y - Kc) ** alpha))


def fit_problems(kernel, alpha, train, cfg, result, f_star) -> list[str]:
    """Checks on one unweighted fit of lam ||f||^2 + mean |y - f(x)|^alpha.

    * the reported objective equals the objective recomputed from our Gram;
    * at alpha = 2 the coefficients solve (K + n lam I) c = y;
    * f-hat is a minimizer: J(f-hat) <= J(f*) + its certified gap;
    * converged implies certified gap <= the tolerance the solver applies,
      objective_tolerance * |J| at its ridge warm start (alpha < 2) or at
      the returned fit (alpha = 2, closed form).
    """
    xs, y, lam, n = train.xs, train.ys, cfg.lam, train.n
    K = gram(kernel, xs, xs)
    c = result.f.coefficients
    problems = []
    J = _objective(K, c, y, lam, alpha)
    if not abs(J - result.objective) <= RTOL * abs(J):
        problems.append(f"objective {result.objective!r} != recomputed {J!r}")
    ridge = np.linalg.solve(K + n * lam * np.eye(n), y)
    if alpha == 2.0:
        err = float(np.max(np.abs(c - ridge)))
        if not err <= RTOL * float(np.max(np.abs(ridge))):
            problems.append(f"alpha=2 coefficients off the normal equations "
                            f"by {err:.3g}")
    a = f_star.coefficients
    fs = gram(kernel, xs, f_star.centers) @ a
    norm2 = float(a @ gram(kernel, f_star.centers, f_star.centers) @ a)
    J_star = lam * norm2 + float(np.mean(np.abs(y - fs) ** alpha))
    if not J <= J_star + result.certified_gap + RTOL * abs(J_star):
        problems.append(f"J(f_hat)={J!r} > J(f*)={J_star!r} + gap")
    if result.converged:
        base = J if alpha == 2.0 else _objective(K, ridge, y, lam, alpha)
        tol = cfg.objective_tolerance * max(abs(base), 1e-15)
        if not result.certified_gap <= tol * (1.0 + RTOL):
            problems.append(
                f"converged=True with certified gap {result.certified_gap:.3g}"
                f" = {result.certified_gap / tol:.3g} x tolerance")
    return problems


def is_certificate_fault(problem: str) -> bool:
    return problem.startswith("converged=True with certified gap")


def loglog_slope(ns, means) -> float:
    return float(np.polyfit(np.log(ns), np.log(means), 1)[0])


def excess_l2_tensor(kernel, f_hat, f_star, order: int = 64) -> float:
    """E_x (f_hat - f*)^2 over the box by an order-``order`` tensor
    Gauss-Legendre rule, for smooth (Gaussian-kernel) integrands."""
    xi, wi = np.polynomial.legendre.leggauss(order)
    lo, hi = np.asarray(kernel.domain.lower), np.asarray(kernel.domain.upper)
    axes = [0.5 * (l + h) + 0.5 * (h - l) * xi for l, h in zip(lo, hi)]
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                     axis=1)
    weights = np.ones(1)
    for _ in range(kernel.dim):
        weights = np.outer(weights, 0.5 * wi).ravel()
    diff = (dense_eval(kernel, f_hat.centers, f_hat.coefficients, nodes)
            - dense_eval(kernel, f_star.centers, f_star.coefficients, nodes))
    return float(weights @ (diff * diff))


def excess_power_mc(kernel, f_hat, f_star, noise_half_width: float,
                    alpha: float, points: int, rng) -> tuple[float, float]:
    """Own Monte-Carlo estimate (value, stderr) of the excess power risk
    under uniform inputs and uniform noise, with dense evaluation."""
    lo, hi = kernel.domain.lower, kernel.domain.upper
    xs = rng.uniform(lo, hi, size=(points, kernel.dim))
    truth = dense_eval(kernel, f_star.centers, f_star.coefficients, xs)
    ys = truth + rng.uniform(-noise_half_width, noise_half_width, points)
    pred = dense_eval(kernel, f_hat.centers, f_hat.coefficients, xs)
    g = np.abs(ys - pred) ** alpha - np.abs(ys - truth) ** alpha
    return float(g.mean()), float(g.std(ddof=1) / math.sqrt(points))
