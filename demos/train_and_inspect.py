"""Train regularized kernel estimators and inspect what the theory promises.

Builds a synthetic regression problem whose truth lives in the hypothesis
space, fits the regularized minimizer under several loss exponents and
regularization strengths, and checks the closed-form norm budget and
threshold calculators against what actually happened.
"""

import numpy as np

from kernelrisk import (
    Box,
    DataModel,
    Kernel,
    KernelExpansion,
    SolverConfig,
    TrainingSet,
    UniformNoise,
    excess_l2_risk,
    fit,
    generate,
    oracle_epsilon_threshold,
    power_loss,
)
from kernelrisk.bounds import BoundInputs, approx_error_bound
from kernelrisk.reporting import format_table

# --- a model with known truth: five alternating bumps, |f*|_H = 0.5 -------
box = Box((0.0,), (1.0,))
kernel = Kernel("matern", box, sobolev_order=1.0, length_scale=0.25)
centers = np.linspace(0.1, 0.9, 5).reshape(-1, 1)
pattern = np.array([0.8, -0.5, 0.9, -0.4, 0.6])
raw = KernelExpansion(kernel, centers, pattern)
f_star = KernelExpansion(kernel, centers, pattern * (0.5 / raw.rkhs_norm()))
model = DataModel(f_star, UniformNoise(0.5))
print(f"truth: |f*|_H = {f_star.rkhs_norm():.3f}, noise uniform(+-0.5)")

train = generate(model, n=400, seed=7)
print(f"training set: n = {train.n}, y range [{train.ys.min():.3f}, "
      f"{train.ys.max():.3f}]")

# --- fit under different loss exponents and lambdas ------------------------
rows = []
for alpha in (1.0, 1.5, 2.0):
    for lam in (0.1, 0.01):
        res = fit(kernel, power_loss(alpha), train, SolverConfig(lam=lam))
        rows.append((alpha, lam, res.objective, res.f.rkhs_norm(),
                     lam ** -0.5, excess_l2_risk(model, res.f),
                     res.iterations))
print()
print(format_table(
    ("alpha", "lam", "objective", "|f|_H", "norm cap", "excess L2", "iters"),
    rows, precision=4))
print("the norm budget |f|_H <= lam^(-1/2) holds on every row above")

# --- what the threshold calculator says about these fits -------------------
def threshold(alpha, lam):
    return oracle_epsilon_threshold(BoundInputs(
        covering_scale=1.0, covering_exponent=1.0, growth_exponent=alpha,
        variance_power=alpha, variance_exponent=1.0, variance_scale=1.0,
        threshold_constant=1.0, lam=lam, n=train.n, confidence=1.0,
        approx_error=approx_error_bound(lam, f_star.rkhs_norm())))


lam = 0.05
res = fit(kernel, power_loss(2.0), train, SolverConfig(lam=lam))
print(f"\nsquared loss, lam={lam}, n={train.n}: excess-risk threshold "
      f"{threshold(2.0, lam):.4f}, realized excess "
      f"{excess_l2_risk(model, res.f):.5f}")
print("(the guarantee: excess < approx_error + threshold with probability "
      ">= 1 - e^-1)")

# at alpha = 2 the threshold is a step function of lam: once
# lam^(1 + p/2) * n drops below the covering scale it becomes infinite
print(f"squared loss at lam=0.01: threshold = {threshold(2.0, 0.01)}")
print(f"alpha=1.5 at lam=0.01:    threshold = {threshold(1.5, 0.01):.4f} "
      "(smooth in lam for alpha < 2)")
