"""Command-line interface.

Subcommands
-----------
fit              train one regularized minimizer on synthetic data
bounds eval      evaluate the closed-form calculators on a parameter record
covering fit     estimate the covering growth law of a kernel's unit ball
rates run        learning-rate experiment along lam = n^(-kappa)
validate         oracle | variance | calibration Monte-Carlo checks
robustness run   contamination-vs-loss-exponent study

A single declarative config file (``--config``, ``key = value`` lines)
supplies defaults; explicit flags override it.  Validation subcommands exit
nonzero when their check fails; invalid input exits with status 2 and a
one-line usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds
from .config import parse_config_file, resolve
from .covering import fit_covering_exponent
from .data import DataModel, TruncatedGaussianNoise, UniformNoise, generate
from .experiments import rate_experiment, robustness_study
from .kernels import Box, Kernel, KernelExpansion
from .losses import power_loss
from .reporting import format_table, write_csv
from .solver import SolverConfig, fit, fit_result_record
from .validate import calibration_check, oracle_probability_check, \
    variance_bound_check

MODEL_DEFAULTS = {
    "kernel_family": "matern",
    "domain": "0,1",
    "width": 0.3,
    "length_scale": 0.25,
    "sobolev_order": 1.0,
    "fstar_norm": 0.5,
    "fstar_centers": 5,
    "noise": "uniform",
    "noise_width": 0.5,
    "noise_sigma": 0.4,
}


def parse_domain(text: str) -> Box:
    """A box from "lo,hi" (one dimension) or "lo1,...;hi1,..." (any)."""
    try:
        parts = [tuple(float(v) for v in p.split(","))
                 for p in str(text).split(";")]
    except ValueError:
        parts = []
    if len(parts) == 1 and len(parts[0]) == 2:
        return Box(parts[0][:1], parts[0][1:])
    if len(parts) == 2:
        return Box(*parts)
    raise ValueError(f"domain {text!r} is neither lo,hi nor lo1,...;hi1,...")


def build_kernel(opts: dict) -> Kernel:
    box = parse_domain(opts["domain"])
    family = opts["kernel_family"]
    if family == "gaussian":
        return Kernel("gaussian", box, width=float(opts["width"]))
    if family == "matern":
        return Kernel("matern", box, sobolev_order=float(opts["sobolev_order"]),
                      length_scale=float(opts["length_scale"]))
    if family == "linear":
        return Kernel("linear", box)
    raise ValueError(f"unknown kernel family {family!r}")


def build_truth(kernel: Kernel, opts: dict) -> KernelExpansion:
    """Deterministic truth: alternating bumps on an interior grid."""
    m = int(opts["fstar_centers"])
    box = kernel.domain
    axes = [np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), m)
            for lo, hi in zip(box.lower, box.upper)]
    centers = np.stack([ax for ax in np.meshgrid(*axes, indexing="ij")],
                       axis=-1).reshape(-1, box.dim)[:m]
    pattern = np.array([(0.9 - 0.1 * (i % 3)) * (-1.0) ** i
                        for i in range(len(centers))])
    raw = KernelExpansion(kernel, centers, pattern)
    norm = raw.rkhs_norm()
    if norm <= 0:
        raise ValueError("degenerate truth expansion")
    scale = float(opts["fstar_norm"]) / norm
    return KernelExpansion(kernel, centers, pattern * scale)


def build_model(opts: dict) -> DataModel:
    kernel = build_kernel(opts)
    truth = build_truth(kernel, opts)
    if opts["noise"] == "uniform":
        noise = UniformNoise(float(opts["noise_width"]))
    elif opts["noise"] == "truncated_gaussian":
        noise = TruncatedGaussianNoise(float(opts["noise_sigma"]),
                                       float(opts["noise_width"]))
    else:
        raise ValueError(f"unknown noise kind {opts['noise']!r}")
    return DataModel(truth, noise)


def covering_sample(box: Box, n: int, seed: int = 0,
                    sample: str = "equispaced") -> np.ndarray:
    """n inputs for covering estimation: an equispaced grid when ``sample``
    is "equispaced" and the domain is 1-d, otherwise uniform draws from
    ``seed``."""
    if sample == "equispaced" and box.dim == 1:
        return np.linspace(box.lower[0], box.upper[0], n).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    return rng.uniform(box.lower, box.upper, size=(n, box.dim))


def add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel-family", dest="kernel_family",
                        choices=("matern", "gaussian", "linear"))
    parser.add_argument("--domain", help="lo,hi or lo1,lo2;hi1,hi2")
    parser.add_argument("--width", type=float, help="gaussian width")
    parser.add_argument("--length-scale", dest="length_scale", type=float)
    parser.add_argument("--sobolev-order", dest="sobolev_order", type=float)
    parser.add_argument("--fstar-norm", dest="fstar_norm", type=float)
    parser.add_argument("--fstar-centers", dest="fstar_centers", type=int)
    parser.add_argument("--noise", choices=("uniform", "truncated_gaussian"))
    parser.add_argument("--noise-width", dest="noise_width", type=float)
    parser.add_argument("--noise-sigma", dest="noise_sigma", type=float)


def parse_grid(text) -> tuple:
    if isinstance(text, (list, tuple)):
        return tuple(text)
    return tuple(float(v) for v in str(text).split(","))


def emit(rows_header, rows, csv_path, summary: str) -> None:
    print(summary)
    if rows:
        print(format_table(list(rows_header), rows))
    if csv_path:
        write_csv(csv_path, list(rows_header), rows)
        print(f"wrote {csv_path}")


def cmd_fit(args, file_values) -> int:
    defaults = dict(MODEL_DEFAULTS, alpha=2.0, lam=0.05, n=200, seed=0,
                    tolerance=1e-9, out=None)
    opts = resolve(args, file_values, defaults)
    model = build_model(opts)
    kernel = model.kernel
    alpha = float(opts["alpha"])
    train = generate(model, int(opts["n"]), int(opts["seed"]))
    cfg = SolverConfig(lam=float(opts["lam"]),
                       objective_tolerance=float(opts["tolerance"]))
    spec = power_loss(alpha)
    result = fit(kernel, spec, train, cfg)
    print(f"fit: n={train.n} alpha={alpha} lam={cfg.lam:.6g} "
          f"objective={result.objective:.8g} |f|_H={result.rkhs_norm:.6g} "
          f"iterations={result.iterations} converged={result.converged}")
    if opts["out"]:
        record = fit_result_record(result, spec, cfg.lam)
        with open(opts["out"], "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {opts['out']}")
    return 0


def cmd_bounds_eval(args, file_values) -> int:
    defaults = dict(
        alpha=2.0, p=1.0, a=1.0, v=None, theta=None, c=1.0, constant=1.0,
        lam=0.1, n=1000, x=1.0, approx_error=0.0, q=None, kappa=None,
        sup_norm_f=None, csv=None)
    opts = resolve(args, file_values, defaults)
    alpha = float(opts["alpha"])
    v = float(opts["v"]) if opts["v"] is not None else min(alpha, 2.0)
    theta = float(opts["theta"]) if opts["theta"] is not None else 1.0
    inp = bounds.BoundInputs(
        covering_scale=float(opts["a"]), covering_exponent=float(opts["p"]),
        growth_exponent=alpha, variance_power=v, variance_exponent=theta,
        variance_scale=float(opts["c"]),
        threshold_constant=float(opts["constant"]), lam=float(opts["lam"]),
        n=float(opts["n"]), confidence=float(opts["x"]),
        approx_error=float(opts["approx_error"]))
    rows = [("oracle_epsilon_threshold", bounds.oracle_epsilon_threshold(inp))]
    rows += [(f"term:{k}", val)
             for k, val in bounds.oracle_epsilon_terms(inp).items()]
    if 1.0 < alpha < 2.0:
        if inp.n >= inp.threshold_constant * inp.covering_scale:
            rows.append(("power_loss_epsilon_threshold",
                         bounds.power_loss_epsilon_threshold(
                             alpha, inp.covering_exponent,
                             inp.threshold_constant, inp.covering_scale,
                             inp.n, inp.confidence, inp.lam,
                             inp.approx_error)))
        rows.append(("power_loss_epsilon_threshold_unsimplified",
                     bounds.power_loss_epsilon_threshold(
                         alpha, inp.covering_exponent, inp.threshold_constant,
                         inp.covering_scale, inp.n, inp.confidence, inp.lam,
                         inp.approx_error, simplified=False)))
    if alpha > 1.0:
        sup_f = float(opts["sup_norm_f"]) if opts["sup_norm_f"] is not None \
            else 1.0
        rows.append(("power_loss_variance_constant",
                     bounds.power_loss_variance_constant(alpha, sup_f)))
    if opts["q"] is not None:
        q = math.inf if str(opts["q"]) in ("inf", "Infinity") \
            else float(opts["q"])
        rows.append(("hinge_noise_exponent",
                     bounds.hinge_noise_exponent(q, inp.covering_exponent)))
        rows.append(("hinge_epsilon_threshold", bounds.hinge_epsilon_threshold(
            q, inp.covering_exponent, inp.threshold_constant,
            inp.covering_scale, inp.n, inp.confidence, inp.lam,
            inp.approx_error)))
    if opts["kappa"] is not None:
        kappa = float(opts["kappa"])
        rows.append(("l2_rate_exponent",
                     bounds.l2_rate_exponent(kappa, inp.covering_exponent,
                                             alpha)))
        if alpha < 2.0:
            rows.append(("power_risk_rate_exponent",
                         bounds.power_risk_rate_exponent(
                             kappa, inp.covering_exponent, alpha)))
        rows.append(("rate_zero_alpha_threshold",
                     bounds.rate_zero_alpha_threshold(
                         kappa, inp.covering_exponent)))
    emit(("name", "value"), rows, opts["csv"],
         f"bound calculators at alpha={alpha} lam={inp.lam} n={inp.n:g} "
         f"x={inp.confidence}")
    return 0


def cmd_covering_fit(args, file_values) -> int:
    defaults = dict(MODEL_DEFAULTS, n=400, seed=0, sample="equispaced",
                    csv=None)
    opts = resolve(args, file_values, defaults)
    kernel = build_kernel(opts)
    xs = covering_sample(kernel.domain, int(opts["n"]), int(opts["seed"]),
                         opts["sample"])
    est = fit_covering_exponent(kernel, xs)
    rows = [(d, lo, up, bool(u)) for d, lo, up, u in
            zip(est.delta_grid, est.lower, est.upper, est.used)]
    emit(("delta", "log_cover_lower", "log_cover_upper", "used_in_fit"),
         rows, opts["csv"],
         f"covering fit: scale={est.scale:.4g} exponent={est.exponent:.4f} "
         f"residual={est.fit_residual:.4f} out_of_model={est.out_of_model} "
         f"flags={','.join(est.flags) or '-'}")
    return 0


def cmd_rates_run(args, file_values) -> int:
    defaults = dict(MODEL_DEFAULTS, alpha=2.0, kappa=None,
                    n_grid="100,200,400,800,1600,3200", trials=20, seed=0,
                    covering_exponent=None, covering_n=400, log_factor=None,
                    tolerance=1e-7, csv=None)
    opts = resolve(args, file_values, defaults)
    model = build_model(opts)
    kernel = model.kernel
    p = opts["covering_exponent"]
    if p is None:
        est = fit_covering_exponent(
            kernel, covering_sample(kernel.domain, int(opts["covering_n"])))
        p = est.exponent
        print(f"fitted covering exponent: {p:.4f}")
    p = float(p)
    kappa = float(opts["kappa"]) if opts["kappa"] is not None \
        else 2.0 / (2.0 + p)
    grid = tuple(int(v) for v in parse_grid(opts["n_grid"]))
    report = rate_experiment(
        model, kernel, float(opts["alpha"]), kappa, grid,
        int(opts["trials"]), int(opts["seed"]), covering_exponent=p,
        log_factor=bool(opts["log_factor"]),
        solver_tolerance=float(opts["tolerance"]))
    emit(report.ROW_HEADER, report.to_rows(), opts["csv"], report.summary())
    return 0


def cmd_validate(args, file_values) -> int:
    which = args.check
    defaults = dict(MODEL_DEFAULTS, alpha=2.0, lam=None, n=200, x=1.0,
                    trials=300, split=1 / 3, seed=0, mc_points=200_000,
                    functions=20, covering_scale=None, covering_exponent=None,
                    covering_n=400, csv=None)
    opts = resolve(args, file_values, defaults)
    model = build_model(opts)
    kernel = model.kernel
    alpha = float(opts["alpha"])
    if which == "oracle":
        lam = float(opts["lam"]) if opts["lam"] is not None \
            else float(opts["n"]) ** -(2.0 / 3.0)
        if opts["covering_scale"] is None or opts["covering_exponent"] is None:
            est = fit_covering_exponent(
                kernel, covering_sample(kernel.domain, int(opts["covering_n"])))
            covering = (est.scale, est.exponent)
            print(f"fitted covering law: scale={est.scale:.4g} "
                  f"exponent={est.exponent:.4f}")
        else:
            covering = (float(opts["covering_scale"]),
                        float(opts["covering_exponent"]))
        report = oracle_probability_check(
            model, kernel, alpha, lam, int(opts["n"]), float(opts["x"]),
            int(opts["trials"]), covering,
            calibration_split=float(opts["split"]),
            master_seed=int(opts["seed"]), mc_points=int(opts["mc_points"]))
    elif which == "variance":
        report = variance_bound_check(
            model, alpha, n_functions=int(opts["functions"]),
            mc_points=int(opts["mc_points"]), master_seed=int(opts["seed"]))
    else:
        report = calibration_check(
            model, alpha, n_functions=int(opts["functions"]),
            mc_points=int(opts["mc_points"]), master_seed=int(opts["seed"]))
    emit(report.ROW_HEADER, report.to_rows(), opts["csv"], report.summary())
    ok = report.passed if which == "oracle" else report.all_passed
    return 0 if ok else 1


def cmd_robustness_run(args, file_values) -> int:
    defaults = dict(MODEL_DEFAULTS, eta_grid="0,0.05,0.1,0.2",
                    alpha_grid="1.1,1.5,2", n=300, lam=None, trials=10,
                    seed=0, outlier_magnitude=None, asymmetric=None,
                    tolerance=1e-7, csv=None)
    defaults["fstar_norm"] = 0.4
    defaults["noise_width"] = 0.3
    opts = resolve(args, file_values, defaults)
    model = build_model(opts)
    base_noise = model.noise
    lam = float(opts["lam"]) if opts["lam"] is not None \
        else float(opts["n"]) ** -(2.0 / 3.0)
    magnitude = (float(opts["outlier_magnitude"])
                 if opts["outlier_magnitude"] is not None
                 else 1.0 - model.f_star.sup_norm_bound())
    report = robustness_study(
        model.f_star, base_noise, parse_grid(opts["eta_grid"]),
        parse_grid(opts["alpha_grid"]), int(opts["n"]), lam,
        int(opts["trials"]), int(opts["seed"]), magnitude,
        asymmetric=bool(opts["asymmetric"]),
        solver_tolerance=float(opts["tolerance"]))
    emit(report.ROW_HEADER, report.to_rows(), opts["csv"], report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelrisk",
        description="kernel regularized risk minimization: training, "
                    "bound calculators, and Monte-Carlo validation")
    parser.add_argument("--config", help="key = value experiment file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train on synthetic data")
    add_model_flags(p_fit)
    for flag, typ in (("--alpha", float), ("--lam", float), ("--n", int),
                      ("--seed", int), ("--tolerance", float)):
        p_fit.add_argument(flag, type=typ)
    p_fit.add_argument("--out", help="write the fit record as JSON")
    p_fit.set_defaults(func=cmd_fit)

    p_bounds = sub.add_parser("bounds", help="closed-form calculators")
    sub_bounds = p_bounds.add_subparsers(dest="subcommand", required=True)
    p_eval = sub_bounds.add_parser("eval", help="evaluate a parameter record")
    for flag, typ in (("--alpha", float), ("--p", float), ("--a", float),
                      ("--v", float), ("--theta", float), ("--c", float),
                      ("--constant", float), ("--lam", float), ("--n", float),
                      ("--x", float), ("--approx-error", float),
                      ("--kappa", float), ("--sup-norm-f", float)):
        p_eval.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ)
    p_eval.add_argument("--q", help="hinge low-noise exponent (number or inf)")
    p_eval.add_argument("--csv")
    p_eval.set_defaults(func=cmd_bounds_eval)

    p_cov = sub.add_parser("covering", help="covering-number estimation")
    sub_cov = p_cov.add_subparsers(dest="subcommand", required=True)
    p_cfit = sub_cov.add_parser("fit", help="fit the growth law")
    add_model_flags(p_cfit)
    p_cfit.add_argument("--n", type=int)
    p_cfit.add_argument("--seed", type=int)
    p_cfit.add_argument("--sample", choices=("equispaced", "uniform"))
    p_cfit.add_argument("--csv")
    p_cfit.set_defaults(func=cmd_covering_fit)

    p_rates = sub.add_parser("rates", help="learning-rate experiments")
    sub_rates = p_rates.add_subparsers(dest="subcommand", required=True)
    p_rrun = sub_rates.add_parser("run", help="run one rate experiment")
    add_model_flags(p_rrun)
    for flag, typ in (("--alpha", float), ("--kappa", float),
                      ("--trials", int), ("--seed", int),
                      ("--covering-exponent", float), ("--covering-n", int),
                      ("--tolerance", float)):
        p_rrun.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ)
    p_rrun.add_argument("--n-grid", dest="n_grid")
    p_rrun.add_argument("--log-factor", dest="log_factor",
                        action="store_const", const=True)
    p_rrun.add_argument("--csv")
    p_rrun.set_defaults(func=cmd_rates_run)

    p_val = sub.add_parser("validate", help="Monte-Carlo validation checks")
    p_val.add_argument("check", choices=("oracle", "variance", "calibration"))
    add_model_flags(p_val)
    for flag, typ in (("--alpha", float), ("--lam", float), ("--n", int),
                      ("--x", float), ("--trials", int), ("--split", float),
                      ("--seed", int), ("--mc-points", int),
                      ("--functions", int), ("--covering-scale", float),
                      ("--covering-exponent", float), ("--covering-n", int)):
        p_val.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ)
    p_val.add_argument("--csv")
    p_val.set_defaults(func=cmd_validate)

    p_rob = sub.add_parser("robustness", help="contamination studies")
    sub_rob = p_rob.add_subparsers(dest="subcommand", required=True)
    p_rob_run = sub_rob.add_parser("run", help="run the study")
    add_model_flags(p_rob_run)
    for flag, typ in (("--n", int), ("--lam", float), ("--trials", int),
                      ("--seed", int), ("--outlier-magnitude", float),
                      ("--tolerance", float)):
        p_rob_run.add_argument(flag, dest=flag[2:].replace("-", "_"), type=typ)
    p_rob_run.add_argument("--eta-grid", dest="eta_grid")
    p_rob_run.add_argument("--alpha-grid", dest="alpha_grid")
    p_rob_run.add_argument("--asymmetric", action="store_const", const=True)
    p_rob_run.add_argument("--csv")
    p_rob_run.set_defaults(func=cmd_robustness_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        return args.func(args, file_values)
    except ValueError as exc:  # bad flag values, config lines or domains
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
