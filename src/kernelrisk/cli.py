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
import dataclasses
import json
import sys

import numpy as np

from . import bounds
from .config import add_flags, parse_config_file, resolve
from .covering import fit_covering_exponent
from .data import DataModel, TruncatedGaussianNoise, UniformNoise, generate
from .experiments import rate_experiment, robustness_study
from .kernels import Box, Kernel, KernelExpansion
from .losses import power_loss
from .reporting import format_table, write_csv
from .solver import SolverConfig, fit, fit_result_record
from .validate import calibration_check, oracle_probability_check, \
    variance_bound_check


def parse_domain(text: str) -> Box:
    """A box from "lo,hi" (one dimension) or "lo1,...;hi1,..." (any)."""
    try:
        parts = [tuple(float(v) for v in p.split(",")) for p in text.split(";")]
    except ValueError:
        parts = []
    if len(parts) == 1 and len(parts[0]) == 2:
        return Box(parts[0][:1], parts[0][1:])
    if len(parts) == 2:
        return Box(*parts)
    raise ValueError(f"domain {text!r} is neither lo,hi nor lo1,...;hi1,...")


def parse_grid(text: str) -> tuple:
    """Comma-separated numbers."""
    return tuple(float(v) for v in text.split(","))


def parse_sizes(text: str) -> tuple:
    """Comma-separated sample sizes (a fraction is dropped)."""
    try:
        return tuple(int(v) for v in parse_grid(text))
    except OverflowError:  # int(inf)
        raise ValueError(f"sample sizes {text!r} are not finite") from None


# One table per subcommand, {key: (type, default)}; see kernelrisk.config.
MODEL = {
    "kernel_family": (("matern", "gaussian", "linear"), "matern"),
    "domain": (str, "0,1"),
    "width": (float, 0.3),
    "length_scale": (float, 0.25),
    "sobolev_order": (float, 1.0),
    "fstar_norm": (float, 0.5),
    "fstar_centers": (int, 5),
    "noise": (("uniform", "truncated_gaussian"), "uniform"),
    "noise_width": (float, 0.5),
    "noise_sigma": (float, 0.4),
}
FIT = {**MODEL, "alpha": (float, 2.0), "lam": (float, 0.05), "n": (int, 200),
       "seed": (int, 0), "tolerance": (float, 1e-9), "out": (str, None)}
BOUNDS_EVAL = {
    "alpha": (float, 2.0), "p": (float, 1.0), "a": (float, 1.0),
    "v": (float, None), "theta": (float, 1.0), "c": (float, 1.0),
    "constant": (float, 1.0), "lam": (float, 0.1), "n": (float, 1000.0),
    "x": (float, 1.0), "approx_error": (float, 0.0), "q": (float, None),
    "kappa": (float, None), "sup_norm_f": (float, 1.0), "csv": (str, None)}
COVERING_FIT = {**MODEL, "n": (int, 400), "seed": (int, 0),
                "sample": (("equispaced", "uniform"), "equispaced"),
                "csv": (str, None)}
RATES_RUN = {
    **MODEL, "alpha": (float, 2.0), "kappa": (float, None),
    "n_grid": (parse_sizes, (100, 200, 400, 800, 1600, 3200)),
    "trials": (int, 20), "seed": (int, 0),
    "covering_exponent": (float, None), "covering_n": (int, 400),
    "log_factor": (bool, False), "tolerance": (float, 1e-7),
    "csv": (str, None)}
VALIDATE = {
    **MODEL, "alpha": (float, 2.0), "lam": (float, None), "n": (int, 200),
    "x": (float, 1.0), "trials": (int, 300), "split": (float, 1 / 3),
    "seed": (int, 0), "mc_points": (int, 200_000), "functions": (int, 20),
    "covering_scale": (float, None), "covering_exponent": (float, None),
    "covering_n": (int, 400), "csv": (str, None)}
ROBUSTNESS_RUN = {
    **MODEL, "fstar_norm": (float, 0.4), "noise_width": (float, 0.3),
    "eta_grid": (parse_grid, (0.0, 0.05, 0.1, 0.2)),
    "alpha_grid": (parse_grid, (1.1, 1.5, 2.0)), "n": (int, 300),
    "lam": (float, None), "trials": (int, 10), "seed": (int, 0),
    "outlier_magnitude": (float, None), "asymmetric": (bool, False),
    "tolerance": (float, 1e-7), "csv": (str, None)}
HELP = {"domain": "lo,hi or lo1,lo2;hi1,hi2", "width": "gaussian width",
        "q": "hinge low-noise exponent (number or inf)",
        "out": "write the fit record as JSON"}


def build_kernel(opts: dict) -> Kernel:
    box = parse_domain(opts["domain"])
    family = opts["kernel_family"]
    if family == "gaussian":
        return Kernel("gaussian", box, width=opts["width"])
    if family == "matern":
        return Kernel("matern", box, sobolev_order=opts["sobolev_order"],
                      length_scale=opts["length_scale"])
    if family == "linear":
        return Kernel("linear", box)
    raise ValueError(f"unknown kernel family {family!r}")


def build_truth(kernel: Kernel, opts: dict) -> KernelExpansion:
    """Deterministic truth: alternating bumps on an interior grid."""
    m = opts["fstar_centers"]
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
    scale = opts["fstar_norm"] / norm
    return KernelExpansion(kernel, centers, pattern * scale)


def build_model(opts: dict) -> DataModel:
    kernel = build_kernel(opts)
    truth = build_truth(kernel, opts)
    if opts["noise"] == "uniform":
        noise = UniformNoise(opts["noise_width"])
    elif opts["noise"] == "truncated_gaussian":
        noise = TruncatedGaussianNoise(opts["noise_sigma"], opts["noise_width"])
    else:
        raise ValueError(f"unknown noise kind {opts['noise']!r}")
    return DataModel(truth, noise)


def covering_sample(box: Box, n: int, seed: int, sample: str) -> np.ndarray:
    """n inputs for covering estimation: an equispaced grid when ``sample``
    is "equispaced" and the domain is 1-d, otherwise uniform draws from
    ``seed``."""
    if sample not in ("equispaced", "uniform"):
        raise ValueError(f"unknown sample {sample!r}")
    if sample == "equispaced" and box.dim == 1:
        return np.linspace(box.lower[0], box.upper[0], n).reshape(-1, 1)
    rng = np.random.default_rng(seed)
    return rng.uniform(box.lower, box.upper, size=(n, box.dim))


def emit(rows_header, rows, csv_path, summary: str) -> None:
    print(summary)
    if rows:
        print(format_table(list(rows_header), rows))
    if csv_path:
        write_csv(csv_path, list(rows_header), rows)
        print(f"wrote {csv_path}")


def cmd_fit(args, opts: dict) -> int:
    model = build_model(opts)
    alpha = opts["alpha"]
    train = generate(model, opts["n"], opts["seed"])
    cfg = SolverConfig(lam=opts["lam"], objective_tolerance=opts["tolerance"])
    spec = power_loss(alpha)
    result = fit(model.kernel, spec, train, cfg)
    print(f"fit: n={train.n} alpha={alpha} lam={cfg.lam:.6g} "
          f"objective={result.objective:.8g} |f|_H={result.rkhs_norm:.6g} "
          f"iterations={result.iterations} converged={result.converged}")
    if opts["out"]:
        record = fit_result_record(result, spec, cfg.lam)
        with open(opts["out"], "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {opts['out']}")
    return 0


def cmd_bounds_eval(args, opts: dict) -> int:
    alpha = opts["alpha"]
    inp = bounds.BoundInputs(
        covering_scale=opts["a"], covering_exponent=opts["p"],
        growth_exponent=alpha,
        variance_power=opts["v"] if opts["v"] is not None else min(alpha, 2.0),
        variance_exponent=opts["theta"], variance_scale=opts["c"],
        threshold_constant=opts["constant"], lam=opts["lam"], n=opts["n"],
        confidence=opts["x"], approx_error=opts["approx_error"])
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
                     bounds.oracle_epsilon_threshold(dataclasses.replace(
                         inp, variance_power=alpha, variance_exponent=1.0))))
    if alpha > 1.0:
        rows.append(("power_loss_variance_constant",
                     bounds.power_loss_variance_constant(
                         alpha, opts["sup_norm_f"])))
    q = opts["q"]
    if q is not None:
        rows.append(("hinge_noise_exponent",
                     bounds.hinge_noise_exponent(q, inp.covering_exponent)))
        rows.append(("hinge_epsilon_threshold", bounds.hinge_epsilon_threshold(
            q, inp.covering_exponent, inp.threshold_constant,
            inp.covering_scale, inp.n, inp.confidence, inp.lam,
            inp.approx_error)))
    kappa = opts["kappa"]
    if kappa is not None:
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


def cmd_covering_fit(args, opts: dict) -> int:
    kernel = build_kernel(opts)
    xs = covering_sample(kernel.domain, opts["n"], opts["seed"], opts["sample"])
    est = fit_covering_exponent(kernel, xs)
    rows = [(d, lo, up, bool(u)) for d, lo, up, u in
            zip(est.delta_grid, est.lower, est.upper, est.used)]
    emit(("delta", "log_cover_lower", "log_cover_upper", "used_in_fit"),
         rows, opts["csv"],
         f"covering fit: scale={est.scale:.4g} exponent={est.exponent:.4f} "
         f"residual={est.fit_residual:.4f} out_of_model={est.out_of_model} "
         f"flags={','.join(est.flags) or '-'}")
    return 0


def cmd_rates_run(args, opts: dict) -> int:
    model = build_model(opts)
    kernel = model.kernel
    p = opts["covering_exponent"]
    if p is None:
        est = fit_covering_exponent(kernel, covering_sample(
            kernel.domain, opts["covering_n"], 0, "equispaced"))
        p = float(est.exponent)
        print(f"fitted covering exponent: {p:.4f}")
    kappa = opts["kappa"] if opts["kappa"] is not None else 2.0 / (2.0 + p)
    report = rate_experiment(
        model, kernel, opts["alpha"], kappa, opts["n_grid"], opts["trials"],
        opts["seed"], covering_exponent=p, log_factor=opts["log_factor"],
        solver_tolerance=opts["tolerance"])
    emit(report.ROW_HEADER, report.to_rows(), opts["csv"], report.summary())
    return 0


def cmd_validate(args, opts: dict) -> int:
    which = args.check
    model = build_model(opts)
    kernel = model.kernel
    alpha = opts["alpha"]
    if which == "oracle":
        lam = opts["lam"] if opts["lam"] is not None \
            else opts["n"] ** -(2.0 / 3.0)
        if opts["covering_scale"] is None or opts["covering_exponent"] is None:
            est = fit_covering_exponent(kernel, covering_sample(
                kernel.domain, opts["covering_n"], 0, "equispaced"))
            covering = (est.scale, est.exponent)
            print(f"fitted covering law: scale={est.scale:.4g} "
                  f"exponent={est.exponent:.4f}")
        else:
            covering = (opts["covering_scale"], opts["covering_exponent"])
        report = oracle_probability_check(
            model, kernel, alpha, lam, opts["n"], opts["x"], opts["trials"],
            covering, calibration_split=opts["split"],
            master_seed=opts["seed"], mc_points=opts["mc_points"])
    elif which == "variance":
        report = variance_bound_check(
            model, alpha, n_functions=opts["functions"],
            mc_points=opts["mc_points"], master_seed=opts["seed"])
    else:
        report = calibration_check(
            model, alpha, n_functions=opts["functions"],
            mc_points=opts["mc_points"], master_seed=opts["seed"])
    emit(report.ROW_HEADER, report.to_rows(), opts["csv"], report.summary())
    ok = report.passed if which == "oracle" else report.all_passed
    return 0 if ok else 1


def cmd_robustness_run(args, opts: dict) -> int:
    model = build_model(opts)
    lam = opts["lam"] if opts["lam"] is not None \
        else opts["n"] ** -(2.0 / 3.0)
    magnitude = (opts["outlier_magnitude"]
                 if opts["outlier_magnitude"] is not None
                 else 1.0 - model.f_star.sup_norm_bound())
    report = robustness_study(
        model.f_star, model.noise, opts["eta_grid"], opts["alpha_grid"],
        opts["n"], lam, opts["trials"], opts["seed"], magnitude,
        asymmetric=opts["asymmetric"], solver_tolerance=opts["tolerance"])
    emit(report.ROW_HEADER, report.to_rows(), opts["csv"], report.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kernelrisk",
        description="kernel regularized risk minimization: training, "
                    "bound calculators, and Monte-Carlo validation")
    parser.add_argument("--config", help="key = value experiment file")
    sub = parser.add_subparsers(dest="command", required=True)

    def group(name: str, about: str):
        return sub.add_parser(name, help=about).add_subparsers(
            dest="subcommand", required=True)

    def command(parent, name: str, about: str, table: dict, func):
        p = parent.add_parser(name, help=about)
        add_flags(p, table, HELP)
        p.set_defaults(func=func, options=table)
        return p

    command(sub, "fit", "train on synthetic data", FIT, cmd_fit)
    command(group("bounds", "closed-form calculators"), "eval",
            "evaluate a parameter record", BOUNDS_EVAL, cmd_bounds_eval)
    command(group("covering", "covering-number estimation"), "fit",
            "fit the growth law", COVERING_FIT, cmd_covering_fit)
    command(group("rates", "learning-rate experiments"), "run",
            "run one rate experiment", RATES_RUN, cmd_rates_run)
    command(sub, "validate", "Monte-Carlo validation checks", VALIDATE,
            cmd_validate).add_argument(
        "check", choices=("oracle", "variance", "calibration"))
    command(group("robustness", "contamination studies"), "run",
            "run the study", ROBUSTNESS_RUN, cmd_robustness_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = parse_config_file(args.config) if args.config else {}
        return args.func(args, resolve(args, file_values, args.options))
    except ValueError as exc:  # bad flag values, config lines or domains
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
