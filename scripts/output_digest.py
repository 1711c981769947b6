"""SHA-256 digests of a fixed list of seeded kernelrisk outputs.

Two checkouts that print the same ``all`` digest produce byte-identical
results for every call below, so a refactor can be checked for unchanged
behaviour by running this script on both and comparing the output:

    PYTHONPATH=src python3 scripts/output_digest.py

The list covers 80 fits (alpha in {1, 1.1, 1.5, 1.9, 2}, both solver
methods, weighted and unweighted, 1-d Matern and 2-d Gaussian kernels, two
sample sizes), run_trial, rate_experiment, oracle_probability_check,
discrete_cost_gap_check, robustness_study, and the 1-d CLI runs
``fit --out``, ``rates run --csv``, ``covering fit --csv`` and
``validate oracle --csv`` (stdout, exit code and written file).  BLAS is
pinned to one thread so the digests do not depend on the thread count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import hashlib
import io
import tempfile

import numpy as np

from kernelrisk.cli import main as cli_main
from kernelrisk.data import DataModel, UniformNoise, generate
from kernelrisk.experiments import rate_experiment, robustness_study, run_trial
from kernelrisk.kernels import Box, Kernel, KernelExpansion
from kernelrisk.losses import power_loss
from kernelrisk.solver import SolverConfig, fit
from kernelrisk.validate import discrete_cost_gap_check, \
    oracle_probability_check

MATERN = Kernel("matern", Box((0.0,), (1.0,)), sobolev_order=1.0,
                length_scale=0.25)
GAUSS2 = Kernel("gaussian", Box((0.0, 0.0), (1.0, 1.0)), width=0.4)


def model_for(kernel: Kernel, norm: float = 0.5) -> DataModel:
    rng = np.random.default_rng(11)
    box = kernel.domain
    centers = rng.uniform(box.lower, box.upper, size=(5, box.dim))
    raw = KernelExpansion(kernel, centers, np.array([0.8, -0.5, 0.9, -0.4,
                                                     0.6]))
    truth = KernelExpansion(kernel, centers,
                            raw.coefficients * (norm / raw.rkhs_norm()))
    return DataModel(truth, UniformNoise(0.5))


def encode(obj, out: list) -> None:
    """Append an exact, type-tagged byte encoding of ``obj`` to ``out``."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__.encode())
        for fld in dataclasses.fields(obj):
            out.append(fld.name.encode())
            encode(getattr(obj, fld.name), out)
    elif isinstance(obj, np.ndarray):
        out.append(f"nd{obj.dtype}{obj.shape}".encode())
        out.append(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        out.append(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (tuple, list)):
        out.append(f"seq{len(obj)}".encode())
        for item in obj:
            encode(item, out)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            encode(key, out)
            encode(obj[key], out)
    else:
        out.append(f"{type(obj).__name__}:{obj!r}".encode())


def digest(obj) -> str:
    parts: list = []
    encode(obj, parts)
    h = hashlib.sha256()
    for p in parts:
        h.update(len(p).to_bytes(8, "little"))
        h.update(p)
    return h.hexdigest()


def fits() -> list:
    results = []
    for kernel in (MATERN, GAUSS2):
        model = model_for(kernel)
        for n in (30, 60):
            train = generate(model, n, 5)
            weights = np.random.default_rng(n).dirichlet(np.ones(n))
            for alpha in (1.0, 1.1, 1.5, 1.9, 2.0):
                for method in ("closed_form_quadratic",
                               "proximal_first_order"):
                    cfg = SolverConfig(lam=0.05, method=method,
                                       objective_tolerance=1e-8)
                    for w in (None, weights):
                        res = fit(kernel, power_loss(alpha), train, cfg,
                                  weights=w)
                        results.append(res)
    assert len(results) == 80
    return results


def cli_runs() -> list:
    runs = [
        (["fit", "--alpha", "1.5", "--n", "100", "--lam", "0.02",
          "--seed", "1", "--out", "fit.json"], "fit.json"),
        (["fit", "--alpha", "2", "--n", "100", "--lam", "0.02",
          "--seed", "1", "--out", "fit2.json"], "fit2.json"),
        (["rates", "run", "--alpha", "1.5", "--n-grid", "50,100",
          "--trials", "2", "--csv", "rates.csv"], "rates.csv"),
        (["covering", "fit", "--n", "150", "--csv", "cov.csv"], "cov.csv"),
        (["validate", "oracle", "--alpha", "1.5", "--n", "60",
          "--trials", "50", "--mc-points", "5000", "--csv", "val.csv"],
         "val.csv"),
    ]
    outputs = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv, path in runs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(argv)
                with open(path, encoding="utf-8") as fh:
                    outputs.append((argv, code, buf.getvalue(), fh.read()))
        finally:
            os.chdir(cwd)
    return outputs


def main() -> None:
    m1 = model_for(MATERN)
    groups = {
        "fits": fits,
        "run_trial": lambda: [
            run_trial(m1, MATERN, alpha, 0.05, 80, i, 3, measure_power=True,
                      mc_points=5000)
            for alpha in (1.0, 1.5, 2.0) for i in (0, 1)],
        "rate_experiment": lambda: rate_experiment(
            m1, MATERN, 1.5, 0.6, (40, 80), 2, 4, covering_exponent=1.0,
            mc_points=2000),
        "oracle_probability_check": lambda: oracle_probability_check(
            m1, MATERN, 1.5, 0.05, 50, 1.0, 50, (1.0, 1.0), mc_points=5000),
        "discrete_cost_gap_check": lambda: discrete_cost_gap_check(
            MATERN, trials=30),
        "robustness_study": lambda: robustness_study(
            model_for(GAUSS2, 0.4).f_star, UniformNoise(0.3), (0.0, 0.1),
            (1.1, 2.0), 60, 0.05, 2, 7, 0.5),
        "cli": cli_runs,
    }
    total = hashlib.sha256()
    for name, make in groups.items():
        d = digest(make())
        total.update(d.encode())
        print(f"{name:26s} {d}")
    print(f"{'all':26s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
