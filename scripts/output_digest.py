"""SHA-256 digests of a fixed list of seeded kernelrisk outputs.

Two checkouts that print the same ``all`` digest, under the same copy of
this script, produce byte-identical results for every call below, so a
refactor can be checked for unchanged behaviour by running this script on
both and comparing the output:

    PYTHONPATH=src python3 scripts/output_digest.py

A change that only moves rounding is checked value by value instead: dump
the outputs of one checkout and compare the other against the dump,

    PYTHONPATH=src python3 scripts/output_digest.py --dump before.json
    PYTHONPATH=src python3 scripts/output_digest.py --against before.json

which passes when every group is byte-identical or when ints, bools and
strings are equal and floats agree within 1e-12 relative.  The dump of the
current tree is committed as ``tests/data/output_digest.json``, and
``tests/test_output_digest.py`` runs ``--against`` it; a change that moves
outputs on purpose rewrites it with ``--dump``.  Text output (CLI
stdout, CSV and JSON files) is compared token by token: the numbers in it
as numbers, the text between them as equal strings.  The exit code is
nonzero when a group differs.

The list covers 40 fits (alpha in {1, 1.1, 1.5, 1.9, 2}, weighted and
unweighted, 1-d Matern and 2-d Gaussian kernels, two sample sizes),
run_trial, rate_experiment, oracle_probability_check,
discrete_cost_gap_check, robustness_study, and 1-d runs of every CLI
subcommand: ``fit --out``, ``bounds eval``, ``rates run``, ``covering fit``,
``validate`` oracle, variance and calibration, and ``robustness run`` with
flags and with a ``--config`` file (stdout, exit code and written file).

BLAS runs on one thread unless ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
or ``MKL_NUM_THREADS`` is set.  The digests hold for one BLAS build at one
thread count; across thread counts ``--against`` still passes, since the
outputs agree within 1e-12 relative.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
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


# Relative agreement asked of a float that a change may round differently.
RTOL = 1e-12
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def leaves(obj, path: str, out: list) -> None:
    """Append [path, value] for every scalar in ``obj``, with a type tag for
    every dataclass, array and sequence, so the list fixes ``obj`` exactly."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append([path, type(obj).__name__])
        for fld in dataclasses.fields(obj):
            leaves(getattr(obj, fld.name), f"{path}.{fld.name}", out)
    elif isinstance(obj, np.ndarray):
        out.append([path, f"nd{obj.dtype}{obj.shape}"])
        for i, value in enumerate(obj.ravel().tolist()):
            out.append([f"{path}[{i}]", value])
    elif isinstance(obj, (tuple, list)):
        out.append([path, len(obj)])
        for i, item in enumerate(obj):
            leaves(item, f"{path}[{i}]", out)
    elif isinstance(obj, dict):
        for key in sorted(obj):
            leaves(obj[key], f"{path}.{key}", out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append([path, bool(obj)])
    elif isinstance(obj, (int, np.integer)):
        out.append([path, int(obj)])
    elif isinstance(obj, (float, np.floating)):
        out.append([path, float(obj)])
    elif obj is None or isinstance(obj, str):
        out.append([path, obj])
    else:
        out.append([path, f"{type(obj).__name__}:{obj!r}"])


def float_gap(a: float, b: float) -> float:
    """Relative difference of two floats; NaN matches only NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def gap(a, b) -> float:
    """Largest relative difference between the floats of two leaf values:
    0 when equal, inf when anything but a float differs."""
    if type(a) is not type(b):
        return math.inf
    if isinstance(a, float):
        return float_gap(a, b)
    if not isinstance(a, str):
        return 0.0 if a == b else math.inf
    ta, tb = NUMBER.split(a), NUMBER.split(b)
    if len(ta) != len(tb):
        return math.inf
    worst = 0.0
    for i, (x, y) in enumerate(zip(ta, tb)):
        if i % 2 == 1 and re.search(r"[.eE]", x + y):
            worst = max(worst, float_gap(float(x), float(y)))
        elif x != y:
            return math.inf
    return worst


def compare(name: str, mine: list, theirs: list) -> tuple[str | None, float]:
    """(what differs or None, largest relative float difference).

    Leaves are matched by path.  Paths that only one side has are listed
    apart and make the difference inf, without hiding a changed value at a
    path both sides share."""
    other = dict(theirs)
    ours = {path for path, _ in mine}
    problems = []
    for label, paths in (("added", [p for p, _ in mine if p not in other]),
                         ("missing", [p for p, _ in theirs if p not in ours])):
        if paths:
            problems.append(f"{label} paths: {len(paths)}, "
                            f"first {name}{paths[0]}")
    worst = math.inf if problems else 0.0
    changed = None
    for path, a in mine:
        if path in other:
            g = gap(a, other[path])
            worst = max(worst, g)
            if changed is None and not g <= RTOL:
                changed = f"{name}{path}: {a!r} against {other[path]!r}"
    if changed is not None:
        problems.append(changed)
    return "; ".join(problems) or None, worst


def digest(values: list) -> str:
    """SHA-256 of a leaf list; floats enter by repr, which round-trips."""
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()


def fits() -> list:
    results = []
    for kernel in (MATERN, GAUSS2):
        model = model_for(kernel)
        for n in (30, 60):
            train = generate(model, n, 5)
            weights = np.random.default_rng(n).dirichlet(np.ones(n))
            for alpha in (1.0, 1.1, 1.5, 1.9, 2.0):
                cfg = SolverConfig(lam=0.05, objective_tolerance=1e-8)
                for w in (None, weights):
                    results.append(fit(kernel, power_loss(alpha), train, cfg,
                                       weights=w))
    assert len(results) == 40
    return results


# A config file for the run below that reads one: a grid given as a list and
# a switch, next to a grid given as text.
ROBUSTNESS_CONFIG = """n = 60
trials = 2
eta_grid = [0.0, 0.1]
alpha_grid = "1.5,2"
asymmetric = true
"""


def cli_runs() -> list:
    runs = [
        (["fit", "--alpha", "1.5", "--n", "100", "--lam", "0.02",
          "--seed", "1", "--out", "fit.json"], "fit.json"),
        (["fit", "--alpha", "2", "--n", "100", "--lam", "0.02",
          "--seed", "1", "--out", "fit2.json"], "fit2.json"),
        (["bounds", "eval", "--alpha", "1.5", "--p", "1", "--lam", "0.1",
          "--n", "1000", "--kappa", "0.8", "--q", "inf",
          "--csv", "bounds.csv"], "bounds.csv"),
        (["rates", "run", "--alpha", "1.5", "--n-grid", "50,100",
          "--trials", "2", "--csv", "rates.csv"], "rates.csv"),
        (["covering", "fit", "--n", "150", "--csv", "cov.csv"], "cov.csv"),
        (["validate", "oracle", "--alpha", "1.5", "--n", "60",
          "--trials", "50", "--mc-points", "5000", "--csv", "val.csv"],
         "val.csv"),
        (["validate", "variance", "--alpha", "1.5", "--functions", "3",
          "--mc-points", "5000", "--seed", "2", "--csv", "var.csv"],
         "var.csv"),
        (["validate", "calibration", "--alpha", "1.5", "--functions", "3",
          "--mc-points", "5000", "--csv", "cal.csv"], "cal.csv"),
        (["robustness", "run", "--n", "60", "--trials", "2",
          "--eta-grid", "0,0.1", "--alpha-grid", "1.1,2",
          "--csv", "rob.csv"], "rob.csv"),
        (["--config", "rob.cfg", "robustness", "run", "--csv", "rob2.csv"],
         "rob2.csv"),
    ]
    outputs = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with open("rob.cfg", "w", encoding="utf-8") as fh:
                fh.write(ROBUSTNESS_CONFIG)
            for argv, path in runs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    code = cli_main(argv)
                with open(path, encoding="utf-8") as fh:
                    outputs.append((argv, code, buf.getvalue(), fh.read()))
        finally:
            os.chdir(cwd)
    return outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dump", metavar="PATH",
                    help="write every output value and group digest here")
    ap.add_argument("--against", metavar="PATH",
                    help="compare with a dump written by --dump")
    args = ap.parse_args(argv)
    reference = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            reference = json.load(fh)
    m1 = model_for(MATERN)
    groups = {
        "fits": fits,
        "run_trial": lambda: [
            run_trial(m1, MATERN, alpha, 0.05, 80, i, 3, mc_points=5000)
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
    dump = {}
    failed = False
    for name, make in groups.items():
        values: list = []
        leaves(make(), "", values)
        d = digest(values)
        total.update(d.encode())
        dump[name] = {"digest": d, "values": values}
        verdict = ""
        if reference is not None:
            theirs = reference[name]
            if theirs["digest"] == d:
                verdict = "  byte-identical"
            else:
                # a JSON round trip, so both sides hold the same types
                problem, worst = compare(
                    name, json.loads(json.dumps(values)), theirs["values"])
                failed = failed or problem is not None
                verdict = f"  DIFFERS {problem}" if problem else \
                    f"  within {RTOL:g} relative (largest {worst:.2g})"
        print(f"{name:26s} {d}{verdict}")
    print(f"{'all':26s} {total.hexdigest()}")
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
