"""One workload in one fresh process: set-up, timed rounds, checks.

Started by ``run.py`` with BLAS already pinned through the environment.
Prints progress lines starting with ``#`` and, last, one JSON object for the
launcher.  ``--setup-only`` stops right before the first timed trial.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest child (Linux KiB)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def blas_threads_in_use():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata() -> dict:
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_use": blas_threads_in_use(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "processor": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def timed_rounds(wl, seed: int, seconds: float | None, rounds: int | None):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``.

    Returns one (wall s, CPU s, trials) triple per round.
    """
    out = []
    start = time.perf_counter()
    while (len(out) < rounds) if rounds is not None else \
            (not out or time.perf_counter() - start < seconds):
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        trials = wl.run_round(10_000 * seed + len(out))
        out.append((time.perf_counter() - wall0, cpu_seconds() - cpu0, trials))
    return out


def layer_metrics(tracer, first, trials, wall_traced, wall_untraced):
    """Per-layer metrics of the traced pass (spans from index ``first``),
    per trial, plus the set-up spans' covering times; and the span table."""
    from tracing import layer_times
    setup = layer_times(tracer.spans[:first], 0, 0.0)
    times = layer_times(tracer.spans, first, wall_traced)
    c = tracer.counts

    def total(name, table=times):
        return table.get(name, {}).get("total_s", 0.0)

    trial_spans = [e - s for name, s, e, _, _ in tracer.spans[first:]
                   if name in ("experiments.run_trial", "validate.trial")]
    per = 1.0 / trials
    values = {
        "kernels.gram_s": (total("kernels.gram") * per, "s/trial"),
        "kernels.gram_entries": (c["gram_entries"] * per, "count/trial"),
        "kernels.eval_s": (total("kernels.eval") * per, "s/trial"),
        "kernels.eval_kernel_terms": (c["eval_kernel_terms"] * per,
                                      "count/trial"),
        "solver.fit_s": (total("solver.fit") * per, "s/trial"),
        "solver.fits": (c["fits"] * per, "count/trial"),
        "solver.iterations": (c["iterations"] * per, "count/trial"),
        "solver.factorizations": (c["factorizations"] * per, "count/trial"),
        "solver.factor_s": (total("solver.factor") * per, "s/trial"),
        "solver.factor_gflop": (c["factor_gflop"] * per, "GFLOP/trial"),
        "solver.stall_stops": (c["stall_stops"] * per, "count/trial"),
        "data.generate_s": (total("data.generate") * per, "s/trial"),
        "data.quadrature_s": (total("data.quadrature") * per, "s/trial"),
        "data.quadrature_nodes": (c["quadrature_nodes"] * per, "count/trial"),
        "data.mc_s": (total("data.mc") * per, "s/trial"),
        "data.mc_points": (c["mc_points"] * per, "count/trial"),
        "covering.fit_s": (total("covering.fit", setup), "s"),
        "covering.eigvalsh_s": (total("covering.eigvalsh", setup), "s"),
        "experiments.trial_s_p50": (statistics.median(trial_spans)
                                    if trial_spans else 0.0, "s"),
        "validate.threshold_evals": (c["threshold_evals"] * per,
                                     "count/trial"),
        "trace.overhead_s": ((wall_traced - wall_untraced) * per, "s/trial"),
    }
    return values, times


def print_shares(times: dict, wall: float) -> None:
    print(f"# traced pass {wall:.3f} s; share of wall time by span "
          f"(self = minus child spans, total = inclusive)")
    for name, row in sorted(times.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"#   {name:34s} self {100 * row['self_s'] / wall:6.2f}%  "
              f"total {100 * row['total_s'] / wall:6.2f}%  "
              f"calls {row['calls']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() when the launcher started us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from tracing import Tracer
    import workloads

    tracer = Tracer()
    cap = workloads.Capture()
    workloads.instrument(tracer, cap)
    tracer.enabled = bool(args.trace)
    wl = workloads.WORKLOADS[args.workload](tracer, cap, args.tiny)
    wl.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer.enabled = False
    cap.clear()
    meta = metadata()
    print("# meta " + json.dumps(meta))
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = timed_rounds(wl, args.seed, seconds, None)
    rss = peak_rss_mib()
    trials = sum(r[2] for r in rounds)
    out = {"setup_s": setup_s, "rounds": len(rounds),
           "trials_per_s": trials / sum(r[0] for r in rounds),
           "cpu_s_per_trial": sum(r[1] for r in rounds) / trials,
           "peak_rss_mb": rss}
    print("# round wall s: " + " ".join(f"{r[0]:.3f}" for r in rounds))
    if args.trace:
        # the same rounds again, traced: identical inputs and work
        first = len(tracer.spans)
        tracer.counts.clear()
        tracer.enabled = True
        traced = timed_rounds(wl, args.seed, None, len(rounds))
        tracer.enabled = False
        t_wall = sum(r[0] for r in traced)
        out["layers"], times = layer_metrics(
            tracer, first, trials, t_wall, sum(r[0] for r in rounds))
        print_shares(times, t_wall)
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "meta": meta, "fields": ["name", "start", "end",
                                                    "parent", "trial"],
                           "first_traced": first, "spans": tracer.spans}, fh)

    attempted, problems = wl.check()
    unexpected = [(op, p) for op, ps in problems.items() for p in ps
                  if not wl.known_fault(op, p)]
    known = sum(1 for op, ps in problems.items()
                if all(wl.known_fault(op, p) for p in ps))
    print(f"# rounds {len(rounds)}, trials {attempted} checked, {len(problems)} "
          f"failed ({known} by the counted certificate fault only)")
    for op, p in unexpected[:20]:
        print(f"# check failed: trial {op}: {p}")
    out.update(attempted=attempted, failed=len(problems),
               correct=not unexpected)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
