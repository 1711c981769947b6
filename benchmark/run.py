"""Benchmark launcher: one workload, closed loop, one client, BLAS on one thread.

    python3 benchmark/run.py --workload rates-1d --seed 1 --seconds 20 --trace 0

Run from the root of a kernelrisk checkout; the library is imported from its
``src/``.  The launcher pins BLAS to one thread in the environment before any
process imports numpy, measures set-up in SETUP_RUNS fresh processes (one
of which also runs the timed rounds) and prints, as its last line, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a separate
traced pass with ``--trace 1``.  It exits nonzero, printing no result, when
the checkout has no library or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# The launcher never imports numpy or the library, so it names the workloads.
WORKLOADS = ("rates-1d", "oracle-1d", "robust-2d")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Set-up is timed in this many fresh processes and reported as the median.
SETUP_RUNS = 5
# Every run, set-up processes included, must end within this many seconds.
DEADLINE_S = 170.0


def run_worker(argv: list[str], deadline: float) -> tuple[list[str], dict]:
    """Start one workload process, wait for it, return its lines and result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "kernelrisk", "__init__.py")):
        print("run.py: no src/kernelrisk here; run from a kernelrisk checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)] + (["--tiny"] if args.tiny else [])

    def setup_probe():
        return run_worker(common + ["--setup-only"], deadline)[1]["setup_s"]

    try:
        # Probes before and after the workload process: the host's speed
        # drifts over tens of seconds, and one burst would hit them all.
        setups = [setup_probe() for _ in range(SETUP_RUNS // 2)]
        extra = []
        if args.trace:
            out_dir = os.path.join(HERE, "out")
            os.makedirs(out_dir, exist_ok=True)
            extra = ["--trace", "1", "--trace-out", os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json")]
        lines, res = run_worker(common + extra, deadline)
        setups += [setup_probe() for _ in range(SETUP_RUNS - 1 - len(setups))]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    for line in lines:
        print(line)
    print(f"# setup_s runs: {', '.join(f'{s:.4f}' for s in setups)}")

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "trials_per_s": {"value": res["trials_per_s"], "unit": "trials/s"},
            "cpu_s_per_trial": {"value": res["cpu_s_per_trial"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
