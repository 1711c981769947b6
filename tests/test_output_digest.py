"""Tests for the comparison rules of scripts/output_digest.py, and the
seeded outputs checked against the committed dump."""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "output_digest.py"
DUMP = ROOT / "tests" / "data" / "output_digest.json"


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the script pins BLAS threads
        spec.loader.exec_module(module)
    return module


od = load_script()


def agrees(a, b) -> bool:
    return od.gap(a, b) <= od.RTOL


def test_float_tolerance():
    x = 0.7
    assert agrees(x, x * (1 + 1e-13))
    assert not agrees(x, x * (1 + 1e-11))
    assert od.compare("g", [["a", x]], [["a", x * (1 + 1e-13)]])[0] is None
    problem, worst = od.compare("g", [["a", x]], [["a", x * (1 + 1e-11)]])
    assert problem is not None and worst > od.RTOL


def test_nan_matches_only_nan():
    nan = math.nan
    assert od.gap(nan, nan) == 0.0
    assert od.gap(nan, 1.0) == math.inf
    assert od.gap(1.0, nan) == math.inf
    assert od.compare("g", [["a", nan]], [["a", nan]])[0] is None
    assert od.compare("g", [["a", nan]], [["a", 0.0]])[0] is not None


def test_numbers_in_text_compare_as_numbers():
    assert od.gap("eps=1.5e-3 ok", "eps=0.0015 ok") == 0.0
    assert agrees("K=2.0000000000000 x", "K=2.0000000000001 x")
    assert not agrees("K=2.00000000001 x", "K=2.00000000000 x")
    assert not agrees("K=2.0 x", "L=2.0 x")
    assert not agrees("K=2.0 pass", "K=2.0 FAIL")
    assert not agrees("n=3", "n=4")  # integers must be equal


def test_lists_of_different_length_differ():
    problem, worst = od.compare("g", [["a", 1]], [["a", 1], ["b", 2]])
    assert problem is not None and worst == math.inf


def test_added_path_does_not_hide_a_changed_value():
    mine = [["a", 1], ["b", 0.5], ["new", 3]]
    theirs = [["a", 1], ["b", 0.6]]
    problem, worst = od.compare("g", mine, theirs)
    assert worst == math.inf
    assert "added paths: 1, first gnew" in problem
    assert "gb: 0.5 against 0.6" in problem
    problem, _ = od.compare("g", theirs, mine)
    assert "missing paths: 1, first gnew" in problem
    assert "gb: 0.6 against 0.5" in problem


def run_against_dump(threads: str) -> None:
    # a subprocess, so the BLAS thread count is set before numpy loads.  A
    # change that moves seeded outputs on purpose rewrites the dump with
    # `PYTHONPATH=src python3 scripts/output_digest.py --dump` and names the
    # moved groups in CHANGES.md
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(SCRIPT), "--against",
                           str(DUMP)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_seeded_outputs_match_the_committed_dump():
    run_against_dump("1")


def test_seeded_outputs_match_the_dump_at_two_blas_threads():
    # byte identity holds at one thread count; across counts the outputs
    # must still agree within the dump's 1e-12 relative tolerance
    run_against_dump("2")
