"""Self-test of the benchmark: each workload at a tiny size prints every
metric BENCHMARK.json names, and the launcher refuses a tree without the
library.  From the root of the checkout (about 30 s):

    python3 -m pytest benchmark/test_benchmark.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def launch(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("benchmark", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace, section):
    proc = launch(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                  "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))


def test_refuses_a_tree_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = launch(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                  "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
