"""Self-test of the benchmark: exact work counts repeat, metric names match
BENCHMARK.json, and a directory without the program yields no result.

Run from the root of the checkout (takes about two minutes):

    python3 -m pytest -q perfbench/test_counts.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("predict_all", "certify", "landscape", "montecarlo")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench(workload: str, seed: int, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    names = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    runs = [result(bench(workload, 7, 1)) for _ in range(2)]
    for run in runs:
        assert run["correct"] and run["failed"] == 0
        assert {k: v["unit"] for k, v in run["metrics"].items()} == names
    counts = [
        {k: v["value"] for k, v in run["metrics"].items() if v["unit"] in ("count", "ratio")}
        for run in runs
    ]
    assert counts[0] == counts[1]


def test_end_to_end_names_and_values():
    run = result(bench("landscape", 7, 0))
    assert run["correct"]
    assert {k: v["unit"] for k, v in run["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec()["end_to_end"]
    }
    assert all(v["value"] > 0 for v in run["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("landscape", 7, 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
