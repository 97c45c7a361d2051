"""Smoke test of the benchmark: every workload at a tiny size.

Each workload must emit, with its unit, exactly the end-to-end metrics of
``BENCHMARK.json`` untraced and exactly its per-layer metrics traced, and
pass its output checks.  Without the package sources the benchmark must
fail without printing a result.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_emits_every_metric(workload, trace, section):
    done = run_benchmark(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert math.isfinite(value["value"])


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    done = run_benchmark(
        tmp_path, "--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
