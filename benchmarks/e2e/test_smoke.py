"""The benchmark prints exactly the metrics ``BENCHMARK.json`` declares.

``--quick`` runs every workload on two tiny programs in a few seconds;
the timings it prints mean nothing, the names, units and correctness
checks are the real ones.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*args):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in SPEC["workloads"]]
)
def test_quick_run_prints_the_declared_metrics(workload):
    assert NAME.fullmatch(workload)
    result = _run("--quick", "--workload", workload, "--trace", "both")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {
        metric["name"]: metric["unit"]
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert metric["unit"] == units[name]
        assert math.isfinite(metric["value"]), name
