"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

Each test starts run.py as a separate process, as a user would.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(root, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def _traced_counts(workload, seed):
    proc = _run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in ("count", "B")}


@pytest.mark.parametrize("workload", ["sweep_c04", "deep_battery", "scalar_lab"])
def test_counts_repeat_exactly_for_a_fixed_seed(workload):
    first = _traced_counts(workload, 5)
    assert any(first.values())
    assert _traced_counts(workload, 5) == first


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "scalar_lab", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
