"""Checks of the benchmark itself (not collected by the tier-1 suite).

Run from the repository root::

    python3 -m pytest -q perfbench/check_counts.py

* ``BENCHMARK.json`` names exactly the workloads (with their reasons)
  and the metrics ``run.py`` reports.
* Two traced runs of one seed pass the oracle gate and report identical
  input-determined layer counts (:data:`run.DETERMINISTIC_COUNTS`).  The
  timing-dependent counts (:data:`run.TIMING_DEPENDENT_COUNTS`) are left out.
* Without the repository's sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import (  # noqa: E402
    DETERMINISTIC_COUNTS,
    END_TO_END,
    PER_LAYER,
    TIMING_DEPENDENT_COUNTS,
    WORKLOAD_NAMES,
)
from inputs import WORKLOADS  # noqa: E402

SEED = 5


def _run(workload: str, cwd: Path = ROOT, trace: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(process: subprocess.CompletedProcess) -> dict:
    assert process.returncode == 0, process.stderr
    return json.loads(process.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_program():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: config.why for name, config in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


def test_count_lists_are_disjoint_layer_metrics():
    assert not set(DETERMINISTIC_COUNTS) & set(TIMING_DEPENDENT_COUNTS)
    assert set(DETERMINISTIC_COUNTS) | set(TIMING_DEPENDENT_COUNTS) <= set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_layer_counts_repeat_exactly_for_a_seed(workload):
    first, second = _result(_run(workload)), _result(_run(workload))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(PER_LAYER)
    for name in DETERMINISTIC_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    process = _run("snb_notify", cwd=tmp_path, trace=0)
    assert process.returncode != 0
    assert '"correct"' not in process.stdout
