"""Whole-run behaviour: exact work counts, determinism, the contract of run.py.

Run from the repository root:  python3 -m pytest perfbench/tests
The determinism test drives every workload twice and takes a few minutes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", [w["name"] for w in bench.spec()["workloads"]])
def test_same_seed_gives_identical_counts_and_outputs(workload, tmp_path):
    runs = []
    for k in range(2):
        work = tmp_path / f"run{k}"
        work.mkdir()
        # seconds=0: exactly one untraced and one traced round
        runs.append(bench.run_workload(workload, 3, 0.0, True, work))
    first, second = runs
    assert first.correct and second.correct, first.messages + first.nondeterminism + second.nondeterminism
    assert first.counts == second.counts
    assert first.digests == second.digests
    assert first.counts["experiments.bytes_written"] > 0
    if workload == "sampling-q5":
        # 1000 shots per scheme per repetition: result2 2 schemes x 10 params, result3 3 x 1 x 2 params
        assert first.counts["experiments.shots_drawn"] == 1000 * bench.SAMPLING_REPS * (2 * 10 + 3 * 2)
    if workload == "node-search":
        assert first.counts["variance.optimize_shifts_global.calls"] == 19
    if workload == "testbed-q10":
        assert first.counts["qsim.generator_bytes"] == 8 * 16 * 4**10


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "landscape", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unknown_workload_is_refused():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "nope", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode == 2 and proc.stdout == ""
