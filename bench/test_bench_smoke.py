"""Smoke tests for the benchmark at small N.

They check that every metric named in BENCHMARK.json is emitted with its
unit and that the correctness gates pass.  Nothing here depends on timing.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run_bench
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes_gates(workload):
    result = run_bench.run_benchmark(workload, seed=5, seconds=0.0, trace=True, smoke=True)
    assert result["failed_gates"] == []
    assert result["attempted"] > 0
    assert set(result["end_to_end"]) == names("end_to_end")
    assert set(result["per_layer"]) == names("per_layer")
    for value in list(result["end_to_end"].values()) + list(result["per_layer"].values()):
        assert math.isfinite(value)
    assert all(v > 0 for v in result["end_to_end"].values())
    assert 0 < result["per_layer"]["trace.self_time_share"] <= 1


def test_layer_moves_names_every_per_layer_metric():
    moves = json.loads((BENCH / "layer_moves.json").read_text())
    assert set(moves) == names("per_layer")
    workload_names = names("workloads")
    for entry in moves.values():
        assert set(entry["metrics"]) <= names("end_to_end")
        assert set(entry["workloads"]) <= workload_names
        assert entry["metrics"] or entry.get("note")


def test_translation_is_a_symmetry_across_seeds(tmp_path):
    """Two seeds pick different node translations of the blowup datum; the
    fitted blowup time must agree to roundoff."""
    from spans import NullTracer

    rel = []
    for seed in (1, 2):
        wl = workloads.WORKLOADS["blowup_ifrk4"](tmp_path, True)
        wl.setup(seed)
        res = wl.run_pass(NullTracer())
        assert all(ok for _, ok in res.gates), res.gates
        rel.append(res.values["rel_T_err"])
    assert abs(rel[0] - rel[1]) <= workloads.TRANSLATION_TOL


def test_command_prints_result_as_last_line():
    cmd = [sys.executable, str(BENCH / "run_bench.py"), "--workload", "verify_small_n",
           "--seed", "3", "--seconds", "0", "--trace", "0", "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "bench/run_bench.py", "--workload", "verify_small_n",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
