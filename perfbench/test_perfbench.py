"""Self-test of the benchmark, on shortened versions of its workloads.

    python3 -m pytest perfbench

Checks that the traced run is read-only (its digests match an untraced
run), that per-layer counts repeat exactly, that the output checks can
fail, and that the command keeps its output contract.
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from workloads import (  # noqa: E402
    REFERENCE_CALIBRATION_S,
    Outcome,
    PaperSweep,
    SingleRun,
    calibration_all_cores,
    calibration_s,
    host_scaled,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"] + [
    "sched.hit_ratio",
    "cache.hit_ratio",
]

LOCALITY_SHORT = SingleRun("locality_short", "LOCAL", "DATA_LOCALITY", grid=4)
FIFO_SHORT = SingleRun("fifo_short", "SHARED", "GENERATION_ORDER", grid=8)
SWEEP_SHORT = PaperSweep("sweep_short", figures=("fig1", "fig12"))


@pytest.mark.parametrize(
    "workload", [LOCALITY_SHORT, FIFO_SHORT, SWEEP_SHORT], ids=lambda w: w.name
)
def test_traced_runs_repeat_counts_and_match_untraced_outputs(workload, tmp_path):
    expected = workload.observe()
    runs = []
    for attempt in ("first", "second"):
        outcome = Outcome()
        layers, _tracer = workload.trace(expected, tmp_path / attempt, outcome)
        # Each traced call checks an untraced and a traced operation
        # against outputs recorded untraced: a wrapper that changed
        # behaviour would fail here.
        assert outcome.failed == 0, outcome.problems
        runs.append(layers)
    first, second = runs
    assert {name: first[name] for name in EXACT} == {
        name: second[name] for name in EXACT
    }
    assert first["exec.tasks"] > 0
    assert first["trace.rows"] > 0 and first["engine.events"] > 0


def test_sweep_trace_sees_pool_workers_and_host_layers(tmp_path):
    expected = SWEEP_SHORT.observe()
    outcome = Outcome()
    layers, _tracer = SWEEP_SHORT.trace(expected, tmp_path, outcome)
    assert outcome.failed == 0, outcome.problems
    assert layers["sweep.executed"] == layers["pool.items"] > 0
    assert layers["cache.files_written"] == layers["sweep.executed"]
    assert layers["cache.gets"] == 2 * layers["sweep.executed"]
    assert layers["cache.hit_ratio"] == 0.5
    assert layers["pool.workers"] >= 1
    assert 0.0 < layers["pool.efficiency"] <= 1.0


def test_host_scaling_divides_out_the_calibration():
    assert host_scaled(3.0, 2 * REFERENCE_CALIBRATION_S) == pytest.approx(1.5)
    assert host_scaled(3.0, REFERENCE_CALIBRATION_S) == pytest.approx(3.0)
    assert calibration_s() > 0
    assert calibration_all_cores() > 0


def test_tampered_digest_drives_failures(tmp_path):
    expected = dict(FIFO_SHORT.observe(), trace_digest="0" * 64)
    untraced = Outcome()
    FIFO_SHORT.measure(0.0, expected, tmp_path / "plain", untraced)
    assert untraced.failed_share > 0
    traced = Outcome()
    FIFO_SHORT.trace(expected, tmp_path / "traced", traced)
    assert traced.failed_share > 0


def test_tampered_tables_hash_drives_failures(tmp_path):
    expected = dict(SWEEP_SHORT.observe(), tables_sha256="0" * 64)
    outcome = Outcome()
    SWEEP_SHORT.measure(0.0, expected, tmp_path, outcome)
    assert outcome.failed == 1  # the cold pass; warm passes match it


def test_command_prints_the_end_to_end_metrics_last():
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            "fifo_contended",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fifo_contended",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
