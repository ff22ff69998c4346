"""Tiny-size runs of every workload through the benchmark's CLI."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import run

run.bootstrap()

from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, str]:
    code = run.main(
        [
            "--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny",
        ]
    )
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(capsys, workload):
    code, result, out = _run(capsys, workload, 0)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [metric["name"] for metric in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0
    # cold_idle runs by name only, as idle_cores' latch-free baseline.
    listed = {w["name"] for w in SPEC["workloads"]}
    assert listed | {"cold_idle"} == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(capsys, workload):
    code, result, out = _run(capsys, workload, 1)
    # Exit 0 also means traced and untraced fingerprints agreed.
    assert code == 0, out
    names = [metric["name"] for metric in SPEC["per_layer"]]
    assert list(result["metrics"]) == names
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cold_idle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
