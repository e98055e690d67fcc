"""The benchmark command end to end: result line, metric names, refusal."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.layers import PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_what_the_benchmark_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in SPEC["workloads"]} == {"artifact", "serve-memory", "serve-paged", "update"}


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_serve_memory_run(trace, section):
    proc = _run(ROOT, "--workload", "serve-memory", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    detail = json.loads(lines[-2])
    assert detail["detail"]["error_ratio"] == 0.0
    assert detail["context"]["seed"] == 3
    if trace == "1":
        split = detail["detail"]["layer_split_ms"]
        parts = sum(v for k, v in split.items() if k != "end_to_end")
        assert abs(parts - split["end_to_end"]) < 1e-6 * split["end_to_end"]
    assert not (ROOT / ".perfbench_tmp").exists()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "update", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
