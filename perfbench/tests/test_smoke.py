"""Smoke test of the benchmark: a tiny run of every workload, untraced and traced.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> list[str]:
    proc = subprocess.run(
        [sys.executable, str(RUN), *args], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


def summary_value(lines: list[str], name: str) -> tuple[float, str]:
    """Value and unit of a metric from the human-readable summary lines."""
    for line in lines:
        parts = line.split()
        if parts and parts[0] == name:
            return float(parts[1]), parts[2]
    raise AssertionError(f"{name} not printed")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        entry = final["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0
        assert summary_value(lines, metric["name"])[1] == metric["unit"]
    assert set(final["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert summary_value(lines, "failed_ratio") == (0.0, "ratio")
    if workload == "optimize":
        hit, unit = summary_value(lines, "opt_hit_ratio")
        assert unit == "ratio" and 0.0 <= hit <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    lines = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    final = json.loads(lines[-1])
    assert final["correct"] is True and final["failed"] == 0
    assert set(final["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert final["metrics"][metric["name"]]["unit"] == metric["unit"]
    values = {k: v["value"] for k, v in final["metrics"].items()}
    layer_self = sum(v for k, v in values.items() if k.endswith(".self_ms"))
    assert layer_self == pytest.approx(values["trace.task_ms"], rel=1e-9)


def test_compare_reports_a_verdict_per_metric(tmp_path):
    results = ROOT / "perfbench" / "results"
    lines = bench("--workload", "bounds", "--seed", "4", "--seconds", "1", "--trace", "0")
    assert json.loads(lines[-1])["correct"] is True
    newest = max(results.glob("bounds-seed4-trace0-*.json"), key=lambda p: p.stat().st_mtime)
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
        shutil.copy(newest, tmp_path / side / newest.name)
    out = bench("--compare", str(tmp_path / "base"), str(tmp_path / "change"))
    rows = [line.split() for line in out if line.startswith("bounds ")]
    verdicts = {row[1]: row[-1] for row in rows if row[1] != "failed"}
    assert verdicts == {m["name"]: "same" for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
