"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits every metric of BENCHMARK.json with its
unit, that its outputs pass their checks, that each layer named in
``spec.json`` shows work on the workloads it runs on, that traced spans nest
under their op, and that the benchmark refuses to run without the program.
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
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = SPEC["default_seed"]

# Values that may legitimately be zero or negative where their layer runs:
# cache misses after warm-up, blank targets in a tiny corpus, timing noise.
MAY_BE_ZERO = {"glyphs.render_count", "losses.degenerate_targets", "trace.overhead_pct"}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def expected_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result_of(run_bench(workload, 0))["metrics"]
    units = expected_units("end_to_end")
    assert {name: m["unit"] for name, m in metrics.items()} == units
    for name, entry in metrics.items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_nesting(workload):
    metrics = result_of(run_bench(workload, 1))["metrics"]
    units = expected_units("per_layer")
    assert {name: m["unit"] for name, m in metrics.items()} == units
    for name, where in SPEC["layer_map"].items():
        if workload in where["on"] and name not in MAY_BE_ZERO:
            assert metrics[name]["value"] > 0, f"{name} shows no work on {workload}"

    spans_file = HERE / "out" / f"spans-{workload}-seed{SEED}-tiny.jsonl"
    spans = [json.loads(line) for line in spans_file.read_text(encoding="utf-8").splitlines()]
    assert any(s["name"] == "op" for s in spans)
    for span in spans:
        assert span["start"] <= span["end"]
        node = span
        while node["parent"] is not None:
            parent = spans[node["parent"]]
            assert parent["start"] <= node["start"] and node["end"] <= parent["end"]
            assert parent["op"] == span["op"]
            node = parent
        if span["op"] is None:
            assert node["name"] != "op"
        else:
            assert node["name"] == "op" and node["op"] == span["op"]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
