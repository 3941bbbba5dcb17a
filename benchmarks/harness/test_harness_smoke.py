"""Smoke test of the benchmark harness: ``python -m pytest benchmarks/harness -q``.

Runs the whole suite at ``--quick`` scale (about half a minute) and checks the
shape of what it reports against ``BENCHMARK.json``.  The numbers of a quick
run are not comparable with anything.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parent
REPO = HARNESS.parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))


def harness(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HARNESS), *arguments],
        cwd=REPO, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    directory = tmp_path_factory.mktemp("harness")
    done = harness(
        "--quick", "--out", str(directory / "quick.json"),
        "--trace-out", str(directory / "trace.json"), "--workdir", str(directory / "work"),
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return directory, json.loads((directory / "quick.json").read_text(encoding="utf-8"))


def test_quick_suite_reports_every_named_metric(quick):
    directory, result = quick
    runs = {(run["workload"], run["trace"]): run for run in result["runs"]}
    assert set(runs) == {(w["name"], trace) for w in SPEC["workloads"] for trace in (0, 1)}
    emitted = set()
    for (workload, trace), run in runs.items():
        metrics = run["metrics"]
        assert run["correct"] and run["failed"] == 0, run["errors"]
        assert metrics["failed_share"]["value"] == 0
        assert all(math.isfinite(stat["value"]) for stat in metrics.values())
        emitted |= set(metrics)
        if trace == 0:
            assert all(metrics[entry["name"]]["value"] > 0 for entry in SPEC["end_to_end"]), workload
        else:
            assert metrics["storage.engine.snapshot_builds"]["value"] == 1, workload
            assert 0.9 <= metrics["trace.reconcile_share"]["value"] <= 1.1, workload
            assert "trace.overhead_share" in metrics
            spans = json.loads((directory / f"trace.{workload}.json").read_text(encoding="utf-8"))
            assert {"name", "start_ns", "end_ns", "parent", "stmt_id"} == set(spans[0])
    named = {entry["name"] for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert emitted == named
    assert result["machine"]["cpu_count"] and "gil" in result["machine"]
    assert not list((directory / "work").iterdir()), "the harness left files in its workdir"


def test_last_line_is_the_contract(quick):
    directory, _ = quick
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = harness(
            "--workload", "write_durable", "--trace", str(trace), "--seed", "7",
            "--quick", "--workdir", str(directory / "work"),
        )
        assert done.returncode == 0, done.stderr[-3000:]
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [entry["name"] for entry in SPEC[section]]
        for entry in SPEC[section]:
            assert line["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_compare_of_a_run_set_with_itself_finds_no_regression(quick):
    directory, _ = quick
    done = harness("--compare", str(directory / "quick.json"), str(directory / "quick.json"))
    assert done.returncode == 0, done.stdout[-3000:]
    assert "REGRESSION" not in done.stdout
