"""Reading result records: the machine block, run sets, spreads and comparisons."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from bench_common import report

#: Regression bounds of the end-to-end metrics only some workloads have.  The
#: contract lists those in ``per_layer`` (every workload must report every
#: ``end_to_end`` metric), so ``BENCHMARK.json`` cannot carry their bounds.
USER_BOUNDS = {
    "read_p50_ms": 0.10, "read_p95_ms": 0.10, "write_p50_ms": 0.10, "write_p95_ms": 0.10,
    "wal_bytes_per_user_byte": 0.01, "checkpoint_s": 0.10, "recovery_s": 0.10,
    "serial_batch_ms": 0.10, "pinned_batch_ms": 0.10, "process_batch_ms": 0.10,
    "replica_batch_ms": 0.10, "failed_share": 0.0,
}


def catalogue(spec: dict) -> Dict[str, dict]:
    """Every metric of ``BENCHMARK.json`` by name, with its bound where it has one."""
    metrics = {}
    for entry in spec["per_layer"]:
        metrics[entry["name"]] = dict(entry, bound=USER_BOUNDS.get(entry["name"]))
    for entry in spec["end_to_end"]:
        metrics[entry["name"]] = dict(entry)
    return metrics


def filesystem_of(path: Path) -> str:
    """The filesystem type *path* lives on, from ``/proc/mounts`` (Linux)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                _, mount, fstype = line.split()[:3]
                if str(path.resolve()).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def machine(repo: Path, workdir: Path) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()} ({platform.python_compiler()})",
        "gil": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "platform": platform.platform(),
        "git_commit": commit or "unknown (not a git checkout)",
        "workdir_filesystem": filesystem_of(workdir),
    }


# ------------------------------------------------------------------ printing


def print_record(record: dict, units: Dict[str, dict]) -> None:
    """One run: every metric by name with unit, sample count and quartiles."""
    title = (
        f"{record['workload']}  seed={record['seed']} scale={record['scale']} "
        f"seconds={record['seconds']} trace={record['trace']} fsync={record['fsync']}  "
        f"attempted={record['attempted']} failed={record['failed']} correct={record['correct']}"
    )
    rows = []
    for name, stat in record["metrics"].items():
        spread = f"q1={stat['q1']:.6g} q3={stat['q3']:.6g}" if "q1" in stat else ""
        rows.append((name, f"{stat['value']:.6g}", units[name]["unit"], f"n={stat['n']}", spread))
    report(title, rows)
    for error in record["errors"]:
        print("  ! " + error.replace("\n", "\n    "))


def run_sets(records: Iterable[dict]) -> Dict[Tuple[str, str], List[float]]:
    """Values by (workload, metric).  The untraced run of a workload wins where
    both runs report a metric: its timed phase is the whole of ``--seconds``."""
    values: Dict[Tuple[str, str], List[float]] = {}
    untraced = set()
    for record in sorted(records, key=lambda r: r["trace"]):
        for name, stat in record["metrics"].items():
            key = (record["workload"], name)
            if record["trace"] == 0:
                untraced.add(key)
            elif key in untraced:
                continue
            values.setdefault(key, []).append(stat["value"])
    return values


def spread_of(values: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median (``None`` under 2 runs)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))


def print_spreads(records: List[dict], metrics: Dict[str, dict]) -> None:
    """``--repeat``: median and quartile distance per metric and workload."""
    print(f"\n{'workload':15s} {'metric':42s} {'median':>12s} {'unit':6s} {'runs':>4s} {'spread':>8s} {'bound':>7s}")
    for (workload, name), values in run_sets(records).items():
        bound = metrics[name].get("bound")
        spread = spread_of(values)
        verdict = ""
        if bound is not None and spread is not None:
            verdict = "unresolved" if spread > bound else "steady"
        print(
            f"{workload:15s} {name:42s} {statistics.median(values):12.6g} {metrics[name]['unit']:6s} "
            f"{len(values):4d} {_share(spread):>8s} {_share(bound):>7s} {verdict}"
        )


def compare(path_a: str, path_b: str, metrics: Dict[str, dict]) -> int:
    """``--compare A.json B.json``: is B worse than A by more than the bound?"""
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            sets.append(run_sets(json.load(handle)["runs"]))
    before, after = sets
    regressions = 0
    print(f"{'workload':15s} {'metric':42s} {'A':>12s} {'B':>12s} {'worse by':>9s} {'spread':>8s} {'bound':>7s}")
    for key in before:
        if key not in after:
            continue
        workload, name = key
        a, b = statistics.median(before[key]), statistics.median(after[key])
        sign = 1.0 if metrics[name]["better"] == "lower" else -1.0
        worse = sign * (b - a) / abs(a) if a else (0.0 if b == a else float("inf"))
        spreads = [s for s in (spread_of(before[key]), spread_of(after[key])) if s is not None]
        spread = max(spreads) if spreads else None
        bound = metrics[name].get("bound")
        verdict = ""
        if bound is not None:
            if spread is not None and spread > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
        print(
            f"{workload:15s} {name:42s} {a:12.6g} {b:12.6g} {_share(worse):>9s} "
            f"{_share(spread):>8s} {_share(bound):>7s} {verdict}"
        )
    return 1 if regressions else 0


def _share(value: Optional[float]) -> str:
    return "-" if value is None else f"{value * 100:+.1f}%" if value < 0 else f"{value * 100:.1f}%"
