"""E-PERF6 — durability: WAL fsync policies vs. in-memory, and recovery time.

Measures what the write-ahead log costs and what it buys:

* **writer throughput** — the E-PERF5 writer burst (INSERT / MODIFY / DELETE
  rounds over the bill-of-materials dataset) on the in-memory baseline vs.
  durable engines under the three fsync policies (``off`` / ``batch`` /
  ``always``), reporting wall-clock overheads and the WAL telemetry
  (records, bytes, fsyncs) of each policy;
* **recovery time vs. log length** — engines whose logs hold increasing
  numbers of commit records are reopened cold; recovery wall-clock must grow
  with the log, replay every record, and reproduce a byte-identical store
  state (asserted per point);
* **checkpointing** — after ``checkpoint()`` the log is empty and a reopen
  replays zero records while preserving the same state.

Run standalone to emit ``BENCH_durability.json``::

    python benchmarks/bench_perf_durability.py [--quick] [-o OUT.json]
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from bench_common import parse_benchmark_args, write_report

from repro.core.atom import reset_surrogate_counter
from repro.datasets.bill_of_materials import build_bill_of_materials
from repro.storage import DurabilityConfig, PrimaEngine

FSYNC_POLICIES = ("off", "batch", "always")


def writer_round(engine: PrimaEngine, index: int) -> None:
    """One writer burst: create, re-price and retire a transient part."""
    code = f"W{index:05d}"
    engine.query(
        f"INSERT part VALUES {{part_no: '{code}', description: 'writer part', "
        f"level: 9, cost: {100 + index}}};"
    )
    engine.query(
        f"MODIFY part FROM part SET cost = {200 + index} WHERE part.part_no = '{code}';"
    )
    engine.query(f"DELETE FROM part WHERE part.part_no = '{code}';")


def build_engine(depth: int, fan_out: int, directory=None, fsync: str = "batch") -> PrimaEngine:
    reset_surrogate_counter()
    database = build_bill_of_materials(depth=depth, fan_out=fan_out, share_every=3)
    durability = (
        DurabilityConfig(directory, fsync=fsync) if directory is not None else None
    )
    engine = PrimaEngine.from_database(database, durability=durability)
    engine.query("SELECT ALL FROM part WHERE part.cost > 0;")  # warm caches
    return engine


def store_state(engine: PrimaEngine) -> str:
    """A byte-stable fingerprint of the engine's database."""
    database = engine.to_database()
    atoms = {
        atom_type.name: {atom.identifier: atom.values for atom in atom_type}
        for atom_type in database.atom_types
    }
    links = {
        link_type.name: sorted(sorted(link.given_order) for link in link_type)
        for link_type in database.link_types
    }
    return json.dumps({"atoms": atoms, "links": links}, sort_keys=True, default=str)


def run_writers(engine: PrimaEngine, rounds: int) -> float:
    started = time.perf_counter()
    for index in range(rounds):
        writer_round(engine, index)
    return time.perf_counter() - started


# ------------------------------------------------------------ measurements


def measure_policies(rounds: int, depth: int, fan_out: int, base_dir: Path) -> Dict[str, object]:
    """Writer throughput: in-memory baseline vs. the three fsync policies."""
    baseline_engine = build_engine(depth, fan_out)
    baseline_seconds = run_writers(baseline_engine, rounds)
    policies: Dict[str, object] = {}
    for policy in FSYNC_POLICIES:
        directory = base_dir / f"policy-{policy}"
        engine = build_engine(depth, fan_out, directory=directory, fsync=policy)
        seconds = run_writers(engine, rounds)
        report = engine.maintenance_report()
        engine.close()
        policies[policy] = {
            "writer_seconds": seconds,
            "overhead": seconds / max(baseline_seconds, 1e-9),
            "wal_records": report["wal_records"],
            "wal_bytes": report["wal_bytes"],
            "wal_syncs": report["wal_syncs"],
        }
    return {
        "rounds": rounds,
        "baseline_writer_seconds": baseline_seconds,
        "policies": policies,
    }


def measure_recovery(log_lengths: List[int], base_dir: Path) -> List[Dict[str, object]]:
    """Recovery wall-clock and parity for increasing WAL lengths."""
    points: List[Dict[str, object]] = []
    for commits in log_lengths:
        directory = base_dir / f"recovery-{commits}"
        engine = build_engine(depth=3, fan_out=2, directory=directory, fsync="off")
        for index in range(commits):
            engine.query(
                f"INSERT part VALUES {{part_no: 'R{index:05d}', description: 'r', "
                f"level: 8, cost: {index}}};"
            )
        expected = store_state(engine)
        wal_records = engine.maintenance_report()["wal_records"]
        wal_bytes = engine.maintenance_report()["wal_bytes"]
        engine.close()
        reset_surrogate_counter()
        started = time.perf_counter()
        recovered = PrimaEngine("prima", durability=DurabilityConfig(directory))
        seconds = time.perf_counter() - started
        identical = store_state(recovered) == expected
        replayed = recovered.recovery.records_replayed
        recovered.close()
        points.append(
            {
                "commits": commits,
                "wal_records": wal_records,
                "wal_bytes": wal_bytes,
                "recovery_seconds": seconds,
                "records_replayed": replayed,
                "identical": identical,
            }
        )
    return points


def measure_checkpoint(base_dir: Path) -> Dict[str, object]:
    """Checkpoint protocol: truncated log, zero-replay reopen, same state."""
    directory = base_dir / "checkpoint"
    engine = build_engine(depth=3, fan_out=2, directory=directory, fsync="off")
    for index in range(20):
        engine.query(
            f"INSERT part VALUES {{part_no: 'C{index:05d}', description: 'c', "
            f"level: 8, cost: {index}}};"
        )
    before_truncate = engine.maintenance_report()["wal_bytes"]
    engine.checkpoint()
    after_truncate = engine.maintenance_report()["wal_bytes"]
    expected = store_state(engine)
    engine.close()
    reset_surrogate_counter()
    started = time.perf_counter()
    recovered = PrimaEngine("prima", durability=DurabilityConfig(directory))
    seconds = time.perf_counter() - started
    result = {
        "wal_bytes_before_checkpoint": before_truncate,
        "wal_bytes_after_checkpoint": after_truncate,
        "reopen_seconds": seconds,
        "records_replayed": recovered.recovery.records_replayed,
        "identical": store_state(recovered) == expected,
    }
    recovered.close()
    return result


def compare(rounds: int, depth: int, fan_out: int, log_lengths: List[int]) -> Dict[str, object]:
    base_dir = Path(tempfile.mkdtemp(prefix="bench_durability_"))
    try:
        throughput = measure_policies(rounds, depth, fan_out, base_dir)
        recovery = measure_recovery(log_lengths, base_dir)
        checkpoint = measure_checkpoint(base_dir)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    return {
        "experiment": "E-PERF6 durability (WAL fsync policies + crash recovery)",
        "depth": depth,
        "fan_out": fan_out,
        "throughput": throughput,
        "recovery": recovery,
        "checkpoint": checkpoint,
        "recovery_identical": all(point["identical"] for point in recovery)
        and checkpoint["identical"],
        "checkpoint_truncates": checkpoint["wal_bytes_after_checkpoint"] == 0
        and checkpoint["records_replayed"] == 0,
    }


# ------------------------------------------------------------- shape checks


def test_perf6_policies_log_the_same_records_with_different_sync_costs(tmp_path):
    report = measure_policies(rounds=3, depth=3, fan_out=2, base_dir=tmp_path)
    policies = report["policies"]
    records = {policies[p]["wal_records"] for p in FSYNC_POLICIES}
    assert len(records) == 1, "the fsync policy must not change what is logged"
    assert policies["off"]["wal_syncs"] == 0
    assert policies["always"]["wal_syncs"] >= policies["batch"]["wal_syncs"]
    assert policies["always"]["wal_records"] > 0


def test_perf6_recovery_is_byte_identical_and_replays_the_log(tmp_path):
    points = measure_recovery([5, 15], base_dir=tmp_path)
    assert all(point["identical"] for point in points)
    assert points[1]["records_replayed"] > points[0]["records_replayed"]
    assert points[1]["wal_bytes"] > points[0]["wal_bytes"]


def test_perf6_checkpoint_empties_the_log_and_preserves_state(tmp_path):
    result = measure_checkpoint(base_dir=tmp_path)
    assert result["identical"]
    assert result["wal_bytes_before_checkpoint"] > 0
    assert result["wal_bytes_after_checkpoint"] == 0
    assert result["records_replayed"] == 0


# --------------------------------------------------------------- standalone


def main(argv: "List[str] | None" = None) -> int:
    args = parse_benchmark_args(argv, "BENCH_durability.json", __doc__.splitlines()[0])
    rounds, depth, fan_out = (8, 3, 2) if args.quick else (40, 4, 2)
    log_lengths = [20, 60] if args.quick else [50, 150, 400]
    report = compare(rounds=rounds, depth=depth, fan_out=fan_out, log_lengths=log_lengths)
    throughput = report["throughput"]
    print(
        f"E-PERF6 durability — {throughput['rounds']} writer rounds "
        f"(depth={depth}, fan_out={fan_out})"
    )
    print(f"  in-memory baseline:  {throughput['baseline_writer_seconds']:.3f}s")
    for policy in FSYNC_POLICIES:
        entry = throughput["policies"][policy]
        print(
            f"  fsync={policy:<7} {entry['writer_seconds']:.3f}s "
            f"({entry['overhead']:.2f}x), {entry['wal_records']} records / "
            f"{entry['wal_bytes']} bytes / {entry['wal_syncs']} fsyncs"
        )
    for point in report["recovery"]:
        print(
            f"  recovery of {point['records_replayed']:>4} records "
            f"({point['wal_bytes']} bytes): {point['recovery_seconds']:.3f}s, "
            f"identical={point['identical']}"
        )
    checkpoint = report["checkpoint"]
    print(
        f"  checkpoint: log {checkpoint['wal_bytes_before_checkpoint']} -> "
        f"{checkpoint['wal_bytes_after_checkpoint']} bytes, reopen replays "
        f"{checkpoint['records_replayed']} records in {checkpoint['reopen_seconds']:.3f}s"
    )
    write_report(args.output, report)
    if not report["recovery_identical"] or not report["checkpoint_truncates"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
