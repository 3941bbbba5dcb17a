"""E-PERF4 — mixed read/write workloads: incremental maintenance vs. rebuild.

Interleaves molecule queries with MQL DML (INSERT / MODIFY / DELETE) over a
scaled geography, comparing the engine's cache maintenance with a baseline:

* ``incremental`` — the engine: every write is folded into its hash
  indexes and planner statistics;
* ``rebuild`` — the historical invalidate-everything behaviour, rebuilt here
  (:func:`rebuild_everything`; the engine no longer has such a mode): each
  write discards every derived structure, so the next query re-exports the
  state, rebuilds the index pool and re-creates the interpreter.

Shape checks: both return identical query results; in steady state the
engine performs **zero** full rebuilds (build counters stay at 1 after
warm-up) and beats the rebuilding baseline's wall-clock.

Run standalone to emit ``BENCH_mixed_workload.json``::

    python benchmarks/bench_perf_mixed_workload.py [--quick] [-o OUT.json]
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from bench_common import parse_benchmark_args, write_report

from repro.datasets.geography import build_geography
from repro.storage.engine import PrimaEngine

#: One workload round: two selective queries, an insert, a modify, a delete.
QUERY_STATEMENTS = (
    "SELECT ALL FROM state-area WHERE state.code = 'S1';",
    "SELECT ALL FROM state-area-edge WHERE state.hectare > 500;",
)


def rebuild_everything(engine: PrimaEngine) -> PrimaEngine:
    """The invalidate-everything baseline: throw the engine away after a write.

    What continues is a fresh engine bulk-loaded from the written state — a
    full re-export, and on its first query a new index pool, interpreter and
    statistics pass.
    """
    return PrimaEngine.from_database(engine.to_database())


def run_mixed_workload(
    engine: PrimaEngine,
    rounds: int,
    after_write: Optional[Callable[[PrimaEngine], PrimaEngine]] = None,
) -> Dict[str, object]:
    """Drive *rounds* of interleaved query/insert/modify/delete statements.

    *after_write* (the baseline's :func:`rebuild_everything`) replaces the
    engine after every DML statement; ``rebuilds`` counts those.
    """
    sizes: List[int] = []
    rebuilds = 0

    def write(statement: str) -> None:
        nonlocal engine, rebuilds
        engine.query(statement)
        if after_write is not None:
            engine = after_write(engine)
            rebuilds += 1

    started = time.perf_counter()
    for index in range(rounds):
        code = f"W{index}"
        write(
            "INSERT state - area VALUES "
            f"{{name: 'w{index}', code: '{code}', hectare: {600 + index}, "
            f"area: {{area_id: 'aw{index}', kind: 'state-border'}}}};"
        )
        for statement in QUERY_STATEMENTS:
            sizes.append(len(engine.query(statement)))
        write(
            f"MODIFY state FROM state - area SET hectare = {100 + index} "
            f"WHERE state.code = '{code}';"
        )
        sizes.append(len(engine.query(f"SELECT ALL FROM state-area WHERE state.code = '{code}';")))
        write(f"DELETE FROM state - area WHERE state.code = '{code}';")
    elapsed = time.perf_counter() - started
    return {
        "elapsed_seconds": elapsed,
        "statements": rounds * (3 + len(QUERY_STATEMENTS) + 1),
        "result_sizes": sizes,
        "rebuilds": rebuilds,
        "maintenance": engine.maintenance_statistics(),
    }


def build_engine(n_states: int) -> PrimaEngine:
    database = build_geography(n_states=n_states, edges_per_state=5, n_rivers=4)
    engine = PrimaEngine.from_database(database)
    engine.query("SELECT ALL FROM state-area WHERE state.code = 'S1';")  # warm caches
    return engine


def compare_modes(rounds: int, n_states: int) -> Dict[str, object]:
    """Run the workload on the engine and on the rebuilding baseline."""
    incremental = run_mixed_workload(build_engine(n_states), rounds)
    rebuild = run_mixed_workload(build_engine(n_states), rounds, rebuild_everything)
    return {
        "experiment": "E-PERF4 mixed read/write workload",
        "rounds": rounds,
        "n_states": n_states,
        "incremental": incremental,
        "rebuild": rebuild,
        "speedup": rebuild["elapsed_seconds"] / max(incremental["elapsed_seconds"], 1e-9),
        "results_identical": incremental["result_sizes"] == rebuild["result_sizes"],
    }


# ------------------------------------------------------------- shape checks


def test_perf4_incremental_steady_state_has_zero_rebuilds():
    """After warm-up, a mixed workload causes no snapshot/interpreter/index rebuilds."""
    engine = build_engine(n_states=10)
    report = run_mixed_workload(engine, rounds=5)["maintenance"]
    assert engine.maintenance_statistics() == report  # still the same engine
    assert report["snapshot_builds"] == 1
    assert report["interpreter_builds"] == 1
    assert report["index_generation"] == report["generation"]
    assert report["events_applied"] > 0


def test_perf4_rebuild_mode_rebuilds_per_write():
    """The baseline pays one full cache rebuild per write burst."""
    run = run_mixed_workload(build_engine(n_states=10), 5, rebuild_everything)
    assert run["rebuilds"] == 15  # three DML statements a round


def test_perf4_modes_return_identical_results():
    comparison = compare_modes(rounds=4, n_states=10)
    assert comparison["results_identical"]


def test_perf4_incremental_beats_rebuild_wall_clock():
    comparison = compare_modes(rounds=8, n_states=25)
    assert comparison["results_identical"]
    assert comparison["speedup"] > 1.0, (
        "incremental maintenance should beat invalidate-everything: "
        f"speedup={comparison['speedup']:.2f}"
    )


# --------------------------------------------------------------- standalone


def main(argv: "List[str] | None" = None) -> int:
    args = parse_benchmark_args(
        argv, "BENCH_mixed_workload.json", __doc__.splitlines()[0]
    )
    rounds, n_states = (8, 20) if args.quick else (40, 60)
    comparison = compare_modes(rounds=rounds, n_states=n_states)
    incremental = comparison["incremental"]
    rebuild = comparison["rebuild"]
    print(f"E-PERF4 mixed workload — {rounds} rounds over {comparison['n_states']} states")
    print(
        f"  incremental: {incremental['elapsed_seconds']:.3f}s, "
        f"builds={incremental['maintenance']['snapshot_builds']}, "
        f"events={incremental['maintenance']['events_applied']}"
    )
    print(
        f"  rebuild:     {rebuild['elapsed_seconds']:.3f}s, "
        f"builds={1 + rebuild['rebuilds']}"
    )
    print(f"  speedup: {comparison['speedup']:.2f}x, identical={comparison['results_identical']}")
    write_report(args.output, comparison)
    if not comparison["results_identical"]:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
