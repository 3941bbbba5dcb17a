"""E-PERF9 — columnar aggregation: projection arrays vs. the row operators.

Benchmarks the MQL aggregate pipeline (``COUNT``/``SUM``/``MIN``/``MAX``/
``AVG`` with ``GROUP BY``) on the lazily built columnar projection against the
row-fold operators running the *same MQL* over identical data — the baseline
is the row reference: a plain ``MQLInterpreter`` over an engine's database,
which has no columnar store, so its planner keeps the Γ on the
hash-aggregate over the molecule scan:

* **grouped fold across type sizes (the headline)** — a five-function
  grouped aggregate over wide occurrences at several type sizes.  The
  columnar fold partitions row indices per group and fills accumulators
  column-wise; the row path materializes one molecule per atom first.  The
  report requires **≥ 3×** on the largest size;
* **filtered and global folds (honest)** — a ``WHERE``-qualified grouped
  aggregate (evaluated column-wise) and a global no-GROUP-BY aggregate,
  published as measured;
* **MVCC scenarios** — parity is asserted live on the head, inside
  ``BEGIN``/``COMMIT WORK`` (private writes force the row fallback), at
  pinned snapshots both coherent (served columnar) and stale (fallback),
  and under an insert/modify/delete burst with interleaved aggregates;
  the projection's maintenance telemetry (builds, gap events, snapshot
  gaps, fallbacks) is published rather than pretending coherence is free;
* **byte-identical results** — every measured query is fingerprint-compared
  between the engine and the row reference, and EXPLAIN must show the costed
  columnar choice.

Run standalone to emit ``BENCH_columnar_aggregate.json``::

    python benchmarks/bench_perf_columnar_aggregate.py [--quick] [-o OUT.json]
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Dict, List, Tuple

from bench_common import fingerprint, parse_benchmark_args, write_report

from repro.core.atom import reset_surrogate_counter
from repro.mql.interpreter import MQLInterpreter
from repro.storage.engine import PrimaEngine

#: The headline five-function grouped aggregate.
GROUPED_QUERY = (
    "SELECT COUNT(*), SUM(reading.cost), MIN(reading.cost), "
    "MAX(reading.mass), AVG(reading.q1) FROM reading GROUP BY reading.bucket;"
)

#: The WHERE-qualified grouped aggregate (column-wise filter evaluation).
FILTERED_QUERY = (
    "SELECT COUNT(*), AVG(reading.q2) FROM reading "
    "WHERE reading.cost > 50.0 GROUP BY reading.bucket;"
)

#: The global (no GROUP BY) aggregate.
GLOBAL_QUERY = "SELECT COUNT(*), SUM(reading.mass), MAX(reading.q3) FROM reading;"

#: The headline requirement on the largest measured type size.
SPEEDUP_TARGET = 3.0

#: Alternating columnar/row pairs behind the pytest gate (odd, so the median
#: is one pair's ratio).
PAIRS = 5

ALL_QUERIES = (GROUPED_QUERY, FILTERED_QUERY, GLOBAL_QUERY)


def build_engine(n_atoms: int) -> PrimaEngine:
    """One engine over a wide synthetic occurrence (deterministic values)."""
    reset_surrogate_counter()
    engine = PrimaEngine()
    engine.create_atom_type(
        "reading",
        {
            "tag": "string",
            "bucket": "integer",
            "cost": "real",
            "mass": "real",
            "q1": "real",
            "q2": "real",
            "q3": "real",
            "q4": "real",
        },
    )
    for i in range(n_atoms):
        engine.store_atom(
            "reading",
            identifier=f"r{i}",
            tag=f"T{i:05d}",
            bucket=i % 8,
            cost=float(i % 97),
            mass=float(i % 13) * 0.5,
            q1=float(i),
            q2=float(i) * 2.0,
            q3=float(i) * 3.0,
            q4=float(i) * 4.0,
        )
    return engine


def row_reference(engine: PrimaEngine) -> MQLInterpreter:
    """The row baseline over *engine*'s data: a plain interpreter has no
    columnar store, so its planner keeps Γ on the row operators."""
    return MQLInterpreter(engine.to_database())


def run_repeats(query: Callable, statement: str, runs: int) -> Tuple[str, float]:
    """Fingerprint of the (warmed) result and total seconds for *runs* runs."""
    digest = fingerprint(query(statement))  # warm caches / build arrays
    started = time.perf_counter()
    for _ in range(runs):
        query(statement)
    return digest, time.perf_counter() - started


def measure_queries(n_atoms: int, runs: int) -> Dict[str, object]:
    """Time the three aggregate shapes columnar vs. row at one type size."""
    columnar = build_engine(n_atoms)
    baseline = row_reference(columnar)
    measurements = {}
    for label, statement in (
        ("grouped", GROUPED_QUERY),
        ("filtered", FILTERED_QUERY),
        ("global", GLOBAL_QUERY),
    ):
        col_digest, col_seconds = run_repeats(columnar.query, statement, runs)
        row_digest, row_seconds = run_repeats(baseline.execute, statement, runs)
        measurements[label] = {
            "columnar_seconds": col_seconds,
            "row_seconds": row_seconds,
            "speedup": row_seconds / max(col_seconds, 1e-9),
            "identical": col_digest == row_digest,
        }
    report = columnar.maintenance_report()
    return {
        "atoms": n_atoms,
        "runs": runs,
        "queries": measurements,
        "identical": all(m["identical"] for m in measurements.values()),
        "grouped_speedup": measurements["grouped"]["speedup"],
        "columnar_builds": report["columnar_builds"],
        "columnar_fallbacks": report["columnar_fallbacks"],
    }


def paired_grouped_speedup(n_atoms: int, pairs: int = PAIRS, runs: int = 2) -> Dict[str, object]:
    """The grouped fold timed in *pairs* alternating columnar/row pairs.

    Each pair times *runs* runs on each side back to back, the side that
    goes first alternating from pair to pair, so a drift of the host's speed
    lands on both sides of a pair alike.  The speedup is the median of the
    per-pair ratios, never one series against another.
    """
    columnar = build_engine(n_atoms)
    baseline = row_reference(columnar)
    sides = {"columnar": columnar.query, "row": baseline.execute}
    digests = {label: fingerprint(query(GROUPED_QUERY)) for label, query in sides.items()}
    ratios = []
    for pair in range(pairs):
        order = ["columnar", "row"] if pair % 2 == 0 else ["row", "columnar"]
        seconds = {}
        for label in order:
            seconds[label] = run_repeats(sides[label], GROUPED_QUERY, runs)[1]
        ratios.append(seconds["row"] / max(seconds["columnar"], 1e-9))
    return {
        "atoms": n_atoms,
        "pairs": pairs,
        "ratios": ratios,
        "median_speedup": statistics.median(ratios),
        "identical": digests["columnar"] == digests["row"],
    }


def dml_round(engine: PrimaEngine, index: int, n_atoms: int) -> None:
    """One churn round: insert a reading, modify a survivor, delete a third."""
    extra = f"x{index:05d}"
    engine.store_atom(
        "reading",
        identifier=extra,
        tag=extra.upper(),
        bucket=index % 8,
        cost=float(index % 97),
        mass=1.0,
        q1=float(index),
        q2=2.0,
        q3=3.0,
        q4=4.0,
    )
    engine.store_atom(
        "reading",
        identifier=f"r{index % n_atoms}",
        tag=f"M{index:05d}",
        bucket=(index + 3) % 8,
        cost=float((index * 7) % 97),
        mass=2.0,
        q1=float(index) * 0.5,
        q2=1.0,
        q3=1.0,
        q4=1.0,
    )
    if index % 3 == 0:
        engine.delete_atom("reading", extra)


def measure_scenarios(n_atoms: int, rounds: int) -> Dict[str, object]:
    """MVCC parity: transactions, pinned snapshots, and a DML burst.

    Two engines over identical data take the same writes; every comparison
    runs the same MQL on the first engine and on the row reference over the
    second.  A single failed fingerprint fails the whole report.
    """
    columnar, baseline = build_engine(n_atoms), build_engine(n_atoms)
    row = row_reference(baseline)
    parity: Dict[str, bool] = {}

    def check(label: str, statement: str, left=None, right=None) -> None:
        left = left if left is not None else columnar.query
        right = right if right is not None else row.execute
        parity[label] = fingerprint(left(statement)) == fingerprint(right(statement))

    check("head", GROUPED_QUERY)

    # Inside BEGIN/COMMIT WORK: private writes force the row fallback.
    insert = (
        "INSERT reading VALUES {tag: 'TX', bucket: 1, cost: 3.0, mass: 1.0, "
        "q1: 1.0, q2: 2.0, q3: 3.0, q4: 4.0};"
    )
    for query in (columnar.query, row.execute):
        query("BEGIN WORK;")
        query(insert)
    check("in_transaction", GROUPED_QUERY)
    for query in (columnar.query, row.execute):
        query("COMMIT WORK;")
    check("after_commit", GROUPED_QUERY)

    # Pinned snapshots: coherent pins are served columnar; once the head
    # moves on, the stale pin falls back to the row path over its own view.
    col_pin, row_pin = columnar.snapshot_at(), baseline.snapshot_at()

    def at_row_pin(statement: str):
        return row.execute(statement, at=row_pin.snapshot)

    check("pinned_snapshot", GROUPED_QUERY, col_pin.query, at_row_pin)
    burst_started = time.perf_counter()
    for index in range(rounds):
        dml_round(columnar, index, n_atoms)
        dml_round(baseline, index, n_atoms)
        if index % max(1, rounds // 4) == 0:
            check(f"under_burst_{index}", GROUPED_QUERY)
    burst_seconds = time.perf_counter() - burst_started
    check("stale_pin_after_burst", GROUPED_QUERY, col_pin.query, at_row_pin)
    check("after_burst", GROUPED_QUERY)
    check("after_burst_filtered", FILTERED_QUERY)

    report = columnar.maintenance_report()
    return {
        "atoms": n_atoms,
        "rounds": rounds,
        "burst_seconds": burst_seconds,
        "parity": parity,
        "all_identical": all(parity.values()),
        "columnar_builds": report["columnar_builds"],
        "columnar_gap_events": report["columnar_gap_events"],
        "columnar_snapshot_gaps": report["columnar_snapshot_gaps"],
        "columnar_fallbacks": report["columnar_fallbacks"],
        "generation_current": report["columnar_generation"] == report["generation"],
    }


def capture_explain(n_atoms: int) -> List[str]:
    """EXPLAIN of the headline query on the columnar engine."""
    engine = build_engine(n_atoms)
    engine.query(GROUPED_QUERY)  # build the projection first
    return engine.query("EXPLAIN " + GROUPED_QUERY).explanation.splitlines()


def compare(sizes: List[int], runs: int, rounds: int) -> Dict[str, object]:
    by_size = [measure_queries(n, runs) for n in sizes]
    scenarios = measure_scenarios(sizes[len(sizes) // 2], rounds)
    explain = capture_explain(sizes[0])
    headline = by_size[-1]["grouped_speedup"]
    return {
        "experiment": "E-PERF9 columnar aggregation (projection arrays vs. row fold)",
        "sizes": by_size,
        "scenarios": scenarios,
        "explain": explain,
        "speedup_target": SPEEDUP_TARGET,
        "headline_speedup": headline,
        "speedup_target_met": headline >= SPEEDUP_TARGET,
        "results_identical": (
            all(size["identical"] for size in by_size)
            and scenarios["all_identical"]
        ),
        "honesty_note": (
            "the >=3x claim is the grouped fold on the largest type size; "
            "filtered and global folds, the transactional/stale-pin fallbacks "
            "(row-path, slower by design) and the DML-burst maintenance "
            "telemetry are published unfiltered above"
        ),
    }


# ------------------------------------------------------------- shape checks


def test_perf9_grouped_fold_is_byte_identical_and_faster():
    """The columnar fold returns the row path's bytes and beats its clock.

    The pytest workload is deliberately small, so the bound here is only
    > 1×, on the median of :data:`PAIRS` alternating pairs; the standalone
    run (larger types, more runs) is the authoritative ≥ 3× measurement.
    """
    result = measure_queries(n_atoms=800, runs=1)
    assert result["identical"]
    assert result["columnar_builds"] >= 1
    paired = paired_grouped_speedup(n_atoms=800)
    assert paired["identical"]
    assert paired["median_speedup"] > 1.0, (
        f"grouped speedup {paired['median_speedup']:.2f}x (median of "
        f"{paired['pairs']} pairs: {paired['ratios']}) on the pytest workload"
    )


def test_perf9_mvcc_scenarios_keep_parity_and_report_fallbacks():
    result = measure_scenarios(n_atoms=400, rounds=8)
    assert result["all_identical"], result["parity"]
    # The transactional read and the stale pin both took the row fallback.
    assert result["columnar_fallbacks"] >= 2
    assert result["columnar_snapshot_gaps"] >= 1
    assert result["generation_current"]


def test_perf9_explain_reports_the_columnar_choice():
    explanation = "\n".join(capture_explain(n_atoms=200))
    assert "columnarize_aggregate" in explanation
    assert "columnar projection reading" in explanation


# --------------------------------------------------------------- standalone


def main(argv: "List[str] | None" = None) -> int:
    args = parse_benchmark_args(
        argv, "BENCH_columnar_aggregate.json", __doc__.splitlines()[0]
    )
    if args.quick:
        sizes, runs, rounds = [500, 2000, 8000], 3, 24
    else:
        sizes, runs, rounds = [1000, 10000, 40000], 5, 96
    result = compare(sizes=sizes, runs=runs, rounds=rounds)
    print(
        f"E-PERF9 columnar aggregation — sizes {sizes}, {runs} runs/query, "
        f"{rounds} burst rounds"
    )
    for size in result["sizes"]:
        grouped = size["queries"]["grouped"]
        print(
            f"  {size['atoms']:>6} atoms: grouped row {grouped['row_seconds']:.3f}s, "
            f"columnar {grouped['columnar_seconds']:.3f}s -> "
            f"{grouped['speedup']:.1f}x, filtered {size['queries']['filtered']['speedup']:.1f}x, "
            f"global {size['queries']['global']['speedup']:.1f}x, "
            f"identical={size['identical']}"
        )
    scenarios = result["scenarios"]
    print(
        f"  MVCC scenarios ({scenarios['rounds']} burst rounds in "
        f"{scenarios['burst_seconds']:.3f}s): parity={scenarios['all_identical']}, "
        f"builds={scenarios['columnar_builds']}, gaps={scenarios['columnar_gap_events']}, "
        f"snapshot_gaps={scenarios['columnar_snapshot_gaps']}, "
        f"fallbacks={scenarios['columnar_fallbacks']}"
    )
    print(
        f"  headline: {result['headline_speedup']:.1f}x on the largest size "
        f"(target >= {SPEEDUP_TARGET:.0f}x)"
    )
    write_report(args.output, result)
    if not result["results_identical"]:
        return 1
    if not result["speedup_target_met"]:
        print(
            f"  FAIL: grouped speedup {result['headline_speedup']:.1f}x below "
            f"the {SPEEDUP_TARGET:.0f}x requirement"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
