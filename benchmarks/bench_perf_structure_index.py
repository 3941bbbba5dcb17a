"""E-PERF8 — interval-encoded structure index: range scans vs. fixpoint recursion.

Benchmarks the ``CREATE STRUCTURE INDEX`` acceleration path on synthetic
bill-of-materials shapes, always against the legacy fixpoint engine running
the *same MQL* on an identical database:

* **deep closures (the headline)** — a selective recursive query over chains
  ≥ 64 levels deep (``WHERE part.part_no = '<deepest leaf>'``).  The interval
  index answers the existential predicate by walking up from the matching
  part to its ancestors and range-scans only those closures — work that
  grows with the answer, not with the number of parts; the fixpoint engine
  must derive every molecule first.  The report requires **≥ 10×** here;
* **wide full expansion (honest)** — the unfiltered parts explosion over a
  ≥ 10k-node assembly.  Both engines materialize every member, so the index
  only converts link-hopping into pre-order slices; the smaller speedup is
  published as-is, not folded into the headline;
* **incremental maintenance under a DML burst** — an identical
  graft/prune sequence driven through the indexed and the plain engine;
  the report publishes the wall-clock overhead and the index's own
  telemetry (rebuilds, gap events, snapshot fallbacks) rather than
  pretending maintenance is free;
* **byte-identical results** — every measured query is fingerprint-compared
  between the two engines, before and after the burst, and the EXPLAIN
  output must show the costed interval-scan choice.

Run standalone to emit ``BENCH_structure_index.json``::

    python benchmarks/bench_perf_structure_index.py [--quick] [-o OUT.json]
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from bench_common import fingerprint, parse_benchmark_args, write_report

from repro.core.atom import reset_surrogate_counter
from repro.datasets.bill_of_materials import build_bill_of_materials
from repro.storage.engine import PrimaEngine

#: The unfiltered parts explosion (every part is a root of one molecule).
FULL_EXPANSION = "SELECT ALL FROM RECURSIVE part [composition] DOWN;"

#: The headline requirement on the deep selective closure.
DEEP_SPEEDUP_TARGET = 10.0


def build_pair(
    depth: int, fan_out: int, n_roots: int
) -> Tuple[PrimaEngine, PrimaEngine, str]:
    """Two engines over identical BOMs — fixpoint-only and interval-indexed.

    Each build resets the surrogate counter so link identifiers line up and
    the result fingerprints are comparable across the two engines.  Returns
    the engines plus the ``part_no`` of the deepest leaf of the first chain
    (the selective-query target).
    """
    reset_surrogate_counter()
    database = build_bill_of_materials(depth=depth, fan_out=fan_out, n_roots=n_roots)
    max_level = max(atom.get("level") for atom in database.atyp("part"))
    leaf = min(
        atom.get("part_no")
        for atom in database.atyp("part")
        if atom.get("level") == max_level
    )
    fixpoint = PrimaEngine.from_database(database)
    reset_surrogate_counter()
    indexed = PrimaEngine.from_database(
        build_bill_of_materials(depth=depth, fan_out=fan_out, n_roots=n_roots)
    )
    indexed.create_structure_index("part", "composition", "down")
    return fixpoint, indexed, leaf


def deep_closure_query(leaf: str) -> str:
    return (
        "SELECT ALL FROM RECURSIVE part [composition] DOWN "
        f"WHERE part.part_no = '{leaf}';"
    )


def run_repeats(engine: PrimaEngine, statement: str, runs: int) -> Tuple[str, float]:
    """Fingerprint of the (warmed) result and total seconds for *runs* runs."""
    digest = fingerprint(engine.query(statement))  # warm caches / build index
    started = time.perf_counter()
    for _ in range(runs):
        engine.query(statement)
    return digest, time.perf_counter() - started


def measure_queries(
    depth: int, fan_out: int, n_roots: int, runs: int, statement_for=None
) -> Dict[str, object]:
    """Time one statement on the fixpoint vs. the indexed engine."""
    fixpoint, indexed, leaf = build_pair(depth, fan_out, n_roots)
    statement = statement_for(leaf) if statement_for else FULL_EXPANSION
    base_digest, base_seconds = run_repeats(fixpoint, statement, runs)
    index_digest, index_seconds = run_repeats(indexed, statement, runs)
    return {
        "depth": depth,
        "fan_out": fan_out,
        "n_roots": n_roots,
        "parts": len(fixpoint.scan("part")),
        "statement": statement,
        "runs": runs,
        "fixpoint_seconds": base_seconds,
        "interval_seconds": index_seconds,
        "speedup": base_seconds / max(index_seconds, 1e-9),
        "identical": base_digest == index_digest,
    }


def graft_round(engine: PrimaEngine, index: int, n_roots: int) -> None:
    """One structure-churn round: graft a leaf under a rotating root and
    prune every third graft again (the prune forces a re-encode)."""
    leaf = f"G{index:05d}"
    engine.store_atom("part", identifier=leaf, part_no=leaf, level=1, cost=1.0)
    engine.connect("composition", f"P{(index % n_roots) + 1:05d}", leaf)
    if index % 3 == 0:
        engine.delete_atom("part", leaf)


def measure_maintenance(
    depth: int, fan_out: int, n_roots: int, rounds: int
) -> Dict[str, object]:
    """Drive an identical DML burst through both engines and compare costs."""
    fixpoint, indexed, leaf = build_pair(depth, fan_out, n_roots)
    statement = deep_closure_query(leaf)
    fixpoint.query(statement)
    indexed.query(statement)  # build the encoding before the burst

    started = time.perf_counter()
    for index in range(rounds):
        graft_round(fixpoint, index, n_roots)
    baseline_seconds = time.perf_counter() - started

    started = time.perf_counter()
    for index in range(rounds):
        graft_round(indexed, index, n_roots)
    indexed_seconds = time.perf_counter() - started

    post_identical = fingerprint(fixpoint.query(statement)) == fingerprint(
        indexed.query(statement)
    )
    report = indexed.maintenance_report()
    return {
        "rounds": rounds,
        "baseline_seconds": baseline_seconds,
        "indexed_seconds": indexed_seconds,
        "overhead": indexed_seconds / max(baseline_seconds, 1e-9),
        "post_burst_identical": post_identical,
        "structure_builds": report["structure_builds"],
        "structure_gap_events": report["structure_gap_events"],
        "structure_snapshot_gaps": report["structure_snapshot_gaps"],
        "generation_current": report["structure_generation"] == report["generation"],
    }


def capture_explain(depth: int, fan_out: int, n_roots: int) -> List[str]:
    """EXPLAIN of the deep selective query on the indexed engine."""
    _, indexed, leaf = build_pair(depth, fan_out, n_roots)
    statement = deep_closure_query(leaf)
    indexed.query(statement)  # record an observed recursion profile
    return indexed.query("EXPLAIN " + statement).explanation.splitlines()


def compare(
    deep: Tuple[int, int, int],
    wide: Tuple[int, int, int],
    runs: int,
    rounds: int,
) -> Dict[str, object]:
    deep_result = measure_queries(*deep, runs=runs, statement_for=deep_closure_query)
    wide_result = measure_queries(*wide, runs=max(1, runs // 2))
    maintenance = measure_maintenance(*deep, rounds=rounds)
    explain = capture_explain(deep[0] // 2, deep[1], deep[2])
    return {
        "experiment": "E-PERF8 structure index (interval-encoded recursion)",
        "deep": deep_result,
        "wide": wide_result,
        "maintenance": maintenance,
        "explain": explain,
        "deep_speedup_target": DEEP_SPEEDUP_TARGET,
        "speedup_target_met": deep_result["speedup"] >= DEEP_SPEEDUP_TARGET,
        "results_identical": (
            deep_result["identical"]
            and wide_result["identical"]
            and maintenance["post_burst_identical"]
        ),
        "honesty_note": (
            "the >=10x claim holds for selective deep closures, where the "
            "index prunes non-qualifying roots before materialization; the "
            "unfiltered wide expansion and the DML-burst overhead are "
            "published unfiltered above"
        ),
    }


# ------------------------------------------------------------- shape checks


def test_perf8_deep_closure_is_byte_identical_and_faster():
    """The interval scan returns the fixpoint's bytes and beats its clock.

    The pytest workload is deliberately small, so the bound here is only
    > 1×; the standalone run (deeper chains, more roots) is the
    authoritative ≥ 10× measurement.
    """
    result = measure_queries(
        depth=32, fan_out=1, n_roots=6, runs=2, statement_for=deep_closure_query
    )
    assert result["identical"]
    assert result["speedup"] > 1.0, (
        f"deep-closure speedup {result['speedup']:.2f}x on the pytest workload"
    )


def test_perf8_explain_reports_the_interval_scan_choice():
    lines = capture_explain(depth=16, fan_out=1, n_roots=2)
    explanation = "\n".join(lines)
    assert "accelerate_recursion" in explanation
    assert "interval scan" in explanation
    assert "interval index part via composition down" in explanation


def test_perf8_maintenance_keeps_parity_and_reports_its_costs():
    result = measure_maintenance(depth=16, fan_out=1, n_roots=3, rounds=9)
    assert result["post_burst_identical"]
    assert result["structure_builds"] >= 1
    assert result["generation_current"]


def test_perf8_wide_expansion_is_byte_identical():
    result = measure_queries(depth=3, fan_out=4, n_roots=1, runs=1)
    assert result["identical"]
    assert result["speedup"] > 0


# --------------------------------------------------------------- standalone


def main(argv: "List[str] | None" = None) -> int:
    args = parse_benchmark_args(
        argv, "BENCH_structure_index.json", __doc__.splitlines()[0]
    )
    if args.quick:
        deep, wide, runs, rounds = (64, 1, 8), (4, 6, 1), 3, 15
    else:
        deep, wide, runs, rounds = (96, 1, 16), (4, 10, 1), 5, 60
    result = compare(deep=deep, wide=wide, runs=runs, rounds=rounds)
    deep_r, wide_r, maint = result["deep"], result["wide"], result["maintenance"]
    print(
        f"E-PERF8 structure index — deep chains {deep_r['depth']} levels x "
        f"{deep_r['n_roots']} roots ({deep_r['parts']} parts), wide assembly "
        f"{wide_r['parts']} parts"
    )
    print(
        f"  deep selective closure: fixpoint {deep_r['fixpoint_seconds']:.3f}s, "
        f"interval {deep_r['interval_seconds']:.3f}s -> "
        f"{deep_r['speedup']:.1f}x (target >= {DEEP_SPEEDUP_TARGET:.0f}x), "
        f"identical={deep_r['identical']}"
    )
    print(
        f"  wide full expansion:    fixpoint {wide_r['fixpoint_seconds']:.3f}s, "
        f"interval {wide_r['interval_seconds']:.3f}s -> "
        f"{wide_r['speedup']:.1f}x (honest, unfiltered), "
        f"identical={wide_r['identical']}"
    )
    print(
        f"  DML burst ({maint['rounds']} rounds): plain {maint['baseline_seconds']:.3f}s, "
        f"indexed {maint['indexed_seconds']:.3f}s ({maint['overhead']:.2f}x), "
        f"rebuilds={maint['structure_builds']}, gaps={maint['structure_gap_events']}, "
        f"parity={maint['post_burst_identical']}"
    )
    write_report(args.output, result)
    if not result["results_identical"]:
        return 1
    if not result["speedup_target_met"]:
        print(
            f"  FAIL: deep-closure speedup {deep_r['speedup']:.1f}x below the "
            f"{DEEP_SPEEDUP_TARGET:.0f}x requirement"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
