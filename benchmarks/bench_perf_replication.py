"""E-PERF11 — log-shipping replication: read scale-out, lag, promotion.

Runs the BOM read workload over ``PrimaEngine`` followers created through the
replication hub: each follower seeds from the latest checkpoint plus WAL
tail, then stays current on the in-process commit feed.  The report covers:

* **read throughput scaling** — requests/second with the reads spread
  round-robin over 1/2/4 followers vs. the single-engine baseline, on the
  E-PERF7 request model: every request executes its read and then waits out
  a fixed per-request stall (``io_stall_ms``) modelling the off-GIL time a
  multi-client deployment spends per request — client wire I/O, durable page
  reads, result compression.  Followers overlap those stalls, so the bound
  (≥ 2× at 4 followers) holds regardless of core count;
* **honesty about the GIL** — followers here are in-process engines, so the
  pure-Python execute phase is time-sliced, not parallel, under CPython's
  GIL; the report also measures and publishes ``cpu_bound_speedup`` (zero
  stall), expected to hover near 1× — the number that would move on a
  free-threaded build or with out-of-process followers.  ``cpu_count`` is
  recorded alongside;
* **byte-identical results** — every follower count returns exactly the
  serial fingerprints; the replica *router* (``mode="replica"``) matches
  serial execution too; a mid-catch-up follower matches the primary pinned
  at the follower's applied generation (bounded staleness, never a torn
  state);
* **replication lag** — after a 500-record write burst the hub reports the
  followers' lag in generations (1,000: each basic write ticks for its
  insert and its commit), and one ``catch_up_all`` ships the whole
  burst within the bound (< 250 ms) and returns the lag to zero;
* **promotion** — fencing the primary and promoting a follower hands over
  byte-identical state, and the fenced primary refuses further writes.

Run standalone to emit ``BENCH_replication.json``::

    python benchmarks/bench_perf_replication.py [--quick] [-o OUT.json]
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

from bench_common import (
    fingerprint,
    parse_benchmark_args,
    report,
    timed,
    write_report,
)

from repro.core.atom import reset_surrogate_counter
from repro.exceptions import StorageError
from repro.storage.engine import PrimaEngine
from repro.storage.wal import DurabilityConfig

#: One client request batch: a recursive explosion, a selective closure, and
#: a grouped aggregate — the same pure-Python reads E-PERF10 ships to worker
#: processes, here routed to followers.
STATEMENTS = [
    "SELECT ALL FROM RECURSIVE part [composition] DOWN;",
    "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.level = 0;",
    "SELECT part.level, COUNT(DISTINCT part.cost), SUM(part.cost) "
    "FROM part GROUP BY part.level;",
]

REPLICA_COUNTS = (1, 2, 4)
BURST_RECORDS = 500
CATCHUP_BOUND_MS = 250.0
STALLED_SPEEDUP_BOUND = 2.0


def build_engine(directory: str, parts: int) -> PrimaEngine:
    """A durable BOM forest: ``parts`` atoms in 8-wide trees, checkpointed."""
    reset_surrogate_counter()
    engine = PrimaEngine(durability=DurabilityConfig(directory))
    engine.create_atom_type(
        "part", {"part_no": "string", "level": "integer", "cost": "integer"}
    )
    engine.create_link_type("composition", "part", "part")
    for i in range(parts):
        engine.store_atom(
            "part",
            identifier=f"p{i}",
            part_no=f"P{i:05d}",
            level=i % 7,
            cost=(i * 37) % 500,
        )
    for i in range(1, parts):
        engine.connect("composition", f"p{(i - 1) // 8}", f"p{i}")
    engine.checkpoint()
    for statement in STATEMENTS:
        engine.query(statement)  # warm snapshot / network / planner
    return engine


def run_requests(targets, requests: List[str], io_stall_s: float) -> Dict[str, object]:
    """Spread *requests* round-robin over *targets* (engines or followers),
    one client thread per target, each request followed by the modelled
    stall.  Returns wall-clock, throughput, and ordered fingerprints."""

    def serve(index_statement):
        index, statement = index_statement
        result = targets[index % len(targets)].query(statement)
        if io_stall_s > 0:
            time.sleep(io_stall_s)
        return index, fingerprint(result)

    def run() -> List[str]:
        with ThreadPoolExecutor(max_workers=len(targets)) as executor:
            done = list(executor.map(serve, enumerate(requests)))
        return [print_ for _, print_ in sorted(done)]

    prints, seconds = timed(run)
    return {
        "seconds": seconds,
        "requests_per_second": len(requests) / max(seconds, 1e-9),
        "fingerprints": prints,
    }


def measure_scaling(
    engine: PrimaEngine, requests: List[str], io_stall_s: float
) -> Dict[str, object]:
    hub = engine.replication_hub()
    followers = [engine.create_follower(f"bench-{i}") for i in range(max(REPLICA_COUNTS))]
    hub.catch_up_all()
    serial = run_requests([engine], requests, io_stall_s)
    points = []
    for count in REPLICA_COUNTS:
        run = run_requests(followers[:count], requests, io_stall_s)
        run["replicas"] = count
        run["speedup"] = run["requests_per_second"] / max(
            serial["requests_per_second"], 1e-9
        )
        run["identical"] = run["fingerprints"] == serial["fingerprints"]
        points.append(run)
    # The honesty number: the same spread with a zero stall is GIL-bound.
    cpu_serial = run_requests([engine], requests, 0.0)
    cpu_spread = run_requests(followers, requests, 0.0)
    return {
        "serial": {k: v for k, v in serial.items() if k != "fingerprints"},
        "points": [
            {k: v for k, v in p.items() if k != "fingerprints"} for p in points
        ],
        "cpu_bound_speedup": cpu_spread["requests_per_second"]
        / max(cpu_serial["requests_per_second"], 1e-9),
        "followers": followers,
    }


def measure_lag_and_promotion(engine: PrimaEngine) -> Dict[str, object]:
    """Burst writes, read the lag, time the catch-up, then promote."""
    hub = engine.replication_hub()
    follower = hub.followers()[0]
    hub.catch_up_all()
    # Pin before the burst: the open handle retains the pre-burst history,
    # and its generation equals every follower's applied generation.
    with engine.snapshot_at() as pinned:
        for i in range(BURST_RECORDS):
            engine.store_atom(
                "part", identifier=f"b{i}", part_no=f"B{i:05d}", level=9, cost=i % 500
            )
        lag_after_burst = hub.max_lag()
        # Bounded staleness mid-catch-up: the lagging follower answers
        # exactly like the primary pinned at the follower's generation.
        stale_parity = all(
            fingerprint(follower.query(s)) == fingerprint(pinned.query(s))
            for s in STATEMENTS
        )
    _, seconds = timed(hub.catch_up_all)
    serial = [fingerprint(engine.query(s)) for s in STATEMENTS]
    parity_after_burst = all(
        [fingerprint(f.query(s)) for s in STATEMENTS] == serial
        for f in hub.followers()
    )
    promoted = follower.promote()
    promotion_parity = [fingerprint(promoted.query(s)) for s in STATEMENTS] == serial
    try:
        engine.store_atom("part", identifier="nope", part_no="X", level=0, cost=0)
        fenced_refuses = False
    except StorageError:
        fenced_refuses = True
    return {
        "burst_records": BURST_RECORDS,
        "lag_after_burst": lag_after_burst,
        "lag_after_catchup": hub.max_lag(),
        "catchup_ms": seconds * 1000.0,
        "stale_parity_mid_catchup": stale_parity,
        "parity_after_burst": parity_after_burst,
        "promotion_parity": promotion_parity,
        "fenced_primary_refuses_writes": fenced_refuses,
    }


def compare(parts: int, request_rounds: int, io_stall_ms: float) -> Dict[str, object]:
    requests = [
        STATEMENTS[i % len(STATEMENTS)]
        for i in range(request_rounds * len(STATEMENTS))
    ]
    directory = tempfile.mkdtemp(prefix="bench-replication-")
    engine = build_engine(directory, parts)
    try:
        scaling = measure_scaling(engine, requests, io_stall_ms / 1000.0)
        scaling.pop("followers")
        # The replica router itself: one dispatch over the caught-up fleet.
        serial_router = [
            fingerprint(r) for r in engine.parallel_query(STATEMENTS, threads=1)
        ]
        routed = [
            fingerprint(r) for r in engine.parallel_query(STATEMENTS, mode="replica")
        ]
        lag = measure_lag_and_promotion(engine)
        counters = {
            key: value
            for key, value in engine.maintenance_report().items()
            if key.startswith("replication_")
        }
        speedup_4 = next(
            p["speedup"] for p in scaling["points"] if p["replicas"] == max(REPLICA_COUNTS)
        )
        return {
            "experiment": "E-PERF11 log-shipping replication "
            "(follower engines, catch-up, promotion, read router)",
            "parts": parts,
            "requests": len(requests),
            "io_stall_ms": io_stall_ms,
            "cpu_count": os.cpu_count() or 1,
            "scaling": scaling,
            "speedup_4_replicas": speedup_4,
            "speedup_target": STALLED_SPEEDUP_BOUND,
            # Stall overlap needs no extra cores, so the bound binds
            # everywhere — unlike the cpu-bound number published above it.
            "speedup_target_met": speedup_4 >= STALLED_SPEEDUP_BOUND,
            "router_parity": routed == serial_router,
            "lag": lag,
            "catchup_bound_ms": CATCHUP_BOUND_MS,
            "catchup_target_met": lag["catchup_ms"] < CATCHUP_BOUND_MS,
            "results_identical": (
                all(p["identical"] for p in scaling["points"])
                and routed == serial_router
                and lag["stale_parity_mid_catchup"]
                and lag["parity_after_burst"]
                and lag["promotion_parity"]
            ),
            "replication_counters": counters,
            "gil_note": (
                "followers are in-process engines: the stalled workload "
                "overlaps per-request off-GIL time and scales; the pure-"
                "Python execute phase stays GIL-bound (cpu_bound_speedup) "
                "until followers run out of process"
            ),
        }
    finally:
        engine.close()
        shutil.rmtree(directory, ignore_errors=True)


# ------------------------------------------------------------- shape checks


def test_perf11_replication_parity_lag_and_promotion():
    """Follower reads, the replica router, mid-catch-up staleness, and the
    promoted engine are all byte-identical to serial execution; the burst
    shows up as lag and one catch-up clears it.

    The stalled speedup bound is asserted by the standalone run, not here —
    a loaded CI box makes sleep-overlap timing unreliable; parity and lag
    accounting must hold everywhere.
    """
    result = compare(parts=240, request_rounds=2, io_stall_ms=2.0)
    assert result["results_identical"]
    assert result["router_parity"]
    # Each basic write ticks the clock twice: its insert and its commit.
    assert result["lag"]["lag_after_burst"] == 2 * BURST_RECORDS
    assert result["lag"]["lag_after_catchup"] == 0
    assert result["lag"]["fenced_primary_refuses_writes"]
    assert result["replication_counters"]["replication_promotions"] == 1


def main(argv=None) -> None:
    args = parse_benchmark_args(
        argv,
        default_output="BENCH_replication.json",
        description="E-PERF11: log-shipping replication benchmark",
    )
    if args.quick:
        result = compare(parts=240, request_rounds=2, io_stall_ms=30.0)
    else:
        result = compare(parts=480, request_rounds=4, io_stall_ms=60.0)
    report(
        "E-PERF11 replica read scaling "
        f"(cpus={result['cpu_count']}, parts={result['parts']}, "
        f"stall={result['io_stall_ms']}ms)",
        [("replicas", "seconds", "req/s", "speedup", "identical")]
        + [
            (
                p["replicas"],
                f"{p['seconds']:.3f}",
                f"{p['requests_per_second']:.1f}",
                f"{p['speedup']:.2f}x",
                p["identical"],
            )
            for p in result["scaling"]["points"]
        ]
        + [("cpu-bound", "", "", f"{result['scaling']['cpu_bound_speedup']:.2f}x", "")],
    )
    report(
        "E-PERF11 lag under write burst + promotion",
        [
            ("burst records", result["lag"]["burst_records"]),
            ("lag after burst", result["lag"]["lag_after_burst"]),
            ("catch-up ms", f"{result['lag']['catchup_ms']:.1f}"),
            ("bound ms", result["catchup_bound_ms"]),
            ("lag after catch-up", result["lag"]["lag_after_catchup"]),
            ("stale parity mid-catch-up", result["lag"]["stale_parity_mid_catchup"]),
            ("parity after burst", result["lag"]["parity_after_burst"]),
            ("promotion parity", result["lag"]["promotion_parity"]),
            ("fenced primary refuses", result["lag"]["fenced_primary_refuses_writes"]),
        ],
    )
    write_report(args.output, result)


if __name__ == "__main__":
    main()
