"""One workload, one process: set up, measure, check, summarise.

Load model: closed loop, one client, each operation issued when the previous
one returned.  A latency is ``perf_counter_ns`` around the call into the
engine plus, for reads, ``to_dicts()`` on its result.  Checks run between the
timed spans, so throughput is statements per second of *engine* time, not of
harness time.  An untraced phase gives the end-to-end numbers; with
``--trace 1`` the second half of ``--seconds`` replays the same operation
stream stage by stage under the tracer and gives the per-layer numbers.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import resource
import shutil
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional

from repro.storage.wal import WriteAheadLog

from .tracing import FRONTEND, Tracer
from .workloads import ROUTES, WORKLOADS, Workload, run_op

HARNESS_DIR = Path(__file__).resolve().parent
SPEC_PATH = HARNESS_DIR.parent.parent / "BENCHMARK.json"

#: Latency class -> the ``engine.execute_us.<group>`` metric it reports under.
EXECUTE_GROUPS = {
    "point": "point", "branch": "point", "equal": "point",
    "derive": "derive", "leaf": "derive",
    "project": "project",
    "closure": "closure",
    "aggregate": "aggregate", "count": "aggregate",
}
#: How many tapped WAL payloads the encode/fsync replay times.
WAL_REPLAY_LIMIT = 400


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Phase:
    """What one timed phase observed."""

    latencies: Dict[str, List[int]] = field(default_factory=lambda: defaultdict(list))
    kinds: Dict[str, str] = field(default_factory=dict)
    #: ``(statements, busy_ns, latency_ns)`` of every round; the latency is
    #: the round's median operation, or its mean where rounds are sampled.
    rounds: List[tuple] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def of_kind(self, kind: str) -> List[int]:
        return [ns for cls, values in self.latencies.items() if self.kinds[cls] == kind for ns in values]


def run_phase(workload: Workload, seconds: float, tracer: Optional[Tracer]) -> Phase:
    """Issue whole rounds until *seconds* have passed."""
    phase = Phase()
    engine = workload.engine
    clock = time.perf_counter_ns
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds:
            return phase
        round_ns = round_statements = 0
        round_latencies: List[int] = []
        for op in workload.round(elapsed / seconds):
            phase.attempted += op.count
            begun = clock()
            try:
                result, rendered = run_op(engine, op, tracer)
            except Exception:  # the benchmark reports a raising statement, it does not stop
                phase.failed += op.count
                phase.errors.append(f"{op.cls}: {op.text[:200]}\n{traceback.format_exc(limit=4)}")
                continue
            spent = clock() - begun
            phase.kinds[op.cls] = op.kind
            phase.latencies[op.cls].append(spent)
            if op.kind != "maintenance":
                round_statements += op.count
                round_ns += spent
                round_latencies.append(spent)
            if not workload.check(op, result, rendered):
                phase.failed += op.count
                phase.errors.append(f"{op.cls}: result rejected by the reference model: {op.text[:200]}")
        if round_latencies:
            if workload.sample_rounds:
                latency = round_ns / len(round_latencies)
            else:
                latency = percentile(round_latencies, 0.5)
            phase.rounds.append((round_statements, round_ns, latency))


# --------------------------------------------------------------- statistics


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (need not be sorted)."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values: List[float], divisor: float = 1.0, q: float = 0.5) -> Optional[dict]:
    """A metric from a sample: its *q* quantile, the sample count and the quartiles."""
    if not values:
        return None
    return {
        "value": percentile(values, q) / divisor,
        "n": len(values),
        "q1": percentile(values, 0.25) / divisor,
        "q3": percentile(values, 0.75) / divisor,
    }


def single(value: float) -> dict:
    return {"value": value, "n": 1}


# ------------------------------------------------------------ the run itself


def stop_children() -> None:
    """Stop and reap every process this run started; none may outlive it.

    The engine's ``close()`` joins its pool workers, but the spawn context
    also starts multiprocessing's resource tracker, which only exits once it
    sees this process gone — a moment *after* the run has ended.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    workdir: Optional[Path] = None,
    trace_out: Optional[str] = None,
) -> dict:
    """Run workload *name* once; returns the full result record."""
    base = workdir or HARNESS_DIR / ".work"
    base.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=base))
    tracer = Tracer() if trace else None
    workload = WORKLOADS[name](seed, scale, scratch, tracer)
    try:
        workload.setup()
        gc.collect()
        report = workload.engine.maintenance_report()
        wal_base = report["wal_lifetime_bytes"]
        plain = run_phase(workload, seconds / 2 if trace else seconds, None)
        traced = None
        payloads: List[dict] = []
        if trace:
            wal = workload.engine.wal
            if wal is not None:
                wal.add_observer(payloads.append)
            traced = run_phase(workload, seconds / 2, tracer)
            if wal is not None:
                wal.remove_observer(payloads.append)
        # Before the epilogue: a recovered second engine in this process is
        # not memory a user of the workload would see.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        workload.epilogue()
        report = workload.engine.maintenance_report()
        metrics = end_to_end(workload, plain, report, wal_base, peak_rss_mb)
        if trace:
            metrics.update(per_layer(workload, plain, traced, tracer, report))
            metrics.update(wal_replay(payloads, scratch))
            if trace_out:
                tracer.write(trace_out)
    finally:
        try:
            workload.close()
        finally:
            stop_children()
            shutil.rmtree(scratch, ignore_errors=True)
    phases = [plain] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases) + workload.extra_attempted
    failed = sum(p.failed for p in phases) + workload.extra_failed
    metrics["failed_share"] = single(failed / attempted)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "fsync": workload.fsync or "none (in memory)",
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": [e for p in phases for e in p.errors][:10],
        "rounds": plain.rounds,
        "metrics": {key: value for key, value in metrics.items() if value is not None},
    }


def end_to_end(
    workload: Workload, phase: Phase, report: dict, wal_base: int, peak_rss_mb: float
) -> Dict[str, dict]:
    """Everything a user of the engine would see, from the untraced phase."""
    measured = workload.measured
    # Every round has the same mix, and on a shared host interference only
    # ever slows a round down: the run reports the quartile on the quiet side
    # (third of the rates, first of the latencies).  The mean rate and the
    # p95 over all operations, which keep every stall, are reported unbounded.
    rates = [count / (ns / 1e9) for count, ns, _ in phase.rounds]
    everything = [ns for cls, values in phase.latencies.items() if phase.kinds[cls] != "maintenance" for ns in values]
    metrics = {
        "setup_s": single(measured["setup_s"]),
        "stmts_per_s": summary(rates, q=0.75),
        "p50_ms": summary([latency for _, _, latency in phase.rounds], 1e6, 0.25),
        "peak_rss_mb": single(peak_rss_mb),
        "mean_stmts_per_s": {
            "value": sum(count for count, _, _ in phase.rounds) / (sum(ns for _, ns, _ in phase.rounds) / 1e9),
            "n": len(rates),
        },
        "p95_ms": summary(everything, 1e6, 0.95),
    }
    if workload.sample_rounds:
        for route in ROUTES:
            metrics[f"{route}_batch_ms"] = summary(phase.latencies[route], 1e6)
    else:
        reads, writes = phase.of_kind("read"), phase.of_kind("write")
        metrics["read_p50_ms"] = summary(reads, 1e6)
        metrics["read_p95_ms"] = summary(reads, 1e6, 0.95)
        metrics["write_p50_ms"] = summary(writes, 1e6)
        metrics["write_p95_ms"] = summary(writes, 1e6, 0.95)
    if workload.user_bytes:
        logged = report["wal_lifetime_bytes"] - wal_base
        metrics["wal_bytes_per_user_byte"] = single(logged / workload.user_bytes)
    checkpoints = phase.latencies.get("checkpoint")
    if checkpoints:
        metrics["checkpoint_s"] = single(sum(checkpoints) / len(checkpoints) / 1e9)
    if "recovery_s" in measured:
        metrics["recovery_s"] = single(measured["recovery_s"])
    return metrics


def per_layer(workload: Workload, plain: Phase, traced: Phase, tracer: Tracer, report: dict) -> Dict[str, dict]:
    """The per-layer numbers: spans, exact counters and set-up splits."""
    metrics: Dict[str, Optional[dict]] = {}
    for name, key in (
        ("mql.lex", "mql.lex_us"), ("mql.parse", "mql.parse_us"),
        ("mql.translate", "mql.translate_us"), ("optimizer.plan", "optimizer.plan_us"),
        ("engine.compile", "engine.compile_us"), ("mql.render", "mql.render_us"),
        ("manipulation.commit", "manipulation.commit_us"),
        ("storage.wal.append", "storage.wal.append_us"),
    ):
        metrics[key] = summary(tracer.durations(name), 1e3)

    children = tracer.child_time()
    statement_ns = frontend_ns = covered_ns = 0
    execute: Dict[str, List[int]] = defaultdict(list)
    writes: List[int] = []
    by_class: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
    for index, (name, start, end, parent, sid) in enumerate(tracer.spans):
        duration = end - start
        if name == "stmt":
            statement_ns += duration
            covered_ns += children.get(index, 0)
            pair = by_class[tracer.classes[sid]]
            pair[0] += children.get(index, 0)
            pair[1] += duration
        elif name in FRONTEND:
            frontend_ns += duration
        elif name == "engine.execute":
            group = EXECUTE_GROUPS.get(tracer.classes[sid])
            if group:
                execute[group].append(duration)
        elif name == "engine.write":
            writes.append(duration - children.get(index, 0))
    for group in ("point", "derive", "project", "closure", "aggregate"):
        metrics[f"engine.execute_us.{group}"] = summary(execute[group], 1e3)
    metrics["engine.write_us"] = summary(writes, 1e3)
    if statement_ns:
        metrics["mql.frontend_share"] = single(frontend_ns / statement_ns)
        # The class whose children cover the least of its statements.
        metrics["trace.reconcile_share"] = single(min(c / s for c, s in by_class.values() if s))
    if tracer.plans:
        metrics["optimizer.rules_fired"] = single(sum(p[1] for p in tracer.plans) / len(tracer.plans))
        kinds = [plan for _, _, plan in tracer.plans]
        recursive = [k for k in kinds if k in ("RecursivePlan", "IntervalScanPlan")]
        aggregates = [k for k in kinds if k in ("AggregatePlan", "ColumnarAggregatePlan")]
        if recursive:
            metrics["storage.structure_index.hit_share"] = single(recursive.count("IntervalScanPlan") / len(recursive))
        if aggregates:
            metrics["storage.columnar.hit_share"] = single(aggregates.count("ColumnarAggregatePlan") / len(aggregates))
    results = sum(count for _, count, _ in tracer.reads)
    if results:
        for counter, key in (
            ("atoms_touched", "engine.atoms_touched_per_result"),
            ("links_followed", "engine.links_followed_per_result"),
            ("restrictions_evaluated", "engine.restrictions_per_result"),
            ("index_lookups", "engine.index_lookups"),
            ("atoms_indexed", "engine.atoms_indexed"),
            ("columnar_rows_scanned", "engine.columnar_rows_scanned"),
        ):
            total = sum(getattr(counters, counter) for _, _, counters in tracer.reads)
            metrics[key] = {"value": total / results, "n": results}

    # Tracing overhead: traced against untraced median per class, weighted by
    # how often the traced phase ran the class.
    traced_ns = plain_ns = 0.0
    for cls, values in traced.latencies.items():
        if cls in plain.latencies and traced.kinds[cls] != "maintenance":
            traced_ns += len(values) * percentile(values, 0.5)
            plain_ns += len(values) * percentile(plain.latencies[cls], 0.5)
    if plain_ns:
        metrics["trace.overhead_share"] = single(traced_ns / plain_ns - 1.0)

    for key, source in (
        ("storage.wal.records", "wal_lifetime_records"), ("storage.wal.syncs", "wal_syncs"),
        ("storage.structure_index.builds", "structure_builds"),
        ("storage.structure_index.gap_events", "structure_gap_events"),
        ("storage.structure_index.snapshot_gaps", "structure_snapshot_gaps"),
        ("storage.columnar.builds", "columnar_builds"),
        ("storage.columnar.fallbacks", "columnar_fallbacks"),
        ("storage.columnar.snapshot_gaps", "columnar_snapshot_gaps"),
        ("storage.index.builds", "index_builds"), ("storage.network.rebuilds", "network_rebuilds"),
        ("storage.engine.interpreter_builds", "interpreter_builds"),
        ("storage.engine.snapshot_builds", "snapshot_builds"),
        ("core.versions.live", "versions_live"), ("core.versions.collected", "versions_collected"),
        ("core.versions.pins_active_end", "pins_active"),
        ("engine.procpool.catchup_records", "procpool_catchup_records"),
        ("engine.procpool.refusals", "procpool_refusals"),
        ("engine.procpool.fallbacks", "procpool_fallbacks"),
        ("engine.procpool.restarts", "procpool_restarts"),
        ("storage.replication.records_shipped", "replication_records_shipped"),
        ("storage.replication.refusals", "replication_refusals"),
        ("storage.replication.fallbacks", "replication_fallbacks"),
        ("storage.replication.waits", "replication_waits"),
        ("storage.replication.routed", "replication_routed"),
    ):
        metrics[key] = single(report[source])
    if report["wal_lifetime_records"]:
        metrics["storage.wal.bytes_per_record"] = single(report["wal_lifetime_bytes"] / report["wal_lifetime_records"])

    measured = workload.measured
    for key, value in measured.items():
        if "." in key:
            metrics[key] = single(value)
    if "storage.recovery.checkpoint_bytes" in measured:
        atoms = len(workload.model.atoms["part"])
        metrics["storage.recovery.checkpoint_bytes_per_atom"] = single(measured["storage.recovery.checkpoint_bytes"] / atoms)
        metrics["storage.recovery.replay_s"] = single(measured["recovery_s"] - measured["storage.recovery.load_checkpoint_s"])
    return metrics


def wal_replay(payloads: List[dict], scratch: Path) -> Dict[str, dict]:
    """Encode and fsync cost of the traced phase's own records, on a standalone log."""
    if not payloads:
        return {}
    log = WriteAheadLog(scratch / "replay.log", fsync="off")
    encode, sync = [], []
    try:
        for payload in payloads[:WAL_REPLAY_LIMIT]:
            begun = time.perf_counter_ns()
            log.append(payload)
            appended = time.perf_counter_ns()
            log.sync()
            sync.append(time.perf_counter_ns() - appended)
            encode.append(appended - begun)
    finally:
        log.close()
    return {
        "storage.wal.encode_us": summary(encode, 1e3),
        "storage.wal.fsync_us": summary(sync, 1e3),
    }
