"""The read router's contract on both routes, and multi-process execution.

``PrimaEngine.parallel_query(..., mode="process")`` ships compiled logical
plans to a pool of worker processes, ``mode="replica"`` sends statement text
to in-process followers; both kinds of replica are seeded by loading the
latest checkpoint image and replaying the WAL tail, then kept current from
the engine's commit feed, and both go through one router
(:mod:`repro.engine.router`).  The contract is the same as thread mode:
statement-ordered results whose rendered content is byte-identical to serial
execution at the same pinned generation.

Covers: the route contract, once, parametrized over both routes (parity,
statement order, unroutable statements fall back, DML raises, an older pin is
refused and falls back, no replica available falls back, counters move);
a single heavy statement (a recursive closure, a columnar Γ with
``COUNT(DISTINCT …)``) runs whole on one worker of a two-worker pool,
transparent restart after ``kill -9`` of a worker mid-sequence,
a respawn or a pool construction that fails, incremental catch-up after
write bursts and after checkpoint truncation, shipping-codec round-trip
determinism, and a hypothesis sweep of interleaved DML.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.atom import reset_surrogate_counter
from repro.exceptions import StorageError
from repro.storage.engine import PrimaEngine
from repro.storage.shipping import (
    ShippedQueryResult,
    ShippingError,
    encode_plan,
    plan_from_json,
    plan_to_json,
)
from repro.storage.wal import DurabilityConfig


def fingerprint(result):
    """Order-independent canonical rendering of a query result."""
    return sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())


TREE_EDGES = [
    ("p0", "p1"),
    ("p0", "p2"),
    ("p1", "p3"),
    ("p1", "p4"),
    ("p2", "p5"),
    ("p3", "p6"),
    ("p6", "p7"),
    ("p7", "p8"),
    ("p9", "p10"),
]

STATEMENTS = [
    "SELECT item FROM item WHERE item.qty = 2;",
    "SELECT item.grp, COUNT(DISTINCT item.qty), SUM(item.val) FROM item GROUP BY item.grp;",
    "SELECT COUNT(item.name) FROM item;",
    "SELECT ALL FROM RECURSIVE part [composition] DOWN;",
]

RECURSIVE_ALL = "SELECT ALL FROM RECURSIVE part [composition] DOWN;"
GROUPED_DISTINCT = (
    "SELECT item.grp, COUNT(DISTINCT item.qty), SUM(item.val) "
    "FROM item GROUP BY item.grp;"
)


def build_engine(directory, parts=12, items=60, checkpoint=True) -> PrimaEngine:
    reset_surrogate_counter()
    engine = PrimaEngine(durability=DurabilityConfig(directory))
    engine.create_atom_type(
        "item", {"name": "string", "grp": "string", "val": "real", "qty": "integer"}
    )
    engine.create_atom_type("part", {"part_no": "string", "cost": "integer"})
    engine.create_link_type("composition", "part", "part")
    for i in range(items):
        engine.store_atom(
            "item",
            identifier=f"i{i}",
            name=f"n{i}",
            grp="even" if i % 2 == 0 else "odd",
            val=float(i),
            qty=i % 5,
        )
    for i in range(parts):
        engine.store_atom("part", identifier=f"p{i}", part_no=f"P{i:03d}", cost=i * 10)
    for parent, child in TREE_EDGES:
        engine.connect("composition", parent, child)
    if checkpoint:
        engine.checkpoint()
    return engine


def add_replicas(engine, mode):
    """Two replicas of the kind *mode* routes over."""
    if mode == "process":
        engine.process_pool(workers=2)
    else:
        engine.create_follower("f0")
        engine.create_follower("f1")


def still_alive(pids, timeout=10):
    """The child processes of *pids* that have not ended within *timeout* s
    (``active_children`` reaps the ended ones, so a zombie does not count)."""
    deadline = time.monotonic() + timeout
    while True:
        alive = [p.pid for p in multiprocessing.active_children() if p.pid in pids]
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.02)


def kill_and_wait(pid):
    os.kill(pid, signal.SIGKILL)
    assert not still_alive([pid])


@pytest.fixture(scope="module")
def shared_engine(tmp_path_factory):
    """One engine + 2-worker pool + 2 followers reused by the read-only
    parity tests."""
    engine = build_engine(tmp_path_factory.mktemp("procpool-shared"))
    add_replicas(engine, "process")
    add_replicas(engine, "replica")
    yield engine
    engine.close()


@pytest.fixture
def fresh_engine(tmp_path):
    engine = build_engine(tmp_path)
    yield engine
    engine.close()


ROUTES = ("process", "replica")

#: maintenance_report() keys per route: the replica count, the counter of
#: statements a replica served, of targets that refused an older pin, and of
#: statements the primary served instead.
REPORT_KEYS = {
    "process": (
        "procpool_workers",
        "procpool_plans_shipped",
        "procpool_refusals",
        "procpool_fallbacks",
    ),
    "replica": (
        "replication_followers",
        "replication_routed",
        "replication_skipped",
        "replication_fallbacks",
    ),
}


@pytest.mark.parametrize("mode", ROUTES)
class TestRouteContract:
    """What ``parallel_query`` promises on every replica route."""

    def test_fanout_matches_serial(self, shared_engine, mode):
        serial = shared_engine.parallel_query(STATEMENTS, threads=1)
        routed = shared_engine.parallel_query(STATEMENTS, mode=mode)
        assert len(routed) == len(serial)
        for expected, got in zip(serial, routed):
            assert fingerprint(got) == fingerprint(expected)

    def test_results_keep_statement_order(self, shared_engine, mode):
        statements = list(reversed(STATEMENTS))
        serial = shared_engine.parallel_query(statements, threads=1)
        routed = shared_engine.parallel_query(statements, mode=mode)
        for expected, got in zip(serial, routed):
            assert fingerprint(got) == fingerprint(expected)

    def test_selective_reads_derive_only_the_answer(self, shared_engine, mode):
        """Every replica reads through an equality index — a worker at the head
        of its own copy, a follower through its pin — so a point read costs
        its answer on either route, not the atom type."""
        statements = [f"SELECT item FROM item WHERE item.name = 'n{i}';" for i in (7, 8, 9, 10)]
        for result in shared_engine.parallel_query(statements, mode=mode):
            counters = result.counters
            if not isinstance(counters, dict):
                counters = vars(counters)
            assert len(result) == 1
            assert counters["molecules_derived"] == counters["restrictions_evaluated"] == 1
            assert counters["index_lookups"] == 1

    def test_unroutable_statement_falls_back_to_primary(self, shared_engine, mode):
        fallbacks = REPORT_KEYS[mode][3]
        before = shared_engine.maintenance_report()[fallbacks]
        (result,) = shared_engine.parallel_query(
            ["EXPLAIN SELECT item FROM item WHERE item.qty = 2;"], mode=mode
        )
        assert result is not None and not isinstance(result, ShippedQueryResult)
        assert result.explanation
        assert shared_engine.maintenance_report()[fallbacks] == before + 1

    def test_dml_still_rejected(self, shared_engine, mode):
        with pytest.raises(StorageError):
            shared_engine.parallel_query(
                ["DELETE FROM item WHERE item.qty = 2;"], mode=mode
            )
        assert shared_engine.maintenance_report()["pins_active"] == 0

    def test_counters_move_exactly(self, shared_engine, mode):
        """Every routed statement is tallied once — the fan-out threads count
        into their own dict and the router adds it up after the join."""
        replicas, served, _refused, fallbacks = REPORT_KEYS[mode]
        before = shared_engine.maintenance_report()
        for _ in range(5):
            shared_engine.parallel_query(STATEMENTS[:3], mode=mode)
        report = shared_engine.maintenance_report()
        assert report[replicas] == 2
        assert report[served] == before[served] + 15
        assert report[fallbacks] == before[fallbacks]
        assert report["fenced"] is False
        if mode == "process":
            assert report["procpool_dispatches"] == before["procpool_dispatches"] + 5
            assert report["procpool_workers_started"] >= 2
        else:
            assert report["replication_followers_started"] == 2
            assert report["replication_lag"] >= 0

    def test_older_pin_is_refused_and_falls_back(self, fresh_engine, mode):
        _replicas, _served, refused, fallbacks = REPORT_KEYS[mode]
        add_replicas(fresh_engine, mode)
        with fresh_engine.snapshot_at() as old:
            for i in range(300, 310):
                fresh_engine.store_atom(
                    "item", identifier=f"i{i}", name=f"n{i}", grp="new", val=3.0, qty=3
                )
            # Advance the replicas past the old generation…
            fresh_engine.parallel_query(STATEMENTS[:2], mode=mode)
            before = fresh_engine.maintenance_report()
            # …then dispatch pinned at it: a replica cannot rewind, so both
            # are left out and the primary serves the statement at the old pin.
            (result,) = fresh_engine.parallel_query(
                ["SELECT COUNT(item.name) FROM item;"],
                mode=mode,
                generation=old.generation,
            )
            expected = old.query("SELECT COUNT(item.name) FROM item;")
            assert fingerprint(result) == fingerprint(expected)
            report = fresh_engine.maintenance_report()
            assert report[refused] == before[refused] + 2
            assert report[fallbacks] == before[fallbacks] + 1

    def test_no_replica_available_falls_back(self, fresh_engine, mode, monkeypatch):
        """Process: every worker is dead and cannot be respawned.  Replica:
        no follower was ever created."""
        if mode == "process":
            pool = fresh_engine.process_pool(workers=2)
            for pid in pool.worker_pids():
                kill_and_wait(pid)

            def no_spawn(worker):
                raise StorageError("process-pool worker failed to seed: injected")

            monkeypatch.setattr(pool, "_spawn", no_spawn)
        serial = fresh_engine.parallel_query(STATEMENTS[:2], threads=1)
        routed = fresh_engine.parallel_query(STATEMENTS[:2], mode=mode)
        for expected, got in zip(serial, routed):
            assert fingerprint(got) == fingerprint(expected)
        report = fresh_engine.maintenance_report()
        assert report["pins_active"] == 0
        if mode == "process":
            assert report["procpool_fallbacks"] == 2
            assert report["procpool_restarts"] == 0


class TestProcessModeParity:
    @pytest.mark.parametrize(
        "statement", [RECURSIVE_ALL, GROUPED_DISTINCT], ids=["closure", "distinct"]
    )
    def test_one_statement_runs_on_one_worker(self, shared_engine, statement):
        """A batch of one statement is shipped once, to one of the two
        workers, and the primary merges nothing."""
        serial = shared_engine.query(statement)
        pool = shared_engine.process_pool()
        assert pool.size == 2
        shipped = pool.counters["plans_shipped"]
        (proc,) = shared_engine.parallel_query([statement], mode="process")
        assert isinstance(proc, ShippedQueryResult)
        assert fingerprint(proc) == fingerprint(serial)
        assert pool.counters["plans_shipped"] == shipped + 1

    def test_followers_are_not_partitioned(self, shared_engine):
        """A follower answers in process: the primary gets its own
        ``QueryResult``, never a shipped one."""
        (routed,) = shared_engine.parallel_query([RECURSIVE_ALL], mode="replica")
        assert not isinstance(routed, ShippedQueryResult)
        assert fingerprint(routed) == fingerprint(shared_engine.query(RECURSIVE_ALL))

    def test_unknown_mode_rejected(self, shared_engine):
        with pytest.raises(StorageError):
            shared_engine.parallel_query(["SELECT item FROM item;"], mode="fiber")

    def test_unknown_mode_rejected_for_an_empty_batch(self):
        with pytest.raises(StorageError, match="unknown parallel_query mode"):
            PrimaEngine().parallel_query([], mode="bogus")


class TestWorkerLifecycle:
    def test_crash_mid_sequence_restarts_transparently(self, fresh_engine):
        pool = fresh_engine.process_pool(workers=2)
        baseline = fresh_engine.parallel_query(STATEMENTS, threads=1)
        victim = pool.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except OSError:
                break
            time.sleep(0.02)
        proc = fresh_engine.parallel_query(STATEMENTS, mode="process")
        for expected, got in zip(baseline, proc):
            assert fingerprint(got) == fingerprint(expected)
        assert pool.counters["restarts"] >= 1
        assert victim not in pool.worker_pids()

    def test_catchup_after_write_burst(self, fresh_engine):
        pool = fresh_engine.process_pool(workers=2)
        fresh_engine.parallel_query(STATEMENTS[:1], mode="process")  # workers current
        for i in range(100, 150):
            fresh_engine.store_atom(
                "item",
                identifier=f"i{i}",
                name=f"n{i}",
                grp="burst",
                val=float(i),
                qty=i % 5,
            )
        serial = fresh_engine.parallel_query(STATEMENTS, threads=1)
        proc = fresh_engine.parallel_query(STATEMENTS, mode="process")
        for expected, got in zip(serial, proc):
            assert fingerprint(got) == fingerprint(expected)
        assert pool.counters["catchup_records"] >= 50

    def test_catchup_across_checkpoint_truncation(self, fresh_engine):
        """A checkpoint truncates the WAL file; workers must keep tracking
        through the in-memory feed (which only ever grows) regardless."""
        pool = fresh_engine.process_pool(workers=2)
        fresh_engine.parallel_query(STATEMENTS[:1], mode="process")
        for i in range(200, 220):
            fresh_engine.store_atom(
                "item", identifier=f"i{i}", name=f"n{i}", grp="pre", val=1.0, qty=1
            )
        fresh_engine.checkpoint()
        for i in range(220, 240):
            fresh_engine.store_atom(
                "item", identifier=f"i{i}", name=f"n{i}", grp="post", val=2.0, qty=2
            )
        serial = fresh_engine.parallel_query(STATEMENTS, threads=1)
        proc = fresh_engine.parallel_query(STATEMENTS, mode="process")
        for expected, got in zip(serial, proc):
            assert fingerprint(got) == fingerprint(expected)
        assert pool.counters["restarts"] == 0

    def test_failed_respawn_degrades_to_fallback(self, fresh_engine, monkeypatch):
        """A respawn that fails is a crash the pool absorbs, like an
        exhausted crash budget: the slot's statements run on the primary."""
        pool = fresh_engine.process_pool(workers=2)
        baseline = fresh_engine.parallel_query(STATEMENTS, threads=1)
        pids = pool.worker_pids()
        kill_and_wait(pids[0])

        def no_spawn(worker):
            raise StorageError("process-pool worker failed to seed: injected")

        monkeypatch.setattr(pool, "_spawn", no_spawn)
        proc = fresh_engine.parallel_query(STATEMENTS, mode="process")
        for expected, got in zip(baseline, proc):
            assert fingerprint(got) == fingerprint(expected)
        report = fresh_engine.maintenance_report()
        assert report["pins_active"] == 0
        assert report["procpool_restarts"] == 0
        assert report["procpool_plans_shipped"] + report["procpool_fallbacks"] == len(
            STATEMENTS
        )
        fresh_engine.close()
        assert not still_alive(pids)

    def test_failed_construction_stops_what_it_started(self, fresh_engine, monkeypatch):
        """A seed failure on worker k must not orphan workers 0…k-1 nor leave
        anything subscribed to the commit feed."""
        from repro.engine.procpool import ProcessPool

        spawn = ProcessPool._spawn
        started = []

        def second_spawn_fails(pool, worker):
            if started:
                raise StorageError("process-pool worker failed to seed: injected")
            spawn(pool, worker)
            started.append(worker.process)

        monkeypatch.setattr(ProcessPool, "_spawn", second_spawn_fails)
        with pytest.raises(StorageError, match="injected"):
            fresh_engine.process_pool(workers=3)
        assert len(started) == 1 and not started[0].is_alive()
        fresh_engine.store_atom(
            "item", identifier="after", name="after", grp="x", val=0.0, qty=0
        )
        assert len(fresh_engine.replication_hub().feed) == 0  # nobody subscribed
        monkeypatch.undo()
        assert fresh_engine.process_pool(workers=2).size == 2  # and it can be retried

    def test_pool_requires_durability(self):
        engine = PrimaEngine()
        with pytest.raises(StorageError):
            engine.process_pool()

    def test_close_shuts_down_pool(self, tmp_path):
        engine = build_engine(tmp_path)
        pool = engine.process_pool(workers=2)
        pids = pool.worker_pids()
        engine.close()
        assert not still_alive(pids)


class TestShippingCodec:
    def plans(self, engine):
        interpreter = engine.interpreter()
        return [interpreter.plan(statement).best for statement in STATEMENTS]

    def test_roundtrip_is_byte_identical(self, shared_engine):
        for plan in self.plans(shared_engine):
            wire = plan_to_json(plan)
            again = plan_to_json(plan_from_json(wire))
            assert wire == again

    def test_encoding_is_deterministic_across_translations(self, shared_engine):
        """Two translations of the same statement encode identically except
        for the translator's fresh ``mql_resultN`` gensym (which names the
        result molecule type but never shapes its content)."""
        import re

        interpreter = shared_engine.interpreter()
        anonymize = lambda wire: re.sub(r"mql_result\d+", "mql_result#", wire)
        for statement in STATEMENTS:
            first = plan_to_json(interpreter.plan(statement).best)
            second = plan_to_json(interpreter.plan(statement).best)
            assert anonymize(first) == anonymize(second)

    def test_opaque_predicates_are_rejected(self, shared_engine):
        from repro.core.predicates import PredicateFormula
        from repro.engine.logical import RestrictPlan

        plan = self.plans(shared_engine)[0]
        opaque = RestrictPlan(
            child=plan, formula=PredicateFormula(lambda atom: True, "opaque")
        )
        with pytest.raises(ShippingError):
            encode_plan(opaque)

    def test_explain_output_is_deterministic(self, shared_engine):
        """Determinism audit: `PlanChoice.explain()` must render identically
        for repeated plannings of the same statement — modulo the translator's
        ``mql_resultN`` gensym — with no dict-order leaks."""
        import re

        interpreter = shared_engine.interpreter()
        anonymize = lambda text: re.sub(r"mql_result\d+", "mql_result#", text)
        for statement in STATEMENTS:
            assert anonymize(interpreter.plan(statement).explain()) == anonymize(
                interpreter.plan(statement).explain()
            )

    def test_to_dicts_is_deterministic(self, shared_engine):
        for statement in STATEMENTS:
            first = shared_engine.query(statement).to_dicts()
            second = shared_engine.query(statement).to_dicts()
            assert json.dumps(first, sort_keys=True, default=str) == json.dumps(
                second, sort_keys=True, default=str
            )


@st.composite
def dml_batches(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["insert", "modify", "delete"]))
        index = draw(st.integers(min_value=0, max_value=59))
        if kind == "insert":
            ops.append(
                (
                    "insert",
                    draw(st.integers(min_value=1000, max_value=1999)),
                    draw(st.integers(min_value=0, max_value=4)),
                )
            )
        elif kind == "modify":
            # MQL real literals are fixed-point (no exponent notation).
            value = round(draw(st.floats(0, 100, allow_nan=False)), 2)
            ops.append(("modify", index, value))
        else:
            ops.append(("delete", index))
    return ops


class TestInterleavedDMLSweep:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(batch=dml_batches())
    def test_parity_after_interleaved_dml(self, shared_engine, batch):
        """Process-mode results stay byte-identical to serial execution no
        matter what committed DML lands between dispatches (state accumulates
        across examples — every dispatch re-ships the new WAL tail)."""
        for op in batch:
            if op[0] == "insert":
                _, index, qty = op
                shared_engine.query(
                    "INSERT item VALUES {{name: 'h{0}', grp: 'hyp', "
                    "val: {0}.0, qty: {1}}};".format(index, qty)
                )
            elif op[0] == "modify":
                _, index, val = op
                shared_engine.query(
                    f"MODIFY item FROM item SET val = {val:.2f} "
                    f"WHERE item.name = 'n{index}';"
                )
            else:
                _, index = op
                shared_engine.query(
                    f"DELETE FROM item WHERE item.name = 'n{index}';"
                )
        serial = shared_engine.parallel_query(STATEMENTS[:3], threads=1)
        proc = shared_engine.parallel_query(STATEMENTS[:3], mode="process")
        for expected, got in zip(serial, proc):
            assert fingerprint(got) == fingerprint(expected)
