"""Thread races over the MVCC substrate: pins vs. GC, commits, readers, WAL.

Real-thread counterparts of the cooperative MVCC tests: every scenario here
puts actual ``threading.Thread`` workers behind a barrier so the racy window
is hit deliberately, not by luck.

* concurrent pin/release storms against garbage-collection truncation keep
  the pin registry exact (over-release is an error, never an under-count);
* two writer threads racing to commit the same write-set resolve to exactly
  one winner — the loser gets :class:`TransactionConflictError` and leaves
  no partial state;
* reader threads hammering one pinned snapshot return byte-identical results
  throughout a concurrent DML burst (and ``parallel_query`` equals serial
  execution on the same generation);
* a pinned columnar aggregate scanning while the head folds modifications and
  deletes into the same projection counts the pinned state, nothing else;
* a multi-threaded WAL append hammer under the ``batch`` group-commit policy
  produces no torn or interleaved records.

Iteration counts scale with the ``REPRO_STRESS`` environment knob (a
multiplier, default 1) — CI's stress step runs the same suite with a higher
value.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from typing import Callable, List

import pytest

from repro.core.versions import VersioningState
from repro.exceptions import (
    StorageError,
    TransactionConflictError,
    TransactionError,
)
from repro.manipulation.transactions import Transaction
from repro.storage import PrimaEngine, WriteAheadLog, read_wal
from repro.storage.wal import FSYNC_BATCH

import reference

#: Stress multiplier: CI's stress job runs e.g. ``REPRO_STRESS=10``.
STRESS = max(1, int(os.environ.get("REPRO_STRESS", "1")))


def run_threads(workers: "List[Callable[[], None]]") -> None:
    """Run *workers* on real threads; re-raise the first worker exception."""
    errors: List[BaseException] = []
    lock = threading.Lock()

    def wrap(worker: Callable[[], None]) -> Callable[[], None]:
        def runner() -> None:
            try:
                worker()
            except BaseException as exc:  # noqa: BLE001 - reported to pytest
                with lock:
                    errors.append(exc)

        return runner

    threads = [threading.Thread(target=wrap(worker)) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def small_engine() -> PrimaEngine:
    """A tiny two-type engine (states and areas) with warm caches."""
    engine = PrimaEngine("threadbox")
    engine.create_atom_type(
        "state", {"name": "string", "code": "string", "hectare": "integer"}
    )
    engine.create_atom_type("area", {"area_id": "string"})
    engine.create_link_type("state-area", "state", "area")
    for index in range(6):
        engine.store_atom(
            "state",
            identifier=f"st{index}",
            name=f"State{index}",
            code=f"S{index}",
            hectare=100 + index,
        )
        engine.store_atom("area", identifier=f"ar{index}", area_id=f"a{index}")
        engine.connect("state-area", f"st{index}", f"ar{index}")
    engine.query("SELECT ALL FROM state - area;")  # warm snapshot/interpreter
    return engine


def fingerprint(result) -> str:
    """Byte-stable rendering of a query result (order-independent)."""
    return json.dumps(
        sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())
    )


READ = "SELECT ALL FROM state - area;"


def dml_round(engine: PrimaEngine, index: int) -> None:
    code = f"T{index:05d}"
    engine.query(
        f"INSERT state VALUES {{name: 'Burst', code: '{code}', hectare: {index}}};"
    )
    engine.query(
        f"MODIFY state FROM state SET hectare = {index + 1} WHERE state.code = '{code}';"
    )
    engine.query(f"DELETE FROM state WHERE state.code = '{code}';")


# ------------------------------------------------------ pin registry vs. GC


class TestPinReleaseRaces:
    def test_barrier_pin_release_storm_vs_gc_truncation(self):
        """Pin/read/release storms against DML + GC keep the registry exact."""
        engine = small_engine()
        reader_count = 4
        rounds = 8 * STRESS
        barrier = threading.Barrier(reader_count + 1)

        def reader() -> None:
            barrier.wait()
            for _ in range(rounds):
                with engine.snapshot_at() as handle:
                    assert handle.query(READ).molecules is not None

        def writer() -> None:
            barrier.wait()
            for index in range(rounds):
                dml_round(engine, index)
                # Explicit GC interleaved with the readers' release-GC.
                engine.collect_versions()

        run_threads([reader] * reader_count + [writer])
        report = engine.maintenance_report()
        assert report["pins_active"] == 0
        assert report["oldest_pinned_generation"] is None
        engine.collect_versions()
        assert engine.maintenance_report()["versions_live"] == 0

    def test_racing_releases_of_one_handle_release_exactly_once(self):
        """N threads racing ``release()`` on one handle unpin exactly once."""
        engine = small_engine()
        for _ in range(4 * STRESS):
            keeper = engine.snapshot_at()  # a second pin that must survive
            handle = engine.snapshot_at()
            barrier = threading.Barrier(4)

            def release() -> None:
                barrier.wait()
                handle.release()  # noqa: B023 - rebound each round

            run_threads([release] * 4)
            assert engine.maintenance_report()["pins_active"] == 1
            keeper.release()
            assert engine.maintenance_report()["pins_active"] == 0

    def test_registry_over_release_is_an_error_under_threads(self):
        """The raw registry refuses the (N+1)-th release instead of silently
        stealing a pin another thread still holds."""
        state = VersioningState()
        state.tick()
        generation = state.pin()
        state.pin(generation)
        failures = []
        barrier = threading.Barrier(3)

        def release() -> None:
            barrier.wait()
            try:
                state.release(generation)
            except StorageError:
                failures.append(1)

        run_threads([release] * 3)
        assert len(failures) == 1  # two pins, three releases: one refused
        assert state.pins_active == 0


# ----------------------------------------------------------- racing writers


class TestWriterRaces:
    def test_two_writers_racing_same_write_set_exactly_one_wins(self):
        """Two real-thread writers on one conflict key: one commit, one
        :class:`TransactionConflictError`, loser fully rolled back."""
        engine = small_engine()
        database = engine.to_database()
        for round_index in range(6 * STRESS):
            barrier = threading.Barrier(2)
            outcomes: List[str] = []
            lock = threading.Lock()

            def contender(value: int) -> None:
                txn = Transaction(database)
                txn.begin()
                barrier.wait()
                try:
                    txn.modify_atom("state", "st1", hectare=value)
                    txn.commit()
                except TransactionConflictError:
                    if txn.is_active:
                        txn.rollback()
                    with lock:
                        outcomes.append("conflict")
                else:
                    with lock:
                        outcomes.append(f"won:{value}")

            base = 1000 * (round_index + 1)
            run_threads(
                [lambda: contender(base + 1), lambda: contender(base + 2)]
            )
            winners = [o for o in outcomes if o.startswith("won")]
            assert len(winners) == 1, outcomes
            assert outcomes.count("conflict") == 1, outcomes
            # The committed value is the winner's; the loser left no trace.
            winner_value = int(winners[0].split(":", 1)[1])
            assert engine.get_atom("state", "st1").get("hectare") == winner_value
            assert database.atyp("state").get("st1").get("hectare") == winner_value

    def test_disjoint_writers_all_commit(self):
        """Writers on disjoint keys never conflict and all publish."""
        engine = small_engine()
        database = engine.to_database()
        writer_count = 4
        barrier = threading.Barrier(writer_count)

        def writer(slot: int) -> None:
            txn = Transaction(database)
            txn.begin()
            barrier.wait()
            txn.modify_atom("state", f"st{slot}", hectare=7000 + slot)
            txn.commit()

        run_threads([lambda s=slot: writer(s) for slot in range(writer_count)])
        for slot in range(writer_count):
            assert engine.get_atom("state", f"st{slot}").get("hectare") == 7000 + slot


class TestBasicWriterRaces:
    def test_basic_writers_against_a_session_on_shared_keys(self, tmp_path):
        """Each round a session transaction writes two states and waits
        while two basic-interface writers write one of them, another state
        and a link, then it writes the state they wrote and commits or rolls
        back; pinned readers re-read their pins throughout.  The basic
        writes on the session's key conflict, the session's late write
        loses to theirs, and the head, the reopened directory and a
        caught-up follower end in one state."""
        directory = tmp_path / "dir"
        engine = PrimaEngine.open(directory, fsync="off")
        engine.create_atom_type(
            "state", {"name": "string", "code": "string", "hectare": "integer"}
        )
        engine.create_atom_type("area", {"area_id": "string"})
        engine.create_link_type("state-area", "state", "area")
        for index in range(4):
            engine.store_atom("state", identifier=f"st{index}", name=f"State{index}",
                              code=f"S{index}", hectare=100 + index)
            engine.store_atom("area", identifier=f"ar{index}", area_id=f"a{index}")
            engine.connect("state-area", f"st{index}", f"ar{index}")
        engine.checkpoint()
        engine.query(READ)  # warm the interpreter
        follower = engine.create_follower()
        rounds = 8 * STRESS
        opened = threading.Barrier(3, timeout=60)
        written = threading.Barrier(3, timeout=60)
        conflicts: List[str] = []

        def basic_writer(slot: int) -> None:
            for index in range(rounds):
                held, free = f"st{index % 4}", f"st{(index + 2) % 4}"
                opened.wait()
                try:
                    engine.store_atom("state", identifier=held, name="Basic",
                                      code=held, hectare=slot)
                except TransactionConflictError:
                    conflicts.append("basic")
                engine.store_atom("state", identifier=free, name=f"Basic{slot}",
                                  code=free, hectare=1000 * slot + index)
                mine = f"w{slot}-{index}"
                engine.store_atom("area", identifier=mine, area_id=mine)
                engine.connect("state-area", held, mine)
                if slot:
                    engine.delete_atom("area", mine)
                written.wait()

        def session() -> None:
            for index in range(rounds):
                txn = Transaction(engine.to_database(), pin_snapshot=True)
                txn.begin()
                txn.modify_atom("state", f"st{index % 4}", hectare=-index)
                txn.modify_atom("state", f"st{(index + 1) % 4}", name="Session")
                opened.wait()
                written.wait()
                try:
                    txn.modify_atom("state", f"st{(index + 2) % 4}", name="Late")
                except TransactionConflictError:
                    conflicts.append("session")
                if index % 2:
                    txn.rollback()
                else:
                    txn.commit()

        def reader() -> None:
            for _ in range(rounds):
                with engine.snapshot_at() as handle:
                    first = fingerprint(handle.query(READ))
                    assert fingerprint(handle.query(READ)) == first

        run_threads(
            [lambda s=slot: basic_writer(s) for slot in range(2)]
            + [session]
            + [reader] * 2
        )
        assert sorted(conflicts) == ["basic"] * (2 * rounds) + ["session"] * rounds
        head = fingerprint(engine.query(READ))
        engine.replication_hub().ship(follower)
        assert fingerprint(follower.query(READ)) == head
        engine.close()
        reopened = PrimaEngine.open(directory)
        assert fingerprint(reopened.query(READ)) == head
        reopened.close()


# --------------------------------------------------------- parallel readers


class TestParallelReaders:
    def test_reader_threads_generation_stable_during_dml_burst(self):
        """N reader threads over one pinned snapshot return byte-identical
        results while a writer thread commits a DML burst."""
        engine = small_engine()
        handle = engine.snapshot_at()
        reference = fingerprint(handle.query(READ))
        reader_count = 4
        reads_each = 6 * STRESS
        barrier = threading.Barrier(reader_count + 1)

        def reader() -> None:
            barrier.wait()
            for _ in range(reads_each):
                assert fingerprint(handle.query(READ)) == reference

        def writer() -> None:
            barrier.wait()
            for index in range(6 * STRESS):
                dml_round(engine, index)

        run_threads([reader] * reader_count + [writer])
        # The head moved on; the pinned view did not.
        assert fingerprint(handle.query(READ)) == reference
        handle.release()
        assert engine.maintenance_report()["pins_active"] == 0

    def test_parallel_query_byte_identical_vs_serial(self):
        """``parallel_query`` equals a serial run at the same generation,
        with a concurrent writer mutating the head in between.

        A keeper pin holds the generation's history alive across the whole
        comparison — without any pin, an unpinned stretch would let GC
        truncate the chains an after-the-fact pin would need.
        """
        engine = small_engine()
        statements = [READ, "SELECT ALL FROM state;", "SELECT ALL FROM area;"] * 4
        keeper = engine.snapshot_at()
        generation = keeper.generation
        serial = [
            fingerprint(r)
            for r in engine.parallel_query(statements, threads=1, generation=generation)
        ]
        stop = threading.Event()

        def churn() -> None:
            index = 0
            while not stop.is_set():
                dml_round(engine, index)
                index += 1

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for threads in (2, 4):
                parallel = [
                    fingerprint(r)
                    for r in engine.parallel_query(
                        statements, threads=threads, generation=generation
                    )
                ]
                assert parallel == serial
        finally:
            stop.set()
            churner.join()
        keeper.release()

    def test_session_thread_affinity_enforced(self):
        """Session statements from a foreign thread fail with a clear error;
        pinned snapshot reads from that thread keep working."""
        engine = small_engine()
        handle = engine.snapshot_at()
        engine.query("BEGIN WORK;")
        engine.query(
            "MODIFY state FROM state SET hectare = 1 WHERE state.code = 'S0';"
        )
        caught: List[BaseException] = []
        snapshots: List[str] = []

        def foreign() -> None:
            try:
                engine.query(READ)
            except TransactionError as exc:
                caught.append(exc)
            snapshots.append(fingerprint(handle.query(READ)))

        run_threads([foreign])
        assert len(caught) == 1
        assert "thread" in str(caught[0])
        assert snapshots  # the pinned read went through
        engine.query("ROLLBACK WORK;")
        handle.release()
        assert engine.query(READ).molecules is not None  # session gone, head open


# ------------------------------------------------------------- DDL races


class TestDdlRaces:
    def test_type_registration_vs_registry_readers(self):
        """DDL registers types in the engine's live database while other
        threads walk its type registry (version GC on every pin release,
        incident-link lookups): nobody may see the registry mid-resize."""
        engine = small_engine()
        database = engine.to_database()
        done = threading.Event()

        def ddl() -> None:
            try:
                for index in range(600 * STRESS):
                    engine.create_atom_type(f"t{index}", {"x": "integer"})
                    engine.create_link_type(f"l{index}", "state", f"t{index}")
            finally:
                done.set()

        def reader() -> None:
            while not done.is_set():
                engine.collect_versions()
                assert len(database.link_types_of("area")) == 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_threads([ddl, reader, reader])
        finally:
            sys.setswitchinterval(interval)
        assert len(database.link_types_of("state")) == 1 + 600 * STRESS
        assert len(engine.query("SELECT ALL FROM state - area;")) == 6


# ------------------------------------------------- structure-index churn


class TestStructureIndexChurn:
    def test_recursive_readers_stable_under_structure_churn(self):
        """Snapshot readers of an interval-accelerated recursion stay
        generation-stable while writers graft and prune the BOM, and the
        final head answer matches a fixpoint engine replaying the same
        final state."""
        engine = PrimaEngine("churnbox")
        engine.create_atom_type("part", {"part_no": "string"})
        engine.create_link_type("composition", "part", "part")
        for index in range(8):
            engine.store_atom("part", identifier=f"p{index}", part_no=f"P{index}")
        for parent, child in [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (5, 6), (6, 7)]:
            engine.connect("composition", f"p{parent}", f"p{child}")
        engine.create_structure_index("part", "composition", "down")
        recursive = "SELECT ALL FROM RECURSIVE part [composition] DOWN;"
        engine.query(recursive)  # warm caches, build the encoding

        writer_count = 2
        reader_count = 2
        rounds = 8 * STRESS
        barrier = threading.Barrier(writer_count + reader_count)

        def writer(worker: int) -> Callable[[], None]:
            def work() -> None:
                barrier.wait()
                for round_no in range(rounds):
                    leaf = f"w{worker}r{round_no}"
                    engine.store_atom("part", identifier=leaf, part_no=leaf)
                    engine.connect("composition", f"p{round_no % 8}", leaf)
                    if round_no % 3 == 0:
                        engine.delete_atom("part", leaf)

            return work

        def reader() -> None:
            barrier.wait()
            for _ in range(rounds):
                handle = engine.snapshot_at()
                try:
                    first = fingerprint(handle.query(recursive))
                    second = fingerprint(handle.query(recursive))
                    assert first == second
                finally:
                    handle.release()

        run_threads([writer(w) for w in range(writer_count)] + [reader] * reader_count)

        # Replay the final store state into a fixpoint-only engine and
        # compare the head answers structurally.
        final = engine.to_database()
        baseline = PrimaEngine("churnbase")
        baseline.create_atom_type("part", {"part_no": "string"})
        baseline.create_link_type("composition", "part", "part")
        for atom in final.atyp("part"):
            baseline.store_atom("part", identifier=atom.identifier, part_no=atom.get("part_no"))
        for link in final.ltyp("composition"):
            first_id, second_id = link.given_order
            baseline.connect("composition", first_id, second_id)
        assert fingerprint(engine.query(recursive)) == fingerprint(
            baseline.query(recursive)
        )
        report = engine.maintenance_report()
        assert report["structure_indexes"] == 1
        assert report["structure_builds"] >= 1
        assert report["pins_active"] == 0


# ------------------------------------------------ columnar fold vs. head fold


class TestColumnarFoldRace:
    def test_pinned_aggregate_ignores_concurrent_head_folds(self):
        """A pinned columnar aggregate scans while the head folds
        modifications and deletes into the projection.  The writer starts the
        moment the store has admitted the pin, so nothing but the copy the
        store hands out keeps the patched values and swap-popped rows out of
        the fold (the live arrays leaked them, or raised ``IndexError``)."""
        engine = PrimaEngine("foldbox")
        engine.create_atom_type("t", {"g": "string", "v": "integer"})
        rows = 20_000
        for index in range(rows):
            engine.store_atom("t", identifier=f"t{index}", g="xy"[index % 2], v=1)
        aggregate = "SELECT t.g, COUNT(*), SUM(t.v) FROM t GROUP BY t.g;"
        engine.query(aggregate)  # builds the projection
        counts = {"x": rows // 2, "y": rows // 2}
        victims = iter(range(rows))
        store = engine._accelerators
        admit = store.projection_for
        admitted = threading.Event()

        def admit_and_tell(type_name, ctx):
            projection = admit(type_name, ctx)
            if ctx.snapshot is not None:
                admitted.set()
            return projection

        store.projection_for = admit_and_tell
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for _ in range(4 * STRESS):
                expected = [(g, n, n) for g, n in sorted(counts.items())]
                handle = engine.snapshot_at()
                admitted.clear()
                seen: List[list] = []

                def reader() -> None:
                    result = handle.query(aggregate)
                    assert result.counters.columnar_rows_scanned == sum(counts_at_pin)
                    seen.append([tuple(row) for row in result.rows])

                def writer() -> None:
                    assert admitted.wait(timeout=30)
                    for _ in range(20):
                        victim = next(victims)
                        engine.store_atom("t", identifier=f"t{victim}", g="z", v=1)
                        counts["xy"[victim % 2]] -= 1
                        counts["z"] = counts.get("z", 0) + 1
                        victim = next(victims)
                        engine.delete_atom("t", f"t{victim}")
                        counts["xy"[victim % 2]] -= 1

                counts_at_pin = list(counts.values())
                try:
                    run_threads([reader, writer])
                finally:
                    handle.release()
                assert seen == [expected]
        finally:
            sys.setswitchinterval(interval)
            del store.projection_for
        report = engine.maintenance_report()
        assert report["columnar_fallbacks"] == report["columnar_snapshot_gaps"] == 0
        assert [tuple(row) for row in engine.query(aggregate).rows] == [
            (g, n, n) for g, n in sorted(counts.items())
        ]


    def test_head_postings_build_races_the_writer_fold(self):
        """A head reader builds value postings from the live arrays while a
        writer folds inserts, group changes and deletes into them.  The build
        and every fold hold the store lock, so whichever comes first, the
        postings end equal to a rebuild from the arrays, and the head
        aggregate equals the row Γ."""
        engine = PrimaEngine("postingbox")
        engine.create_atom_type("t", {"g": "string", "v": "integer"})
        rows = 4_000
        for index in range(rows):
            engine.store_atom("t", identifier=f"t{index}", g="xyz"[index % 3], v=index % 7)
        aggregate = "SELECT t.g, COUNT(*), SUM(t.v) FROM t GROUP BY t.g;"
        engine.query(aggregate)  # builds the projection
        store = engine._accelerators
        projection = store._projections["t"]
        victims = iter(range(rows))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for round_ in range(4 * STRESS):
                with store._lock:
                    projection._postings = {}  # the next use builds them again

                def reader() -> None:
                    for attribute in ("g", "v"):
                        store.postings(projection, attribute)

                def writer() -> None:
                    for step in range(20):
                        victim = next(victims)
                        engine.store_atom("t", identifier=f"t{victim}", g="w", v=step)
                        engine.store_atom("t", identifier=f"n{round_}_{step}", g="xyz"[step % 3], v=1)
                        engine.delete_atom("t", f"t{next(victims)}")

                run_threads([reader, writer])
                with store._lock:
                    for attribute in ("g", "v"):
                        buckets, mixed = projection.postings(attribute)
                        copy = projection.for_pin()
                        copy._postings = {}
                        assert (buckets, mixed) == copy.postings(attribute)
        finally:
            sys.setswitchinterval(interval)
        assert engine.query(aggregate).rows == reference.row(engine, aggregate).rows
        assert engine.maintenance_report()["columnar_gap_events"] == 0


# ----------------------------------------------------------- WAL append race


class TestWalRaces:
    def test_append_hammer_no_torn_records_under_batch_policy(self, tmp_path):
        """Concurrent committers under group commit: every record on disk is
        whole, checksummed, and exactly the set the threads appended."""
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=FSYNC_BATCH, group_commit=4)
        writer_count = 4
        appends_each = 25 * STRESS
        barrier = threading.Barrier(writer_count)

        def writer(slot: int) -> None:
            barrier.wait()
            for index in range(appends_each):
                payload = {
                    "e": "ai",
                    "t": "part",
                    "id": f"w{slot}-{index}",
                    "v": {"marker": "x" * (10 + (index % 40))},
                    "g": slot * 100000 + index,
                }
                wal.commit_events([payload])

        run_threads([lambda s=slot: writer(s) for slot in range(writer_count)])
        wal.close()
        scan = read_wal(tmp_path / "wal.log")
        assert not scan.torn_tail
        assert scan.discarded_bytes == 0
        assert len(scan.records) == writer_count * appends_each
        seen = {record["events"][0]["id"] for record in scan.records}
        assert len(seen) == writer_count * appends_each
        assert scan.valid_bytes == (tmp_path / "wal.log").stat().st_size

    def test_wal_counters_exact_after_concurrent_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync=FSYNC_BATCH, group_commit=8)
        barrier = threading.Barrier(3)

        def writer() -> None:
            barrier.wait()
            for index in range(20 * STRESS):
                wal.append_ddl({"op": "index", "type": "t", "attribute": f"a{index}"})

        run_threads([writer] * 3)
        assert wal.records_written == 60 * STRESS
        assert wal.lifetime_records == 60 * STRESS
        assert wal.bytes_written == wal.path.stat().st_size
        wal.close()


# ------------------------------------------------------ replication churn


class TestFollowerChurn:
    def test_follower_churn_under_write_burst(self, tmp_path):
        """Followers joining, catching up, querying, and detaching while
        writer threads burst DML: every catch-up lands on a consistent
        generation and a final catch-up reaches byte-parity with the head."""
        engine = PrimaEngine.open(tmp_path / "dir", fsync="off")
        engine.create_atom_type(
            "state", {"name": "string", "code": "string", "hectare": "integer"}
        )
        engine.create_atom_type("area", {"area_id": "string"})
        engine.create_link_type("state-area", "state", "area")
        for index in range(6):
            engine.store_atom(
                "state",
                identifier=f"st{index}",
                name=f"State{index}",
                code=f"S{index}",
                hectare=100 + index,
            )
            engine.store_atom("area", identifier=f"ar{index}", area_id=f"a{index}")
            engine.connect("state-area", f"st{index}", f"ar{index}")
        engine.checkpoint()
        hub = engine.replication_hub()
        writer_count = 2
        churner_count = 3
        rounds = 5 * STRESS
        barrier = threading.Barrier(writer_count + churner_count)

        def writer(slot: int) -> None:
            barrier.wait()
            for index in range(rounds):
                dml_round(engine, slot * 100000 + index)

        def churner(slot: int) -> None:
            barrier.wait()
            for index in range(rounds):
                follower = engine.create_follower(f"churn-{slot}-{index}")
                try:
                    hub.ship(follower)
                    result = follower.query("SELECT COUNT(state.name) FROM state;")
                    assert len(result.to_dicts()) == 1
                finally:
                    follower.close()

        run_threads(
            [lambda s=slot: writer(s) for slot in range(writer_count)]
            + [lambda s=slot: churner(s) for slot in range(churner_count)]
        )
        assert hub.followers() == []
        # A fresh follower after the storm catches up to exact parity.
        follower = engine.create_follower("final")
        hub.ship(follower)
        assert fingerprint(follower.query(READ)) == fingerprint(engine.query(READ))
        report = engine.maintenance_report()
        assert report["replication_followers_started"] == churner_count * rounds + 1
        assert report["replication_lag"] == 0
        engine.close()


# ------------------------------------------- WAL truncate counter regression


def test_wal_truncate_keeps_record_and_byte_counters_consistent(tmp_path):
    """Regression: ``truncate()`` used to reset ``bytes_written`` but not
    ``records_written``, so a post-CHECKPOINT report claimed records in an
    empty log.  Both now describe the current log; lifetime totals survive."""
    engine = PrimaEngine.open(tmp_path / "dir", fsync="always")
    engine.create_atom_type("part", {"part_no": "string", "cost": "integer"})
    engine.query("INSERT part VALUES {part_no: 'P1', cost: 10};")
    engine.query("INSERT part VALUES {part_no: 'P2', cost: 20};")
    before = engine.maintenance_report()
    assert before["wal_records"] > 0
    assert before["wal_bytes"] > 0
    assert before["wal_lifetime_records"] == before["wal_records"]
    engine.checkpoint()
    after = engine.maintenance_report()
    assert after["wal_bytes"] == 0
    assert after["wal_records"] == 0, "truncate must reset both current-log counters"
    assert after["wal_lifetime_records"] == before["wal_lifetime_records"]
    assert after["wal_lifetime_bytes"] == before["wal_lifetime_bytes"]
    # Post-checkpoint appends count from zero again, lifetime keeps growing.
    engine.query("INSERT part VALUES {part_no: 'P3', cost: 30};")
    final = engine.maintenance_report()
    assert final["wal_records"] == 1
    assert final["wal_lifetime_records"] == before["wal_lifetime_records"] + 1
    assert final["wal_lifetime_bytes"] > before["wal_lifetime_bytes"]
    engine.close()
