"""Log-shipping replication: the commit feed, followers, catch-up, promotion.

``storage/replication.py`` turns the WAL's commit/DDL records into one
commit feed: a :class:`FollowerEngine` seeds from the checkpoint image plus
WAL tail, then tracks the primary either through the in-process
:class:`ReplicationHub` (which ships it the feed) or by polling the WAL file
incrementally, and serves snapshot-pinned reads at its applied generation.
``parallel_query(mode="replica")`` fans read statements over the followers
with a staleness bound (the route contract both replica routes share is in
``test_procpool.py::TestRouteContract``).

Covers: WAL multi-observer fan-out, the one feed (a record is held once
however many subscribers, a leaving subscriber never stops the others, no
subscriber → nothing held), incremental ``read_wal(from_offset=…)`` with a
cut at every byte of an in-flight record, follower polling across torn tails
and checkpoint truncation (re-seed, never rewind), hub catch-up with
rewind/too-fresh refusals, byte-parity live / mid-catch-up / after
promotion, fencing (basic writes, DDL, new and in-flight transactions), the
replica router's staleness semantics, plans that carry no routing advice
with replicas attached, and a hypothesis sweep of DML bursts vs. follower
replay parity.
"""

from __future__ import annotations

import json
import shutil
import struct
import tempfile
import zlib

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.atom import reset_surrogate_counter
from repro.exceptions import SchemaError, StorageError, TransactionError
from repro.manipulation.transactions import Transaction
from repro.storage.engine import PrimaEngine
from repro.storage.replication import (
    FollowerEngine,
    ReplicationError,
    seed_engine,
)
from repro.storage.wal import DurabilityConfig, WriteAheadLog, read_wal


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

COUNT_ITEMS = "SELECT COUNT(item.name) FROM item;"


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


def burst(engine, start, stop, grp="burst"):
    for i in range(start, stop):
        engine.store_atom(
            "item", identifier=f"i{i}", name=f"n{i}", grp=grp, val=float(i), qty=i % 5
        )


def clock(engine) -> int:
    """The primary's version clock — pins, routed reads and commits tick it."""
    return engine.to_database().versioning.generation


def commit_blob(generation, identifier="tz0", grp="torn"):
    """Raw bytes of one WAL commit record, exactly as ``append`` writes them."""
    payload = {
        "r": "commit",
        "gen": generation,
        "events": [
            {
                "e": "ai",
                "t": "item",
                "id": identifier,
                "g": generation,
                "v": {"name": identifier, "grp": grp, "val": 1.0, "qty": 1},
            }
        ],
    }
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return struct.pack(">II", len(data), zlib.crc32(data) & 0xFFFFFFFF) + data


@pytest.fixture(scope="module")
def replica_engine(tmp_path_factory):
    """One engine + two followers reused by the read-only routing tests."""
    engine = build_engine(tmp_path_factory.mktemp("replication-shared"))
    engine.create_follower("f0")
    engine.create_follower("f1")
    yield engine
    engine.close()


@pytest.fixture
def fresh_engine(tmp_path):
    engine = build_engine(tmp_path)
    yield engine
    engine.close()


class TestWalObserverFanout:
    """The PR 9 bugfix: ``set_observer`` was a single-slot tap that a
    process pool claimed and cleared on close, silently clobbering any
    replication tail registered alongside it."""

    def test_all_observers_receive_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        first, second = [], []
        wal.add_observer(first.append)
        wal.add_observer(second.append)
        wal.append_ddl({"op": "index", "type": "item", "attribute": "name"})
        wal.commit_events([{"e": "ai", "t": "item", "id": "x", "v": {}, "g": 1}])
        assert len(first) == 2 and first == second
        wal.close()

    def test_remove_only_detaches_own_tap(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        first, second = [], []
        wal.add_observer(first.append)
        wal.add_observer(second.append)
        wal.remove_observer(first.append)
        wal.remove_observer(first.append)  # idempotent
        wal.append_ddl({"op": "index", "type": "item", "attribute": "name"})
        assert first == [] and len(second) == 1
        wal.close()


class TestCommitFeed:
    """One WAL tap per engine: the pool's workers and the hub's followers
    are subscribers of the same feed."""

    def test_pool_shutdown_leaves_followers_receiving(self, fresh_engine):
        pool = fresh_engine.process_pool(workers=2)
        follower = fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        burst(fresh_engine, 100, 105)
        pool.shutdown()
        burst(fresh_engine, 105, 110)
        assert hub.ship(follower) == 10
        assert fingerprint(follower.query(COUNT_ITEMS)) == fingerprint(
            fresh_engine.query(COUNT_ITEMS)
        )

    def test_hub_close_leaves_pool_receiving(self, fresh_engine):
        pool = fresh_engine.process_pool(workers=2)
        fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        burst(fresh_engine, 100, 105)
        hub.close()  # the engine keeps its pool
        burst(fresh_engine, 105, 110)
        serial = fresh_engine.parallel_query(STATEMENTS[:3], threads=1)
        shipped = fresh_engine.parallel_query(STATEMENTS[:3], mode="process")
        for expected, got in zip(serial, shipped):
            assert fingerprint(got) == fingerprint(expected)
        assert pool.counters["catchup_records"] == 2 * 10
        assert pool.counters["fallbacks"] == 0

    def test_one_record_is_held_once(self, fresh_engine):
        """With a pool and a follower on one engine a burst of n commits
        leaves exactly n records in memory, until *both* have caught up."""
        pool = fresh_engine.process_pool(workers=2)
        fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        assert pool.feed is hub.feed
        feed, before = hub.feed, hub.feed.position()
        burst(fresh_engine, 100, 120)
        assert len(feed) == 20 and feed.position() == before + 20
        pool.catch_up_all(fresh_engine.generation, feed.position())
        assert len(feed) == 20  # the follower still needs them
        hub.catch_up_all()
        assert len(feed) == 0 and feed.position() == before + 20

    def test_feed_holds_nothing_without_subscribers(self, fresh_engine):
        """Regression: a hub with no follower never trimmed while its WAL
        tap kept appending — unbounded memory after the last ``close()``."""
        follower = fresh_engine.create_follower()
        feed = fresh_engine.replication_hub().feed
        burst(fresh_engine, 100, 110)
        assert len(feed) == 10
        follower.close()
        assert len(feed) == 0
        before = feed.position()
        burst(fresh_engine, 110, 360)
        assert len(feed) == 0 and feed.position() == before + 250
        # A later subscriber seeds from the files and misses nothing.
        late = fresh_engine.create_follower()
        assert late.applied_seq == feed.position()
        assert fingerprint(late.query(COUNT_ITEMS)) == fingerprint(
            fresh_engine.query(COUNT_ITEMS)
        )

    def test_detached_follower_is_refused_not_given_a_gap(self, fresh_engine):
        follower = fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        follower.close()
        burst(fresh_engine, 100, 105)
        keeper = fresh_engine.create_follower()  # makes the feed hold records again
        burst(fresh_engine, 105, 110)
        with pytest.raises(ReplicationError, match="trimmed"):
            hub.ship(follower)
        assert hub.ship(keeper) == 5


class TestIncrementalReadWal:
    def test_from_offset_resumes_with_absolute_offsets(self, tmp_path):
        path = tmp_path / "wal.log"
        blobs = [commit_blob(i + 1, identifier=f"a{i}") for i in range(3)]
        path.write_bytes(b"".join(blobs))
        full = read_wal(path)
        assert len(full.records) == 3
        assert full.valid_bytes == sum(len(b) for b in blobs)
        resumed = read_wal(path, from_offset=len(blobs[0]))
        assert [r["gen"] for r in resumed.records] == [2, 3]
        assert resumed.valid_bytes == full.valid_bytes
        assert resumed.discarded_bytes == 0

    def test_missing_file_keeps_offset(self, tmp_path):
        scan = read_wal(tmp_path / "absent.log", from_offset=7)
        assert scan.records == [] and scan.valid_bytes == 7

    def test_cut_at_every_byte_is_not_yet(self, tmp_path):
        """An in-flight append cut at every possible byte must scan as a
        torn tail: zero extra records, resume offset unmoved, never an
        error — the poller's 'not yet' contract."""
        path = tmp_path / "wal.log"
        settled = commit_blob(1, identifier="ok")
        inflight = commit_blob(2, identifier="half")
        for cut in range(len(inflight)):
            path.write_bytes(settled + inflight[:cut])
            scan = read_wal(path, from_offset=len(settled))
            assert scan.records == []
            assert scan.valid_bytes == len(settled)
            assert scan.discarded_bytes == cut
            assert scan.torn_tail == (cut > 0)
        path.write_bytes(settled + inflight)
        scan = read_wal(path, from_offset=len(settled))
        assert [r["gen"] for r in scan.records] == [2]
        assert scan.valid_bytes == len(settled) + len(inflight)
        assert not scan.torn_tail


class TestFollowerPolling:
    def test_poll_applies_new_records(self, fresh_engine, tmp_path):
        follower = FollowerEngine(fresh_engine.durability.directory)
        assert follower.applied_generation == fresh_engine.generation
        burst(fresh_engine, 100, 120)
        assert follower.poll() >= 20
        assert follower.applied_generation == fresh_engine.generation
        for statement in STATEMENTS:
            assert fingerprint(follower.query(statement)) == fingerprint(
                fresh_engine.query(statement)
            )
        assert follower.poll() == 0  # nothing new: no re-read, no re-apply

    def test_poll_treats_torn_tail_as_not_yet(self, fresh_engine, tmp_path):
        """A poller racing an in-flight append sees half a record: it must
        re-poll from the last good offset later, never truncate or error."""
        config = fresh_engine.durability
        copy = tmp_path / "copy"
        copy.mkdir()
        fresh_engine.wal.sync()
        shutil.copy(config.checkpoint_path, copy / "checkpoint.json")
        shutil.copy(config.wal_path, copy / "wal.log")
        follower = FollowerEngine(copy)
        generation = follower.applied_generation + 1
        blob = commit_blob(generation)
        half = len(blob) // 2
        with open(copy / "wal.log", "ab") as handle:
            handle.write(blob[:half])
        baseline = fingerprint(follower.query(COUNT_ITEMS))
        assert follower.poll() == 0
        assert follower.counters["torn_tail_retries"] == 1
        assert fingerprint(follower.query(COUNT_ITEMS)) == baseline
        with open(copy / "wal.log", "ab") as handle:
            handle.write(blob[half:])
        assert follower.poll() == 1
        assert follower.applied_generation == generation
        assert follower.engine.get_atom("item", "tz0") is not None
        # The torn bytes were left alone, not truncated: the completed
        # record was read from the original offset.
        assert follower.counters["reseeds"] == 0

    def test_poll_survives_checkpoint_truncation(self, fresh_engine):
        """Mirror of test_procpool's catch-up-across-truncation: a follower
        mid-tail re-seeds from the new image instead of replaying a rewound
        file — and never moves backwards."""
        follower = FollowerEngine(fresh_engine.durability.directory)
        burst(fresh_engine, 200, 220, grp="pre")
        follower.poll()
        generation_before = follower.applied_generation
        fresh_engine.checkpoint()  # truncates the WAL under the poller
        burst(fresh_engine, 220, 240, grp="post")
        follower.poll()
        assert follower.counters["reseeds"] == 1
        assert follower.applied_generation >= generation_before
        for statement in STATEMENTS:
            assert fingerprint(follower.query(statement)) == fingerprint(
                fresh_engine.query(statement)
            )

    def test_seed_without_checkpoint_replays_wal_only(self, tmp_path):
        engine = build_engine(tmp_path, checkpoint=False)
        try:
            seed = seed_engine(tmp_path)
            assert seed.checkpoint_stamp is None
            assert seed.generation == engine.generation
            assert seed.records_replayed > 0
        finally:
            engine.close()


class TestHubCatchUp:
    def test_ship_slice_and_fast_forward(self, fresh_engine):
        follower = fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        burst(fresh_engine, 100, 150)
        # Each basic write ticks the clock twice: its insert and its commit.
        assert follower.lag(clock(fresh_engine)) == 100
        shipped = hub.ship(follower)
        assert shipped == 50
        assert follower.lag(clock(fresh_engine)) == 0
        for statement in STATEMENTS:
            assert fingerprint(follower.query(statement)) == fingerprint(
                fresh_engine.query(statement)
            )

    def test_parity_mid_catchup_at_follower_generation(self, fresh_engine):
        """A lagging follower answers exactly like the primary pinned at
        the follower's applied generation — staleness is bounded and
        *consistent*, never a torn intermediate state."""
        follower = fresh_engine.create_follower()
        with fresh_engine.snapshot_at() as pinned:
            assert pinned.generation == follower.applied_generation
            burst(fresh_engine, 100, 130)
            for statement in STATEMENTS:
                assert fingerprint(follower.query(statement)) == fingerprint(
                    pinned.query(statement)
                )

    def test_applies_maintain_the_follower_in_place(self, fresh_engine):
        """Applied records mutate the follower's one database: a handle taken
        before the applies keeps its generation through MVCC, and nothing is
        rebuilt however many bursts ship (one re-export per burst before)."""
        follower = fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        database = follower.engine.to_database()
        held = follower.snapshot()
        before = held.query(COUNT_ITEMS).rows
        for round_ in range(3):
            burst(fresh_engine, 100 + 10 * round_, 110 + 10 * round_)
            assert hub.ship(follower) == 10
            assert follower.query(COUNT_ITEMS).rows == fresh_engine.query(COUNT_ITEMS).rows
            assert held.query(COUNT_ITEMS).rows == before
        report = follower.engine.maintenance_report()
        assert follower.engine.to_database() is database
        assert report["snapshot_builds"] == 1
        assert report["interpreter_builds"] == 1
        assert report["events_applied"] == 30
        assert report["pins_active"] == 1
        held.release()
        assert follower.engine.maintenance_report()["pins_active"] == 0

    def test_ship_refuses_rewind(self, fresh_engine):
        follower = fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        old_generation = fresh_engine.generation - 10
        with pytest.raises(ReplicationError):
            hub.ship(follower, pin_generation=old_generation)
        assert hub.counters["refusals"] == 1

    def test_ship_refuses_too_fresh_slice(self, fresh_engine):
        follower = fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        with fresh_engine.snapshot_at() as pinned:
            burst(fresh_engine, 100, 110)
            # The live cut now holds commits past the pin: shipping them
            # would make the follower answer for a future the pin must not
            # see.
            with pytest.raises(ReplicationError):
                hub.ship(follower, pin_generation=pinned.generation)
        assert hub.counters["refusals"] == 1
        assert follower.applied_seq == 0  # nothing shipped

    def test_feed_trimmed_after_catch_up(self, fresh_engine):
        fresh_engine.create_follower()
        fresh_engine.create_follower()
        hub = fresh_engine.replication_hub()
        before = hub.feed.position()
        burst(fresh_engine, 100, 140)
        assert len(hub.feed) == 40
        hub.catch_up_all()
        assert len(hub.feed) == 0  # every follower applied everything
        assert hub.feed.position() == before + 40

    def test_replication_requires_durability(self):
        engine = PrimaEngine()
        with pytest.raises(StorageError):
            engine.create_follower()


class TestPromotion:
    def test_promoted_follower_reads_identical(self, fresh_engine):
        """Everything committed on the primary before the fence reads
        byte-identically on the promoted follower."""
        follower = fresh_engine.create_follower()
        burst(fresh_engine, 100, 140)
        fresh_engine.query(
            "INSERT item VALUES {name: 'tx0', grp: 'tx', val: 1.0, qty: 1};"
        )
        expected = [fingerprint(fresh_engine.query(s)) for s in STATEMENTS]
        promoted = follower.promote()
        assert fresh_engine.fenced
        assert promoted.generation == clock(fresh_engine)
        for statement, want in zip(STATEMENTS, expected):
            assert fingerprint(promoted.query(statement)) == want

    def test_promotion_after_a_replica_read(self, fresh_engine):
        """A replica read fast-forwards the follower to the pinned clock,
        which a commit ticks past the newest logged stamp: the promotion's
        final ship must not take that for a rewind."""
        follower = fresh_engine.create_follower()
        fresh_engine.query("INSERT item VALUES {name: 'tx0', grp: 'tx', val: 1.0, qty: 1};")
        fresh_engine.parallel_query([COUNT_ITEMS], mode="replica")
        expected = fingerprint(fresh_engine.query(COUNT_ITEMS))
        promoted = follower.promote()
        assert promoted.generation == clock(fresh_engine)
        assert fingerprint(promoted.query(COUNT_ITEMS)) == expected
        promoted.store_atom("item", identifier="new0", name="new0", grp="new",
                            val=1.0, qty=1)

    def test_replication_lag_is_never_negative_after_a_replica_read(self, fresh_engine):
        fresh_engine.create_follower()
        assert fresh_engine.maintenance_report()["replication_lag"] == 0
        fresh_engine.query("INSERT item VALUES {name: 'tx0', grp: 'tx', val: 1.0, qty: 1};")
        assert fresh_engine.maintenance_report()["replication_lag"] == 2
        fresh_engine.parallel_query([COUNT_ITEMS], mode="replica")
        assert fresh_engine.maintenance_report()["replication_lag"] == 0

    def test_fenced_primary_refuses_writes(self, fresh_engine):
        follower = fresh_engine.create_follower()
        follower.promote()
        with pytest.raises(StorageError):
            fresh_engine.store_atom("item", identifier="nope", name="x", grp="x",
                                    val=0.0, qty=0)
        with pytest.raises(StorageError):
            fresh_engine.connect("composition", "p0", "p9")
        with pytest.raises(StorageError):
            fresh_engine.delete_atom("item", "i0")
        with pytest.raises(StorageError):
            fresh_engine.create_atom_type("late", {"a": "string"})
        with pytest.raises(StorageError):
            fresh_engine.create_index("item", "grp")
        with pytest.raises(TransactionError):
            fresh_engine.query(
                "INSERT item VALUES {name: 'z', grp: 'z', val: 0.0, qty: 0};"
            )
        # Reads keep working on the fenced primary.
        assert fingerprint(fresh_engine.query(COUNT_ITEMS))

    def test_in_flight_transaction_aborts_at_commit(self, fresh_engine):
        follower = fresh_engine.create_follower()
        txn = Transaction(fresh_engine.to_database())
        txn.begin()
        txn.insert_atom("item", name="inflight", grp="tx", val=9.0, qty=9)
        follower.promote()  # fences while txn is open
        with pytest.raises(TransactionError):
            txn.commit()
        # The abort left no partial state and shipped nothing.
        assert fresh_engine.lookup("item", "name", "inflight") == ()
        with pytest.raises(TransactionError):
            Transaction(fresh_engine.to_database()).begin()

    def test_promotion_point_is_exact(self, fresh_engine):
        """State committed before the fence is on the promoted engine;
        nothing after the fence can exist — there is no divergence window."""
        follower = fresh_engine.create_follower()
        burst(fresh_engine, 100, 120)
        count_before = fingerprint(fresh_engine.query(COUNT_ITEMS))
        promoted = follower.promote()
        assert fingerprint(promoted.query(COUNT_ITEMS)) == count_before
        # The promoted engine is writable and moves on alone.
        promoted.store_atom("item", identifier="new0", name="new0", grp="new",
                            val=1.0, qty=1)
        assert fingerprint(promoted.query(COUNT_ITEMS)) != count_before
        assert fingerprint(fresh_engine.query(COUNT_ITEMS)) == count_before

    def test_follower_handle_refuses_after_promotion(self, fresh_engine):
        follower = fresh_engine.create_follower()
        follower.promote()
        with pytest.raises(ReplicationError):
            follower.query(COUNT_ITEMS)
        with pytest.raises(ReplicationError):
            follower.poll()
        with pytest.raises(ReplicationError):
            follower.promote()
        hub = fresh_engine.replication_hub()
        assert follower not in hub.followers()
        assert hub.counters["promotions"] == 1

    def test_file_tailing_follower_promotes_after_drain(self, fresh_engine):
        follower = FollowerEngine(fresh_engine.durability.directory)
        burst(fresh_engine, 100, 110)
        promoted = follower.promote()  # drains one final poll, then converts
        assert promoted.generation == fresh_engine.generation
        assert fingerprint(promoted.query(COUNT_ITEMS)) == fingerprint(
            fresh_engine.query(COUNT_ITEMS)
        )
        # No hub: fencing the (possibly remote) primary is the caller's job.
        assert not fresh_engine.fenced


def follower_writes(engine):
    """``(error, write)`` for every way a follower's engine could be written
    besides replay; the fence refuses the first group in the follower's
    name, the versioned database's own gates the raw ones."""
    database = engine.to_database()
    return [
        (StorageError, lambda: engine.store_atom(
            "item", identifier="i1", name="n1", grp="odd", val=7.0, qty=1)),
        (StorageError, lambda: engine.connect("composition", "p0", "p9")),
        (StorageError, lambda: engine.delete_atom("item", "i0")),
        (TransactionError, lambda: engine.query(
            "MODIFY item FROM item SET val = 8.0 WHERE item.name = 'n1';")),
        (TransactionError, lambda: Transaction(database).begin()),
        (StorageError, lambda: engine.create_atom_type("z", {"k": "integer"})),
        (StorageError, lambda: engine.create_link_type("zz", "part", "item")),
        (StorageError, lambda: engine.create_index("item", "grp")),
        (StorageError, lambda: engine.create_structure_index("part", "composition")),
    ], [
        (TransactionError, lambda: database.atyp("item").replace(
            {"name": "n1", "grp": "odd", "val": 9.0, "qty": 1}, identifier="i1")),
        (TransactionError, lambda: database.insert_atom(
            "item", identifier="raw", name="raw", grp="raw", val=0.0, qty=0)),
        (TransactionError, lambda: database.connect("composition", "p0", "p9")),
        (TransactionError, lambda: database.ltyp("composition").remove(
            database.ltyp("composition").link("p0", "p1"))),
        (SchemaError, lambda: database.define_atom_type("z", {"k": "integer"})),
        (SchemaError, lambda: database.drop_atom_type("item")),
    ]


class TestFollowerRefusesWrites:
    """Until promote(), a follower changes only by replaying its primary's
    records: a write of its own would diverge it from the primary for good
    (and promote() would hand the divergence out)."""

    @pytest.mark.parametrize("transport", ["hub", "poll"])
    def test_a_follower_refuses_every_write_and_keeps_its_primarys_state(
        self, fresh_engine, transport
    ):
        if transport == "hub":
            follower = fresh_engine.create_follower("f-under-test")
            catch_up = fresh_engine.replication_hub().catch_up_all
        else:
            follower = FollowerEngine(fresh_engine.durability.directory, name="f-under-test")
            catch_up = follower.poll
        engine = follower.engine
        generation = engine.generation
        fenced, raw = follower_writes(engine)
        for error, write in fenced:
            with pytest.raises(error, match="follower 'f-under-test'"):
                write()
        for error, write in raw:
            with pytest.raises(error):
                write()
        assert engine.generation == generation
        assert engine.fenced
        # The primary's next write ships, and still nothing diverges.
        fresh_engine.query("MODIFY item FROM item SET val = 3.5 WHERE item.name = 'n1';")
        fresh_engine.create_atom_type("late", {"a": "string"})
        fresh_engine.create_index("item", "qty")
        catch_up()
        for statement in STATEMENTS:
            assert fingerprint(follower.query(statement)) == fingerprint(
                fresh_engine.query(statement)
            )
        assert engine.to_database().has_atom_type("late")
        # Promotion lifts the follower's fence: the engine takes writes.
        promoted = follower.promote()
        assert not promoted.fenced
        promoted.store_atom("item", identifier="i1", name="n1", grp="odd", val=7.0, qty=1)
        promoted.create_atom_type("z", {"k": "integer"})
        assert promoted.get_atom("item", "i1")["val"] == 7.0


class TestReplicaRouter:
    def test_router_catches_lagging_followers_up(self, replica_engine):
        hub = replica_engine.replication_hub()
        burst(replica_engine, 500, 520, grp="lagged")
        waits_before = hub.counters["waits"]
        serial = replica_engine.parallel_query(STATEMENTS, threads=1)
        routed = replica_engine.parallel_query(STATEMENTS, mode="replica")
        for expected, got in zip(serial, routed):
            assert fingerprint(got) == fingerprint(expected)
        assert hub.counters["waits"] > waits_before
        assert hub.max_lag() == 0

    def test_router_bounded_staleness_serves_follower_generation(self, tmp_path):
        engine = build_engine(tmp_path)
        try:
            follower = engine.create_follower()
            with engine.snapshot_at() as pinned:  # pin == follower generation
                burst(engine, 100, 110)
                (stale,) = engine.parallel_query(
                    [COUNT_ITEMS], mode="replica", max_lag=1_000
                )
                # Within the bound the follower serves as-is — its answer is
                # the consistent state at its own generation, not the head.
                assert fingerprint(stale) == fingerprint(pinned.query(COUNT_ITEMS))
                assert fingerprint(stale) != fingerprint(engine.query(COUNT_ITEMS))
                assert follower.lag(clock(engine)) == 20
        finally:
            engine.close()


class TestDispatchCosting:
    """With followers attached the planner still costs plans alone: the
    route is the caller's ``mode=``, and the plan carries no advice."""

    def test_costing_is_deterministic(self, replica_engine):
        for statement in STATEMENTS:
            first = replica_engine.plan(statement)
            second = replica_engine.plan(statement)
            assert first.optimized_cost == second.optimized_cost
            assert first.notes == second.notes
            assert not any(note.startswith("dispatch:") for note in first.notes)

    def test_cheap_plans_stay_serial(self, replica_engine):
        # engine.query answers on the primary; nothing reaches a follower.
        statement = "SELECT item FROM item WHERE item.qty = 2;"
        hub = replica_engine.replication_hub()
        routed = hub.counters["routed"]
        assert replica_engine.query(statement).to_dicts()
        assert hub.counters["routed"] == routed


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


def apply_batch(engine, batch):
    for op in batch:
        if op[0] == "insert":
            _, index, qty = op
            engine.query(
                "INSERT item VALUES {{name: 'h{0}', grp: 'hyp', "
                "val: {0}.0, qty: {1}}};".format(index, qty)
            )
        elif op[0] == "modify":
            _, index, val = op
            engine.query(
                f"MODIFY item FROM item SET val = {val:.2f} "
                f"WHERE item.name = 'n{index}';"
            )
        else:
            _, index = op
            engine.query(f"DELETE FROM item WHERE item.name = 'n{index}';")


class TestDMLBurstSweep:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(batch=dml_batches())
    def test_follower_replay_parity_after_dml(self, replica_engine, batch):
        """Whatever committed DML lands on the primary, a caught-up follower
        replays to byte-identical answers (state accumulates across examples
        — every catch-up ships only the new feed tail)."""
        apply_batch(replica_engine, batch)
        replica_engine.replication_hub().catch_up_all()
        for follower in replica_engine.replication_hub().followers():
            for statement in STATEMENTS[:3]:
                assert fingerprint(follower.query(statement)) == fingerprint(
                    replica_engine.query(statement)
                )

    @settings(max_examples=6, deadline=None)
    @given(batch=dml_batches())
    def test_promotion_parity_after_dml(self, batch):
        """Promotion after an arbitrary DML burst hands over byte-identical
        state — the fence → final-cut → ship ordering leaves no window."""
        with tempfile.TemporaryDirectory() as directory:
            engine = build_engine(directory, parts=6, items=20)
            try:
                follower = engine.create_follower()
                apply_batch(engine, batch)
                expected = [
                    fingerprint(engine.query(s)) for s in STATEMENTS[:3]
                ]
                promoted = follower.promote()
                for statement, want in zip(STATEMENTS[:3], expected):
                    assert fingerprint(promoted.query(statement)) == want
            finally:
                engine.close()
