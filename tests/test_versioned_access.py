"""Versioned access paths: a pinned view, a session and a follower read
through the equality indexes the accelerator store keeps at the head.

A lookup in a snapshot context answers ``head index ∪ identifiers that carry a
version chain`` and every candidate is read back through the pinned view, so
the access path may only ever change *how much work* a read does, never what
it returns.  The sweep below interleaves pins with every kind of write and
holds each handle to the fingerprint the head returned at its pin; the
counters say the candidates stay close to the answer.  The second half covers
the accelerators: the stamp window (a commit ticks the clock without an
event), the copy a pinned columnar fold scans, and the projection / structure
index a reader builds from its own pinned view when nobody has yet.

``REPRO_STRESS`` multiplies the number of sequences (CI's stress step runs
this file with ``REPRO_STRESS=10 REPRO_DEBUG_LOCKS=1``).
"""

from __future__ import annotations

import json
import os
import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.atom import reset_surrogate_counter
from repro.core.link import LinkType
from repro.core.versions import Snapshot
from repro.engine.executor import Executor
from repro.engine.logical import AggregatePlan, ColumnarAggregatePlan
from repro.manipulation.transactions import Transaction
from repro.storage.engine import PrimaEngine
from repro.storage.wal import DurabilityConfig

STRESS = max(1, int(os.environ.get("REPRO_STRESS", "1")))

VALUES = ("x", "y", "z")

#: A forest of height 3 over p0..p9; p10 and p11 stay isolated (p11 is the
#: peer transaction's atom, nobody else writes it).
EDGES = [
    ("p0", "p1"), ("p0", "p2"), ("p1", "p3"), ("p1", "p4"),
    ("p2", "p5"), ("p3", "p6"), ("p6", "p7"), ("p8", "p9"),
]
HEIGHT = 4
PARTS = 12
LEAVES = 6

HASH = "SELECT ALL FROM part WHERE part.kind = 'x';"
GRID = "SELECT ALL FROM part WHERE part.kind = 'x' AND part.cost = 1;"
SEEDED = "SELECT ALL FROM a - d WHERE d.k = 'x';"
INTERVAL = "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.kind = 'x';"
#: ``d.g`` is looked up by nobody but pinned readers: they build its index.
LATE = "SELECT ALL FROM d WHERE d.g = 'x';"
GAMMA = "SELECT part.kind, COUNT(*), SUM(part.cost) FROM part GROUP BY part.kind;"
STATEMENTS = (HASH, GRID, SEEDED, INTERVAL, LATE, GAMMA)
#: Atom types whose version chains can widen each statement's candidates, and
#: how many roots one extra candidate can add (an ancestor walk: its chain).
WIDENED_BY = {
    HASH: (("part",), 1),
    GRID: (("part",), 1),
    SEEDED: (("d",), 1),
    INTERVAL: (("part",), HEIGHT),
    LATE: (("d",), 1),
}


def build_engine(durability=None) -> PrimaEngine:
    reset_surrogate_counter()
    engine = PrimaEngine(durability=durability)
    engine.create_atom_type(
        "part", {"part_no": "string", "kind": "string", "cost": "integer"}
    )
    engine.create_link_type("composition", "part", "part")
    engine.create_atom_type("a", {"key": "string"})
    engine.create_atom_type("d", {"key": "string", "k": "string", "g": "string"})
    engine.create_link_type("ad", "a", "d")
    for i in range(PARTS):
        engine.store_atom(
            "part", identifier=f"p{i}", part_no=f"P{i}", kind=VALUES[i % 3], cost=1 + i % 2
        )
    for parent, child in EDGES:
        engine.connect("composition", parent, child)
    for i in range(LEAVES):
        engine.store_atom("a", identifier=f"a{i}", key=f"a{i}")
        engine.store_atom(
            "d", identifier=f"d{i}", key=f"d{i}", k=VALUES[i % 3], g=VALUES[(i + 1) % 3]
        )
        engine.connect("ad", f"a{i}", f"d{i}")  # every d under one a
    engine.create_structure_index("part", "composition", "down")
    return engine


def fingerprint(result) -> str:
    """Rendered molecules (values included) or aggregate rows, order-free."""
    rows = getattr(result, "rows", None)
    if rows is not None:
        return json.dumps(sorted(map(list, rows)), default=str)
    return json.dumps(
        sorted(json.dumps(m.to_nested_dict(), sort_keys=True, default=str) for m in result)
    )


def all_roots(engine: PrimaEngine, statement: str, snapshot) -> str:
    """The statement's plan at *snapshot* with no access path at all: an
    executor of its own, with no accelerator store."""
    plan = engine.plan(statement).best
    executor = Executor(engine.to_database())
    context = executor.context(snapshot=snapshot)
    if isinstance(plan, (AggregatePlan, ColumnarAggregatePlan)):
        return fingerprint(executor.run_aggregate(plan, context=context))
    return fingerprint(executor.run(plan, context=context))


def chains(engine: PrimaEngine, type_names) -> int:
    database = engine.to_database()
    return sum(database.atyp(name).version_statistics()[0] for name in type_names)


# ------------------------------------------------------------ the plan shapes


def test_each_statement_takes_its_access_path():
    engine = build_engine()
    by_access = {statement: engine.query(statement) for statement in STATEMENTS}
    for statement in (HASH, GRID, SEEDED, INTERVAL, LATE):
        counters = by_access[statement].counters
        assert counters.index_lookups >= 1, statement
        assert counters.molecules_derived == len(by_access[statement]), statement
    assert by_access[SEEDED].counters.restrictions_evaluated == 2  # d0, d3 → a0, a3
    assert type(engine.plan(INTERVAL).best).__name__ == "IntervalScanPlan"
    assert type(engine.plan(GAMMA).best).__name__ == "ColumnarAggregatePlan"
    assert by_access[GAMMA].counters.columnar_rows_scanned == PARTS


# ------------------------------------------------------------------ the sweep

part_ids = st.integers(min_value=0, max_value=PARTS - 2)  # p11 is the peer's
leaf_ids = st.integers(min_value=0, max_value=LEAVES - 2)  # d5 is the peer's
values = st.sampled_from(VALUES)

steps = st.one_of(
    st.tuples(st.just("pin")),
    st.tuples(st.just("pin")),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=3)),
    st.tuples(st.just("kind"), part_ids, values),
    st.tuples(st.just("kind"), part_ids, values),
    st.tuples(st.just("cost"), part_ids, st.integers(min_value=1, max_value=2)),
    st.tuples(st.just("leaf"), leaf_ids, st.sampled_from(("k", "g")), values),
    st.tuples(st.just("leaf"), leaf_ids, st.sampled_from(("k", "g")), values),
    st.tuples(st.just("delete"), part_ids),
    st.tuples(st.just("reinsert"), part_ids, values),
    st.tuples(st.just("begin")),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback")),
    st.tuples(st.just("peer"), values),
    st.tuples(st.just("peer-commit")),
    st.tuples(st.just("peer-rollback")),
    st.tuples(st.just("ddl")),
)


class Sweep:
    """One engine, its live handles, at most one session and one peer."""

    def __init__(self) -> None:
        self.engine = build_engine()
        self.database = self.engine.to_database()
        self.handles = []  # (handle, {statement: (fingerprint, counters)}, writes at the pin)
        self.writes = 0
        self.peer = None
        self.types_created = 0

    @property
    def in_session(self) -> bool:
        return self.engine.interpreter().in_transaction

    # -- steps ----------------------------------------------------------

    def pin(self) -> None:
        if len(self.handles) >= 3:
            return
        expected = {}
        if self.in_session or self.peer is not None:
            # The head shows uncommitted writes the pin must not see.
            handle = self.engine.snapshot_at()
            for statement in STATEMENTS:
                expected[statement] = (all_roots(self.engine, statement, handle.snapshot), None)
        else:
            for statement in STATEMENTS:
                if statement == LATE:
                    # Not through engine.query: the pinned reader builds d.g.
                    expected[statement] = (all_roots(self.engine, statement, None), None)
                else:
                    result = self.engine.query(statement)
                    expected[statement] = (fingerprint(result), result.counters)
            handle = self.engine.snapshot_at()
        self.handles.append((handle, expected, self.writes))

    def release(self, position: int) -> None:
        if position < len(self.handles):
            self.handles.pop(position)[0].release()

    def modify(self, type_name: str, identifier: str, attribute: str, value) -> None:
        if self.database.atyp(type_name).get(identifier) is None:
            return
        key = {"part": "part_no", "d": "key"}[type_name]
        name = self.database.atyp(type_name).get(identifier).get(key)
        literal = f"'{value}'" if isinstance(value, str) else value
        self.engine.query(
            f"MODIFY {type_name} FROM {type_name} SET {attribute} = {literal} "
            f"WHERE {type_name}.{key} = '{name}';"
        )
        self.writes += 1

    def delete(self, index: int) -> None:
        identifier = f"p{index}"
        if self.database.atyp("part").get(identifier) is None:
            return
        if self.in_session:
            self.engine.query(f"DELETE FROM part WHERE part.part_no = 'P{index}';")
        else:
            self.engine.delete_atom("part", identifier)
        self.writes += 1

    def reinsert(self, index: int, kind: str) -> None:
        if self.in_session or self.database.atyp("part").get(f"p{index}") is not None:
            return
        self.engine.store_atom(
            "part", identifier=f"p{index}", part_no=f"P{index}", kind=kind, cost=1
        )
        self.writes += 1

    def session(self, action: str) -> None:
        if (action == "begin") == self.in_session:
            return
        self.engine.query(f"{action.upper()} WORK;")
        self.writes += 1  # a rollback mutates too: it restores the pre-states

    def peer_write(self, value: str) -> None:
        if self.peer is not None or self.in_session:
            return
        self.peer = Transaction(self.database)
        self.peer.begin()
        self.peer.modify_atom_values("part", "p11", {"kind": value})
        self.peer.modify_atom_values("d", "d5", {"k": value, "g": value})
        self.writes += 1

    def peer_finish(self, action: str) -> None:
        if self.peer is None:
            return
        getattr(self.peer, action)()
        self.peer = None
        self.writes += 1

    def ddl(self) -> None:
        if self.in_session or self.peer is not None:
            return
        self.types_created += 1
        self.engine.create_atom_type(f"extra{self.types_created}", {"key": "string"})

    def apply(self, step) -> None:
        action = step[0]
        if action == "pin":
            self.pin()
        elif action == "release":
            self.release(step[1])
        elif action in ("kind", "cost"):
            self.modify("part", f"p{step[1]}", action, step[2])
        elif action == "leaf":
            self.modify("d", f"d{step[1]}", step[2], step[3])
        elif action == "delete":
            self.delete(step[1])
        elif action == "reinsert":
            self.reinsert(step[1], step[2])
        elif action in ("begin", "commit", "rollback"):
            self.session(action)
        elif action == "peer":
            self.peer_write(step[1])
        elif action in ("peer-commit", "peer-rollback"):
            self.peer_finish(action.split("-")[1])
        else:
            self.ddl()

    # -- the invariant ---------------------------------------------------

    def check(self) -> None:
        for handle, expected, writes_at_pin in self.handles:
            for statement in STATEMENTS:
                result = handle.query(statement)
                recorded, head = expected[statement]
                assert fingerprint(result) == recorded, (statement, handle)
                if head is None or statement == GAMMA:
                    continue
                if statement == INTERVAL and self.writes != writes_at_pin:
                    continue  # the structure index does not serve a pin older than a write
                types, roots_per_candidate = WIDENED_BY[statement]
                slack = chains(self.engine, types) * roots_per_candidate
                counters = result.counters
                assert counters.molecules_derived <= head.molecules_derived + slack, statement
                assert (
                    counters.restrictions_evaluated <= head.restrictions_evaluated + slack
                ), statement
        if self.in_session:
            snapshot = self.engine.interpreter()._session.snapshot
            for statement in STATEMENTS:
                assert fingerprint(self.engine.query(statement)) == all_roots(
                    self.engine, statement, snapshot
                ), statement

    def close(self) -> None:
        if self.in_session:
            self.engine.query("ROLLBACK WORK;")
        if self.peer is not None:
            self.peer.rollback()
        for handle, _expected, _writes in self.handles:
            handle.release()
        report = self.engine.maintenance_report()
        assert report["pins_active"] == 0
        assert report["versions_live"] == 0


def check_versioned_access_is_exact(sequence) -> None:
    sweep = Sweep()
    try:
        for step in sequence:
            sweep.apply(step)
            sweep.check()
    finally:
        sweep.close()


sweep_settings = settings(
    max_examples=25 * STRESS,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@sweep_settings
@given(sequence=st.lists(steps, min_size=1, max_size=14))
def test_versioned_access_is_exact(sequence):
    check_versioned_access_is_exact(sequence)


@pytest.mark.slow
@settings(sweep_settings, max_examples=400)
@given(sequence=st.lists(steps, min_size=1, max_size=24))
def test_versioned_access_is_exact_full(sequence):
    check_versioned_access_is_exact(sequence)


def test_the_sweep_reaches_every_case():
    """One hand-written sequence through all the cases the sweep draws from."""
    check_versioned_access_is_exact(
        [
            ("pin",),
            ("kind", 0, "y"),  # away from the looked-up value
            ("kind", 1, "x"),  # into it
            ("leaf", 0, "k", "z"),
            ("leaf", 1, "g", "x"),
            ("delete", 3),
            ("pin",),
            ("reinsert", 3, "x"),
            ("ddl",),
            ("cost", 2, 1),
            ("peer", "x"),
            ("pin",),
            ("peer-commit",),
            ("release", 0),
            ("begin",),
            ("kind", 4, "x"),
            ("delete", 6),
            ("leaf", 2, "k", "x"),
            ("rollback",),
            ("peer", "y"),
            ("pin",),
            ("peer-rollback",),
            ("begin",),
            ("kind", 5, "x"),
            ("commit",),
        ]
    )


# ------------------------------------------------------------ the stamp window


class TestStampWindow:
    """A commit ticks the clock without a change event, so after the first
    auto-committed statement every accelerator stamp trails the clock."""

    def test_pin_after_one_committed_modify_is_served(self):
        engine = build_engine()
        engine.query(INTERVAL), engine.query(GAMMA)  # builds both accelerators
        engine.query("MODIFY part FROM part SET cost = 2 WHERE part.part_no = 'P3';")
        state = engine.to_database().versioning
        assert state.generation == state.mutation_generation + 1 == engine.generation + 1
        head = engine.query(INTERVAL)
        assert head.counters.molecules_derived == head.counters.restrictions_evaluated == len(head)
        before = engine.maintenance_report()
        with engine.snapshot_at() as handle:
            assert handle.snapshot.newest_mutation == handle.generation - 1
            pinned = handle.query(INTERVAL)
            assert fingerprint(pinned) == fingerprint(head)
            assert pinned.counters == head.counters
            gamma = handle.query(GAMMA)
            assert fingerprint(gamma) == fingerprint(engine.query(GAMMA))
            assert gamma.counters.columnar_rows_scanned == PARTS
        report = engine.maintenance_report()
        for key in ("structure_snapshot_gaps", "columnar_snapshot_gaps", "columnar_fallbacks"):
            assert report[key] == before[key] == 0, key

    def test_a_pin_older_than_the_clock_needs_the_exact_stamp(self):
        engine = build_engine()
        engine.query(GAMMA)
        with engine.snapshot_at() as keeper:
            engine.query("MODIFY part FROM part SET cost = 2 WHERE part.part_no = 'P3';")
            with engine.snapshot_at(keeper.generation) as old:
                assert old.snapshot.newest_mutation == old.generation
                assert fingerprint(old.query(GAMMA)) == fingerprint(keeper.query(GAMMA))
        assert engine.maintenance_report()["columnar_snapshot_gaps"] == 2

    def test_snapshot_covers(self):
        assert Snapshot(7).covers(7) and not Snapshot(7).covers(6)
        window = Snapshot(9, newest_mutation=6)
        assert [stamp for stamp in range(4, 12) if window.covers(stamp)] == [6, 7, 8, 9]

    def test_a_pin_between_a_mutation_and_its_fold_is_refused(self, monkeypatch):
        """The mutation is visible to the pin (ticked, head swapped) but no
        accelerator has folded it yet: the stamp lies below the window."""
        engine = build_engine()
        head = fingerprint(engine.query(INTERVAL))
        engine.query(GAMMA)
        ticked, folded = threading.Event(), threading.Event()
        emit = LinkType._emit

        def emit_later(link_type, *args, **kwargs):
            ticked.set()
            assert folded.wait(timeout=30)
            emit(link_type, *args, **kwargs)

        monkeypatch.setattr(LinkType, "_emit", emit_later)
        writer = threading.Thread(target=engine.connect, args=("ad", "a0", "d1"))
        writer.start()
        assert ticked.wait(timeout=30)
        # The writer sits in ad's head lock: nothing here may wait for it
        # (version statistics and the release's GC visit every type).
        handle = engine.snapshot_at()
        try:
            assert handle.snapshot.newest_mutation == handle.generation > engine.generation
            assert fingerprint(handle.query(INTERVAL)) == head
            assert fingerprint(handle.query(GAMMA)) == all_roots(engine, GAMMA, handle.snapshot)
            report = engine.maintenance_statistics()
            assert report["structure_snapshot_gaps"] == report["columnar_snapshot_gaps"] == 1
        finally:
            folded.set()
            writer.join(timeout=30)
            handle.release()
        assert not writer.is_alive()
        with engine.snapshot_at() as handle:  # folded: served again
            assert fingerprint(handle.query(INTERVAL)) == head
        assert engine.maintenance_report()["structure_snapshot_gaps"] == 1

    def test_store_calls_name_the_pinned_generation(self):
        """``closure`` and ``qualifying_roots`` answer a pinned reader until
        something newer than its pin is folded into the encoding."""
        engine = build_engine()
        engine.query(INTERVAL)
        store = engine._accelerators
        with engine.snapshot_at() as handle:
            context = engine.interpreter().executor.context(snapshot=handle.snapshot)
            index = store.index_for(engine.plan(INTERVAL).best.description, context)
            pinned = handle.generation
            assert store.qualifying_roots(index, [{"p7"}], None, pinned) == {
                "p0", "p1", "p3", "p6", "p7",
            }
            assert store.closure(index, "p6", None, pinned) is not None
            engine.connect("composition", "p9", "p10")  # a leaf graft, folded in place
            assert not index.stale and index.generation > pinned
            assert store.qualifying_roots(index, [{"p7"}], None, pinned) is None
            assert store.closure(index, "p6", None, pinned) is None
            assert store.qualifying_roots(index, [{"p10"}], None, None) == {"p8", "p9", "p10"}
        assert engine.maintenance_report()["structure_snapshot_gaps"] == 2


# ------------------------------------------------- the copy a pinned fold scans


def test_event_folded_between_admission_and_scan_does_not_reach_the_fold():
    """``AcceleratorStore.projection_for`` admits the pin, then the head folds a
    modification and a delete into the projection's live arrays: the pinned
    fold must still count the pinned state."""
    engine = build_engine()
    expected = fingerprint(engine.query(GAMMA))
    store = engine._accelerators
    admit = store.projection_for

    def admit_then_write(type_name, ctx):
        projection = admit(type_name, ctx)
        if ctx.snapshot is not None:
            engine.store_atom("part", identifier="p0", part_no="P0", kind="z", cost=50)
            engine.delete_atom("part", "p10")
        return projection

    with engine.snapshot_at() as handle:
        store.projection_for = admit_then_write
        try:
            pinned = handle.query(GAMMA)
        finally:
            del store.projection_for
        assert pinned.counters.columnar_rows_scanned == PARTS
        assert fingerprint(pinned) == expected
    assert fingerprint(engine.query(GAMMA)) != expected
    assert engine.maintenance_report()["columnar_fallbacks"] == 0


# --------------------------------------- accelerators built by a pinned reader


class TestReaderBuiltAccelerators:
    """Only head contexts used to build a projection or a structure index;
    a follower is read through pins alone."""

    def test_follower_builds_its_own(self, tmp_path):
        engine = build_engine(durability=DurabilityConfig(tmp_path))
        try:
            engine.checkpoint()
            # Registered after the image: the follower replays the DDL record
            # and holds a registration nobody has built.
            engine.create_structure_index("part", "composition", "up")
            upward = INTERVAL.replace("DOWN", "UP")
            follower = engine.create_follower()
            for _ in range(3):
                for statement in (GAMMA, upward, HASH):
                    result = follower.query(statement)
                    assert fingerprint(result) == fingerprint(engine.query(statement))
                assert result.counters.molecules_derived == len(result)
            report = follower.engine.maintenance_report()
            assert report["columnar_types"] == report["columnar_builds"] == 1
            assert report["structure_builds"] == 1
            assert report["index_builds"] == 1
            for key in ("columnar_fallbacks", "columnar_snapshot_gaps", "structure_snapshot_gaps"):
                assert report[key] == 0, key
            # Maintained like any other: a shipped write reaches them.
            engine.query("MODIFY part FROM part SET kind = 'x' WHERE part.part_no = 'P1';")
            engine.replication_hub().catch_up_all()
            for statement in (GAMMA, upward, HASH):
                assert fingerprint(follower.query(statement)) == fingerprint(
                    engine.query(statement)
                )
            after = follower.engine.maintenance_report()
            assert after["columnar_builds"] == after["structure_builds"] == 1
            assert after["columnar_fallbacks"] == after["structure_snapshot_gaps"] == 0
        finally:
            engine.close()

    def test_handle_builds_what_the_head_never_read(self):
        engine = build_engine()
        with engine.snapshot_at() as handle:
            first = handle.query(GAMMA)
            assert first.counters.columnar_rows_scanned == PARTS
            closure = handle.query(INTERVAL)
            assert closure.counters.molecules_derived == len(closure)
        report = engine.maintenance_report()
        assert report["columnar_builds"] == report["structure_builds"] == 1
        assert report["columnar_fallbacks"] == report["structure_snapshot_gaps"] == 0
        # The head reads what the handle built, and keeps it current.
        engine.query("MODIFY part FROM part SET kind = 'x' WHERE part.part_no = 'P1';")
        assert fingerprint(engine.query(GAMMA)) != fingerprint(first)
        assert engine.maintenance_report()["columnar_builds"] == 1

    def test_a_build_that_lost_the_race_is_not_installed(self):
        """The stamp moves while the reader builds outside the store lock:
        its projection describes an older state and is dropped."""
        engine = build_engine()
        store = engine._accelerators
        with engine.snapshot_at() as handle:
            expected = all_roots(engine, GAMMA, handle.snapshot)
            view = handle.database_view()

            class RacingView:
                def has_atom_type(self, name):
                    return view.has_atom_type(name)

                def atyp(self, name):
                    engine.store_atom("part", identifier="p0", part_no="P0", kind="z", cost=9)
                    return view.atyp(name)

            context = SimpleNamespace(snapshot=handle.snapshot, database=RacingView())
            assert store.projection_for("part", context) is None
            assert store.statistics()["columnar_types"] == 0
            assert store.statistics()["columnar_snapshot_gaps"] == 1
            assert fingerprint(handle.query(GAMMA)) == expected  # row path
        assert engine.maintenance_report()["columnar_fallbacks"] == 1

    def test_own_or_excluded_writes_never_build(self):
        engine = build_engine()
        engine.query("BEGIN WORK;")
        engine.query("MODIFY part FROM part SET cost = 2 WHERE part.part_no = 'P3';")
        with engine.snapshot_at() as handle:  # excludes the session's write
            assert handle.snapshot.excluded
            handle.query(GAMMA), handle.query(INTERVAL)
        engine.query(GAMMA), engine.query(INTERVAL)  # own writes
        engine.query("ROLLBACK WORK;")
        report = engine.maintenance_report()
        assert report["columnar_builds"] == report["structure_builds"] == 0
        assert report["columnar_snapshot_gaps"] == report["structure_snapshot_gaps"] == 2


# -------------------------------------------- pinned lookups and the writers


def test_pinned_indexed_reads_never_wait_on_the_event_lock():
    """A pinned equality lookup (the index build included) takes its type's
    head lock and the store's leaf lock, never the lock writers fold their
    change events under."""
    engine = build_engine()
    expected = fingerprint(engine.query(HASH))
    engine.store_atom("part", identifier="p0", part_no="P0", kind="z", cost=1)
    statements = (HASH, GRID, SEEDED, LATE)
    with engine.snapshot_at() as handle:
        # Chained after the pin: the reader widens by it and reads it back.
        engine.store_atom("part", identifier="p1", part_no="P1", kind="x", cost=2)
        results = {}

        def read():
            for _ in range(2):  # the first round builds GRID's, SEEDED's and LATE's
                for statement in statements:
                    results[statement] = handle.query(statement)

        with engine._event_lock:
            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            reader.join(timeout=10)
            finished = not reader.is_alive()
        reader.join(timeout=30)
        assert finished, "a pinned indexed read waited on the event lock"
        for statement in statements:
            result = results[statement]
            assert result.counters.index_lookups >= 1
            assert fingerprint(result) == all_roots(engine, statement, handle.snapshot)
        assert fingerprint(results[HASH]) != expected  # p0 left 'x' before the pin


# ------------------------------------------------------ incidence traversal

CHAIN = "SELECT ALL FROM t0 - t2 - t4;"


class _RefusedLock:
    def __enter__(self):
        raise AssertionError("a head traversal took LinkType._lock")

    def __exit__(self, *exc_info):
        return False


class TestIncidenceTraversal:
    """Neighbour traversal reads the link type's own incidence: the live
    bucket at the head, the visible links in a snapshot view."""

    @staticmethod
    def chain_engine():
        engine = PrimaEngine()
        model = {"atoms": {}, "l02": set(), "l24": set()}
        for type_name in ("t0", "t2", "t4"):
            engine.create_atom_type(type_name, {"key": "string"})
            model["atoms"][type_name] = {f"{type_name}_{i}" for i in range(6)}
            for identifier in model["atoms"][type_name]:
                engine.store_atom(type_name, identifier, key=identifier)
        engine.create_link_type("l02", "t0", "t2")
        engine.create_link_type("l24", "t2", "t4")
        for i in range(6):
            for link_type, pair in (
                ("l02", (f"t0_{i}", f"t2_{(i + 1) % 6}")),
                ("l02", (f"t0_{i}", f"t2_{(i + 2) % 6}")),
                ("l24", (f"t2_{i}", f"t4_{(i + 1) % 6}")),
            ):
                engine.connect(link_type, *pair)
                model[link_type].add(pair)
        return engine, model

    @staticmethod
    def expected(model) -> dict:
        """Per ``t0`` root, the ``(type, identifier)`` of every molecule atom."""
        molecules = {}
        for root in model["atoms"]["t0"]:
            middle = {c for p, c in model["l02"] if p == root} & model["atoms"]["t2"]
            leaves = {c for p, c in model["l24"] if p in middle} & model["atoms"]["t4"]
            molecules[root] = (
                {("t0", root)} | {("t2", i) for i in middle} | {("t4", i) for i in leaves}
            )
        return molecules

    @staticmethod
    def derived(result) -> dict:
        return {
            molecule.root_atom.identifier: {
                (atom.type_name, atom.identifier) for atom in molecule.atoms
            }
            for molecule in result
        }

    def test_a_head_context_walks_the_live_bucket_without_the_lock(self, monkeypatch):
        engine, model = self.chain_engine()
        engine.query(CHAIN)  # warm the interpreter and the statistics
        context = engine.interpreter().executor.context()
        link_type = context.database.ltyp("l02")
        assert link_type is engine.to_database().ltyp("l02")
        assert link_type.incident("t0_0") is link_type._by_atom["t0_0"]  # not a copy
        assert link_type.incident("nobody") == ()
        for name in ("l02", "l24"):
            monkeypatch.setattr(context.database.ltyp(name), "_lock", _RefusedLock())
        assert self.derived(engine.query(CHAIN)) == self.expected(model)

    def test_a_snapshot_context_reads_the_visible_links(self):
        engine, _model = self.chain_engine()
        head = engine.to_database().ltyp("l02")
        at_pin = set(head.incident("t0_1"))
        with engine.snapshot_at() as handle:
            removed = head.link("t0_1", "t2_2")
            with Transaction(engine.to_database()) as txn:
                txn.disconnect("l02", removed)
                added = txn.connect("l02", "t0_1", "t2_4")
            context = engine.interpreter().executor.context(snapshot=handle.snapshot)
            view = context.database.ltyp("l02")
            assert view.incident("t0_1") == view.links_of("t0_1") == at_pin
            assert removed in at_pin and added not in at_pin
            assert removed not in head.incident("t0_1") and added in head.incident("t0_1")

    def test_head_and_pinned_derivations_agree_with_the_model(self):
        engine, model = self.chain_engine()
        engine.query(CHAIN)
        database = engine.to_database()
        with engine.snapshot_at() as handle:
            at_pin = self.expected(model)
            with Transaction(database) as txn:
                txn.connect("l02", "t0_0", "t2_3")
                model["l02"].add(("t0_0", "t2_3"))
                txn.disconnect("l02", database.ltyp("l02").link("t0_1", "t2_2"))
                model["l02"].discard(("t0_1", "t2_2"))
                txn.connect("l24", "t2_4", "t4_4")
                model["l24"].add(("t2_4", "t4_4"))
            engine.delete_atom("t2", "t2_3")
            model["atoms"]["t2"].discard("t2_3")
            model["l02"] = {(p, c) for p, c in model["l02"] if c != "t2_3"}
            model["l24"] = {(p, c) for p, c in model["l24"] if p != "t2_3"}
            engine.delete_atom("t0", "t0_5")
            model["atoms"]["t0"].discard("t0_5")
            model["l02"] = {(p, c) for p, c in model["l02"] if p != "t0_5"}
            assert self.derived(engine.query(CHAIN)) == self.expected(model)
            assert self.derived(handle.query(CHAIN)) == at_pin
