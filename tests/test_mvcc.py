"""MVCC: version chains, snapshot-pinned readers, and interleaved transactions.

Covers the concurrency layer end to end: copy-on-write version chains and
their garbage collection, `PrimaEngine.snapshot_at` repeatable reads,
first-committer-wins conflict detection between interleaved transactions
(including a hypothesis sweep over random interleavings), the MQL
``BEGIN WORK`` / ``COMMIT WORK`` / ``ROLLBACK WORK`` session scope, and the
EXPLAIN coverage for INSERT and MODIFY.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.database import Database
from repro.core.versions import ABSENT, Snapshot, VersionChain
from repro.datasets.geography import build_geography
from repro.exceptions import (
    StorageError,
    TransactionConflictError,
    TransactionError,
)
from repro.manipulation.transactions import Transaction
from repro.mql.interpreter import MQLInterpreter
from repro.storage.engine import PrimaEngine


def small_engine(n_states: int = 6) -> PrimaEngine:
    database = build_geography(n_states=n_states, edges_per_state=3, n_rivers=2)
    engine = PrimaEngine.from_database(database)
    engine.query("SELECT ALL FROM state-area WHERE state.code = 'S1';")  # warm caches
    return engine


def versioned_db() -> Database:
    db = Database("mvcc")
    db.define_atom_type("state", {"name": "string", "hectare": "integer"})
    db.define_atom_type("area", {"area_id": "string"})
    db.define_link_type("state-area", "state", "area")
    db.insert_atom("state", identifier="s1", name="alpha", hectare=100)
    db.insert_atom("area", identifier="a1", area_id="a1")
    db.connect("state-area", "s1", "a1")
    db.enable_versioning()
    return db


def fingerprint(result) -> str:
    import json

    return json.dumps(
        sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())
    )


# ----------------------------------------------------------- version chains


class TestVersionChain:
    def test_base_entry_resolves_for_old_snapshots(self):
        chain = VersionChain("v0")
        chain.record(5, "v1")
        chain.record(9, "v2")
        assert chain.at(Snapshot(0)) == "v0"
        assert chain.at(Snapshot(5)) == "v1"
        assert chain.at(Snapshot(8)) == "v1"
        assert chain.at(Snapshot(9)) == "v2"

    def test_own_generations_are_visible(self):
        chain = VersionChain("v0")
        chain.record(7, "mine")
        snapshot = Snapshot(3, own={7})
        assert chain.at(snapshot) == "mine"
        assert chain.at(Snapshot(3)) == "v0"

    def test_truncate_keeps_newest_reachable_entry(self):
        chain = VersionChain("v0")
        chain.record(5, "v1")
        chain.record(9, "v2")
        dropped = chain.truncate(6)
        assert dropped == 1  # the base entry: v1 serves every pin >= 6
        assert chain.at(Snapshot(6)) == "v1"
        assert chain.at(Snapshot(9)) == "v2"

    def test_cannot_pin_future_generation(self):
        db = versioned_db()
        with pytest.raises(StorageError):
            db.pin(db.versioning.generation + 10)


# ------------------------------------------------------- snapshot handles


class TestSnapshotReaders:
    def test_pinned_reader_is_stable_across_committed_dml(self):
        engine = small_engine()
        query = "SELECT ALL FROM state-area WHERE state.hectare > 0;"
        handle = engine.snapshot_at()
        before = fingerprint(handle.query(query))
        engine.query(
            "INSERT state - area VALUES {name: 'nw', code: 'NW', hectare: 700, "
            "area: {area_id: 'a_nw', kind: 'state-border'}};"
        )
        engine.query("MODIFY state FROM state - area SET hectare = 1 WHERE state.code = 'S1';")
        engine.query("DELETE FROM state - area WHERE state.code = 'S2';")
        assert fingerprint(handle.query(query)) == before
        # A fresh (head) read observes every committed write.
        head = fingerprint(engine.query(query))
        assert head != before
        handle.release()

    def test_release_is_idempotent_and_blocks_queries(self):
        engine = small_engine()
        handle = engine.snapshot_at()
        handle.release()
        handle.release()
        with pytest.raises(StorageError):
            handle.query("SELECT ALL FROM state-area;")

    def test_snapshot_handles_are_read_only(self):
        engine = small_engine()
        with engine.snapshot_at() as handle:
            with pytest.raises(StorageError):
                handle.query("DELETE FROM state - area WHERE state.code = 'S1';")
            with pytest.raises(StorageError):
                handle.query("BEGIN WORK;")
        # The rejected statements really did nothing at the head.
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.code = 'S1';")) == 1

    def test_context_manager_releases_and_gc_truncates(self):
        engine = small_engine()
        with engine.snapshot_at() as handle:
            engine.query(
                "MODIFY state FROM state - area SET hectare = 42 WHERE state.code = 'S1';"
            )
            report = engine.maintenance_report()
            assert report["versions_live"] > 0
            assert report["pins_active"] == 1
            assert report["oldest_pinned_generation"] == handle.generation
        report = engine.maintenance_report()
        assert report["versions_live"] == 0
        assert report["versions_collected"] > 0
        assert report["oldest_pinned_generation"] is None
        assert report["pins_active"] == 0

    def test_unpinned_writes_record_no_history(self):
        engine = small_engine()
        engine.query("MODIFY state FROM state - area SET hectare = 7 WHERE state.code = 'S1';")
        report = engine.maintenance_report()
        assert report["versions_live"] == 0

    def test_two_pins_gc_to_the_older_horizon(self):
        engine = small_engine()
        old = engine.snapshot_at()
        engine.query("MODIFY state FROM state - area SET hectare = 11 WHERE state.code = 'S1';")
        newer = engine.snapshot_at()
        engine.query("MODIFY state FROM state - area SET hectare = 12 WHERE state.code = 'S1';")
        newer.release()  # GC runs, but the old pin keeps its chain alive
        report = engine.maintenance_report()
        assert report["versions_live"] > 0
        assert report["oldest_pinned_generation"] == old.generation
        old_value = next(iter(old.query(
            "SELECT ALL FROM state-area WHERE state.code = 'S1';"
        ))).root_atom["hectare"]
        assert old_value not in (11, 12)
        old.release()
        assert engine.maintenance_report()["versions_live"] == 0

    @pytest.mark.parametrize("finish", ["commit", "rollback"])
    def test_excluded_write_stays_excluded_after_its_writer_finishes(self, finish):
        """A reader pinned while a transaction holds an uncommitted write
        excludes it for good: the pre-state must survive the writer's end
        and the next truncation (it used to be collected — the reader then
        saw the committed value, or lost the atom to the rollback's chain)."""
        engine = small_engine()
        query = "SELECT ALL FROM state-area WHERE state.code = 'S1';"
        state = next(iter(engine.query(query))).root_atom
        txn = Transaction(engine.to_database())
        txn.begin()
        txn.modify_atom("state", state.identifier, hectare=999)
        handle = engine.snapshot_at()
        other = engine.snapshot_at()
        before = fingerprint(handle.query(query))
        assert "999" not in before
        getattr(txn, finish)()
        other.release()  # truncates to the horizon the remaining pin holds
        assert fingerprint(handle.query(query)) == before
        report = engine.maintenance_report()
        assert report["pins_active"] == 1
        assert report["oldest_pinned_generation"] == handle.generation
        handle.release()
        assert engine.maintenance_report()["versions_live"] == 0

    def test_maintenance_report_extends_statistics(self):
        engine = small_engine()
        report = engine.maintenance_report()
        statistics = engine.maintenance_statistics()
        for key, value in statistics.items():
            assert report[key] == value
        for key in (
            "versions_live",
            "versions_collected",
            "oldest_pinned_generation",
            "pins_active",
        ):
            assert key in report
        assert report["index_generation"] == report["generation"]


# ------------------------------------------------- interleaved transactions


class TestWriterWriterConflicts:
    def test_second_writer_conflicts_with_active_first(self):
        db = versioned_db()
        t1 = Transaction(db)
        t2 = Transaction(db)
        t1.begin()
        t2.begin()
        t1.modify_atom("state", "s1", hectare=111)
        with pytest.raises(TransactionConflictError):
            t2.modify_atom("state", "s1", hectare=222)
        t1.commit()
        t2.rollback()
        assert db.atyp("state").get("s1")["hectare"] == 111

    def test_late_writer_conflicts_with_earlier_commit(self):
        db = versioned_db()
        t2 = Transaction(db)
        t2.begin()  # starts before t1 commits
        t1 = Transaction(db)
        t1.begin()
        t1.modify_atom("state", "s1", hectare=111)
        t1.commit()
        with pytest.raises(TransactionConflictError):
            t2.modify_atom("state", "s1", hectare=222)
        t2.rollback()
        assert db.atyp("state").get("s1")["hectare"] == 111

    def test_commit_log_revalidation_first_committer_wins(self):
        db = versioned_db()
        state = db.versioning
        t2 = Transaction(db)
        t2.begin()
        t2.modify_atom("state", "s1", hectare=222)
        # Simulate a racing commit the eager write check could not have seen.
        state.tick()
        state.record_commit({("atom", "state", "s1")})
        with pytest.raises(TransactionConflictError):
            t2.commit()
        assert not t2.is_active
        assert db.atyp("state").get("s1")["hectare"] == 100  # rolled back

    def test_disjoint_write_sets_both_commit(self):
        db = versioned_db()
        db.insert_atom("state", identifier="s2", name="beta", hectare=200)
        t1 = Transaction(db)
        t2 = Transaction(db)
        t1.begin()
        t2.begin()
        t1.modify_atom("state", "s1", hectare=111)
        t2.modify_atom("state", "s2", hectare=222)
        t1.commit()
        t2.commit()
        assert db.atyp("state").get("s1")["hectare"] == 111
        assert db.atyp("state").get("s2")["hectare"] == 222

    def test_delete_conflicts_with_concurrent_link_writer(self):
        db = versioned_db()
        db.insert_atom("area", identifier="a2", area_id="a2")
        t1 = Transaction(db)
        t2 = Transaction(db)
        t1.begin()
        t2.begin()
        t1.connect("state-area", "s1", "a2")
        with pytest.raises(TransactionConflictError):
            t2.delete_atom("state", "s1")  # would remove the link t1 created
        t1.commit()
        t2.rollback()
        assert db.ltyp("state-area").partners_of("s1") == frozenset({"a1", "a2"})

    @settings(max_examples=60, deadline=None)
    @given(schedule=st.lists(st.booleans(), min_size=0, max_size=8))
    def test_random_interleavings_exactly_one_winner(self, schedule):
        """Two transactions modify the same atom under a random interleaving:
        when they overlap, exactly one commits and the loser leaves no partial
        state; when one finishes before the other begins, both commit (they
        were never concurrent) and the later value is final."""
        db = versioned_db()
        transactions = [Transaction(db), Transaction(db)]
        values = [111, 222]
        steps = {0: ["begin", "modify", "commit"], 1: ["begin", "modify", "commit"]}
        outcome = [None, None]  # "committed" | "conflict"
        begin_step = [None, None]
        finish_step = [None, None]
        commit_order = []
        clock = [0]
        order = list(schedule) + [True] * 6 + [False] * 6  # always drains both

        def advance(which: int) -> None:
            if outcome[which] is not None or not steps[which]:
                return
            action = steps[which].pop(0)
            txn = transactions[which]
            clock[0] += 1
            try:
                if action == "begin":
                    txn.begin()
                    begin_step[which] = clock[0]
                elif action == "modify":
                    txn.modify_atom("state", "s1", hectare=values[which])
                else:
                    txn.commit()
                    outcome[which] = "committed"
                    finish_step[which] = clock[0]
                    commit_order.append(which)
            except TransactionConflictError:
                if txn.is_active:
                    txn.rollback()
                outcome[which] = "conflict"
                finish_step[which] = clock[0]

        for pick_first in order:
            advance(0 if pick_first else 1)
        concurrent = (
            begin_step[0] < finish_step[1] and begin_step[1] < finish_step[0]
        )
        if concurrent:
            # Overlapping writers: first committer wins, the other aborts.
            assert sorted(outcome) == ["committed", "conflict"]
        else:
            # Serial execution: no conflict to detect, both publish in order.
            assert outcome == ["committed", "committed"]
        assert commit_order, "at least one transaction must commit"
        assert db.atyp("state").get("s1")["hectare"] == values[commit_order[-1]]
        # No partial state: the database still holds exactly the seeded atoms.
        assert len(db.atyp("state")) == 1
        assert len(db.ltyp("state-area")) == 1
        assert not db.versioning.active_transactions


# ------------------------------------------------------------ MQL sessions


def basic_engine(directory=None) -> PrimaEngine:
    """One state linked to one area, written through the basic interface
    (durable when *directory* is given)."""
    engine = PrimaEngine.open(directory, fsync="off") if directory else PrimaEngine("basic")
    engine.create_atom_type("state", {"name": "string", "hectare": "integer"})
    engine.create_atom_type("area", {"area_id": "string"})
    engine.create_link_type("state-area", "state", "area")
    engine.store_atom("state", identifier="s1", name="alpha", hectare=100)
    engine.store_atom("area", identifier="a1", area_id="a1")
    engine.connect("state-area", "s1", "a1")
    return engine


class TestBasicInterfaceTransactions:
    """``store_atom``/``connect``/``delete_atom`` each commit as one
    auto-commit transaction: they claim keys, log a commit and are never
    seen half done."""

    def test_rollback_cannot_erase_a_committed_basic_write(self, tmp_path):
        engine = basic_engine(tmp_path / "dir")
        follower = engine.create_follower()
        txn = Transaction(engine.to_database())
        txn.begin()
        txn.modify_atom("state", "s1", hectare=5)
        with pytest.raises(TransactionConflictError):
            engine.store_atom("state", identifier="s1", name="alpha", hectare=999)
        txn.rollback()
        engine.replication_hub().ship(follower)
        memory = engine.get_atom("state", "s1")["hectare"]
        replica = follower.engine.get_atom("state", "s1")["hectare"]
        engine.close()
        reopened = PrimaEngine.open(tmp_path / "dir")
        assert memory == replica == reopened.get_atom("state", "s1")["hectare"] == 100
        reopened.close()

    def test_open_transaction_wins_over_a_later_basic_write(self):
        engine = basic_engine()
        txn = Transaction(engine.to_database())
        txn.begin()
        txn.modify_atom("state", "s1", hectare=111)
        with pytest.raises(TransactionConflictError):
            engine.store_atom("state", identifier="s1", name="alpha", hectare=999)
        with pytest.raises(TransactionConflictError):
            engine.delete_atom("state", "s1")
        txn.commit()
        assert engine.get_atom("state", "s1")["hectare"] == 111
        assert engine.neighbours("state-area", "s1") == ("a1",)

    def test_committed_basic_write_wins_over_an_older_transaction(self):
        engine = basic_engine()
        txn = Transaction(engine.to_database())
        txn.begin()  # begins before the basic write commits
        engine.store_atom("state", identifier="s1", name="alpha", hectare=999)
        with pytest.raises(TransactionConflictError):
            txn.modify_atom("state", "s1", hectare=111)
        txn.rollback()
        assert engine.get_atom("state", "s1")["hectare"] == 999

    def test_a_basic_write_ticks_per_mutation_and_once_to_commit(self):
        engine = basic_engine()
        state = engine.to_database().versioning
        before = state.generation
        engine.store_atom("state", identifier="s1", name="alpha", hectare=1)
        engine.store_atom("state", identifier="s1", name="alpha", hectare=2)
        assert state.generation == before + 4  # a mutation and a commit each
        assert engine.generation == state.generation - 1

    def test_pin_taken_inside_delete_atom_sees_the_pre_state(self, monkeypatch):
        """A pin taken after ``delete_atom`` removed the links and before it
        removes the atom sees neither removal, for the pin's whole life."""
        from repro.core.atom import AtomType

        engine = basic_engine()
        remove = AtomType.remove
        handles = []

        def spy(atom_type, atom):
            if atom_type.name == "state":
                handles.append(engine.snapshot_at())
            return remove(atom_type, atom)

        monkeypatch.setattr(AtomType, "remove", spy)
        assert engine.delete_atom("state", "s1") == 1
        (handle,) = handles
        view = handle.database_view()
        assert view.atyp("state").get("s1")["hectare"] == 100
        assert view.ltyp("state-area").partners_of("s1") == frozenset({"a1"})
        assert engine.get_atom("state", "s1") is None
        handle.release()


class TestMQLTransactions:
    def test_begin_work_pins_repeatable_reads(self):
        engine = small_engine()
        query = "SELECT ALL FROM state-area WHERE state.hectare > 0;"
        engine.query("BEGIN WORK;")
        before = fingerprint(engine.query(query))
        # A concurrent writer through the atom interface commits to the head.
        engine.store_atom("state", name="ghost", code="GH", hectare=999)
        assert fingerprint(engine.query(query)) == before
        engine.query("COMMIT WORK;")
        assert fingerprint(engine.query(query)) != before

    def test_session_sees_its_own_writes(self):
        engine = small_engine()
        engine.query("BEGIN WORK;")
        engine.query(
            "INSERT state - area VALUES {name: 'tx', code: 'TX', hectare: 550, "
            "area: {area_id: 'a_tx', kind: 'state-border'}};"
        )
        inside = engine.query("SELECT ALL FROM state-area WHERE state.code = 'TX';")
        assert len(inside) == 1
        engine.query("ROLLBACK WORK;")
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.code = 'TX';")) == 0

    def test_commit_work_publishes(self):
        engine = small_engine()
        engine.query("BEGIN WORK;")
        engine.query(
            "INSERT state - area VALUES {name: 'tx', code: 'TX', hectare: 550, "
            "area: {area_id: 'a_tx', kind: 'state-border'}};"
        )
        engine.query("COMMIT WORK;")
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.code = 'TX';")) == 1

    def test_failed_statement_rolls_back_to_savepoint_only(self):
        engine = small_engine()
        engine.query("BEGIN WORK;")
        engine.query(
            "INSERT state - area VALUES {name: 'ok', code: 'OK', hectare: 500, "
            "area: {area_id: 'a_ok', kind: 'state-border'}};"
        )
        with pytest.raises(Exception):
            engine.query(
                "INSERT state - area VALUES {name: 'bad', nonsense: 1, "
                "area: {area_id: 'a_bad', kind: 'k'}};"
            )
        # The failed statement is undone, the session (and its first insert) live on.
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.code = 'OK';")) == 1
        engine.query("COMMIT WORK;")
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.code = 'OK';")) == 1
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.name = 'bad';")) == 0

    def test_conflicting_sessions_first_committer_wins(self):
        engine = small_engine()
        snapshot = engine.to_database()
        first = MQLInterpreter(snapshot)
        second = MQLInterpreter(snapshot)
        first.execute("BEGIN WORK;")
        second.execute("BEGIN WORK;")
        first.execute("MODIFY state FROM state - area SET hectare = 311 WHERE state.code = 'S1';")
        with pytest.raises(TransactionConflictError):
            second.execute(
                "MODIFY state FROM state - area SET hectare = 322 WHERE state.code = 'S1';"
            )
        assert not second.in_transaction  # the losing session is aborted
        first.execute("COMMIT WORK;")
        winner = engine.query("SELECT ALL FROM state-area WHERE state.code = 'S1';")
        assert next(iter(winner)).root_atom["hectare"] == 311

    def test_pin_during_uncommitted_transaction_sees_clean_state(self):
        """Regression: a snapshot pinned while another transaction holds
        uncommitted writes must read the pre-transaction values, both before
        and after that transaction rolls back (no dirty reads)."""
        db = versioned_db()
        txn = Transaction(db)
        txn.begin()
        txn.modify_atom("state", "s1", hectare=666)  # uncommitted
        snapshot = db.versioning.make_snapshot(db.pin())
        view = db.at(snapshot)
        assert view.atyp("state").get("s1")["hectare"] == 100
        txn.rollback()
        assert view.atyp("state").get("s1")["hectare"] == 100
        db.release_pin(snapshot.generation)

    def test_transaction_statement_misuse(self):
        engine = small_engine()
        with pytest.raises(TransactionError):
            engine.query("COMMIT WORK;")
        engine.query("BEGIN;")  # WORK is optional
        with pytest.raises(TransactionError):
            engine.query("BEGIN WORK;")
        result = engine.query("ROLLBACK WORK;")
        assert result.explanation == "ROLLBACK WORK"
        assert len(result) == 0


# -------------------------------------------------------- EXPLAIN coverage


class TestExplainDML:
    def test_explain_insert_reports_validation_checks(self):
        engine = small_engine()
        result = engine.query(
            "EXPLAIN INSERT state - area VALUES {name: 'x', code: 'XX', hectare: 1, "
            "area: {_id: 'a1'}};"
        )
        text = result.explanation
        assert "ι insert" in text
        assert "will validate" in text
        assert "domain check state(" in text
        assert "domain check area(" in text
        assert "cardinality check state-area" in text
        assert "shared subobject: reuse existing atom _id='a1'" in text
        assert result.write_summary is None  # nothing executed

    def test_explain_modify_reports_read_and_checks(self):
        engine = small_engine()
        result = engine.query(
            "EXPLAIN MODIFY state FROM state - area SET hectare = 5 WHERE state.code = 'S1';"
        )
        text = result.explanation
        assert "μ modify state" in text
        assert "qualifying read" in text
        assert "domain check state.hectare = 5" in text
        assert "identity preserved" in text

    def test_explain_delete_still_reports_qualifying_read(self):
        engine = small_engine()
        result = engine.query(
            "EXPLAIN DELETE FROM state - area WHERE state.code = 'S1';"
        )
        assert "δ delete" in result.explanation
        assert "qualifying read" in result.explanation

    def test_explain_transaction_statement_is_rejected(self):
        engine = small_engine()
        from repro.exceptions import MQLSemanticError

        with pytest.raises(MQLSemanticError):
            engine.query("EXPLAIN BEGIN WORK;")


# ------------------------------------------------------ pin refcount hygiene


class TestPinRefcounting:
    """`pins_active` bookkeeping must stay exact under sloppy release patterns.

    `SnapshotHandle.release()` is documented idempotent and
    `VersioningState.release()` tolerates over-release; these regression
    tests assert the tolerance never *under*-counts another reader's pin.
    """

    def test_double_release_does_not_steal_a_concurrent_pin(self):
        engine = small_engine()
        first = engine.snapshot_at()
        second = engine.snapshot_at()
        assert engine.maintenance_report()["pins_active"] == 2
        first.release()
        first.release()
        first.release()
        # Over-releasing `first` must not drop `second`'s pin.
        assert engine.maintenance_report()["pins_active"] == 1
        engine.query(
            "MODIFY state FROM state - area SET hectare = 5 WHERE state.code = 'S1';"
        )
        assert engine.maintenance_report()["versions_live"] > 0
        second.release()
        report = engine.maintenance_report()
        assert report["pins_active"] == 0
        assert report["versions_live"] == 0
        assert report["oldest_pinned_generation"] is None

    def test_context_manager_reentry_after_release_stays_exact(self):
        engine = small_engine()
        handle = engine.snapshot_at()
        with handle:
            assert engine.maintenance_report()["pins_active"] == 1
        assert handle.released
        assert engine.maintenance_report()["pins_active"] == 0
        # Re-entering a released handle must not resurrect (or double-free)
        # the pin; queries inside stay rejected.
        with handle:
            assert engine.maintenance_report()["pins_active"] == 0
            with pytest.raises(StorageError):
                handle.query("SELECT ALL FROM state-area;")
        assert engine.maintenance_report()["pins_active"] == 0

    def test_versioning_state_over_release_raises(self):
        """Registry-level over-release is an error, not a silent no-op.

        The silent tolerance this test used to codify masked refcount races
        under real threads (a double release could free chains another
        reader still needed); the registry now raises ``StorageError`` while
        ``SnapshotHandle.release()`` stays idempotent at the handle level.
        """
        from repro.core.versions import VersioningState

        state = VersioningState()
        state.tick()
        pinned = state.pin()
        assert state.pins_active == 1
        state.release(pinned)
        with pytest.raises(StorageError):
            state.release(pinned)  # over-release: refused
        with pytest.raises(StorageError):
            state.release(99)  # releasing a never-pinned generation: refused
        assert state.pins_active == 0
        assert state.oldest_pinned() is None
        # Refcounting per generation: two pins on one generation need two
        # releases; the third is refused and the count stays exact.
        state.pin(pinned)
        state.pin(pinned)
        state.release(pinned)
        assert state.pins_active == 1
        state.release(pinned)
        with pytest.raises(StorageError):
            state.release(pinned)
        assert state.pins_active == 0

    def test_pin_below_truncation_horizon_is_rejected(self):
        """A pin below the retention floor would read truncated chains."""
        from repro.core.versions import VersioningState

        state = VersioningState()
        for _ in range(5):
            state.tick()
        # With no pins and no transactions nothing is retained: any older
        # generation would silently resolve to head state.
        with pytest.raises(StorageError):
            state.pin(3)
        oldest = state.pin()  # the current generation is always pinnable
        assert oldest == 5
        state.tick()
        state.tick()
        # History below the oldest pin was never recorded (or has been
        # truncated); a snapshot there would be silently stale.
        with pytest.raises(StorageError):
            state.pin(4)
        # At or above the horizon stays fine.
        assert state.pin(5) == 5
        assert state.pin(6) == 6
        state.release(5)
        state.release(5)
        state.release(6)
        assert state.pins_active == 0

    def test_pin_below_active_transaction_start_is_rejected(self):
        """Active transactions extend the horizon: their pre-states must
        survive, and generations before their start were never recorded."""
        engine = small_engine()
        database = engine.to_database()
        from repro.manipulation.transactions import Transaction

        engine.query(
            "MODIFY state FROM state - area SET hectare = 1 WHERE state.code = 'S1';"
        )
        txn = Transaction(database)
        txn.begin()
        try:
            start = txn.start_generation
            assert database.versioning.truncation_horizon() == start
            with pytest.raises(StorageError):
                database.versioning.pin(start - 1)
        finally:
            txn.rollback()

    def test_release_while_session_transaction_active(self):
        engine = small_engine()
        engine.query("BEGIN WORK;")
        assert engine.maintenance_report()["pins_active"] == 1  # the session's pin
        handle = engine.snapshot_at()
        assert engine.maintenance_report()["pins_active"] == 2
        handle.release()
        handle.release()
        # Releasing the reader (twice) must leave the session's own pin.
        assert engine.maintenance_report()["pins_active"] == 1
        engine.query(
            "MODIFY state FROM state - area SET hectare = 9 WHERE state.code = 'S1';"
        )
        engine.query("COMMIT WORK;")
        report = engine.maintenance_report()
        assert report["pins_active"] == 0
        assert engine.maintenance_report()["versions_live"] == 0
