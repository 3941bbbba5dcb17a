"""Incremental cache maintenance: change events, deltas, and coherence.

The storage engine holds one database, subscribes to its change events and
folds every write into the accelerator store and the planner statistics —
instead of invalidating and rebuilding them.  These tests assert:

* the core emits the five event kinds in mutation order;
* the atom-network report, built on demand, follows the link types;
* the store's equality indexes answer correctly across writes without being
  rebuilt, and its generation stamp tracks the engine's;
* build counters stay at 1 in steady state;
* every write route — basic interface, MQL DML, the manipulation API on
  ``engine.to_database()``, a ``BEGIN WORK`` session — lands in the same one
  database, logs one record per committed unit and recovers to the live
  state.
"""

from __future__ import annotations

import json

import pytest

from repro.core.database import Database
from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    LINK_CONNECTED,
    LINK_DISCONNECTED,
)
from repro.core.link import Cardinality
from repro.core.molecule import MoleculeTypeDescription
from repro.datasets.geography import load_geography
from repro.exceptions import CardinalityError, DomainError, StorageError
from repro.manipulation import Transaction, delete_molecule, insert_molecule, modify_atom
from repro.storage.engine import PrimaEngine
from repro.storage.network import AtomNetwork
from repro.storage.wal import DurabilityConfig


def build_tiny() -> Database:
    db = Database("tiny")
    db.define_atom_type("author", {"name": "string", "country": "string"})
    db.define_atom_type("book", {"title": "string", "year": "integer"})
    db.define_link_type("wrote", "author", "book")
    return db


class TestUnhashableValues:
    """An ``any`` attribute may hold sets and dicts of lists: statistics and
    equality indexes key them through ``hashable`` and stay exact."""

    @pytest.fixture()
    def engine(self):
        engine = PrimaEngine("any")
        engine.create_atom_type("t", {"k": "string", "x": "any"})
        engine.store_atom("t", identifier="s", k="a", x={1, 2})
        engine.store_atom("t", identifier="d", k="b", x={"m": [1, 2]})
        engine.store_atom("t", identifier="l", k="c", x=[1, 2])
        engine.store_atom("t", identifier="p", k="d", x=(1, 2))
        engine.create_index("t", "x")
        return engine

    def test_queries_plan_and_answer(self, engine):
        for key, identifier in (("a", "s"), ("b", "d"), ("c", "l")):
            result = engine.query(f"SELECT ALL FROM t WHERE t.k = '{key}';")
            assert [m.root_atom.identifier for m in result.molecules] == [identifier]
        grid = engine.query("SELECT ALL FROM t WHERE t.k = 'a' AND t.x = 'zz';")
        assert len(grid) == 0

    def test_lookup_is_exact(self, engine):
        def ids(value):
            return sorted(atom.identifier for atom in engine.lookup("t", "x", value))

        assert ids({2, 1}) == ["s"]
        assert ids(frozenset({1, 2})) == ["s"]
        assert ids({"m": [1, 2]}) == ["d"]
        # A list and a tuple share an index key; the lookup filters them apart.
        assert ids([1, 2]) == ["l"]
        assert ids((1, 2)) == ["p"]
        assert ids({"m": [2, 1]}) == []
        assert engine.maintenance_statistics()["index_builds"] == 1


class TestCallerValues:
    """A stored row holds its own copy of the lists, dicts, sets and
    bytearrays a writer passed in: changing them afterwards changes nothing
    stored, in memory or on disk."""

    @staticmethod
    def values(loggable=False):
        # A bytearray has no faithful log form: a durable engine refuses it.
        return {"x": [1, [2]], "m": {"k": {3}}, "b": b"ab" if loggable else bytearray(b"ab")}

    @staticmethod
    def mutate(values):
        values["x"][1].append(9)
        values["m"]["k"].add(4)
        if isinstance(values["b"], bytearray):
            values["b"].extend(b"cd")

    @staticmethod
    def stored(engine, identifier):
        atom = engine.get_atom("t", identifier)
        return {name: atom[name] for name in ("x", "m", "b")}

    def engine(self, directory=None):
        engine = PrimaEngine.open(directory, fsync="off") if directory else PrimaEngine("any")
        engine.create_atom_type("t", {"x": "any", "m": "any", "b": "any"})
        return engine

    def test_basic_interface_insert_and_replace(self):
        engine = self.engine()
        inserted, replacing = self.values(), self.values()
        engine.store_atom("t", identifier="i", **inserted)
        engine.store_atom("t", identifier="r", x=None)
        engine.store_atom("t", identifier="r", **replacing)
        self.mutate(inserted)
        self.mutate(replacing)
        assert self.stored(engine, "i") == self.stored(engine, "r") == self.values()

    def test_transaction_insert_and_modify(self):
        engine = self.engine()
        inserted, updates = self.values(), self.values()
        with Transaction(engine.to_database()) as txn:
            txn.insert_atom_values("t", inserted, identifier="i")
            txn.insert_atom("t", identifier="m", x=None)
            txn.modify_atom_values("t", "m", updates)
        self.mutate(inserted)
        self.mutate(updates)
        assert self.stored(engine, "i") == self.stored(engine, "m") == self.values()

    def test_reopen_reads_what_memory_reads(self, tmp_path):
        engine = self.engine(tmp_path / "dir")
        values = self.values(loggable=True)
        engine.store_atom("t", identifier="i", **values)
        self.mutate(values)
        memory = self.stored(engine, "i")
        engine.close()
        reopened = PrimaEngine.open(tmp_path / "dir")
        assert self.stored(reopened, "i") == memory == self.values(loggable=True)
        reopened.close()


class TestChangeEvents:
    def test_event_kinds_in_mutation_order(self):
        db = build_tiny()
        events = []
        db.subscribe(events.append)
        author = db.insert_atom("author", identifier="a1", name="Codd", country="UK")
        book = db.insert_atom("book", identifier="b1", title="RM", year=1970)
        db.connect("wrote", author, book)
        db.atyp("author").replace(author.with_values(country="US"))
        for link in db.ltyp("wrote").links_of("b1"):
            db.ltyp("wrote").remove(link)
        db.atyp("book").remove("b1")
        assert [event.kind for event in events] == [
            ATOM_INSERTED,
            ATOM_INSERTED,
            LINK_CONNECTED,
            ATOM_MODIFIED,
            LINK_DISCONNECTED,
            ATOM_DELETED,
        ]
        assert events[3].previous["country"] == "UK"
        assert events[3].atom["country"] == "US"

    def test_unsubscribe_stops_delivery(self):
        db = build_tiny()
        events = []
        db.subscribe(events.append)
        db.unsubscribe(events.append)
        db.insert_atom("author", name="X", country="Y")
        assert events == []

    def test_types_added_after_subscription_are_covered(self):
        db = build_tiny()
        events = []
        db.subscribe(events.append)
        db.define_atom_type("publisher", {"name": "string"})
        db.insert_atom("publisher", name="ACM")
        assert [event.kind for event in events] == [ATOM_INSERTED]
        assert events[0].type_name == "publisher"


class TestIncrementalNetwork:
    """The atom-network report, rebuilt after each write, follows the links."""

    def test_multi_link_type_pair_survives_single_disconnect(self):
        """The untyped adjacency keeps a pair connected while any link remains."""
        db = Database("multi")
        db.define_atom_type("a", {"x": "integer"})
        db.define_atom_type("b", {"x": "integer"})
        db.define_link_type("l1", "a", "b")
        db.define_link_type("l2", "a", "b")
        first = db.insert_atom("a", identifier="a1", x=1)
        second = db.insert_atom("b", identifier="b1", x=2)
        link1 = db.connect("l1", first, second)
        db.connect("l2", first, second)
        db.ltyp("l1").remove(link1)
        assert AtomNetwork(db).neighbours(("a", "a1")) == frozenset({("b", "b1")})
        for link in db.ltyp("l2").links_of("a1"):
            db.ltyp("l2").remove(link)
        assert AtomNetwork(db).neighbours(("a", "a1")) == frozenset()


class TestEngineMaintenance:
    @pytest.fixture()
    def prima(self):
        return PrimaEngine.from_database(load_geography())

    def test_steady_state_has_no_rebuilds(self, prima):
        prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")  # warm caches
        for i in range(5):
            prima.store_atom("state", identifier=f"S{i}", name=f"S{i}", code=f"S{i}", hectare=i)
            prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")
            prima.delete_atom("state", f"S{i}")
        report = prima.maintenance_statistics()
        assert report["snapshot_builds"] == 1
        assert report["interpreter_builds"] == 1
        assert report["events_applied"] == 10
        assert report["index_generation"] == report["generation"]

    def test_equality_indexes_maintained_across_writes(self, prima):
        prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")  # builds index
        store, head = prima._accelerators, prima.to_database()
        assert store.statistics()["index_builds"] == 1
        prima.store_atom("state", identifier="ZZ", name="Z", code="ZZ", hectare=1)
        prima.store_atom("area", identifier="a_zz", area_id="a_zz", kind="state-border")
        prima.connect("state-area", "ZZ", "a_zz")
        assert store.lookup(head, "state", "code", "ZZ") == frozenset({"ZZ"})
        hit = prima.query("SELECT ALL FROM state-area WHERE state.code = 'ZZ';")
        assert len(hit) == 1
        assert hit.counters.index_lookups == 1
        prima.delete_atom("state", "ZZ")
        assert store.lookup(head, "state", "code", "ZZ") == frozenset()
        miss = prima.query("SELECT ALL FROM state-area WHERE state.code = 'ZZ';")
        assert len(miss) == 0
        assert store.statistics()["index_builds"] == 1
        assert prima.maintenance_statistics()["index_builds"] == 1

    def test_ddl_keeps_equality_indexes(self):
        """Creating an unrelated type leaves the built indexes alone: the
        next indexed query reads the same index, built once."""
        engine = PrimaEngine("ddl")
        engine.create_atom_type("t", {"k": "string"})
        for i in range(100):
            engine.store_atom("t", identifier=f"t{i}", k=f"a{i}")
        statement = "SELECT ALL FROM t WHERE t.k = 'a7';"
        first = engine.query(statement)
        assert first.counters.atoms_indexed == 100
        engine.create_atom_type("u", {"k": "string"})
        again = engine.query(statement)
        assert [m.root_atom.identifier for m in again.molecules] == ["t7"]
        assert again.counters.index_lookups == 1
        assert again.counters.atoms_indexed == 0
        assert engine.maintenance_statistics()["index_builds"] == 1

    def test_dml_mirrors_into_stores_and_network(self, prima):
        """MQL DML is visible through the basic interface and the network."""
        prima.query(
            "INSERT state - area VALUES {name: 'T', code: 'TO', hectare: 500, "
            "area: {area_id: 'a_to', kind: 'state-border'}};"
        )
        state = prima.lookup("state", "code", "TO")[0]
        (area,) = prima.neighbours("state-area", state.identifier)
        node = ("state", state.identifier)
        assert AtomNetwork(prima.to_database()).neighbours(node) == {("area", area)}
        prima.query("DELETE FROM state - area WHERE state.code = 'TO';")
        assert prima.lookup("state", "code", "TO") == ()
        assert AtomNetwork(prima.to_database()).degree(node) == 0

    def test_planner_statistics_follow_writes(self, prima):
        # Force statistics collection (a rewrite fires for this statement).
        prima.plan("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        planner = prima.interpreter().planner
        before = planner.statistics.atom_counts["state"]
        prima.store_atom("state", identifier="Q1", name="Q", code="Q1", hectare=5)
        assert planner.statistics.atom_counts["state"] == before + 1
        prima.delete_atom("state", "Q1")
        assert planner.statistics.atom_counts["state"] == before

    def test_generation_advances_without_caches(self):
        engine = PrimaEngine("fresh")
        engine.create_atom_type("a", {"x": "integer"})
        generation = engine.generation
        engine.store_atom("a", x=1)
        assert engine.generation == generation + 1

    def test_rejected_link_leaves_store_and_snapshot_agreeing(self):
        """A cardinality rejection leaves nothing behind on a warmed engine."""
        engine = PrimaEngine("c")
        engine.create_atom_type("a", {"x": "integer"})
        engine.create_atom_type("b", {"x": "integer"})
        engine.create_link_type("ab", "a", "b", cardinality=Cardinality.ONE_TO_ONE)
        first = engine.store_atom("a", x=1)
        one = engine.store_atom("b", x=1)
        other = engine.store_atom("b", x=2)
        engine.query("SELECT ALL FROM a;")  # warm the derived caches
        engine.connect("ab", first, one)
        with pytest.raises(CardinalityError):
            engine.connect("ab", first, other)
        assert engine.neighbours("ab", first.identifier) == (one.identifier,)
        assert len(engine.to_database().ltyp("ab")) == 1

    def test_write_through_stale_handle_reaches_the_stores(self, prima):
        """Regression: DML through an interpreter held across DDL is not lost.

        DDL drops the engine's derived caches, never its database: the held
        interpreter still writes into the one state, and the rebuilt caches
        see the write.
        """
        held = prima.interpreter()
        prima.create_atom_type("annotation", {"text": "string"})  # DDL drops the caches
        assert prima.interpreter() is not held
        held.execute(
            "INSERT state - area VALUES {name: 'Late', code: 'LL', hectare: 7, "
            "area: {area_id: 'a_ll', kind: 'k'}};"
        )
        assert len(prima.lookup("state", "code", "LL")) == 1
        fresh = prima.query("SELECT ALL FROM state-area WHERE state.code = 'LL';")
        assert len(fresh) == 1


# ------------------------------------------------------------ write routes

STATE_AREA = MoleculeTypeDescription(["state", "area"], [("state-area", "state", "area")])


def insert_statement(code: str, hectare: int) -> str:
    return (
        f"INSERT state - area VALUES {{_id: '{code}', name: 'T', code: '{code}', "
        f"hectare: {hectare}, area: {{_id: 'a_{code}', area_id: 'a_{code}', "
        "kind: 'state-border'}};"
    )


#: The logical sequence every route drives: insert TO, modify it, insert T2,
#: delete T2 (its exclusive area goes with it).
DML_SEQUENCE = (
    insert_statement("TO", 500),
    "MODIFY state FROM state - area SET hectare = 901 WHERE state.code = 'TO';",
    insert_statement("T2", 7),
    "DELETE FROM state - area WHERE state.code = 'T2';",
)


def drive_basic(engine):
    """The sequence as basic-interface operations; one commit unit each."""

    def insert(code, hectare):
        return [
            lambda: engine.store_atom("state", identifier=code, name="T", code=code, hectare=hectare),
            lambda: engine.store_atom(
                "area", identifier=f"a_{code}", area_id=f"a_{code}", kind="state-border"
            ),
            lambda: engine.connect("state-area", code, f"a_{code}"),
        ]

    return [
        *insert("TO", 500),
        lambda: engine.store_atom("state", identifier="TO", name="T", code="TO", hectare=901),
        *insert("T2", 7),
        lambda: engine.delete_atom("state", "T2"),
        lambda: engine.delete_atom("area", "a_T2"),
    ]


def drive_mql(engine):
    return [lambda statement=statement: engine.query(statement) for statement in DML_SEQUENCE]


def drive_manipulation(engine):
    """The sequence through the manipulation API on the engine's database."""
    database = engine.to_database()

    def insert(code, hectare):
        data = {
            "_id": code, "name": "T", "code": code, "hectare": hectare,
            "area": [{"_id": f"a_{code}", "area_id": f"a_{code}", "kind": "state-border"}],
        }
        return lambda: insert_molecule(database, STATE_AREA, data)

    def delete_t2():
        molecules = engine.query("SELECT ALL FROM state-area WHERE state.code = 'T2';")
        delete_molecule(database, next(iter(molecules)))

    return [
        insert("TO", 500),
        lambda: modify_atom(database, "state", "TO", hectare=901),
        insert("T2", 7),
        delete_t2,
    ]


def fingerprint(engine) -> str:
    """A byte-stable rendering of the engine's whole state."""
    database = engine.to_database()
    atoms = {
        atom_type.name: {atom.identifier: atom.values for atom in atom_type}
        for atom_type in database.atom_types
    }
    links = {
        link_type.name: sorted(sorted(link.given_order) for link in link_type)
        for link_type in database.link_types
    }
    return json.dumps({"atoms": atoms, "links": links}, sort_keys=True, default=str)


class TestWriteRoutes:
    """Every write route lands in the one database and the one log."""

    ROUTES = {"basic": drive_basic, "mql": drive_mql, "manipulation": drive_manipulation}

    @staticmethod
    def durable_engine(directory) -> PrimaEngine:
        engine = PrimaEngine.from_database(
            load_geography(), durability=DurabilityConfig(directory, fsync="off")
        )
        engine.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")  # warm caches
        return engine

    @staticmethod
    def wal_records(engine) -> int:
        return engine.maintenance_report()["wal_records"]

    def finish(self, engine, database) -> str:
        """The checks every route ends with; returns the live fingerprint."""
        engine.create_atom_type("annotation", {"text": "string"})  # DDL
        assert engine.to_database() is database
        engine.checkpoint()
        assert engine.to_database() is database
        engine.store_atom("annotation", identifier="n1", text="after the image")
        assert len(engine.query("SELECT ALL FROM state-area WHERE state.code = 'TO';")) == 1
        report = engine.maintenance_report()
        assert report["snapshot_builds"] == 1
        assert report["index_generation"] == report["generation"]
        assert report["wal_records"] == 1  # the tail behind the image
        live = fingerprint(engine)
        engine.close()
        recovered = PrimaEngine.open(engine.durability.directory)
        try:
            assert recovered.recovery.checkpoint_loaded
            assert fingerprint(recovered) == live
        finally:
            recovered.close()
        return live

    def run_route(self, route: str, directory) -> str:
        engine = self.durable_engine(directory)
        database = engine.to_database()
        if route == "session":
            engine.query("BEGIN WORK;")
            for statement in DML_SEQUENCE:
                engine.query(statement)
                assert self.wal_records(engine) == 0  # nothing before COMMIT WORK
            engine.query("COMMIT WORK;")
            assert self.wal_records(engine) == 1
        else:
            for count, operation in enumerate(self.ROUTES[route](engine), start=1):
                operation()
                assert self.wal_records(engine) == count  # one record per commit unit
                assert engine.to_database() is database
        return self.finish(engine, database)

    def test_routes_agree(self, tmp_path):
        states = {
            route: self.run_route(route, tmp_path / route)
            for route in (*self.ROUTES, "session")
        }
        assert len(set(states.values())) == 1, sorted(states)
        atoms = json.loads(states["basic"])["atoms"]
        assert atoms["state"]["TO"]["hectare"] == 901
        assert "T2" not in atoms["state"] and "a_T2" not in atoms["area"]

    @pytest.mark.parametrize("route", ["mql", "session"])
    def test_rolled_back_route_leaves_nothing(self, route, tmp_path):
        engine = self.durable_engine(tmp_path)
        before = fingerprint(engine)
        if route == "session":
            engine.query("BEGIN WORK;")
            for statement in DML_SEQUENCE:
                engine.query(statement)
            engine.query("ROLLBACK WORK;")
        else:
            with pytest.raises(DomainError):  # on the second child, after three writes
                engine.query(
                    "INSERT area - state VALUES {_id: 'a_x', area_id: 'a_x', kind: 'k', state: "
                    "({_id: 'TO', name: 'T', code: 'TO', hectare: 500}, "
                    "{_id: 'T2', name: 'T', code: 'T2', hectare: 'vast'})};"
                )
            assert engine.maintenance_statistics()["events_applied"] == 6  # 3 writes, 3 undos
        assert fingerprint(engine) == before
        assert self.wal_records(engine) == 0
        assert engine.maintenance_report()["pins_active"] == 0
        engine.close()
        recovered = PrimaEngine.open(tmp_path)
        try:
            assert fingerprint(recovered) == before
        finally:
            recovered.close()


class TestOneStateRegressions:
    """The defects the second copy of the state used to cause."""

    def test_ddl_is_refused_inside_a_transaction(self, tmp_path):
        """DDL inside ``BEGIN WORK`` used to discard the interpreter owning
        the session: the uncommitted write was published for good, never
        logged, and ``CHECKPOINT`` was refused from then on."""
        select = "SELECT ALL FROM state-area WHERE state.code = 'SP';"

        def hectare(reader) -> int:
            return next(iter(reader.query(select))).root_atom["hectare"]

        engine = PrimaEngine.from_database(
            load_geography(), durability=DurabilityConfig(tmp_path, fsync="off")
        )
        committed = hectare(engine)
        handle = engine.snapshot_at()
        engine.query("BEGIN WORK;")
        engine.query("MODIFY state FROM state - area SET hectare = 999 WHERE state.code = 'SP';")
        with pytest.raises(StorageError, match="transactions are active"):
            engine.create_atom_type("annotation", {"text": "string"})
        with pytest.raises(StorageError, match="transactions are active"):
            engine.create_link_type("state-state", "state", "state")
        assert hectare(engine) == 999  # the session is intact and sees its write
        engine.query("ROLLBACK WORK;")
        assert hectare(engine) == committed
        # DDL outside the transaction drops derived caches only: the handle
        # pinned before it keeps its generation and its pin.
        engine.query("MODIFY state FROM state - area SET hectare = 1 WHERE state.code = 'SP';")
        engine.create_atom_type("annotation", {"text": "string"})
        assert hectare(handle) == committed
        assert engine.maintenance_report()["pins_active"] == 1
        handle.release()
        assert engine.maintenance_report()["pins_active"] == 0
        engine.checkpoint()
        live = fingerprint(engine)
        engine.close()
        recovered = PrimaEngine.open(tmp_path)
        try:
            assert fingerprint(recovered) == live
            assert hectare(recovered) == 1
        finally:
            recovered.close()

    @pytest.mark.parametrize("durable", [False, True])
    def test_cardinality_is_checked_before_the_first_read(self, durable, tmp_path):
        """A second ``connect`` on a 1:1 link type, on an engine that had
        never been read, used to be accepted and logged — and every later
        read, also after reopening the directory, raised."""
        engine = PrimaEngine(
            "c", durability=DurabilityConfig(tmp_path, fsync="off") if durable else None
        )
        engine.create_atom_type("a", {"x": "integer"})
        engine.create_atom_type("b", {"x": "integer"})
        engine.create_link_type("ab", "a", "b", cardinality=Cardinality.ONE_TO_ONE)
        engine.store_atom("a", identifier="a1", x=1)
        engine.store_atom("b", identifier="b1", x=1)
        engine.store_atom("b", identifier="b2", x=2)
        engine.connect("ab", "a1", "b1")
        records = engine.maintenance_report()["wal_records"]
        with pytest.raises(CardinalityError):
            engine.connect("ab", "a1", "b2")
        assert engine.maintenance_report()["wal_records"] == records
        assert engine.neighbours("ab", "a1") == ("b1",)
        assert len(engine.query("SELECT ALL FROM a - b;")) == 1
        engine.close()
        if durable:
            recovered = PrimaEngine.open(tmp_path)
            try:
                assert recovered.neighbours("ab", "a1") == ("b1",)
                assert len(recovered.query("SELECT ALL FROM a - b;")) == 1
            finally:
                recovered.close()


#: Report keys benchmarks/harness/runner.py reads from every engine.
HARNESS_KEYS = (
    "wal_syncs",
    "wal_lifetime_bytes",
    "wal_lifetime_records",
    "procpool_catchup_records",
    "procpool_refusals",
    "procpool_fallbacks",
    "procpool_restarts",
    "replication_records_shipped",
    "replication_refusals",
    "replication_fallbacks",
    "replication_waits",
    "replication_routed",
)


def test_maintenance_report_has_one_key_set_whatever_the_engine_owns(tmp_path, monkeypatch):
    """In memory, durable, durable with a pool, durable with a follower: a
    missing durability or fan-out owner reports zeros under the same keys."""
    monkeypatch.delenv("REPRO_DEBUG_LOCKS", raising=False)

    def durable(name: str) -> PrimaEngine:
        config = DurabilityConfig(tmp_path / name, fsync="off")
        return PrimaEngine.from_database(build_tiny(), durability=config)

    in_memory, plain, pooled, replicated = (
        PrimaEngine.from_database(build_tiny()),
        durable("plain"),
        durable("pooled"),
        durable("replicated"),
    )
    try:
        pooled.process_pool(workers=1)
        replicated.create_follower()
        reports = [
            engine.maintenance_report() for engine in (in_memory, plain, pooled, replicated)
        ]
        assert all(set(report) == set(reports[0]) for report in reports)
        assert set(HARNESS_KEYS) <= set(reports[0])
        assert reports[0]["wal_lifetime_records"] == reports[0]["checkpoints"] == 0
        assert reports[1]["checkpoints"] == 1
        assert reports[2]["procpool_workers"] == 1
        assert reports[3]["replication_followers"] == 1
    finally:
        for engine in (in_memory, plain, pooled, replicated):
            engine.close()
