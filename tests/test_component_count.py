"""Γ over the link occurrence: ``COUNT(<one-hop component>)`` from the root's
columnar arrays and one pass over the link type.

``SELECT p.grp, COUNT(c) FROM p - c GROUP BY p.grp`` needs no molecule: the
group of every root comes from the root's columnar arrays, and one pass over
the link type adds each link's component endpoint to its root's group.  The
root side of a link is told by endpoint *type* — identifiers are unique only
within a type — and that rule is also what deletion now follows (the last
class below: deleting an atom used to drop the links of another type's atom
with the same identifier).

Covered: literal answers (shared components, roots without links, NULL group
keys, a link type defined the other way round and connected both ways,
identifiers shared between the root and the component type, a root filter,
``COUNT(*)`` beside the count); the counters; a hypothesis sweep of random
graphs (``p`` and ``c`` share identifiers) and interleaved writes in which
every answer equals the row Γ's (``reference.row``: a plain interpreter over
the engine's database, at the same state) — at the head, on pins taken before
later writes, inside ``BEGIN WORK``, on a follower and on a process-pool
worker; the plan codec; the statement cache; the shapes that keep the row
Γ; endpoint types settled on every write path and in recovery; and the row
walk telling a link's sides apart by type.

``REPRO_STRESS`` multiplies the number of sweep examples (CI's stress step
runs this file with ``REPRO_STRESS=10 REPRO_DEBUG_LOCKS=1``).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.molecule import MoleculeTypeDescription
from repro.core.predicates import AttributeRef
from repro.engine.logical import AggregatePlan, AggregateSpec, ColumnarAggregatePlan, DefinePlan
from repro.manipulation.transactions import Transaction
from repro.optimizer.rules import columnarize_aggregate
from repro.storage.engine import PrimaEngine
from repro.storage.shipping import plan_from_json, plan_to_json
from repro.storage.wal import DurabilityConfig, WriteAheadLog

from reference import row

STRESS = max(1, int(os.environ.get("REPRO_STRESS", "1")))

COUNT = "SELECT p.grp, COUNT(c) FROM p - c GROUP BY p.grp;"
#: Every target the route folds, beside the component count.
MIXED = "SELECT p.grp, COUNT(*), COUNT(c), COUNT(p), SUM(p.n) FROM p - c GROUP BY p.grp;"
#: The same link type, rooted at its other end.
REVERSED = "SELECT c.name, COUNT(p) FROM c - p GROUP BY c.name;"
FILTERED = "SELECT p.grp, COUNT(c), COUNT(*) FROM p - c WHERE p.grp = 'v' GROUP BY p.grp;"
GLOBAL = "SELECT COUNT(c) FROM p - c;"


def row_rows(engine, statement, at=None):
    """The row Γ's answer rows of *statement* at the engine's state."""
    return row(engine, statement, at).rows


def route(engine, statement):
    return engine.plan(statement).best


# ------------------------------------------------------------ literal shapes


def build_literal(durability=None) -> PrimaEngine:
    """``cp`` is defined ``(c, p)`` and connected both ways round; ``p:x``
    and ``c:x`` share an identifier, and ``c:x`` hangs off ``p:y`` only."""
    engine = PrimaEngine(durability=durability)
    engine.create_atom_type("p", {"name": "string", "grp": "string", "n": "integer"})
    engine.create_atom_type("c", {"name": "string"})
    engine.create_link_type("cp", "c", "p")
    roots = (("x", "u", 1), ("y", "u", 2), ("z", "v", 3), ("w", None, 4), ("lone", "v", 5))
    for identifier, grp, n in roots:
        engine.store_atom("p", identifier=identifier, name=f"P{identifier}", grp=grp, n=n)
    for identifier in ("x", "k1", "k2", "k3"):
        engine.store_atom("c", identifier=identifier, name=f"C{identifier}")
    p = lambda identifier: engine.get_atom("p", identifier)  # noqa: E731
    c = lambda identifier: engine.get_atom("c", identifier)  # noqa: E731
    engine.connect("cp", p("x"), c("k1"))  # atoms, against the definition
    engine.connect("cp", "k1", "y")  # identifiers, in definition order
    engine.connect("cp", c("k1"), p("z"))  # atoms, in definition order
    engine.connect("cp", p("y"), c("x"))
    engine.connect("cp", p("x"), c("k2"))
    engine.connect("cp", c("k2"), p("z"))
    engine.connect("cp", p("w"), c("k3"))
    return engine


#: group u: x → {k1, k2}, y → {k1, x}; group v: z → {k1, k2}, lone → {};
#: NULL: w → {k3}.  A fold that told the root side by identifier would also
#: file ``y`` under ``p:x`` (through ``c:x — p:y``) and count 4 for u.
EXPECTED = {
    COUNT: (("u", 3), ("v", 2), (None, 1)),
    MIXED: (("u", 2, 3, 2, 3), ("v", 2, 2, 2, 8), (None, 1, 1, 1, 4)),
    REVERSED: (("Ck1", 3), ("Ck2", 2), ("Ck3", 1), ("Cx", 1)),
    FILTERED: (("v", 2, 2),),
    GLOBAL: ((4,),),
}


class TestLiteralShapes:
    @pytest.mark.parametrize("statement", list(EXPECTED))
    def test_answer(self, statement):
        engine = build_literal()
        plan = route(engine, statement)
        assert isinstance(plan, ColumnarAggregatePlan) and plan.hop is not None, statement
        assert engine.query(statement).rows == EXPECTED[statement]
        assert row_rows(engine, statement) == EXPECTED[statement]

    def test_range_filter(self):
        engine = build_literal()
        statement = "SELECT p.grp, COUNT(c) FROM p - c WHERE p.n > 2 GROUP BY p.grp;"
        assert isinstance(route(engine, statement), ColumnarAggregatePlan)
        assert engine.query(statement).rows == (("v", 2), (None, 1))
        assert row_rows(engine, statement) == (("v", 2), (None, 1))

    def test_counters(self):
        engine = build_literal()
        counters = engine.query(COUNT).counters
        assert counters.molecules_derived == 0
        assert counters.columnar_rows_scanned == 5  # roots
        assert counters.links_followed == 7  # the links of cp
        assert counters.atoms_touched == 0

    def test_explain_names_the_route(self):
        engine = build_literal()
        text = engine.query("EXPLAIN " + COUNT).explanation
        assert "Γ_col [count(c)] group by [p.grp] over p + links cp" in text
        assert "columnar projection p:" in text
        choice = engine.plan(COUNT)
        assert choice.applied_rules == ("columnarize_aggregate",)
        # (5 roots + 7 links) × COLUMNAR_TOUCH_COST + 3 groups
        assert choice.optimized_cost == pytest.approx(12 * 0.25 + 3)

    def test_recovered_and_follower_type_the_links_alike(self, tmp_path):
        """Links connected against the definition are logged in definition
        order, so replay types their endpoints as the primary did."""
        engine = build_literal(DurabilityConfig(tmp_path / "db"))
        try:
            engine.checkpoint()
            engine.connect("cp", engine.get_atom("p", "lone"), engine.get_atom("c", "k3"))
            expected = engine.query(COUNT).rows
            assert expected == (("u", 3), ("v", 3), (None, 1))
            follower = engine.create_follower()
            assert follower.query(COUNT).rows == expected
            assert follower.query(REVERSED).rows == engine.query(REVERSED).rows
        finally:
            engine.close()
        recovered = PrimaEngine.open(tmp_path / "db")
        try:
            assert recovered.query(COUNT).rows == expected
        finally:
            recovered.close()


# ---------------------------------------------------------- plan and cache


def test_plan_codec_round_trips_the_hop():
    engine = build_literal()
    plan = route(engine, FILTERED)
    shipped = plan_to_json(plan)
    decoded = plan_from_json(shipped)
    assert isinstance(decoded, ColumnarAggregatePlan)
    assert decoded.hop == plan.hop == ("cp", "c")
    assert plan_to_json(decoded) == shipped
    single = plan_from_json(plan_to_json(route(engine, "SELECT COUNT(*) FROM p;")))
    assert single.hop is None


def test_statement_cache_serves_the_route():
    engine = build_literal()
    engine.create_atom_type("e", {"name": "string"})
    engine.create_link_type("pe", "p", "e")
    engine.store_atom("e", identifier="e1", name="E1")
    engine.connect("pe", "x", "e1")
    to_c = "SELECT p.grp, COUNT(c) FROM p - c WHERE p.grp = '{}' GROUP BY p.grp;"
    to_e = "SELECT p.grp, COUNT(e) FROM p - e WHERE p.grp = '{}' GROUP BY p.grp;"
    engine.query(to_c.format("u")), engine.query(to_e.format("u"))
    before = engine.maintenance_statistics()
    hit = engine.query(to_c.format("v"))
    after = engine.maintenance_statistics()
    assert after["plan_cache_hits"] == before["plan_cache_hits"] + 1
    assert after["plan_cache_entries"] == before["plan_cache_entries"] == 2
    assert hit.plan_choice.best.hop == ("cp", "c")
    assert hit.rows == (("v", 2),)
    assert hit.counters.molecules_derived == 0
    assert engine.query(to_e.format("u")).plan_choice.best.hop == ("pe", "e")


class TestIneligibleShapes:
    """What the columnar Γ cannot fold keeps the row Γ."""

    @pytest.fixture
    def engine(self):
        engine = build_literal()
        engine.create_atom_type("e", {"name": "string"})
        engine.create_link_type("ce", "c", "e")
        engine.create_atom_type("part", {"name": "string"})
        engine.create_link_type("composition", "part", "part")
        return engine

    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT p.grp, COUNT(e) FROM p - c - e GROUP BY p.grp;",  # multi-hop
            "SELECT p.grp, COUNT(c) FROM p - c WHERE c.name = 'Ck1' GROUP BY p.grp;",  # Σ on c
            "SELECT p.grp, COUNT(c.name) FROM p - c GROUP BY p.grp;",  # component attribute
        ],
    )
    def test_keeps_the_row_aggregate(self, engine, statement):
        assert isinstance(route(engine, statement), AggregatePlan), statement
        assert engine.query(statement).rows == row_rows(engine, statement)

    def test_a_root_index_beats_the_link_pass(self, engine):
        """The route reads every link whatever the root filter keeps, so a
        filter an index answers with a handful of roots stays on the row Γ."""
        for i in range(100):
            engine.store_atom("p", identifier=f"r{i}", name=f"R{i}", grp="v", n=i)
            engine.connect("cp", "k1", f"r{i}")
        statement = "SELECT p.grp, COUNT(c) FROM p - c WHERE p.name = 'Px' GROUP BY p.grp;"
        assert isinstance(route(engine, statement), AggregatePlan)
        assert engine.query(statement).rows == (("u", 2),)
        assert isinstance(route(engine, COUNT), ColumnarAggregatePlan)

    def test_reflexive_use(self, engine):
        """MQL names a reflexive structure only through RECURSIVE, which has
        no Γ; the algebra's renamed use ``part - part@sub`` is a plan."""
        use = MoleculeTypeDescription(
            ["part", "part@sub"], [("composition", "part", "part@sub")]
        )
        plan = AggregatePlan(
            DefinePlan("m", use),
            (AttributeRef("name", "part"),),
            (AggregateSpec("COUNT", component="part@sub", output="count(sub)"),),
        )
        planner = engine.interpreter().planner
        rewritten = columnarize_aggregate(plan, planner.accelerators, planner.statistics)
        assert rewritten.applied_rules == () and rewritten.plan == plan


# ---------------------------------------------------------------- the sweep

NAMES = 4
GROUPS = ("u", "v", None)
STATEMENTS = (
    COUNT,
    "SELECT c.grp, COUNT(*), COUNT(p) FROM c - p GROUP BY c.grp;",
    "SELECT p.grp, COUNT(c), SUM(p.n) FROM p - c WHERE p.grp <> 'u' GROUP BY p.grp;",
)


def build_sweep(durability=None) -> PrimaEngine:
    engine = PrimaEngine(durability=durability)
    engine.create_atom_type("p", {"name": "string", "grp": "string", "n": "integer"})
    engine.create_atom_type("c", {"name": "string", "grp": "string"})
    engine.create_link_type("cp", "c", "p")
    return engine


indices = st.integers(min_value=0, max_value=NAMES - 1)
kinds = st.sampled_from(("p", "c"))
#: How a link is made: MQL INSERT from either root, or two atoms either way.
connects = st.sampled_from(("mql-p", "mql-c", "atoms-pc", "atoms-cp"))
writes = st.one_of(
    st.tuples(st.just("store"), kinds, indices, st.sampled_from(GROUPS)),
    st.tuples(st.just("store"), kinds, indices, st.sampled_from(GROUPS)),
    st.tuples(st.just("link"), indices, indices, connects),
    st.tuples(st.just("link"), indices, indices, connects),
    st.tuples(st.just("unlink"), indices, indices),
    st.tuples(st.just("delete"), kinds, indices, st.booleans()),
)
steps = st.one_of(
    writes,
    st.tuples(st.just("pin")),
    st.tuples(st.just("release"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("begin")),
    st.tuples(st.just("commit")),
    st.tuples(st.just("rollback")),
)


class Writer:
    """Applies the sweep's writes to one engine, by atom *name*; inside a
    ``BEGIN WORK`` session only through MQL."""

    def __init__(self, engine: PrimaEngine) -> None:
        self.engine = engine
        self.database = engine.to_database()

    @property
    def in_session(self) -> bool:
        return self.engine.interpreter().in_transaction

    def atom(self, kind: str, index: int):
        name = f"{kind}{index}"
        for atom in self.database.atyp(kind):
            if atom.get("name") == name:
                return atom
        return None

    def apply(self, step) -> None:
        getattr(self, step[0])(*step[1:])

    def store(self, kind: str, index: int, grp) -> None:
        atom = self.atom(kind, index)
        values = {"name": f"{kind}{index}", "grp": grp}
        if kind == "p":
            values["n"] = index
        if not self.in_session:
            # ``p`` and ``c`` draw from one identifier pool, so a link
            # ``p:x1 — c:x0`` and the root ``p:x0`` share an identifier:
            # where a route told a link's sides apart by identifier, the
            # routes would part.
            identifier = atom.identifier if atom is not None else f"x{index}"
            self.engine.store_atom(kind, identifier=identifier, **values)
            return
        grp = grp or "w"  # MQL has no NULL literal
        name = f"{kind}{index}"
        if atom is None:
            n = f", n: {index}" if kind == "p" else ""
            self.engine.query(f"INSERT {kind} VALUES {{name: '{name}', grp: '{grp}'{n}}};")
        else:
            self.engine.query(
                f"MODIFY {kind} FROM {kind} SET grp = '{grp}' WHERE {kind}.name = '{name}';"
            )

    def link(self, p_index: int, c_index: int, how: str) -> None:
        p, c = self.atom("p", p_index), self.atom("c", c_index)
        if p is None or c is None:
            return
        if how.startswith("atoms") and not self.in_session:
            self.engine.connect("cp", *((p, c) if how == "atoms-pc" else (c, p)))
            return
        # INSERT with an existing ``_id`` at every node only links them.
        root, child = (c, p) if how == "mql-c" else (p, c)
        self.engine.query(
            f"INSERT {root.type_name} - {child.type_name} VALUES "
            f"{{_id: '{root.identifier}', {child.type_name}: {{_id: '{child.identifier}'}}}};"
        )

    def unlink(self, p_index: int, c_index: int) -> None:
        p, c = self.atom("p", p_index), self.atom("c", c_index)
        if self.in_session or p is None or c is None:
            return
        link_type = self.database.ltyp("cp")
        for link in link_type.links_of(p):
            if ("c", c.identifier) in link.endpoints:
                txn = Transaction(self.database)
                txn.begin()
                txn.disconnect("cp", link)
                txn.commit()

    def delete(self, kind: str, index: int, through_mql: bool) -> None:
        atom = self.atom(kind, index)
        if atom is None:
            return
        if through_mql or self.in_session:
            self.engine.query(f"DELETE FROM {kind} WHERE {kind}.name = '{kind}{index}';")
        else:
            self.engine.delete_atom(kind, atom.identifier)


class Sweep(Writer):
    """Head, pins (at most two) and one session over an in-memory engine."""

    def __init__(self) -> None:
        super().__init__(build_sweep())
        self.handles = []  # (handle, {statement: rows at the pin})

    def pin(self) -> None:
        if len(self.handles) >= 2:
            return
        handle = self.engine.snapshot_at()
        expected = {s: row_rows(self.engine, s, handle.snapshot) for s in STATEMENTS}
        self.handles.append((handle, expected))

    def release(self, position: int) -> None:
        if position < len(self.handles):
            self.handles.pop(position)[0].release()

    def begin(self) -> None:
        if not self.in_session:
            self.engine.query("BEGIN WORK;")

    def commit(self) -> None:
        if self.in_session:
            self.engine.query("COMMIT WORK;")

    def rollback(self) -> None:
        if self.in_session:
            self.engine.query("ROLLBACK WORK;")

    def check(self) -> None:
        # At the head, or the session's snapshot with its private writes.
        for statement in STATEMENTS:
            result = self.engine.query(statement)
            assert result.rows == row_rows(self.engine, statement), statement
            if isinstance(result.plan_choice.best, ColumnarAggregatePlan):
                assert result.counters.molecules_derived == 0, statement
        for handle, expected in self.handles:
            for statement in STATEMENTS:
                assert handle.query(statement).rows == expected[statement], statement

    def close(self) -> None:
        self.rollback()
        for handle, _expected in self.handles:
            handle.release()
        assert self.engine.maintenance_report()["pins_active"] == 0


def check_sweep(graph, sequence) -> None:
    sweep = Sweep()
    try:
        for step in graph:
            sweep.apply(step)
        sweep.check()
        for step in sequence:
            sweep.apply(step)
            sweep.check()
    finally:
        sweep.close()


sweep_settings = settings(
    max_examples=40 * STRESS,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
graphs = st.lists(writes, min_size=4, max_size=16)


@sweep_settings
@given(graph=graphs, sequence=st.lists(steps, min_size=1, max_size=14))
def test_every_answer_is_the_row_answer(graph, sequence):
    check_sweep(graph, sequence)


@pytest.mark.slow
@settings(sweep_settings, max_examples=500)
@given(graph=graphs, sequence=st.lists(steps, min_size=1, max_size=24))
def test_every_answer_is_the_row_answer_full(graph, sequence):
    check_sweep(graph, sequence)


def test_the_sweep_reaches_every_case():
    """A pin before a connect and a disconnect, both links' orders, a session
    with private writes and a rollback, deletes through both paths."""
    check_sweep(
        [
            ("store", "p", 0, "u"), ("store", "p", 1, "v"), ("store", "p", 2, None),
            ("store", "c", 0, "u"), ("store", "c", 1, None), ("store", "c", 2, "v"),
            ("link", 0, 0, "atoms-cp"), ("link", 1, 0, "mql-c"), ("link", 2, 1, "atoms-pc"),
        ],
        [
            ("pin",),
            ("link", 0, 2, "mql-p"),
            ("unlink", 0, 0),
            ("pin",),
            ("begin",),
            ("store", "p", 3, "u"),
            ("link", 3, 1, "mql-c"),
            ("delete", "c", 2, True),
            ("rollback",),
            ("release", 0),
            ("begin",),
            ("link", 1, 2, "mql-p"),
            ("store", "c", 2, "u"),
            ("commit",),
            ("delete", "p", 0, False),
            ("delete", "c", 1, True),
        ],
    )


# ---------------------------------------------------- followers and workers


@pytest.fixture(scope="module")
def replicated(tmp_path_factory):
    """One durable engine with a follower and a two-worker pool; the
    examples write into it one after the other."""
    engine = build_sweep(DurabilityConfig(tmp_path_factory.mktemp("component-count")))
    engine.checkpoint()
    follower = engine.create_follower("count")
    engine.process_pool(workers=2)
    yield Writer(engine), follower
    engine.close()


replica_steps = st.one_of(writes, st.tuples(st.just("checkpoint")))


def check_replicas(replicated, sequence) -> None:
    writer, follower = replicated
    engine = writer.engine
    for step in sequence:
        if step[0] == "checkpoint":
            engine.checkpoint()
        else:
            writer.apply(step)
    engine.replication_hub().catch_up_all()
    for statement in STATEMENTS:
        expected = row_rows(engine, statement)
        assert follower.query(statement).rows == expected, statement
        (shipped,) = engine.parallel_query([statement], mode="process")
        assert shipped.rows == expected, statement


@sweep_settings
@given(sequence=st.lists(replica_steps, min_size=1, max_size=10))
def test_follower_and_workers_give_the_row_answer(replicated, sequence):
    check_replicas(replicated, sequence)


@pytest.mark.slow
@settings(sweep_settings, max_examples=500)
@given(sequence=st.lists(replica_steps, min_size=1, max_size=16))
def test_follower_and_workers_give_the_row_answer_full(replicated, sequence):
    check_replicas(replicated, sequence)


# ---------------------------------------------- deletion by endpoint type


def build_shared_identifier() -> PrimaEngine:
    """``p:x`` has no link; ``c:x`` hangs off ``q:q1`` and ``p:y``."""
    engine = PrimaEngine()
    for name in ("p", "q", "c"):
        engine.create_atom_type(name, {"name": "string"})
    engine.create_link_type("pc", "p", "c")
    engine.create_link_type("qc", "q", "c")
    engine.store_atom("p", identifier="x", name="PX")
    engine.store_atom("p", identifier="y", name="PY")
    engine.store_atom("q", identifier="q1", name="Q1")
    engine.store_atom("c", identifier="x", name="CX")
    engine.connect("qc", "q1", "x")
    engine.connect("pc", "y", "x")
    return engine


class TestDeleteByType:
    """Deleting ``p:x`` leaves the links of ``c:x`` alone."""

    def links(self, engine):
        database = engine.to_database()
        return len(database.ltyp("pc")), len(database.ltyp("qc"))

    def test_mql_delete(self):
        engine = build_shared_identifier()
        result = engine.query("DELETE FROM p WHERE p.name = 'PX';")
        assert result.write_summary.links_removed == 0
        assert self.links(engine) == (1, 1)
        (molecule,) = engine.query("SELECT ALL FROM q - c;").to_dicts()
        assert [child["_id"] for child in molecule["c"]] == ["x"]

    def test_engine_delete_atom(self):
        engine = build_shared_identifier()
        assert engine.delete_atom("p", "x") == 0
        assert self.links(engine) == (1, 1)

    def test_transaction_delete_atom(self):
        engine = build_shared_identifier()
        txn = Transaction(engine.to_database())
        txn.begin()
        txn.delete_atom("p", "x")
        txn.commit()
        assert self.links(engine) == (1, 1)
        assert engine.get_atom("p", "x") is None

    def test_the_atoms_own_links_still_go(self):
        engine = build_shared_identifier()
        assert engine.delete_atom("c", "x") == 2
        assert self.links(engine) == (0, 0)


# ------------------------------------------------ endpoint types on writes


#: ``cp`` is defined ``(c, p)``; these connects name ``p:lone`` first.
AGAINST_THE_DEFINITION = ("lone", "k3")
#: COUNT with ``p:lone — c:k3`` added, and after ``p:lone`` is deleted.
WITH_LONE = (("u", 3), ("v", 3), (None, 1))
WITHOUT_LONE = (("u", 3), ("v", 2), (None, 1))


def assert_lone_links_typed(engine, expected) -> None:
    """``p:lone``'s links are typed ``p`` at ``lone``, the database is in
    ``DB*``, both routes count alike, and deleting ``p:lone`` takes exactly
    its links."""
    database = engine.to_database()
    lone = engine.get_atom("p", "lone")
    assert {link.endpoints for link in database.ltyp("cp").links_of(lone)} == expected
    database.validate()
    assert engine.query(COUNT).rows == row_rows(engine, COUNT) == WITH_LONE
    links = len(database.ltyp("cp"))
    result = engine.query("DELETE FROM p WHERE p.name = 'Plone';")
    assert result.write_summary.links_removed == len(expected)
    assert len(database.ltyp("cp")) == links - len(expected)
    database.validate()  # no dangling link left behind
    assert engine.query(COUNT).rows == row_rows(engine, COUNT) == WITHOUT_LONE


class TestIdentifiersEitherWayRound:
    """Bare identifiers are typed by the atom type that stores them, on
    every write path, so deletion and both routes see the same link."""

    LONE_K3 = {(("c", "k3"), ("p", "lone"))}

    def test_engine_connect(self):
        engine = build_literal()
        link = engine.connect("cp", *AGAINST_THE_DEFINITION)
        assert link.given_order == ("k3", "lone")  # what the log records
        assert_lone_links_typed(engine, self.LONE_K3)

    def test_transaction_connect(self):
        engine = build_literal()
        txn = Transaction(engine.to_database())
        txn.begin()
        txn.connect("cp", *AGAINST_THE_DEFINITION)
        txn.commit()
        assert_lone_links_typed(engine, self.LONE_K3)

    def test_database_connect_and_bulk_load(self):
        database = build_literal().to_database().copy()
        database.connect("cp", *AGAINST_THE_DEFINITION)
        assert_lone_links_typed(PrimaEngine.from_database(database), self.LONE_K3)

    def test_identifiers_stored_neither_way_keep_definition_order(self):
        engine = build_literal()
        link = engine.connect("cp", "lone", "nowhere")
        assert link.endpoints == (("c", "lone"), ("p", "nowhere"))
        assert not engine.to_database().is_valid()

    def test_validate_checks_each_endpoint_in_its_own_type(self):
        """A link type typing bare identifiers by position (it has no
        database to look in) can put ``p:lone`` under ``c``: not in DB*."""
        database = build_literal().to_database().copy()
        database.ltyp("cp").connect(*AGAINST_THE_DEFINITION)
        assert not database.is_valid()

    def test_recovery_types_pairs_logged_the_other_way_round(self, tmp_path):
        """Logs and images may hold a pair in the order it was given rather
        than in definition order; replay places it by where its identifiers
        are stored."""
        config = DurabilityConfig(tmp_path / "db")
        engine = build_literal(config)
        engine.checkpoint()
        generation = engine.generation
        engine.close()
        image = json.loads(config.checkpoint_path.read_text(encoding="utf-8"))
        (cp,) = [entry for entry in image["link_types"] if entry["name"] == "cp"]
        cp["links"].append(["lone", "k3"])
        config.checkpoint_path.write_text(json.dumps(image), encoding="utf-8")
        wal = WriteAheadLog(config.wal_path)
        wal.commit_events([{"e": "lc", "t": "cp", "f": "lone", "s": "k1", "g": generation + 1}])
        wal.close()
        recovered = PrimaEngine.open(tmp_path / "db")
        try:
            recovered.connect("cp", "k1", "lone")  # already there: a no-op
            assert_lone_links_typed(
                recovered, {(("c", "k3"), ("p", "lone")), (("c", "k1"), ("p", "lone"))}
            )
        finally:
            recovered.close()


def test_walk_tells_sides_by_type():
    """Root ``p:x``, link ``c:x — p:y``, atom ``c:y``: ``p:x`` has no
    component, on either route, on the molecule stream, and seen upward
    from ``c:y``."""
    engine = PrimaEngine()
    engine.create_atom_type("p", {"name": "string"})
    engine.create_atom_type("c", {"name": "string"})
    engine.create_link_type("pc", "p", "c")
    for kind in ("p", "c"):
        for identifier in ("x", "y"):
            engine.store_atom(kind, identifier=identifier, name=f"{kind}{identifier}")
    engine.connect("pc", "y", "x")
    count = "SELECT p.name, COUNT(c) FROM p - c GROUP BY p.name;"
    assert isinstance(route(engine, count), ColumnarAggregatePlan)
    assert engine.query(count).rows == row_rows(engine, count) == (("px", 0), ("py", 1))
    molecules = {
        molecule["_id"]: [child["_id"] for child in molecule.get("c", ())]
        for molecule in engine.query("SELECT ALL FROM p - c;").to_dicts()
    }
    assert molecules == {"x": [], "y": ["x"]}
    assert engine.query("SELECT ALL FROM p - c WHERE c.name = 'cy';").to_dicts() == []
