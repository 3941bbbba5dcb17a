"""The interpreter's statement cache: compile once, run many.

A statement given as text is reduced to its template (every literal in a
value position becomes a slot) and served from the planner's choice for the
template, its literals bound in.  The cache is sound because planning is
literal-invariant; it stays sound because every entry is stamped with what
planning did depend on.  The tests below check the premise (a), the
outcome against a reference that never hits (b), every invalidation (c),
the error surface (d) and concurrent use (e).

The reference is the interpreter's own statement-as-AST entry point, which
plans every statement fresh: the product has no switch to turn the cache
off, and needs none.  ``REPRO_STRESS`` multiplies the sweep's examples and
the concurrent rounds (CI's stress step runs this file with
``REPRO_STRESS=10 REPRO_DEBUG_LOCKS=1``).
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.atom import reset_surrogate_counter
from repro.core.predicates import Comparison, Not
from repro.core.database import Database
from repro.datasets.bill_of_materials import define_bom_schema
from repro.datasets.geography import load_geography
from repro.engine.logical import (
    AggregatePlan,
    ColumnarAggregatePlan,
    IntervalScanPlan,
    RecursivePlan,
    describe_plan,
    map_plan,
)
from repro.exceptions import (
    DomainError,
    MADError,
    ManipulationError,
    MQLSemanticError,
    StorageError,
)
from repro.mql.ast_nodes import Slot
from repro.mql.interpreter import STATEMENT_CACHE_CAPACITY
from repro.mql.parser import parse, template
from repro.mql.lexer import tokenize
from repro.storage.engine import PrimaEngine
from repro.storage.wal import DurabilityConfig

GROUPS = ("alpha", "beta", "gamma")
STRESS = max(1, int(os.environ.get("REPRO_STRESS", "1")))


def build_mesh(per_type: int = 12) -> Database:
    """The harness's ``mesh`` schema in miniature, plus a ``part`` forest."""
    db = define_bom_schema("mesh")
    for type_name in ("t0", "t1", "t2", "t3", "t4"):
        db.define_atom_type(type_name, {"key": "string", "value": "integer", "grp": "string"})
        atom_type = db.atyp(type_name)
        for index in range(per_type):
            identifier = f"{type_name}_{index}"
            values = {"key": identifier, "value": (index * 7) % 10, "grp": GROUPS[index % 3]}
            atom_type.add(values, identifier=identifier)
    for first, second in (("t0", "t1"), ("t0", "t2"), ("t0", "t3"), ("t2", "t4")):
        name = f"l_{first}_{second}"
        db.define_link_type(name, first, second)
        for index in range(per_type):
            for step in (1, 2):
                db.ltyp(name).connect(f"{first}_{index}", f"{second}_{(index * step + step) % per_type}")
    parts, composition = db.atyp("part"), db.ltyp("composition")
    number = 0
    for _chain in range(3):
        parent = None
        for level in range(6):
            number += 1
            identifier = f"P{number:06d}"
            parts.add(
                {"part_no": identifier, "description": f"level {level}", "level": level,
                 "cost": float(number % 5)},
                identifier=identifier,
            )
            if parent is not None:
                composition.connect(parent, identifier)
            parent = identifier
    return db


def fingerprint(result) -> str:
    return json.dumps(sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts()))


def state_of(engine: PrimaEngine) -> str:
    """Every atom and link of the engine's database, canonically."""
    database = engine.to_database()
    atoms = {
        atom_type.name: sorted(
            (atom.identifier, json.dumps(dict(atom.values), sort_keys=True, default=str))
            for atom in atom_type.occurrence
        )
        for atom_type in database.atom_types
    }
    links = {
        link_type.name: sorted(tuple(sorted(link.identifiers)) for link in link_type)
        for link_type in database.link_types
    }
    return json.dumps([atoms, links], sort_keys=True)


def cache(engine: PrimaEngine) -> dict:
    report = engine.maintenance_statistics()
    return {key[len("plan_cache_"):]: value for key, value in report.items() if key.startswith("plan_cache_")}


def fresh(engine: PrimaEngine, text: str):
    """The reference: the same statement planned from scratch."""
    return engine.interpreter().execute(parse(text))


@pytest.fixture()
def engine() -> PrimaEngine:
    return PrimaEngine.from_database(build_mesh())


# ---------------------------------------------------------------- templates


class TestTemplate:
    def test_only_literals_in_value_positions_become_slots(self):
        key, values = template(tokenize(
            "SELECT ALL FROM RECURSIVE part [composition] DOWN 3 "
            "WHERE part.cost >= - 2.5 AND part.part_no = 'P1';"
        ))
        assert values == [2.5, "P1"]
        assert ("number", 3) in [(k[0].value, k[1]) for k in key if isinstance(k, tuple)]
        other, _ = template(tokenize(
            "SELECT ALL FROM RECURSIVE part [composition] DOWN 1 "
            "WHERE part.cost >= - 7 AND part.part_no = 'P2';"
        ))
        assert other != key  # DOWN 3 and DOWN 1 never share an entry

    def test_spacing_comments_and_literal_length_do_not_split_a_template(self):
        first, _ = template(tokenize("SELECT ALL FROM t0 WHERE t0.key = 'x';"))
        second, values = template(tokenize(
            "select all\n  from t0 -- a comment\n where t0.key='a much longer key'  ;"
        ))
        assert first == second and values == ["a much longer key"]

    def test_a_literal_outside_a_value_position_stays_in_the_key(self):
        # Both are syntax errors; neither may share the key of the valid one.
        valid, _ = template(tokenize("SELECT ALL FROM t0 WHERE t0.key = 'x';"))
        for text in ("SELECT ALL FROM 't0' WHERE t0.key = 'x';", "SELECT ALL FROM [t0] WHERE t0.key = 'x';"):
            assert template(tokenize(text))[0] != valid

    def test_object_values_and_set_values_are_slots(self):
        _, values = template(tokenize(
            "INSERT t0 - t2 VALUES {key: 'k', value: -3, grp: 'g', t2: ({key: 'c', value: 1.5, grp: 'h'}, {_id: 't2_1'})};"
        ))
        assert values == ["k", 3, "g", "c", 1.5, "h", "t2_1"]
        _, values = template(tokenize("MODIFY t0 FROM t0 SET value = 4, grp = 'x' WHERE t0.key = 'y';"))
        assert values == [4, "x", "y"]


# ---------------------------------------------------- (a) literal invariance

#: Statement shapes, each with a ``{}`` per literal and two literal vectors:
#: the E-MQL examples (geography) and every shape the harness issues (mesh).
GEOGRAPHY_SHAPES = [
    ("SELECT ALL FROM point - edge - (area - state, net - river) WHERE point.name = {};", ["'pn'"], ["'p2'"]),
    ("SELECT ALL FROM mt_state (state - area - edge - point) WHERE state.hectare > {} "
     "UNION SELECT ALL FROM mt_state (state - area - edge - point) WHERE state.code = {};",
     ["800", "'SP'"], ["10", "'RJ'"]),
    ("SELECT ALL FROM mt_state (state-area-edge-point) DIFFERENCE "
     "SELECT ALL FROM mt_state (state-area-edge-point) WHERE state.hectare > {};", ["800"], ["1"]),
    ("SELECT ALL FROM mt_state (state-area-edge-point) WHERE state.hectare > {} INTERSECT "
     "SELECT ALL FROM mt_state (state-area-edge-point) WHERE state.code = {};", ["800", "'MG'"], ["0", "'XX'"]),
    ("MODIFY state FROM state - area SET hectare = {} WHERE state.code = {};", ["1", "'MG'"], ["5", "'SP'"]),
    ("DELETE FROM state - area - edge - point WHERE state.code = {};", ["'RJ'"], ["'nowhere'"]),
]

MESH_SHAPES = [
    ("SELECT ALL FROM t0 - t2 - t4 WHERE t0.key = {};", ["'t0_1'"], ["'t0_7'"]),
    ("SELECT ALL FROM t0 - (t1, t2 - t4, t3) WHERE t0.key = {};", ["'t0_2'"], ["'missing'"]),
    ("INSERT t0 - t2 VALUES {{key: {}, value: {}, grp: {}, t2: ({{key: {}, value: {}, grp: {}}}, {{_id: {}}})}};",
     ["'n1'", "4", "'alpha'", "'c1'", "5", "'beta'", "'t2_3'"],
     ["'n2'", "9", "'gamma'", "'c2'", "0", "'alpha'", "'t2_8'"]),
    ("MODIFY t0 FROM t0 SET value = {} WHERE t0.key = {};", ["3", "'t0_4'"], ["7", "'t0_9'"]),
    ("DELETE FROM t0 WHERE t0.key = {};", ["'t0_5'"], ["'n1'"]),
    ("SELECT ALL FROM t0 - t2 - t4 WHERE t0.value = {} AND t0.grp = {};", ["4", "'alpha'"], ["9", "'gamma'"]),
    ("SELECT t0, t2 FROM t0 - t2 - t4 WHERE t0.value = {};", ["1"], ["8"]),
    ("SELECT t0.grp, COUNT(*), AVG(t0.value), MAX(t0.value) FROM t0 GROUP BY t0.grp;", [], []),
    ("SELECT t0.value, COUNT(*), MIN(t0.value) FROM t0 WHERE t0.grp = {} GROUP BY t0.value;", ["'beta'"], ["'alpha'"]),
    ("SELECT t0.grp, COUNT(t1) FROM t0 - t1 GROUP BY t0.grp;", [], []),
    ("SELECT ALL FROM t0 - t2 - t4 WHERE t4.value = {};", ["3"], ["6"]),
    ("SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = {};", ["'P000002'"], ["'P000010'"]),
    ("SELECT part.level, COUNT(*), SUM(part.cost) FROM part GROUP BY part.level;", [], []),
    ("SELECT ALL FROM part WHERE part.part_no = {};", ["'P000003'"], ["'P000011'"]),
    ("SELECT ALL FROM part WHERE part.level = {} AND part.cost = {};", ["2", "3.0"], ["4", "1.0"]),
    ("INSERT part VALUES {{part_no: {}, description: 'graft', level: {}, cost: {}}};",
     ["'G1'", "3", "7.0"], ["'G2'", "5", "1.0"]),
    ("MODIFY part FROM part SET cost = {} WHERE part.part_no = {};", ["2.0", "'P000004'"], ["9.0", "'G1'"]),
    ("DELETE FROM part WHERE part.part_no = {};", ["'G1'"], ["'P000009'"]),
]

_NAMES = re.compile(r"mql_result\d+")
_LITERAL = re.compile(r"(?<=[=<>] )(-?\d+(\.\d+)?|'[^']*'|True|False)|mql_result\d+")


def masked(choice) -> tuple:
    """A plan choice with its literals and anonymous result names masked."""
    return (
        _LITERAL.sub("?", describe_plan(choice.original)),
        _LITERAL.sub("?", describe_plan(choice.optimized)),
        choice.original_cost,
        choice.optimized_cost,
        choice.applied_rules,
        type(choice.best).__name__,
    )


def fresh_plan(engine: PrimaEngine, text: str):
    """The planner's choice for a freshly parsed statement (INSERT: none)."""
    ast = parse(text)
    if type(ast).__name__ == "InsertStatement":
        return None
    return engine.interpreter().plan(ast)


@pytest.mark.parametrize(
    "dataset, shape, first, second",
    [pytest.param(load_geography, *case, id=f"geo{index}") for index, case in enumerate(GEOGRAPHY_SHAPES)]
    + [pytest.param(build_mesh, *case, id=f"mesh{index}") for index, case in enumerate(MESH_SHAPES)],
)
def test_planning_is_literal_invariant(dataset, shape, first, second):
    """The soundness condition of the cache: a template plans the same for
    every literal vector; and a hit binds exactly what fresh planning of
    the statement itself would produce."""
    engine = PrimaEngine.from_database(dataset())
    one, two = shape.format(*first), shape.format(*second)
    fresh_one, fresh_two = fresh_plan(engine, one), fresh_plan(engine, two)
    if fresh_one is None:  # INSERT: no read to plan; the write plan is literal-free
        lines = [[_LITERAL.sub("?", line) for line in engine.interpreter().explain(text)] for text in (one, two)]
        assert lines[0] == lines[1]
        return
    assert masked(fresh_one) == masked(fresh_two)
    engine.plan(one)
    hits = cache(engine)["hits"]
    cached_two = engine.plan(two)
    assert cache(engine)["hits"] == hits + 1
    assert masked(cached_two) == masked(fresh_two)
    for cached_plan, fresh_plan_ in (
        (cached_two.original, fresh_two.original),
        (cached_two.optimized, fresh_two.optimized),
    ):
        assert _NAMES.sub("?", describe_plan(cached_plan)) == _NAMES.sub("?", describe_plan(fresh_plan_))


def slots_in(node) -> list:
    """Every slot left in a plan's formulas or in rendered results."""
    found = []

    def formula(item):
        if isinstance(item, Comparison) and isinstance(item.rhs, Slot):
            found.append(item)
        for operand in getattr(item, "operands", ()):
            formula(operand)
        if isinstance(item, Not):
            formula(item.operand)
        return item

    def value(item):
        if isinstance(item, Slot):
            found.append(item)
        elif isinstance(item, dict):
            for entry in item.values():
                value(entry)
        elif isinstance(item, list):
            for entry in item:
                value(entry)

    if node is None:
        return found
    if isinstance(node, list):
        value(node)
    else:
        map_plan(node.original, formula=formula)
        map_plan(node.optimized, formula=formula)
    return found


def test_no_slot_leaves_the_interpreter(engine):
    """Bound plans and results carry this statement's literals, never slots."""
    for shape, literals, _ in MESH_SHAPES:
        text = shape.format(*literals)
        for _ in range(2):  # the miss, then the hit
            result = engine.query(text)
            assert result.statement == text
            assert slots_in(result.plan_choice) == slots_in(result.to_dicts()) == []


# ------------------------------------------------ (b) against a fresh reference

NUMBERS = st.one_of(
    st.sampled_from(["0", "1", "3", "9", "1.0", "2.5", "- 1", "-4", "TRUE", "FALSE", "'1'"]),
    st.integers(min_value=-3, max_value=12).map(str),
)
STRINGS = st.one_of(
    st.sampled_from([
        "'t0_1'", "'t0_3'", "'t0_11'", "'P000002'", "'P000008'", "'alpha'", "'beta'",
        "'SELECT ALL FROM t0'", "'a -- not a comment'", "'semi;colon'", "'two  spaces'",
        "'line\nbreak'", "''", "1", "2.0",
    ]),
    st.sampled_from(["'t0_", "'t2_", "'n"]).flatmap(lambda prefix: st.integers(0, 14).map(lambda n: f"{prefix}{n}'")),
)

#: (template, literal kinds) — ``n`` a number-like, ``s`` a string-like slot.
SWEEP_READS = [
    ("SELECT ALL FROM t0 - t2 - t4 WHERE t0.key = {};", "s"),
    ("SELECT ALL FROM t0 - (t1, t2 - t4, t3) WHERE t0.value = {} OR t0.grp = {};", "ns"),
    ("SELECT t0, t2 FROM t0 - t2 WHERE t2.value >= {} AND t0.grp <> {};", "ns"),
    ("SELECT ALL FROM t0 - t2 - t4 WHERE t4.value = {};", "n"),
    ("SELECT t0.grp, COUNT(*), SUM(t0.value) FROM t0 WHERE t0.value > {} GROUP BY t0.grp;", "n"),
    ("SELECT ALL FROM RECURSIVE part [composition] DOWN 1 WHERE part.part_no = {};", "s"),
    ("SELECT ALL FROM RECURSIVE part [composition] DOWN 3 WHERE part.part_no = {};", "s"),
    ("SELECT ALL FROM t0 WHERE t0.value < {} UNION SELECT ALL FROM t0 WHERE t0.key = {};", "ns"),
    ("SELECT ALL FROM t0 WHERE NOT (t0.value = {}) AND t0.value <= {};", "nn"),
]
SWEEP_WRITES = [
    ("INSERT t0 - t2 VALUES {{key: {}, value: {}, grp: {}, t2: ({{key: {}, value: {}, grp: 'beta'}}, {{_id: 't2_3'}})}};", "snssn"),
    ("MODIFY t0 FROM t0 SET value = {}, grp = {} WHERE t0.key = {};", "nss"),
    ("DELETE FROM t0 WHERE t0.key = {};", "s"),
    ("MODIFY part FROM part SET cost = {} WHERE part.part_no = {};", "ns"),
]


@st.composite
def statements(draw, shapes):
    shape, kinds = draw(st.sampled_from(shapes))
    return shape.format(*(draw(NUMBERS if kind == "n" else STRINGS) for kind in kinds))


@st.composite
def streams(draw):
    ops = []
    for _ in range(draw(st.integers(min_value=4, max_value=28))):
        kind = draw(st.sampled_from(["read"] * 5 + ["write"] * 3 + ["begin", "end", "pin", "pinned", "release"]))
        if kind in ("read", "pinned"):
            ops.append((kind, draw(statements(SWEEP_READS))))
        elif kind == "write":
            ops.append((kind, draw(statements(SWEEP_WRITES))))
        elif kind == "end":
            ops.append((kind, draw(st.sampled_from(["COMMIT WORK;", "ROLLBACK WORK;"]))))
        else:
            ops.append((kind, None))
    return ops


def run_stream(ops, cached: bool):
    """Run *ops* on a fresh engine and record every outcome.  With *cached*
    statements are sent as text (the statement cache), otherwise parsed —
    the reference, planned fresh every time."""
    reset_surrogate_counter()
    engine = PrimaEngine.from_database(build_mesh())

    def send(target, text):
        return target.query(text if cached else parse(text))

    outcomes, handles, in_session = [], [], False
    for kind, text in ops:
        try:
            if kind == "begin":
                if in_session:
                    continue
                outcome = engine.query("BEGIN WORK;").explanation
                in_session = True
            elif kind == "end":
                if not in_session:
                    continue
                in_session = False
                outcome = engine.query(text).explanation
            elif kind == "pin":
                handles.append(engine.snapshot_at())
                outcome = handles[-1].generation
            elif kind == "release":
                if not handles:
                    continue
                handles.pop(0).release()
                outcome = "released"
            elif kind == "pinned":
                if not handles:
                    continue
                outcome = fingerprint(send(handles[-1], text))
            else:
                result = send(engine, text)
                summary = result.write_summary
                outcome = (fingerprint(result), None if summary is None else vars(summary))
        except MADError as error:
            outcome = (type(error).__name__, str(error))
        outcomes.append((kind, text, outcome))
    if in_session:
        engine.query("ROLLBACK WORK;")
    for handle in handles:
        handle.release()
    return outcomes, state_of(engine), cache(engine)


def _sweep(ops):
    expected = run_stream(ops, cached=False)
    got = run_stream(ops, cached=True)
    assert got[0] == expected[0]
    assert got[1] == expected[1]
    assert expected[2]["hits"] == expected[2]["misses"] == 0  # the reference never hits
    sent = sum(1 for kind, _, _ in got[0] if kind in ("read", "write", "pinned"))
    assert got[2]["hits"] + got[2]["misses"] == sent


@settings(max_examples=40 * STRESS, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=streams())
def test_cache_agrees_with_fresh_planning(ops):
    _sweep(ops)


@pytest.mark.slow
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=streams())
def test_cache_agrees_with_fresh_planning_exhaustively(ops):
    _sweep(ops)


def test_a_repeated_stream_is_served_from_the_cache(engine):
    """The harness-like mix: templates planned once, then only hits."""
    texts = [shape.format(*literals) for shape, literals, _ in MESH_SHAPES[:5]]
    for round_ in range(3):
        for text in texts:
            engine.query(text)
    counts = cache(engine)
    assert counts["misses"] == 5 and counts["entries"] == 5
    assert counts["hits"] == 10 and counts["invalidations"] == 0


def test_the_cache_is_bounded(engine):
    """A structural literal is part of the template: every depth bound below
    is a template of its own, and the least recently used ones go."""
    shape = "SELECT ALL FROM RECURSIVE part [composition] DOWN {} WHERE part.part_no = 'P000001';"
    for depth in range(1, STATEMENT_CACHE_CAPACITY + 11):
        engine.query(shape.format(depth))
    assert cache(engine)["entries"] == STATEMENT_CACHE_CAPACITY
    hits = cache(engine)["hits"]
    engine.query(shape.format(STATEMENT_CACHE_CAPACITY + 10))
    engine.query(shape.format(1))  # evicted long ago
    assert cache(engine)["hits"] == hits + 1


def test_a_follower_keeps_its_own_cache_and_the_router_classifies_through_the_primarys(tmp_path):
    engine = PrimaEngine.from_database(build_mesh(), durability=DurabilityConfig(tmp_path / "db"))
    follower = engine.create_follower("f0")
    try:
        shape = "SELECT ALL FROM t0 - t2 WHERE t0.key = 't0_{}';"
        texts = [shape.format(index) for index in range(6)]
        expected = [fingerprint(fresh(engine, text)) for text in texts]
        assert [fingerprint(follower.query(text)) for text in texts] == expected
        assert cache(follower.engine) == {"hits": 5, "misses": 1, "invalidations": 0, "entries": 1}
        assert cache(engine)["hits"] == cache(engine)["misses"] == 0
        routed = engine.parallel_query(texts, mode="replica")
        assert [fingerprint(result) for result in routed] == expected
        assert cache(engine)["hits"] + cache(engine)["misses"] == len(texts)
        assert cache(follower.engine)["hits"] == 5 + len(texts)
    finally:
        follower.close()
        engine.close()


# ------------------------------------------------------------ (c) invalidation


def test_ddl_drops_the_cache(engine):
    text = "SELECT ALL FROM t0 WHERE t0.key = 't0_1';"
    engine.query(text)
    engine.query(text)
    assert cache(engine) == {"hits": 1, "misses": 1, "invalidations": 0, "entries": 1}
    engine.create_atom_type("fresh", {"key": "string"})
    assert cache(engine) == {"hits": 1, "misses": 1, "invalidations": 1, "entries": 0}
    engine.query(text)
    assert cache(engine) == {"hits": 1, "misses": 2, "invalidations": 1, "entries": 1}


def test_a_new_structure_index_replans_a_cached_closure(engine):
    text = "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = '{}';"
    first = engine.query(text.format("P000001"))
    assert isinstance(first.plan_choice.best, RecursivePlan)
    assert isinstance(engine.query(text.format("P000007")).plan_choice.best, RecursivePlan)
    engine.create_structure_index("part", "composition", "down")
    accelerated = engine.query(text.format("P000001"))
    assert isinstance(accelerated.plan_choice.best, IntervalScanPlan)
    assert fingerprint(accelerated) == fingerprint(first)
    assert cache(engine)["invalidations"] >= 1
    assert isinstance(engine.query(text.format("P000013")).plan_choice.best, IntervalScanPlan)


def test_the_columnar_switch_replans_a_cached_aggregate(engine):
    text = "SELECT t0.grp, COUNT(*), SUM(t0.value) FROM t0 WHERE t0.value > {} GROUP BY t0.grp;"
    columnar = engine.query(text.format(2))
    assert isinstance(columnar.plan_choice.best, ColumnarAggregatePlan)
    engine.set_columnar(False)
    rows = engine.query(text.format(2))
    assert isinstance(rows.plan_choice.best, AggregatePlan)
    assert rows.to_dicts() == columnar.to_dicts()
    engine.set_columnar(True)
    assert isinstance(engine.query(text.format(5)).plan_choice.best, ColumnarAggregatePlan)
    assert cache(engine)["invalidations"] == 2


def test_the_statistics_epoch(engine):
    """A type that doubles re-plans its statements once; insert/delete churn
    around a steady size invalidates nothing."""
    engine.create_atom_type("u", {"k": "string", "v": "integer"})
    for index in range(5):
        engine.store_atom("u", f"u{index}", k=f"k{index}", v=index)
    text = "SELECT ALL FROM u WHERE u.k = '{}' AND u.v >= 0;"
    engine.query(text.format("k1"))  # a rule fires: the plan is costed
    engine.query(text.format("k2"))
    before = cache(engine)
    for index in range(5, 10):  # 5 -> 10 atoms: bit_length 3 -> 4, once
        engine.store_atom("u", f"u{index}", k=f"k{index}", v=index)
    for index in range(3):
        engine.query(text.format(f"k{index}"))
    after = cache(engine)
    assert after["invalidations"] - before["invalidations"] == 1
    assert after["misses"] - before["misses"] == 1
    churn = "SELECT ALL FROM t0 - t2 WHERE t0.key = '{}';"
    engine.query(churn.format("t0_1"))
    before = cache(engine)
    for index in range(20):
        engine.query(
            f"INSERT t0 VALUES {{key: 'churn{index}', value: {index % 10}, grp: 'alpha'}};"
        )
        engine.query(f"DELETE FROM t0 WHERE t0.key = 'churn{index}';")
        engine.query(churn.format(f"t0_{index % 12}"))
    after = cache(engine)
    assert after["invalidations"] == before["invalidations"]
    assert after["misses"] == before["misses"] + 2  # the INSERT and DELETE templates


def test_explain_is_never_served_from_the_cache(engine):
    text = "SELECT ALL FROM t0 - t2 WHERE t0.key = 't0_3';"
    engine.query(text)
    before = cache(engine)
    explained = engine.query("EXPLAIN " + text)
    assert "root access" in explained.explanation
    assert cache(engine) == before


def test_recursion_notes_and_dispatch_stay_live(engine):
    """Notes describe the moment, not the plan: a hit reports the recursion
    profile observed by the runs since the template was cached."""
    text = "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = '{}';"
    engine.query(text.format("P000001"))
    engine.query(text.format("P000002"))
    runs = []
    for part in ("P000003", "P000004"):
        note = next(n for n in engine.query(text.format(part)).plan_choice.notes if "observed" in n)
        runs.append(re.search(r"\((\d+) runs\)", note).group(1))
    assert runs[1] == str(int(runs[0]) + 1)


def test_dispatch_advice_is_read_when_the_choice_is_served(engine):
    """A cached choice does not replay the pool telemetry it was planned
    under: ``engine.plan`` asks the advisor again on every hit."""
    planner = engine.interpreter().planner
    text = "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = '{}';"
    notes = []
    for part, backlog in (("P000001", 0), ("P000002", 10 ** 6)):
        planner.dispatch_advisor = lambda backlog=backlog: {"workers": 4, "backlog": backlog}
        choice = engine.plan(text.format(part))
        notes.append(next(note for note in choice.notes if note.startswith("dispatch:")))
    assert "+ 0 backlog records" in notes[0] and "+ 1000000 backlog records" in notes[1]
    assert cache(engine)["hits"] == 1


# ------------------------------------------------------------------ (d) errors


def test_a_semantic_error_raises_the_same_every_time_and_caches_nothing(engine):
    text = "SELECT ALL FROM t0 WHERE t0.nope = 'x';"
    with pytest.raises(MQLSemanticError) as reference:
        fresh(engine, text)
    for _ in range(3):
        with pytest.raises(MQLSemanticError) as raised:
            engine.query(text)
        assert str(raised.value) == str(reference.value)
    assert cache(engine)["entries"] == 0


def test_a_literal_dependent_error_raises_at_execution_and_keeps_the_entry(engine):
    """2.5 is no integer: the domain check fails when the write runs, the
    statement leaves nothing behind, and the template serves 5 next."""
    insert = "INSERT t0 VALUES {{key: 'bad', value: {}, grp: 'alpha'}};"
    modify = "MODIFY t0 FROM t0 SET value = {} WHERE t0.key = 't0_1';"
    before = state_of(engine)
    for template_text in (insert, modify):
        with pytest.raises((DomainError, ManipulationError)) as reference:
            fresh(engine, template_text.format(2.5))
        for _ in range(2):
            with pytest.raises(type(reference.value)) as raised:
                engine.query(template_text.format(2.5))
            assert str(raised.value) == str(reference.value)
        assert state_of(engine) == before
        hits = cache(engine)["hits"]
        assert engine.query(template_text.format(5)).write_summary.molecules_affected == 1
        assert cache(engine)["hits"] == hits + 1
        before = state_of(engine)
    assert engine.query("SELECT ALL FROM t0 WHERE t0.key = 'bad';").to_dicts()[0]["value"] == 5
    assert engine.query("SELECT ALL FROM t0 WHERE t0.key = 't0_1';").to_dicts()[0]["value"] == 5


def test_a_pinned_handle_stays_read_only(engine):
    text = "DELETE FROM t0 WHERE t0.key = 't0_1';"
    engine.query("SELECT ALL FROM t0 WHERE t0.key = 't0_2';")
    with engine.snapshot_at() as handle:
        for statement in (text, text, "BEGIN WORK;", "EXPLAIN " + text):
            with pytest.raises(StorageError, match="read-only"):
                handle.query(statement)
        hits = cache(engine)["hits"]
        handle.query("SELECT ALL FROM t0 WHERE t0.key = 't0_3';")
        assert cache(engine)["hits"] == hits + 1  # the handle shares the cache
    assert len(engine.query("SELECT ALL FROM t0 WHERE t0.key = 't0_1';")) == 1


# ---------------------------------------------------------- (e) concurrency


def test_threads_and_the_head_share_one_template(engine):
    """Two pool threads on a pinned handle and the head on a third thread
    serve one template together: every result is right, and the counters —
    read-modify-writes under the plan lock — lose no update."""
    shape = "SELECT ALL FROM t0 - t2 - t4 WHERE t0.key = 't0_{}';"
    texts = [shape.format(index % 12) for index in range(48)]
    expected = {text: fingerprint(fresh(engine, text)) for text in set(texts)}
    rounds = 3 * STRESS
    failures = []

    def hammer():
        for _ in range(rounds):
            for text in texts:
                if fingerprint(engine.query(text)) != expected[text]:
                    failures.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    head = threading.Thread(target=hammer)
    try:
        head.start()
        for _ in range(rounds):
            results = engine.parallel_query(texts, threads=2)
            assert [fingerprint(r) for r in results] == [expected[t] for t in texts]
    finally:
        head.join(timeout=120)
        sys.setswitchinterval(interval)
    assert not head.is_alive()
    assert failures == []
    counts = cache(engine)
    assert counts["entries"] == 1 and counts["invalidations"] == 0
    assert counts["hits"] + counts["misses"] == 2 * rounds * len(texts)
