"""Component-driven molecule access (PR 13).

``MoleculeScan`` seeds its roots from a literal equality conjunct on a
*component* atom type — index lookup, then an upward link walk — and Γ over a
bare α folds the component atoms without assembling molecules.  Both are pure
access-path choices, so everything here is a parity check: the head (index
pool, seeded), a pinned ``snapshot_at()`` handle (the same pool, widened by
the version chains) and the literal α → Σ → Π algebra (``reference.literal``)
must return identical fingerprints, and the work counters must show which
path ran.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.atom import reset_surrogate_counter
from repro.engine.physical import MAX_ENUMERATION_CANDIDATES
from repro.manipulation.transactions import Transaction
from repro.storage.engine import PrimaEngine
from repro.storage.wal import DurabilityConfig

from reference import literal, row

#: A diamond: ``d`` is reached through two parent uses (``b - d`` and ``c - d``).
DIAMOND = "a - (b - d, c - d)"
TYPES = ("a", "b", "c", "d")
LINKS = (("ab", "a", "b"), ("ac", "a", "c"), ("bd", "b", "d"), ("cd", "c", "d"))

#: ``k`` values and their MQL literals; ``1``, ``1.0`` and ``TRUE`` are
#: ``==``-equal and hash alike, so an index bucket and the formula must agree.
VALUES = (None, 0, 1, 1.0, True, 2, "x")
LITERALS = ("0", "1", "1.0", "TRUE", "2", "'x'", "9")


def fingerprint(result) -> str:
    return json.dumps(
        sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())
    )


def build_engine(atoms, links, durability=None) -> PrimaEngine:
    """*atoms*: ``{type: [(k, g), ...]}``; *links*: ``{link type: [(i, j), ...]}``."""
    reset_surrogate_counter()
    engine = PrimaEngine(durability=durability)
    for type_name in TYPES:
        engine.create_atom_type(type_name, {"key": "string", "k": "any", "g": "string"})
    for name, first, second in LINKS:
        engine.create_link_type(name, first, second)
    for type_name, rows in atoms.items():
        for index, (k, g) in enumerate(rows):
            identifier = f"{type_name}{index}"
            engine.store_atom(type_name, identifier=identifier, key=identifier, k=k, g=g)
    for name, first, second in LINKS:
        for i, j in links.get(name, ()):
            engine.connect(name, f"{first}{i}", f"{second}{j}")
    return engine


def assert_same_everywhere(engine: PrimaEngine, statement: str):
    """Head == pinned read == literal algebra; returns the head and the pinned result."""
    head = engine.query(statement)
    with engine.snapshot_at() as handle:
        pinned = handle.query(statement)
    reference = literal(engine.to_database(), statement)
    assert fingerprint(head) == fingerprint(pinned) == fingerprint(reference)
    return head, pinned


# ------------------------------------------------------------ property-based


@st.composite
def meshes(draw):
    sizes = {t: draw(st.integers(min_value=1, max_value=5)) for t in TYPES}
    atoms = {
        t: [
            (draw(st.sampled_from(VALUES)), draw(st.sampled_from(("u", "v"))))
            for _ in range(sizes[t])
        ]
        for t in TYPES
    }
    links = {}
    for name, first, second in LINKS:
        pairs = st.tuples(
            st.integers(min_value=0, max_value=sizes[first] - 1),
            st.integers(min_value=0, max_value=sizes[second] - 1),
        )
        links[name] = draw(st.lists(pairs, max_size=8, unique=True))
    return atoms, links


#: Structure -> its component atom types; ``b`` and ``d`` are in every one.
STRUCTURES = {
    DIAMOND: ("b", "c", "d"),
    "a - b - d": ("b", "d"),
    "a - (b, c - d)": ("b", "c", "d"),
}
#: Conjuncts the scan must not seed from (and root conjuncts it may index).
OTHER_CONDITIONS = (
    "a.g = 'u'",
    "a.k = 1",
    "d.k > 0",
    "NOT d.k = 1",
    "(d.k = 1 OR b.k = 2)",
    "b.k = d.k",
    "d.g = 'v'",
)


@st.composite
def statements(draw):
    structure = draw(st.sampled_from(sorted(STRUCTURES)))
    seedable = st.builds(
        "{}.k = {}".format,
        st.sampled_from(STRUCTURES[structure]),
        st.sampled_from(LITERALS),
    )
    conjuncts = draw(
        st.lists(st.one_of(seedable, st.sampled_from(OTHER_CONDITIONS)), min_size=1, max_size=3)
    )
    return f"SELECT ALL FROM {structure} WHERE {' AND '.join(conjuncts)};"


def check_seeded_scan_is_exact(mesh, statement):
    head, pinned = assert_same_everywhere(build_engine(*mesh), statement)
    # Nothing was written under a pin, so no chain widens the pinned read.
    assert head.counters.molecules_derived == pinned.counters.molecules_derived


fast = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@fast
@given(mesh=meshes(), statement=statements())
def test_seeded_scan_is_exact(mesh, statement):
    check_seeded_scan_is_exact(mesh, statement)


@pytest.mark.slow
@settings(fast, max_examples=500)
@given(mesh=meshes(), statement=statements())
def test_seeded_scan_is_exact_full(mesh, statement):
    check_seeded_scan_is_exact(mesh, statement)


# ------------------------------------------------------------------ counters


def chain_mesh(roots=12):
    """``a_i - b_i - d_(i % 4)`` plus ``a_i - c_i``: every ``d`` is shared by
    three molecules; ``d0.k = 7`` and nothing else is."""
    atoms = {
        "a": [(i, "u" if i % 2 else "v") for i in range(roots)],
        "b": [(i, "u") for i in range(roots)],
        "c": [(i, "v") for i in range(roots)],
        "d": [(7 if i == 0 else i, "u") for i in range(4)],
    }
    links = {
        "ab": [(i, i) for i in range(roots)],
        "ac": [(i, i) for i in range(roots)],
        "bd": [(i, i % 4) for i in range(roots)],
    }
    return atoms, links


LEAF = f"SELECT ALL FROM {DIAMOND} WHERE d.k = 7;"


class TestSeededCounters:
    def test_head_derives_only_the_answer(self):
        engine = build_engine(*chain_mesh())
        for result in assert_same_everywhere(engine, LEAF):
            counters = result.counters
            assert counters.molecules_derived == counters.restrictions_evaluated == len(result) == 3
            # Sorted identifier order, whatever order the walk reached them in.
            assert [m.root_atom.identifier for m in result] == ["a0", "a4", "a8"]

    def test_follower_derives_only_the_answer(self, tmp_path):
        engine = build_engine(*chain_mesh(), durability=DurabilityConfig(tmp_path))
        engine.checkpoint()
        follower = engine.create_follower()
        try:
            result = follower.query(LEAF)
            assert fingerprint(result) == fingerprint(engine.query(LEAF))
            assert result.counters.molecules_derived == len(result) == 3
            assert result.counters.restrictions_evaluated == 3
        finally:
            engine.close()

    def test_formulas_that_must_not_seed(self):
        engine = build_engine(*chain_mesh())
        for condition in ("d.k = 7 OR d.k = 1", "NOT d.k = 7", "d.k = b.k", "d.k > 6"):
            head, _ = assert_same_everywhere(
                engine, f"SELECT ALL FROM {DIAMOND} WHERE {condition};"
            )
            assert head.counters.molecules_derived == 12, condition

    def test_too_many_candidates_fall_back(self):
        many = MAX_ENUMERATION_CANDIDATES + 1
        atoms = {"a": [(0, "u")] * 3, "b": [(0, "u")] * 3, "d": [(7, "u")] * many}
        links = {"ab": [(i, i) for i in range(3)], "bd": [(0, j) for j in range(many)]}
        engine = build_engine(atoms, links)
        head, _ = assert_same_everywhere(engine, "SELECT ALL FROM a - b - d WHERE d.k = 7;")
        assert [m.root_atom.identifier for m in head] == ["a0"]
        assert head.counters.molecules_derived == 3
        # The rarest conjunct decides: one selective conjunct is enough.
        engine.store_atom("b", identifier="b0", key="b0", k=5, g="u")
        head, _ = assert_same_everywhere(
            engine, "SELECT ALL FROM a - b - d WHERE d.k = 7 AND b.k = 5;"
        )
        assert head.counters.molecules_derived == 1

    def test_smaller_of_root_index_and_component_seed(self):
        engine = build_engine(*chain_mesh())
        # Six roots have g = 'v', one d atom has k = 7: walk up from the one.
        head, _ = assert_same_everywhere(
            engine, f"SELECT ALL FROM {DIAMOND} WHERE a.g = 'v' AND d.k = 7;"
        )
        assert head.plan_choice.applied_rules == ("push_down_restriction",)
        assert [m.root_atom.identifier for m in head] == ["a0", "a4", "a8"]
        assert head.counters.molecules_derived == 3
        # One root has key 'a4', all twelve b atoms have g = 'u': the root
        # index names fewer atoms, so it is used.
        head, _ = assert_same_everywhere(
            engine, f"SELECT ALL FROM {DIAMOND} WHERE a.key = 'a4' AND b.g = 'u';"
        )
        assert head.counters.molecules_derived == 1

    def test_seeded_dml_qualifying_read(self):
        engine = build_engine(*chain_mesh())
        result = engine.query(f"MODIFY a FROM {DIAMOND} SET g = 'hit' WHERE d.k = 7;")
        assert result.write_summary.molecules_affected == 3
        assert result.counters.molecules_derived == 3
        hits = engine.query("SELECT ALL FROM a WHERE a.g = 'hit';")
        assert sorted(m.root_atom.identifier for m in hits) == ["a0", "a4", "a8"]


# --------------------------------------------------------- index maintenance


def roots_of(result):
    return sorted(m.root_atom.get("key") for m in result)


class TestSeededReadsSeeWrites:
    """The ``d.k`` hash index and the network are folded on every write, so a
    seeded read between two writes is never stale."""

    @pytest.mark.parametrize("in_transaction", [False, True])
    def test_component_and_link_writes(self, in_transaction):
        engine = build_engine(*chain_mesh())
        assert roots_of(engine.query(LEAF)) == ["a0", "a4", "a8"]  # builds the index

        def step(statement, expected):
            engine.query(statement)
            # Inside BEGIN WORK the read runs on the session's snapshot plus its
            # own writes (the head index widened by its chains); outside it is the
            # seeded head read.
            assert roots_of(engine.query(LEAF)) == expected
            if not in_transaction:
                assert_same_everywhere(engine, LEAF)

        if in_transaction:
            engine.query("BEGIN WORK;")
        step("MODIFY d FROM d SET k = 7 WHERE d.key = 'd1';", ["a0", "a1", "a4", "a5", "a8", "a9"])
        step("MODIFY d FROM d SET k = 0 WHERE d.key = 'd0';", ["a1", "a5", "a9"])
        step("INSERT d VALUES {key: 'd9', k: 7, g: 'u'};", ["a1", "a5", "a9"])  # no link yet
        (new_d,) = engine.query("SELECT ALL FROM d WHERE d.key = 'd9';").molecules
        step(  # connects a path through the other parent use, c - d
            "INSERT a - c - d VALUES {key: 'a99', k: 0, g: 'u', c: {key: 'c99', k: 0, "
            f"g: 'v', d: {{_id: '{new_d.root_atom.identifier}'}}}}}};",
            ["a1", "a5", "a9", "a99"],
        )
        step("DELETE FROM b WHERE b.key = 'b5';", ["a1", "a9", "a99"])  # disconnects a5
        step("DELETE FROM d WHERE d.key = 'd9';", ["a1", "a9"])
        if in_transaction:
            engine.query("COMMIT WORK;")
            head, _ = assert_same_everywhere(engine, LEAF)
            assert roots_of(head) == ["a1", "a9"]
            assert head.counters.molecules_derived == 2

    def test_basic_interface_connect_and_disconnect(self):
        engine = build_engine(*chain_mesh())
        assert roots_of(engine.query(LEAF)) == ["a0", "a4", "a8"]
        engine.connect("cd", "c2", "d0")
        head, _ = assert_same_everywhere(engine, LEAF)
        assert roots_of(head) == ["a0", "a2", "a4", "a8"]
        database = engine.to_database()
        (link,) = database.ltyp("bd").links_of("b4")
        with Transaction(database) as txn:
            txn.disconnect("bd", link)
        head, _ = assert_same_everywhere(engine, LEAF)
        assert roots_of(head) == ["a0", "a2", "a8"]
        assert head.counters.molecules_derived == 3

    def test_rollback_restores_the_seed(self):
        engine = build_engine(*chain_mesh())
        assert roots_of(engine.query(LEAF)) == ["a0", "a4", "a8"]
        engine.query("BEGIN WORK;")
        engine.query("MODIFY d FROM d SET k = 7 WHERE d.key = 'd2';")
        engine.query("ROLLBACK WORK;")
        head, _ = assert_same_everywhere(engine, LEAF)
        assert roots_of(head) == ["a0", "a4", "a8"]
        assert head.counters.molecules_derived == 3


# ------------------------------------------------------------------ Γ parity


AGGREGATES = (
    "COUNT(d)",
    "COUNT(DISTINCT d.k)",
    "SUM(d.k)",
    "AVG(d.k)",
    "MIN(d.k)",
    "MAX(d.k)",
    "COUNT(b.k)",
)
GAMMA = [
    f"SELECT a.g, {aggregate} FROM {DIAMOND} GROUP BY a.g;" for aggregate in AGGREGATES
] + [
    f"SELECT COUNT(*), {', '.join(AGGREGATES)} FROM {DIAMOND};",
    f"SELECT a.g, COUNT(d), SUM(d.k) FROM {DIAMOND} WHERE a.k > 3 GROUP BY a.g;",
]


def numeric_mesh():
    atoms, links = chain_mesh()
    atoms["d"] = [(7, "u"), (1.5, "u"), (None, "u"), (3, "u")]
    return atoms, links


def molecule_fold(engine, statement):
    """The same Γ folded from assembled molecules: a Σ every molecule passes
    (each has a ``b``) keeps the input from being a bare α."""
    guarded = statement.replace(" GROUP BY", " WHERE b.key <> '' GROUP BY")
    if guarded == statement:
        guarded = statement.replace(";", " WHERE b.key <> '';")
    result = engine.query(guarded)
    assert "Σ [(b.key" in result.plan_choice.explain()
    return result


class TestComponentFold:
    @pytest.mark.parametrize("statement", [s for s in GAMMA if "WHERE" not in s])
    def test_matches_the_molecule_fold(self, statement):
        engine = build_engine(*numeric_mesh())
        folded = engine.query(statement)
        assembled = molecule_fold(engine, statement)
        assert folded.rows == assembled.rows
        # d atoms are shared between molecules of one group: counted once.
        assert folded.counters.molecules_derived == assembled.counters.molecules_derived == 12
        with engine.snapshot_at() as pinned:
            assert fingerprint(pinned.query(statement)) == fingerprint(folded)

    def test_shared_atoms_count_once_per_group(self):
        engine = build_engine(*numeric_mesh())
        result = engine.query(f"SELECT a.g, COUNT(d), SUM(d.k) FROM {DIAMOND} GROUP BY a.g;")
        # Roots alternate v/u; d_(i % 4): the v group reaches d0 and d2, the u
        # group d1 and d3, each through three molecules.
        assert result.to_dicts() == [
            {"a.g": "u", "count(d)": 2, "sum(d.k)": 4.5},
            {"a.g": "v", "count(d)": 2, "sum(d.k)": 7},
        ]

    def test_walks_only_the_referenced_branch(self):
        engine = build_engine(*numeric_mesh())
        # The row walk: on the engine, the pruned one-hop ``a - b`` count
        # is a pass over ``ab`` (tests/test_component_count.py).
        statement = f"SELECT a.g, COUNT(b) FROM {DIAMOND} GROUP BY a.g;"
        result = row(engine, statement)
        assert "prune_structure" in result.plan_choice.applied_rules
        # One b per root: the c and d branches are never entered.
        assert result.counters.atoms_touched == 24
        assert result.counters.links_followed == 12
        assert result.rows == engine.query(statement).rows

    def test_process_pool_and_follower(self, tmp_path):
        engine = build_engine(*numeric_mesh(), durability=DurabilityConfig(tmp_path))
        engine.checkpoint()
        follower = engine.create_follower()
        try:
            serial = [fingerprint(engine.query(s)) for s in GAMMA]
            shipped = engine.parallel_query(GAMMA, mode="process", workers=2)
            assert [fingerprint(r) for r in shipped] == serial
            assert [fingerprint(follower.query(s)) for s in GAMMA] == serial
        finally:
            engine.close()


# ------------------------------------------------------------------- EXPLAIN


class TestExplain:
    def test_costs_and_root_access_without_a_rule(self):
        engine = build_engine(*chain_mesh())
        explanation = engine.query(f"EXPLAIN {LEAF}").explanation
        assert "rules: none" in explanation
        assert "estimated cost 0.0" not in explanation
        assert (
            "root access: upward walk from ≈ 1 d candidate of 1 equality conjunct\n"
            in explanation + "\n"
        )
        assert "pinned" not in explanation
        # Execution keeps the short-circuit: no statistics, no costing.
        assert engine.plan(LEAF).optimized_cost == 0.0

    def test_all_roots_and_root_index(self):
        engine = build_engine(*chain_mesh())
        explain = lambda s: engine.query("EXPLAIN " + s).explanation  # noqa: E731
        assert "root access: all roots" in explain(
            f"SELECT ALL FROM {DIAMOND} WHERE d.k > 6;"
        )
        assert "root access: root index" in explain(
            f"SELECT ALL FROM {DIAMOND} WHERE a.key = 'a4' AND d.k = 7;"
        )
        seeded = engine.query(f"EXPLAIN {LEAF}").plan_choice
        scanned = engine.query(f"EXPLAIN SELECT ALL FROM {DIAMOND} WHERE d.k > 6;").plan_choice
        assert 0 < seeded.optimized_cost < scanned.optimized_cost

    def test_split_push_down_keeps_the_component_conjunct(self):
        engine = build_engine(*chain_mesh())
        choice = engine.plan(f"SELECT ALL FROM {DIAMOND} WHERE a.g = 'v' AND d.k = 7;")
        assert choice.applied_rules == ("push_down_restriction",)
        text = choice.explain()
        assert "Σ [(d.k = 7)]" in text and "[root filter: (a.g = 'v')]" in text

    def test_gamma_prunes_unreferenced_branches(self):
        engine = build_engine(*chain_mesh())
        choice = engine.plan(f"SELECT a.g, COUNT(b) FROM {DIAMOND} GROUP BY a.g;")
        # Pruned to the one hop ``a - b``, which the columnar Γ then folds.
        assert choice.applied_rules == ("prune_structure", "columnarize_aggregate")
        assert "over a + links ab" in choice.explain()
        assert choice.optimized_cost < choice.original_cost
