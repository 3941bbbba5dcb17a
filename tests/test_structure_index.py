"""Interval-encoded structure index: correctness, maintenance, and planner wiring.

The structure index answers recursive closures with pre/post-interval range
scans (tree mode) or a compact-adjacency sweep (DAG/cycle mode) instead of
the hop-by-hop fixpoint loop.  Everything here is a parity obligation: the
accelerated path must return byte-identical molecules to the fixpoint path —
live at the head, inside BEGIN WORK transactions, and at pinned snapshot
generations — while the planner surfaces the choice through EXPLAIN.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.attributes import AtomTypeDescription, AttributeDescription
from repro.exceptions import StorageError, UnknownNameError
from repro.storage.engine import PrimaEngine
from repro.storage.index import GridIndex
from repro.storage.accelerators import AcceleratorStore
from repro.storage.structure_index import StructureIndex

RECURSIVE_ALL = "SELECT ALL FROM RECURSIVE part [composition] DOWN;"
RECURSIVE_UP = "SELECT ALL FROM RECURSIVE part [composition] UP;"
#: Selects p8: its six ancestors-or-self are the only qualifying roots.
SELECTIVE = (
    "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = 'P008';"
)

#: A small BOM forest: two roots, branching, one deep chain under p3.
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


def part_description() -> AtomTypeDescription:
    return AtomTypeDescription(
        [
            AttributeDescription("part_no", "string"),
            AttributeDescription("kind", "string"),
            AttributeDescription("cost", "integer"),
        ]
    )


def build_engine(edges=TREE_EDGES, parts=12, index=True, durability=None) -> PrimaEngine:
    engine = PrimaEngine(durability=durability)
    engine.create_atom_type("part", part_description())
    engine.create_link_type("composition", "part", "part")
    for i in range(parts):
        engine.store_atom(
            "part",
            identifier=f"p{i}",
            part_no=f"P{i:03d}",
            kind="assembly" if i % 3 == 0 else "piece",
            cost=i * 10,
        )
    for parent, child in edges:
        engine.connect("composition", parent, child)
    if index:
        engine.create_structure_index("part", "composition", "down")
    return engine


def canonical(result):
    """Order-independent form of a recursive result set.

    Atoms are keyed by their ``part_no`` value rather than their identifier:
    the surrogate counter is process-global, so two equivalent engines assign
    different auto-identifiers to MQL-inserted atoms.
    """
    entries = []
    for molecule in result.molecules:
        names = {atom.identifier: atom.get("part_no") for atom in molecule.atoms}
        entries.append(
            (
                names[molecule.root_atom.identifier],
                frozenset(names.values()),
                frozenset(
                    tuple(sorted(names[identifier] for identifier in link.identifiers))
                    for link in molecule.links
                ),
                tuple(
                    sorted((names[identifier], level) for identifier, level in molecule.levels.items())
                ),
            )
        )
    return sorted(entries)


def assert_parity(accelerated: PrimaEngine, baseline: PrimaEngine, statement: str):
    left = accelerated.query(statement)
    right = baseline.query(statement)
    assert canonical(left) == canonical(right)
    return left


# ------------------------------------------------------------------ unit level


class TestStructureIndexUnit:
    def test_tree_mode_range_scan(self):
        engine = build_engine()
        index = StructureIndex(("part", "composition", "down"))
        index.refresh(engine.to_database())
        assert index.tree
        members, links = index.closure("p0")
        identifiers = [identifier for identifier, _level, _link in members]
        assert identifiers[0] == "p0"
        assert set(identifiers) == {"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8"}
        levels = {identifier: level for identifier, level, _ in members}
        assert levels["p0"] == 0 and levels["p8"] == 5
        assert len(links) == 8

    def test_max_depth_bound(self):
        engine = build_engine()
        index = StructureIndex(("part", "composition", "down"))
        index.refresh(engine.to_database())
        members, _links = index.closure("p0", max_depth=1)
        assert {identifier for identifier, _l, _k in members} == {"p0", "p1", "p2"}

    def test_dag_falls_to_graph_mode(self):
        engine = build_engine(edges=TREE_EDGES + [("p2", "p3")], index=False)
        index = StructureIndex(("part", "composition", "down"))
        index.refresh(engine.to_database())
        assert not index.tree
        members, _links = index.closure("p2")
        assert "p6" in {identifier for identifier, _l, _k in members}

    def test_cycle_detected_on_rebuild(self):
        engine = build_engine(edges=TREE_EDGES + [("p8", "p0")], index=False)
        index = StructureIndex(("part", "composition", "down"))
        index.refresh(engine.to_database())
        assert not index.tree
        members, _links = index.closure("p3")
        # The cycle makes every chain member reachable, including back to p0.
        assert "p0" in {identifier for identifier, _l, _k in members}

    def test_incremental_leaf_graft_keeps_encoding(self):
        engine = build_engine()
        index = StructureIndex(("part", "composition", "down"))
        index.refresh(engine.to_database())
        builds = index.builds
        engine.store_atom("part", identifier="p99", part_no="P099", kind="piece", cost=0)
        engine.connect("composition", "p8", "p99")
        # Drive the index directly: a fresh atom plus a leaf graft patch in place.
        from repro.core.events import ATOM_INSERTED, LINK_CONNECTED, ChangeEvent

        db = engine.to_database()
        atom = db.atyp("part").get("p99")
        link = next(
            link
            for link in db.ltyp("composition")
            if link.identifiers == frozenset({"p8", "p99"})
        )
        index.apply_event(ChangeEvent(ATOM_INSERTED, "part", atom=atom))
        index.apply_event(ChangeEvent(LINK_CONNECTED, "composition", link=link))
        assert not index.stale
        assert index.builds == builds
        members, _links = index.closure("p7")
        assert {identifier for identifier, _l, _k in members} == {"p7", "p8", "p99"}

    def test_subtree_graft_marks_stale(self):
        engine = build_engine()
        index = StructureIndex(("part", "composition", "down"))
        index.refresh(engine.to_database())
        from repro.core.events import LINK_CONNECTED, ChangeEvent

        engine.connect("composition", "p5", "p9")  # p9 has a subtree (p10)
        db = engine.to_database()
        link = next(
            link
            for link in db.ltyp("composition")
            if link.identifiers == frozenset({"p5", "p9"})
        )
        index.apply_event(ChangeEvent(LINK_CONNECTED, "composition", link=link))
        assert index.stale
        assert index.gap_events >= 1
        assert index.closure("p0") is None  # stale indexes refuse to answer

    def test_store_registration_validation(self):
        store = AcceleratorStore()
        with pytest.raises(StorageError):
            store.register("part", "composition", "sideways")
        store.register("part", "composition", "down")
        store.register("part", "composition", "down")  # idempotent
        assert store.registered() == (("part", "composition", "down"),)

    def test_engine_rejects_unrelated_link_type(self):
        engine = PrimaEngine()
        engine.create_atom_type("part", part_description())
        engine.create_atom_type(
            "supplier", AtomTypeDescription([AttributeDescription("name", "string")])
        )
        engine.create_link_type("composition", "part", "part")
        engine.create_link_type("supplies", "supplier", "part")
        with pytest.raises(UnknownNameError):
            engine.create_structure_index("part", "nope")
        with pytest.raises(StorageError):
            engine.create_structure_index("supplier", "composition")
        engine.create_structure_index("part", "supplies")  # part is an endpoint


# ----------------------------------------------------------------- query level


class TestAcceleratedQueries:
    def test_full_expansion_parity(self):
        assert_parity(build_engine(), build_engine(index=False), RECURSIVE_ALL)

    def test_up_direction_parity(self):
        accelerated = build_engine()
        accelerated.create_structure_index("part", "composition", "up")
        assert_parity(accelerated, build_engine(index=False), RECURSIVE_UP)

    def test_selective_where_parity_and_pruning(self):
        accelerated = build_engine()
        accelerated.query(RECURSIVE_ALL)  # build the index
        result = assert_parity(accelerated, build_engine(index=False), SELECTIVE)
        # Only the six ancestors-or-self of p8 qualify; the other six roots
        # are never enumerated, let alone materialized.
        assert len(result.molecules) == 6
        assert result.counters.molecules_derived == 6

    def test_dag_and_cycle_parity(self):
        dag_edges = TREE_EDGES + [("p2", "p3")]
        assert_parity(
            build_engine(edges=dag_edges),
            build_engine(edges=dag_edges, index=False),
            RECURSIVE_ALL,
        )
        cyc_edges = TREE_EDGES + [("p8", "p0")]
        assert_parity(
            build_engine(edges=cyc_edges),
            build_engine(edges=cyc_edges, index=False),
            RECURSIVE_ALL,
        )

    def test_parity_across_dml(self):
        accelerated = build_engine()
        baseline = build_engine(index=False)
        accelerated.query(RECURSIVE_ALL)
        for engine in (accelerated, baseline):
            engine.store_atom("part", identifier="p77", part_no="P077", kind="piece", cost=7)
            engine.connect("composition", "p4", "p77")
            engine.delete_atom("part", "p8")  # drops the p7→p8 link too
        assert_parity(accelerated, baseline, RECURSIVE_ALL)

    def test_parity_inside_transaction(self):
        accelerated = build_engine()
        baseline = build_engine(index=False)
        accelerated.query(RECURSIVE_ALL)
        for engine in (accelerated, baseline):
            engine.query("BEGIN WORK;")
            engine.query("INSERT part VALUES {part_no: 'P500', kind: 'piece', cost: 5};")
        assert_parity(accelerated, baseline, RECURSIVE_ALL)  # uncommitted view
        for engine in (accelerated, baseline):
            engine.query("COMMIT WORK;")
        assert_parity(accelerated, baseline, RECURSIVE_ALL)

    def test_pinned_snapshot_ignores_head_writes(self):
        accelerated = build_engine()
        accelerated.query(RECURSIVE_ALL)
        handle = accelerated.snapshot_at()
        try:
            before = canonical(handle.query(RECURSIVE_ALL))
            accelerated.connect("composition", "p8", "p9")
            # The pinned read must not see the new edge — the store detects
            # the generation mismatch and falls back to the fixpoint loop.
            assert canonical(handle.query(RECURSIVE_ALL)) == before
            assert accelerated.maintenance_report()["structure_snapshot_gaps"] >= 1
        finally:
            handle.release()
        head = canonical(accelerated.query(RECURSIVE_ALL))
        assert head != before

    def test_pinned_reader_ignores_write_between_closure_calls(self):
        """The pin's coherence with the index is re-checked on every store
        call: a head write folded into the shared encoding mid-scan must not
        leak into the roots the pinned reader expands afterwards."""
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        store = engine._accelerators
        original = store.closure
        calls = []

        def closure_racing_a_head_write(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                # An in-place leaf graft: the encoding stays valid (not
                # stale) but now describes a later generation than the pin.
                writer = threading.Thread(
                    target=engine.connect, args=("composition", "p8", "p11")
                )
                writer.start()
                writer.join(timeout=30)
                assert not writer.is_alive()
            return original(*args, **kwargs)

        handle = engine.snapshot_at()
        try:
            before = canonical(handle.query(RECURSIVE_ALL))
            gaps = engine.maintenance_report()["structure_snapshot_gaps"]
            store.closure = closure_racing_a_head_write
            try:
                during = canonical(handle.query(RECURSIVE_ALL))
            finally:
                del store.closure
            assert len(calls) > 2
            assert during == before
            assert engine.maintenance_report()["structure_snapshot_gaps"] > gaps
        finally:
            handle.release()
        assert canonical(engine.query(RECURSIVE_ALL)) != before

    def test_maintenance_report_counters(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        report = engine.maintenance_report()
        assert report["structure_indexes"] == 1
        assert report["structure_builds"] >= 1
        assert report["structure_gap_events"] >= 0
        assert report["structure_generation"] == report["generation"]


class TestRootEnumerationCounters:
    """A selective closure does work proportional to its answer, whoever
    reads: the six qualifying roots are derived and restricted, nothing else
    — at the head, through a pinned snapshot and on a follower, which take
    their candidates from the head's equality indexes and the version chains."""

    @staticmethod
    def assert_answer_sized(result):
        assert sorted(m.root_atom.identifier for m in result.molecules) == [
            "p0", "p1", "p3", "p6", "p7", "p8",
        ]
        assert result.counters.molecules_derived == len(result.molecules) == 6
        assert result.counters.restrictions_evaluated == 6

    def test_head(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        self.assert_answer_sized(engine.query(SELECTIVE))

    def test_pinned_snapshot(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        with engine.snapshot_at() as handle:
            self.assert_answer_sized(handle.query(SELECTIVE))
        assert engine.maintenance_report()["structure_snapshot_gaps"] == 0

    def test_follower(self, tmp_path):
        from repro.storage.wal import DurabilityConfig

        engine = build_engine(durability=DurabilityConfig(tmp_path))
        try:
            engine.query(RECURSIVE_ALL)
            engine.checkpoint()  # followers seed from the image, encoding included
            follower = engine.create_follower()
            self.assert_answer_sized(follower.query(SELECTIVE))
        finally:
            engine.close()

    def test_unselective_conjunct_visits_all_roots(self):
        """No equality conjunct on the recursion type: nothing to enumerate
        from, every root is expanded and restricted as before."""
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        statement = (
            "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.cost > 75;"
        )
        result = assert_parity(engine, build_engine(index=False), statement)
        assert result.counters.molecules_derived == 12
        assert result.counters.restrictions_evaluated == 12


# ------------------------------------------------------------------- planner


class TestPlannerIntegration:
    def test_explain_reports_interval_choice(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        explanation = engine.query("EXPLAIN " + RECURSIVE_ALL).explanation
        assert "accelerate_recursion" in explanation
        assert "interval scan" in explanation
        assert "interval index part via composition down" in explanation
        assert "sample intervals" in explanation

    def test_explain_reports_observed_depth_and_closure(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        explanation = engine.query("EXPLAIN " + RECURSIVE_ALL).explanation
        assert "observed depth" in explanation
        assert "closure ≈" in explanation

    def test_explain_without_observations_reports_bounds(self):
        engine = build_engine(index=False)
        explanation = engine.query("EXPLAIN " + RECURSIVE_ALL).explanation
        assert "no observed runs yet" in explanation
        assert "estimated depth ≤" in explanation

    def test_explain_reports_root_access(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        selective = engine.query("EXPLAIN " + SELECTIVE)
        assert "root access: ancestor walk from ≈ 1 candidate of 1" in selective.explanation
        unrestricted = engine.query("EXPLAIN " + RECURSIVE_ALL)
        assert "root access: all roots" in unrestricted.explanation
        # Enumerating six roots is costed below expanding all twelve.
        assert selective.plan_choice.optimized_cost < unrestricted.plan_choice.optimized_cost
        # Two kinds over twelve parts: still enumerable, but the walks from
        # half the type reach every root — the estimate grows accordingly.
        by_kind = engine.query(
            "EXPLAIN SELECT ALL FROM RECURSIVE part [composition] DOWN "
            "WHERE part.kind = 'assembly';"
        )
        assert "ancestor walk from ≈ 6 candidates" in by_kind.explanation
        assert selective.plan_choice.optimized_cost < by_kind.plan_choice.optimized_cost

    def test_interval_plan_estimated_cheaper(self):
        engine = build_engine()
        engine.query(RECURSIVE_ALL)
        choice = engine.query("EXPLAIN " + RECURSIVE_ALL).plan_choice
        assert choice.optimized_cost < choice.original_cost
        assert "accelerate_recursion" in choice.applied_rules


# ------------------------------------------------------------------ grid index


class TestGridIndex:
    def test_requires_two_attributes(self):
        with pytest.raises(StorageError):
            GridIndex("part", ["part_no"])

    def test_exact_and_partial_lookup(self):
        engine = build_engine(index=False)
        grid = GridIndex("part", ["kind", "cost"])
        for atom in engine.to_database().atyp("part"):
            grid.insert(atom)
        exact = grid.lookup({"kind": "assembly", "cost": 0})
        assert exact == {"p0"}
        partial = grid.lookup({"kind": "assembly"})
        assert partial == {"p0", "p3", "p6", "p9"}
        with pytest.raises(StorageError):
            grid.lookup({"nope": 1})

    def test_remove(self):
        engine = build_engine(index=False)
        grid = GridIndex("part", ["kind", "cost"])
        for atom in engine.to_database().atyp("part"):
            grid.insert(atom)
        grid.remove("p0")
        assert grid.lookup({"kind": "assembly", "cost": 0}) == set()
        assert "p0" not in grid

    def test_composite_predicate_uses_grid(self):
        engine = build_engine(index=False)
        statement = (
            "SELECT ALL FROM part WHERE part.kind = 'assembly' AND part.cost = 30;"
        )
        result = engine.query(statement)
        assert [m.root_atom.identifier for m in result.molecules] == ["p3"]
        # The composite equality pair resolves through one grid cell, not a
        # full scan: exactly one candidate is materialized.
        assert result.counters.molecules_derived == 1


# ------------------------------------------------------------------ durability


class TestDurability:
    def test_wal_replay_restores_registration(self, tmp_path):
        from repro.storage.wal import DurabilityConfig

        config = DurabilityConfig(tmp_path)
        durable = PrimaEngine(durability=config)
        durable.create_atom_type("part", part_description())
        durable.create_link_type("composition", "part", "part")
        durable.create_structure_index("part", "composition")
        reopened = PrimaEngine(durability=DurabilityConfig(tmp_path))
        assert reopened._accelerators.registered() == (
            ("part", "composition", "down"),
        )

    def test_checkpoint_restores_registration(self, tmp_path):
        from repro.storage.wal import DurabilityConfig

        durable = PrimaEngine(durability=DurabilityConfig(tmp_path))
        durable.create_atom_type("part", part_description())
        durable.create_link_type("composition", "part", "part")
        durable.create_structure_index("part", "composition", "up")
        durable.checkpoint()
        reopened = PrimaEngine(durability=DurabilityConfig(tmp_path))
        assert reopened._accelerators.registered() == (
            ("part", "composition", "up"),
        )


# ------------------------------------------------------------ property-based


relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def bom_shapes(draw):
    """A random BOM edge list over n parts: forests, DAGs, or cyclic tangles."""
    n = draw(st.integers(min_value=2, max_value=14))
    n_edges = draw(st.integers(min_value=0, max_value=min(20, n * 2)))
    edges = []
    seen = set()
    for _ in range(n_edges):
        parent = draw(st.integers(min_value=0, max_value=n - 1))
        child = draw(st.integers(min_value=0, max_value=n - 1))
        if (parent, child) in seen:
            continue
        seen.add((parent, child))
        edges.append((f"p{parent}", f"p{child}"))
    return n, edges


@relaxed
@given(shape=bom_shapes(), direction=st.sampled_from(["down", "up"]))
def test_random_shapes_parity(shape, direction):
    n, edges = shape
    accelerated = build_engine(edges=edges, parts=n, index=False)
    accelerated.create_structure_index("part", "composition", direction)
    baseline = build_engine(edges=edges, parts=n, index=False)
    statement = (
        f"SELECT ALL FROM RECURSIVE part [composition] {direction.upper()};"
    )
    assert_parity(accelerated, baseline, statement)


@relaxed
@given(
    shape=bom_shapes(),
    grafts=st.lists(
        st.tuples(st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13)),
        max_size=4,
    ),
    in_transaction=st.booleans(),
)
def test_random_shapes_parity_under_dml(shape, grafts, in_transaction):
    n, edges = shape
    accelerated = build_engine(edges=edges, parts=n, index=False)
    accelerated.create_structure_index("part", "composition", "down")
    baseline = build_engine(edges=edges, parts=n, index=False)
    accelerated.query(RECURSIVE_ALL)  # build before mutating
    if in_transaction:
        accelerated.query("BEGIN WORK;")
        baseline.query("BEGIN WORK;")
    applied = set(map(tuple, edges))
    for parent, child in grafts:
        edge = (f"p{parent % n}", f"p{child % n}")
        if edge in applied:
            continue
        applied.add(edge)
        for engine in (accelerated, baseline):
            engine.connect("composition", *edge)
    assert_parity(accelerated, baseline, RECURSIVE_ALL)
    if in_transaction:
        accelerated.query("COMMIT WORK;")
        baseline.query("COMMIT WORK;")
        assert_parity(accelerated, baseline, RECURSIVE_ALL)


@relaxed
@given(shape=bom_shapes())
def test_random_shapes_snapshot_parity(shape):
    n, edges = shape
    accelerated = build_engine(edges=edges, parts=n, index=False)
    accelerated.create_structure_index("part", "composition", "down")
    baseline = build_engine(edges=edges, parts=n, index=False)
    accelerated.query(RECURSIVE_ALL)
    acc_handle = accelerated.snapshot_at()
    base_handle = baseline.snapshot_at()
    try:
        accelerated.store_atom("part", identifier="pX", part_no="PX", kind="piece", cost=1)
        baseline.store_atom("part", identifier="pX", part_no="PX", kind="piece", cost=1)
        assert canonical(acc_handle.query(RECURSIVE_ALL)) == canonical(
            base_handle.query(RECURSIVE_ALL)
        )
    finally:
        acc_handle.release()
        base_handle.release()


def brute_force_roots(index, candidate_sets, max_depth):
    """``{r : closure(r, max_depth) meets every set}`` by exhaustive testing;
    a root the encoding does not know has the closure ``{r}``."""

    def members(root):
        pair = index.closure(root, max_depth)
        return {root} if pair is None else {member for member, _l, _k in pair[0]}

    universe = set(index._nodes).union(*candidate_sets)
    return {
        root
        for root in universe
        if all(members(root) & set(candidates) for candidates in candidate_sets)
    }


@relaxed
@given(
    shape=bom_shapes(),
    direction=st.sampled_from(["down", "up"]),
    max_depth=st.sampled_from([None, 0, 1, 3]),
    grafts=st.lists(
        st.tuples(st.integers(min_value=0, max_value=13), st.integers(min_value=0, max_value=13)),
        max_size=3,
    ),
    in_transaction=st.booleans(),
    picks=st.lists(
        st.lists(st.integers(min_value=0, max_value=14), min_size=1, max_size=3),
        min_size=1,
        max_size=2,
    ),
)
def test_root_enumeration_is_exact(shape, direction, max_depth, grafts, in_transaction, picks):
    n, edges = shape
    accelerated = build_engine(edges=edges, parts=n, index=False)
    accelerated.create_structure_index("part", "composition", direction)
    baseline = build_engine(edges=edges, parts=n, index=False)
    bound = "" if max_depth is None else f" {max_depth}"
    recursion = f"RECURSIVE part [composition] {direction.upper()}{bound}"
    accelerated.query(f"SELECT ALL FROM {recursion};")  # build before mutating
    selective = (
        f"SELECT ALL FROM {recursion} WHERE part.part_no = 'P{picks[0][0] % n:03d}'"
        + (" AND part.kind = 'assembly';" if len(picks) == 2 else ";")
    )
    assert_parity(accelerated, baseline, selective)
    if in_transaction:
        accelerated.query("BEGIN WORK;")
        baseline.query("BEGIN WORK;")
    applied = set(map(tuple, edges))
    for parent, child in grafts:
        edge = (f"p{parent % n}", f"p{child % n}")
        if edge in applied:
            continue
        applied.add(edge)
        for engine in (accelerated, baseline):
            engine.connect("composition", *edge)
    assert_parity(accelerated, baseline, selective)
    if in_transaction:
        accelerated.query("COMMIT WORK;")
        baseline.query("COMMIT WORK;")
        assert_parity(accelerated, baseline, selective)

    # The head index after the DML, against exhaustive containment testing.
    # Picks past the last part (p14 at most) are atoms the encoding never saw.
    index = accelerated._accelerators._indexes[("part", "composition", direction)]
    candidate_sets = [frozenset(f"p{i}" for i in pick) for pick in picks]
    enumerated = index.qualifying_roots(candidate_sets, max_depth)
    if index.stale or not index.tree:
        assert enumerated is None
    else:
        assert enumerated == brute_force_roots(index, candidate_sets, max_depth)
