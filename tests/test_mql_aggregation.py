"""MQL aggregation: edge cases, error paths, and columnar/row parity.

The Γ pipeline has two executions of every eligible aggregate — the columnar
fold over the projection arrays and the row fold over the occurrence — and
the whole design rests on them being byte-identical.  The row answer comes
from ``reference.row``: a plain interpreter over the engine's database, which
has no columnar store.  These tests pin the semantic corners (empty inputs,
all-NULL targets, missing attributes, group keys absent from some atoms,
rolled-back transactions), the translator's rejection surface, and close with
a hypothesis sweep driving random datasets and interleaved DML through both
paths.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.atom import reset_surrogate_counter
from repro.engine.logical import AggregatePlan
from repro.exceptions import MQLSemanticError, MQLSyntaxError
from repro.storage.engine import PrimaEngine

from reference import row


def build_engine() -> PrimaEngine:
    reset_surrogate_counter()
    engine = PrimaEngine()
    engine.create_atom_type(
        "item", {"name": "string", "grp": "string", "val": "real", "qty": "integer"}
    )
    return engine


def seed(engine: PrimaEngine) -> None:
    for i in range(12):
        engine.store_atom(
            "item",
            identifier=f"i{i}",
            name=f"N{i}",
            grp="even" if i % 2 == 0 else "odd",
            val=float(i),
            qty=i % 3,
        )


def rows_of(result) -> list:
    return result.to_dicts()


def fingerprint(result) -> str:
    return json.dumps(
        sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())
    )


GROUPED = (
    "SELECT COUNT(*), SUM(item.val), MIN(item.val), MAX(item.val), AVG(item.val) "
    "FROM item GROUP BY item.grp;"
)
GLOBAL = "SELECT COUNT(*), SUM(item.val), AVG(item.qty) FROM item;"


class TestEdgeCases:
    def test_grouped_aggregate_over_empty_type_yields_no_rows(self):
        engine = build_engine()
        assert rows_of(engine.query(GROUPED)) == []

    def test_global_aggregate_over_empty_type_yields_one_zero_row(self):
        engine = build_engine()
        (row,) = rows_of(engine.query(GLOBAL))
        assert row["count(*)"] == 0
        assert row["sum(item.val)"] is None
        assert row["avg(item.qty)"] is None

    def test_filter_that_excludes_everything(self):
        engine = build_engine()
        seed(engine)
        grouped = GROUPED.replace(" FROM item ", " FROM item WHERE item.val > 1000.0 ")
        assert rows_of(engine.query(grouped)) == []
        (row,) = rows_of(
            engine.query(
                "SELECT COUNT(*), MAX(item.val) FROM item WHERE item.val > 1000.0;"
            )
        )
        assert row["count(*)"] == 0
        assert row["max(item.val)"] is None

    def test_all_null_aggregation_target(self):
        engine = build_engine()
        for i in range(5):
            engine.store_atom("item", identifier=f"n{i}", name=f"N{i}", grp="g")
        (row,) = rows_of(
            engine.query(
                "SELECT COUNT(*), COUNT(item.val), SUM(item.val), MIN(item.val), "
                "AVG(item.val) FROM item GROUP BY item.grp;"
            )
        )
        assert row["count(*)"] == 5
        assert row["count(item.val)"] == 0  # COUNT(attr) skips NULLs
        assert row["sum(item.val)"] is None
        assert row["min(item.val)"] is None
        assert row["avg(item.val)"] is None

    def test_group_key_absent_from_some_atoms_forms_a_null_group(self):
        engine = build_engine()
        seed(engine)
        engine.store_atom("item", identifier="x1", name="X1", val=100.0)
        engine.store_atom("item", identifier="x2", name="X2", val=101.0)
        rows = rows_of(engine.query("SELECT COUNT(*) FROM item GROUP BY item.grp;"))
        by_key = {row["item.grp"]: row["count(*)"] for row in rows}
        assert by_key == {"even": 6, "odd": 6, None: 2}
        # NULL group keys sort last in the canonical row order.
        assert rows[-1]["item.grp"] is None

    def test_component_count_per_group(self):
        engine = build_engine()
        seed(engine)
        rows = rows_of(
            engine.query("SELECT COUNT(*), COUNT(item) FROM item GROUP BY item.grp;")
        )
        for row in rows:
            assert row["count(item)"] == row["count(*)"] == 6

    def test_aggregates_inside_a_rolled_back_transaction(self):
        engine = build_engine()
        seed(engine)
        before = fingerprint(engine.query(GROUPED))
        engine.query("BEGIN WORK;")
        engine.query(
            "INSERT item VALUES {name: 'TX', grp: 'even', val: 999.0, qty: 1};"
        )
        inside = rows_of(engine.query(GROUPED))
        assert inside == rows_of(row(engine, GROUPED))
        even = next(entry for entry in inside if entry["item.grp"] == "even")
        assert even["count(*)"] == 7  # the private write is visible in-tx
        assert even["max(item.val)"] == 999.0
        engine.query("ROLLBACK WORK;")
        assert fingerprint(engine.query(GROUPED)) == before
        # The in-transaction read could not use the shared projection.
        assert engine.maintenance_report()["columnar_fallbacks"] >= 1


class TestUnhashableGroupKeys:
    """``GROUP BY`` over an ``any`` attribute holding lists groups by
    :func:`~repro.core.values.distinct_key`, as DISTINCT does, and renders
    each group's own value."""

    STATEMENT = "SELECT COUNT(*), SUM(p.v) FROM p GROUP BY p.k;"

    def build(self) -> PrimaEngine:
        reset_surrogate_counter()
        engine = PrimaEngine()
        engine.create_atom_type("p", {"k": "any", "v": "integer"})
        for index, key in enumerate(([1], [1], "a", [1, 2], None)):
            engine.store_atom("p", identifier=f"p{index}", k=key, v=index)
        return engine

    def test_columnar_and_row_paths_group_lists(self):
        engine = self.build()
        # Canonical row order: by text ("[1, 2]" < "[1]" < "a"), NULL last.
        expected = [([1, 2], 1, 3), ([1], 2, 1), ("a", 1, 2), (None, 1, 4)]
        assert [tuple(r) for r in engine.query(self.STATEMENT).rows] == expected
        assert [tuple(r) for r in row(engine, self.STATEMENT).rows] == expected

    def test_filtered_and_multi_key_groupings(self):
        engine = self.build()
        for statement in (
            "SELECT COUNT(*) FROM p WHERE p.v < 4 GROUP BY p.k;",
            "SELECT COUNT(*) FROM p GROUP BY p.k, p.v;",
        ):
            assert fingerprint(engine.query(statement)) == fingerprint(row(engine, statement))


class TestValuePostings:
    """The projection's value postings, kept by the writer's fold."""

    AGGREGATE = "SELECT COUNT(*), SUM(t.v) FROM t GROUP BY t.g;"

    def build(self, groups="aabba") -> PrimaEngine:
        reset_surrogate_counter()
        engine = PrimaEngine()
        engine.create_atom_type("t", {"g": "any", "v": "integer"})
        for index, group in enumerate(groups):
            engine.store_atom("t", identifier=f"t{index}", g=group, v=index)
        engine.query(self.AGGREGATE)  # builds the projection and its postings of g
        return engine

    @staticmethod
    def projection(engine: PrimaEngine):
        return engine._accelerators._projections["t"]

    @staticmethod
    def rebuilt(projection, attribute: str = "g"):
        """The postings built from scratch over the projection's arrays."""
        copy = projection.for_pin()
        copy._postings = {}
        return copy.postings(attribute)

    def check(self, engine: PrimaEngine) -> dict:
        """The kept postings equal a rebuild (the kept mixed keys may be
        more: they are only cleared with an emptied posting); the answer
        equals the row Γ."""
        assert fingerprint(engine.query(self.AGGREGATE)) == fingerprint(
            row(engine, self.AGGREGATE)
        )
        projection = self.projection(engine)
        buckets, mixed = projection.postings("g")
        fresh, fresh_mixed = self.rebuilt(projection)
        assert buckets == fresh
        assert fresh_mixed <= mixed
        return buckets

    def test_built_on_first_grouping(self):
        engine = self.build()
        buckets = self.check(engine)
        assert buckets == {"a": {0, 1, 4}, "b": {2, 3}}

    def test_insert_posts_the_new_row(self):
        engine = self.build()
        engine.store_atom("t", identifier="t9", g="c", v=9)
        engine.store_atom("t", identifier="t10", g="a", v=10)
        buckets = self.check(engine)
        assert buckets["c"] == {5}
        assert 6 in buckets["a"]

    def test_modify_that_changes_group_moves_the_row(self):
        engine = self.build()
        engine.store_atom("t", identifier="t2", g="a", v=2)
        engine.store_atom("t", identifier="t3", g="c", v=3)
        buckets = self.check(engine)
        assert "b" not in buckets  # the emptied posting is gone
        assert buckets["a"] == {0, 1, 2, 4}
        assert buckets["c"] == {3}

    def test_modify_that_keeps_the_group_keeps_the_posting(self):
        engine = self.build()
        before = {key: set(rows) for key, rows in self.projection(engine).postings("g")[0].items()}
        engine.store_atom("t", identifier="t1", g="a", v=100)
        assert self.check(engine) == before

    def test_delete_moves_the_last_row_across_postings(self):
        engine = self.build("abbb")
        engine.delete_atom("t", "t0")  # row 0 ("a") takes the last row ("b", row 3)
        projection = self.projection(engine)
        assert projection.identifiers[0] == "t3"
        buckets = self.check(engine)
        assert buckets == {"b": {0, 1, 2}}

    def test_equal_values_rendered_apart_render_alike_after_writes(self):
        engine = self.build((1, True, 1.0, -0.0, 0.0))
        buckets, mixed = self.projection(engine).postings("g")
        assert set(buckets) == {1, 0.0} and mixed == {1, 0.0}
        self.check(engine)
        engine.delete_atom("t", "t1")  # the True row
        engine.delete_atom("t", "t3")  # the -0.0 row
        rows = [tuple(r) for r in engine.query(self.AGGREGATE).rows]
        assert rows == [(0.0, 1, 4), (1.0, 2, 2)]
        self.check(engine)

    def test_value_mutated_in_place_drops_the_postings_not_the_write(self):
        """A stored list a read hands out is the stored object: mutating it
        re-keys the value under the posting that holds its row.  The next
        fold misses the key, drops the postings and still applies the
        write."""
        engine = self.build("ab")
        engine.store_atom("t", identifier="t9", g=[1], v=9)
        engine.query(self.AGGREGATE)
        engine.get_atom("t", "t9")["g"].append(2)
        engine.delete_atom("t", "t9")
        assert self.projection(engine)._postings == {}
        assert self.check(engine) == {"a": {0}, "b": {1}}

    def test_stale_projection_is_rebuilt_with_fresh_postings(self):
        engine = self.build()
        projection = self.projection(engine)
        projection._mark_stale()
        builds = projection.builds
        engine.store_atom("t", identifier="t0", g="b", v=0)  # not folded: stale
        assert projection.postings("g")[0]["a"] == {0, 1, 4}
        assert self.check(engine) == {"a": {1, 4}, "b": {0, 2, 3}}
        assert projection.builds == builds + 1

    def test_pinned_copy_is_not_reached_by_a_later_fold(self):
        engine = self.build()
        with engine.snapshot_at() as pin:
            pinned = pin.query(self.AGGREGATE)
            copy = self.projection(engine).for_pin()
            before = {key: set(rows) for key, rows in copy.postings("g")[0].items()}
            engine.store_atom("t", identifier="t0", g="c", v=0)
            engine.delete_atom("t", "t2")
            assert copy.postings("g")[0] == before
            assert fingerprint(pin.query(self.AGGREGATE)) == fingerprint(pinned)
        assert self.check(engine) == {"a": {1, 2}, "b": {3}, "c": {0}}


class TestParity:
    def queries(self):
        return (
            GROUPED,
            GLOBAL,
            "SELECT COUNT(*), AVG(item.val) FROM item "
            "WHERE item.qty = 1 GROUP BY item.grp;",
        )

    def test_columnar_and_row_paths_agree(self):
        engine = build_engine()
        seed(engine)
        for statement in self.queries():
            reference = row(engine, statement)
            assert isinstance(reference.plan_choice.best, AggregatePlan), statement
            assert fingerprint(engine.query(statement)) == fingerprint(reference), statement
        assert engine.maintenance_report()["columnar_builds"] >= 1

    def test_explain_shows_the_columnar_choice(self):
        engine = build_engine()
        seed(engine)
        engine.query(GROUPED)
        explanation = engine.query("EXPLAIN " + GROUPED).explanation
        assert "columnarize_aggregate" in explanation
        assert "columnar projection item" in explanation


class TestErrors:
    def test_star_is_only_valid_in_count(self):
        engine = build_engine()
        with pytest.raises(MQLSyntaxError):
            engine.query("SELECT SUM(*) FROM item;")

    def test_dotted_select_reference_requires_grouping(self):
        engine = build_engine()
        with pytest.raises((MQLSyntaxError, MQLSemanticError)):
            engine.query("SELECT item.grp, COUNT(*) FROM item GROUP BY item.name;")

    def test_group_by_without_aggregate_is_rejected(self):
        engine = build_engine()
        with pytest.raises((MQLSyntaxError, MQLSemanticError)):
            engine.query("SELECT item.grp FROM item GROUP BY item.grp;")

    def test_group_by_must_reference_the_root(self):
        engine = build_engine()
        engine.create_atom_type("tag", {"label": "string"})
        engine.create_link_type("tagged", "item", "tag")
        with pytest.raises(MQLSemanticError, match="root"):
            engine.query("SELECT COUNT(*) FROM item - tag GROUP BY tag.label;")

    def test_aggregates_cannot_appear_in_set_operations(self):
        engine = build_engine()
        with pytest.raises(MQLSemanticError, match="set operations"):
            engine.query(
                "SELECT COUNT(*) FROM item UNION SELECT COUNT(*) FROM item;"
            )

    def test_aggregation_over_recursive_structures_is_rejected(self):
        engine = build_engine()
        engine.create_link_type("contains", "item", "item")
        with pytest.raises(MQLSemanticError, match="RECURSIVE"):
            engine.query(
                "SELECT COUNT(*) FROM RECURSIVE item [contains] DOWN;"
            )


# ------------------------------------------------------------- random sweeps


@st.composite
def workloads(draw):
    """A random op sequence over a 30-slot identifier space.

    Values may be None (missing attribute) to exercise NULL folds; deletes
    and modifications target arbitrary slots, present or not.
    """
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "modify", "delete"]),
                st.integers(min_value=0, max_value=29),
                st.one_of(
                    st.none(),
                    st.floats(
                        min_value=-1e6, max_value=1e6, allow_nan=False, width=32
                    ),
                ),
                st.sampled_from(["a", "b", "c", None]),
            ),
            min_size=1,
            max_size=30,
        )
    )


@pytest.mark.slow
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(workload=workloads())
def test_random_dml_keeps_columnar_row_parity(workload):
    """Interleaved DML: after every write both paths return identical bytes."""
    engine = build_engine()
    seed(engine)
    live = {f"i{i}" for i in range(12)}
    statements = (
        GROUPED,
        "SELECT COUNT(*), COUNT(item.val), SUM(item.val) FROM item "
        "GROUP BY item.grp;",
        GLOBAL,
    )
    for op, slot, value, group in workload:
        identifier = f"h{slot}"
        if op == "delete":
            if identifier not in live:
                continue
            live.discard(identifier)
            engine.delete_atom("item", identifier)
        else:
            live.add(identifier)
            values = {"name": f"H{slot}"}
            if value is not None:
                values["val"] = value
            if group is not None:
                values["grp"] = group
            engine.store_atom("item", identifier=identifier, **values)
        for statement in statements:
            assert fingerprint(engine.query(statement)) == fingerprint(
                row(engine, statement)
            ), (op, slot, statement)
    # A pinned snapshot of the final state agrees too.
    with engine.snapshot_at() as pin:
        assert fingerprint(pin.query(GROUPED)) == fingerprint(
            row(engine, GROUPED, at=pin.snapshot)
        )


KEYS = (-0.0, 0.0, 1, 1.0, True, None, "a")


@st.composite
def keyed_workloads(draw):
    """Writes over a 12-slot space whose group keys are ``==``-equal values
    rendered apart (``-0.0``/``0.0``, ``1``/``1.0``/``True``), NULL and a
    string; deletes empty groups."""
    return draw(
        st.lists(
            st.tuples(
                st.sampled_from(["store", "store", "delete"]),
                st.integers(min_value=0, max_value=11),
                st.sampled_from(KEYS),
                st.integers(min_value=-3, max_value=3),
            ),
            min_size=1,
            max_size=25,
        )
    )


@pytest.mark.slow
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(workload=keyed_workloads())
def test_postings_keep_columnar_row_parity_over_equal_keys(workload):
    """Γ from the postings (single-key, seeded by an equality, filtered and
    multi-key) renders every group as the row Γ does, after every write."""
    reset_surrogate_counter()
    engine = PrimaEngine()
    engine.create_atom_type("p", {"k": "any", "j": "any", "v": "integer"})
    statements = (
        "SELECT COUNT(*), SUM(p.v), MIN(p.k) FROM p GROUP BY p.k;",
        "SELECT COUNT(*), MAX(p.v) FROM p WHERE p.k = 1 GROUP BY p.j;",
        "SELECT COUNT(*) FROM p WHERE p.k = 0 AND p.v > 0;",
        "SELECT COUNT(*), SUM(p.v) FROM p WHERE p.v >= 0 GROUP BY p.k;",
        "SELECT COUNT(*) FROM p GROUP BY p.k, p.j;",
    )
    live = set()
    for op, slot, key, value in workload:
        identifier = f"p{slot}"
        if op == "delete":
            if identifier not in live:
                continue
            live.discard(identifier)
            engine.delete_atom("p", identifier)
        else:
            live.add(identifier)
            engine.store_atom(
                "p", identifier=identifier, k=key, j=KEYS[slot % len(KEYS)], v=value
            )
        for statement in statements:
            assert fingerprint(engine.query(statement)) == fingerprint(
                row(engine, statement)
            ), (op, slot, key, statement)
    with engine.snapshot_at() as pin:
        for statement in statements:
            assert fingerprint(pin.query(statement)) == fingerprint(
                row(engine, statement, at=pin.snapshot)
            ), statement
