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
