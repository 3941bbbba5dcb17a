"""Unit tests for the streaming plan pipeline: logical IR, physical operators,
executor, EXPLAIN, and the PrimaEngine routing."""

import itertools

import pytest

from repro import attr
from repro.core.molecule import MoleculeTypeDescription
from repro.core.recursion import RecursiveDescription
from repro.engine import (
    DefinePlan,
    Difference,
    ExecutionContext,
    Executor,
    IndexPool,
    Intersection,
    MoleculeScan,
    MoleculeSource,
    Project,
    ProjectPlan,
    RecursivePlan,
    Restrict,
    RestrictPlan,
    SetOpPlan,
    Union,
    canonical_structure,
    compile_plan,
    describe_plan,
    plan_name,
    run_plan,
)
from repro.exceptions import MoleculeGraphError, UnionCompatibilityError
from repro.mql import execute, parse
from repro.mql.ast_nodes import ExplainStatement
from repro.mql.translator import to_logical_plan
from repro.storage import PrimaEngine

from reference import literal


@pytest.fixture()
def state_area_desc():
    return MoleculeTypeDescription(["state", "area"], [("state-area", "state", "area")])


class TestCompileAndRun:
    def test_scan_yields_one_molecule_per_root(self, geo_db, mt_state_desc):
        result = run_plan(geo_db, DefinePlan("mt_state", mt_state_desc))
        assert len(result) == 10
        assert result.molecule_type.name == "mt_state"
        assert result.counters.molecules_derived == 10

    def test_root_filter_skips_derivation(self, geo_db, mt_state_desc):
        filtered = run_plan(
            geo_db, DefinePlan("big", mt_state_desc, attr("hectare", "state") > 800)
        )
        unfiltered = run_plan(geo_db, DefinePlan("all", mt_state_desc))
        assert len(filtered) == 4
        assert filtered.counters.molecules_derived < unfiltered.counters.molecules_derived
        assert filtered.counters.atoms_touched < unfiltered.counters.atoms_touched

    def test_restrict_and_project_compose(self, geo_db, mt_state_desc):
        plan = ProjectPlan(
            RestrictPlan(DefinePlan("mt", mt_state_desc), attr("hectare", "state") > 800),
            ("state", "area"),
        )
        result = run_plan(geo_db, plan)
        assert len(result) == 4
        assert all(len(m) == 2 for m in result)
        assert plan_name(plan) == "mt"

    def test_set_operations_stream(self, geo_db, state_area_desc):
        big = RestrictPlan(DefinePlan("a", state_area_desc), attr("hectare", "state") > 800)
        sp = RestrictPlan(DefinePlan("b", state_area_desc), attr("code", "state") == "SP")
        assert len(run_plan(geo_db, SetOpPlan("UNION", big, sp))) == 5
        assert len(run_plan(geo_db, SetOpPlan("DIFFERENCE", big, sp))) == 4
        assert len(run_plan(geo_db, SetOpPlan("INTERSECT", big, big))) == 4

    def test_incompatible_union_rejected(self, geo_db, mt_state_desc, state_area_desc):
        plan = SetOpPlan(
            "UNION", DefinePlan("a", mt_state_desc), DefinePlan("b", state_area_desc)
        )
        with pytest.raises(UnionCompatibilityError):
            run_plan(geo_db, plan)

    def test_recursive_plan(self):
        from repro.datasets.bill_of_materials import build_bill_of_materials

        bom = build_bill_of_materials(depth=3, fan_out=2)
        plan = RecursivePlan(
            "explosion",
            RecursiveDescription("part", "composition", "down"),
            attr("level", "part") == 0,
        )
        result = run_plan(bom, plan)
        assert len(result) == 1
        assert len(result.molecule_type.occurrence[0]) == 15

    def test_unknown_projection_rejected(self, geo_db, state_area_desc):
        plan = ProjectPlan(DefinePlan("mt", state_area_desc), ("state", "river"))
        with pytest.raises(MoleculeGraphError):
            run_plan(geo_db, plan)

    def test_describe_plan_renders_all_nodes(self, state_area_desc):
        plan = SetOpPlan(
            "UNION",
            ProjectPlan(
                RestrictPlan(DefinePlan("a", state_area_desc), attr("hectare", "state") > 0),
                ("state", "area"),
            ),
            RecursivePlan("r", RecursiveDescription("part", "composition", "down")),
        )
        text = describe_plan(plan)
        for symbol in ("Ω", "Π", "Σ", "α", "α_rec"):
            assert symbol in text


class TestStreaming:
    def test_restrict_pulls_lazily(self, geo_db, state_area_desc):
        """The pipeline is pull-based: taking one result derives few molecules."""
        executor = Executor(geo_db)
        ctx = executor.context()
        stream = executor.stream(
            RestrictPlan(DefinePlan("mt", state_area_desc), attr("hectare", "state") > 0), ctx
        )
        next(stream)
        assert ctx.counters.molecules_derived == 1
        assert ctx.counters.molecules_derived < len(geo_db.atyp("state"))

    def test_difference_materializes_only_right_side(self, geo_db, state_area_desc):
        ctx = ExecutionContext(geo_db)
        left = MoleculeScan("l", state_area_desc)
        right = Restrict(MoleculeScan("r", state_area_desc), attr("hectare", "state") > 800)
        stream = Difference(left, right).execute(ctx)
        first = next(stream)
        # The right side (10 molecules) is materialized; the left side streams
        # only up to the first surviving molecule instead of all 10.
        assert 10 < ctx.counters.molecules_derived < 20
        assert first.root_atom["hectare"] <= 800


class TestIndexedScan:
    def test_equality_root_filter_uses_index_pool(self, geo_db):
        description = MoleculeTypeDescription(
            ["point", "edge"], [("edge-point", "point", "edge")]
        )
        plan = DefinePlan("pn", description, attr("name", "point") == "pn")
        executor = Executor(geo_db, indexes=IndexPool(geo_db))  # immutable-db caller
        result = executor.run(plan)
        assert len(result) == 1
        assert result.counters.index_lookups == 1
        # The transient build is charged, and only the matching root atom is
        # tested against the filter afterwards.
        assert result.counters.atoms_indexed == len(geo_db.atyp("point"))
        assert result.counters.restrictions_evaluated == 1
        # A second run on the same executor reuses the cached index.
        again = executor.run(plan)
        assert again.counters.atoms_indexed == 0

    def test_default_executor_falls_back_to_scan(self, geo_db):
        """Ephemeral executors must not cache indexes over a mutable database."""
        description = MoleculeTypeDescription(
            ["point", "edge"], [("edge-point", "point", "edge")]
        )
        plan = DefinePlan("pn", description, attr("name", "point") == "pn")
        result = run_plan(geo_db, plan)
        assert len(result) == 1
        assert result.counters.index_lookups == 0
        assert result.counters.restrictions_evaluated == len(geo_db.atyp("point"))

    def test_reused_interpreter_sees_database_mutations(self, geo_db):
        """A reused MQLInterpreter over a live database stays consistent."""
        from repro.core.atom import Atom
        from repro.mql import MQLInterpreter

        interpreter = MQLInterpreter(geo_db)
        first = interpreter.execute("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        assert len(first) == 1
        geo_db.atyp("state").add(Atom("state", {"name": "Other SP", "code": "SP", "hectare": 1}))
        second = interpreter.execute("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        assert len(second) == 2


class TestMQLPipeline:
    def test_every_statement_is_optimized_by_default(self, geo_db):
        result = execute(
            geo_db, "SELECT state, area FROM mt_state(state-area-edge-point) WHERE state.hectare > 800;"
        )
        assert result.plan_choice is not None
        assert "push_down_restriction" in result.plan_choice.applied_rules
        assert len(result) == 4

    def test_explain_statement_parses(self):
        ast = parse("EXPLAIN SELECT ALL FROM state-area;")
        assert isinstance(ast, ExplainStatement)

    def test_explain_reports_plans_without_executing(self, geo_db):
        result = execute(
            geo_db,
            "EXPLAIN SELECT state, area FROM mt_state(state-area-edge-point) "
            "WHERE state.hectare > 800;",
        )
        assert len(result) == 0
        assert result.explanation is not None
        assert "original plan" in result.explanation
        assert "optimized plan" in result.explanation
        assert "push_down_restriction" in result.explanation

    def test_explain_result_carries_output_schema(self, geo_db):
        """EXPLAIN's (empty) molecule type has the post-projection structure."""
        explained = execute(
            geo_db, "EXPLAIN SELECT state, area FROM mt_state(state-area-edge-point);"
        )
        executed = execute(
            geo_db, "SELECT state, area FROM mt_state(state-area-edge-point);"
        )
        assert set(explained.molecule_type.description.atom_type_names) == set(
            executed.molecule_type.description.atom_type_names
        ) == {"state", "area"}

    def test_stream_of_incompatible_union_raises_eagerly(self, geo_db, state_area_desc, mt_state_desc):
        operator = Union(
            MoleculeScan("a", mt_state_desc), MoleculeScan("b", state_area_desc)
        )
        with pytest.raises(UnionCompatibilityError):
            operator.execute(ExecutionContext(geo_db))  # before any pull

    def test_to_logical_plan_is_literal(self, geo_db):
        ast = parse("SELECT state, area FROM mt_state(state-area-edge-point) WHERE hectare > 1;")
        plan = to_logical_plan(geo_db, ast)
        assert isinstance(plan, ProjectPlan)
        assert isinstance(plan.child, RestrictPlan)
        assert isinstance(plan.child.child, DefinePlan)
        assert plan.child.child.root_filter is None

    def test_canonical_structure_ignores_propagation_names(self):
        plain = MoleculeTypeDescription(["state", "area"], [("state-area", "state", "area")])
        renamed = MoleculeTypeDescription(
            ["state@mt$1", "area@mt$1"],
            [("state-area~mt$1", "state@mt$1", "area@mt$1")],
        )
        assert canonical_structure(plain) == canonical_structure(renamed)


class TestPrimaEngineRouting:
    @pytest.fixture()
    def prima(self, geo_db):
        return PrimaEngine.from_database(geo_db)

    def test_query_runs_through_planner(self, prima):
        result = prima.query("SELECT ALL FROM state-area WHERE state.hectare > 800;")
        assert len(result) == 4
        assert result.plan_choice is not None

    def test_snapshot_pool_backs_pushed_down_filters(self, prima):
        """The engine's snapshot-bound pool answers equality filters via index."""
        result = prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        assert len(result) == 1
        assert result.counters.index_lookups == 1
        # The same cached interpreter reuses the built index on the next query.
        again = prima.query("SELECT ALL FROM state-area WHERE state.code = 'MG';")
        assert again.counters.atoms_indexed == 0

    def test_interpreter_cache_invalidated_on_write(self, prima):
        before = prima.query("SELECT ALL FROM state-area;")
        prima.store_atom("state", name="Acre", code="AC", hectare=1600)
        prima.store_atom("area", area_id="ac-area", kind="state")
        prima.connect(
            "state-area",
            prima.lookup("state", "code", "AC")[0],
            prima.lookup("area", "area_id", "ac-area")[0],
        )
        after = prima.query("SELECT ALL FROM state-area;")
        assert len(after) == len(before) + 1

    def test_explain_and_escape_hatch(self, prima):
        choice = prima.plan("SELECT state, area FROM mt_state(state-area-edge-point);")
        assert "α" in choice.explain()
        # The literal algebra is the reference the one route is checked against.
        statement = "SELECT ALL FROM state-area;"
        reference = literal(prima.to_database(), statement)
        assert len(reference) == len(prima.query(statement)) == 10

    def test_held_interpreter_sees_writes_coherently(self, prima):
        """A held interpreter observes writes: one coherent, maintained view.

        Incremental cache maintenance folds every write into the snapshot,
        the hash indexes and the atom network in place, so a held
        interpreter and a fresh query answer identically — and the index
        pool's generation proves it kept up with the write stream.  (True
        snapshot isolation for held readers is the MVCC follow-on tracked in
        the ROADMAP.)
        """
        prima.create_index("state", "code")
        held = prima.interpreter()
        before = held.execute("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        assert len(before) == 1
        sp = prima.lookup("state", "code", "SP")[0]
        prima.store_atom("state", identifier=sp.identifier, name=sp["name"], code="XX",
                         hectare=sp["hectare"])
        stale = held.execute("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        assert len(stale) == 0
        renamed = held.execute("SELECT ALL FROM state-area WHERE state.code = 'XX';")
        assert len(renamed) == 1
        fresh = prima.query("SELECT ALL FROM state-area WHERE state.code = 'SP';")
        assert len(fresh) == 0
        report = prima.maintenance_statistics()
        assert report["index_generation"] == report["generation"]
