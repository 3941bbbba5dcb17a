"""E-PERF3 — algebraic query optimization (§5 outlook) and rule ablations.

Measures the effect of the rewrite rules on molecule queries over a scaled
geography, all running through the streaming logical→physical plan pipeline
(:mod:`repro.engine`): the naive plan (α → Σ → Π, the literal MQL translation)
against the rewritten plan (restriction push-down + structure pruning), plus
one ablation per rule and the full MQL front-to-back path.  Shape checks:
every rewrite preserves the result molecules, and the fully rewritten plan
touches the fewest atoms.  The two component-driven access paths get the same
treatment: a scan seeded from a component equality conjunct and a Γ whose
structure was pruned to the aggregate's branch both touch strictly fewer atoms
than the naive plan and return identical results.
"""

from __future__ import annotations

import pytest
from bench_common import report

from repro import attr
from repro.core.molecule import MoleculeTypeDescription
from repro.engine.executor import Executor
from repro.engine.logical import AggregatePlan, AggregateSpec
from repro.datasets.geography import build_geography, mt_state_description
from repro.mql import MQLInterpreter
from repro.optimizer import (
    DefinePlan,
    Planner,
    ProjectPlan,
    RestrictPlan,
    execute_plan,
)
from repro.optimizer.rules import merge_restrictions, prune_structure, push_down_restriction
from repro.storage.accelerators import AcceleratorStore


def _naive_plan() -> ProjectPlan:
    atom_types, directed_links = mt_state_description()
    description = MoleculeTypeDescription(atom_types, directed_links)
    return ProjectPlan(
        RestrictPlan(DefinePlan("mt_state", description), attr("hectare", "state") > 700),
        ("state", "area"),
    )


@pytest.fixture(scope="module")
def optimizer_db():
    return build_geography(n_states=50, edges_per_state=6, n_rivers=5)


def test_perf3_naive_plan(optimizer_db, benchmark):
    """Baseline: execute the literal α → Σ → Π plan."""
    execution = benchmark(execute_plan, optimizer_db, _naive_plan())

    assert len(execution.molecule_type) > 0
    report(
        "E-PERF3 naive plan",
        [("result molecules", len(execution.molecule_type)),
         ("molecules derived", execution.counters.molecules_derived),
         ("atoms touched", execution.counters.atoms_touched)],
    )


def test_perf3_optimized_plan(optimizer_db, benchmark):
    """The planner's rewritten plan returns the same molecules with less work."""
    planner = Planner(optimizer_db)
    choice = planner.optimize(_naive_plan())

    optimized = benchmark(execute_plan, optimizer_db, choice.optimized)

    naive = execute_plan(optimizer_db, choice.original)
    assert {m.root_atom.identifier for m in optimized.molecule_type} == {
        m.root_atom.identifier for m in naive.molecule_type
    }
    assert optimized.counters.atoms_touched < naive.counters.atoms_touched
    assert "push_down_restriction" in choice.applied_rules
    assert choice.improvement >= 1.0
    report(
        "E-PERF3 optimized plan",
        [("applied rules", ", ".join(choice.applied_rules)),
         ("estimated improvement", f"{choice.improvement:.1f}x"),
         ("atoms touched (naive)", naive.counters.atoms_touched),
         ("atoms touched (optimized)", optimized.counters.atoms_touched)],
    )


def test_perf3_ablation_push_down_only(optimizer_db, benchmark):
    """Ablation: restriction push-down alone already avoids deriving filtered molecules."""
    plan = _naive_plan()
    pushed = push_down_restriction(merge_restrictions(plan).plan).plan

    execution = benchmark(execute_plan, optimizer_db, pushed)

    naive = execute_plan(optimizer_db, plan)
    assert len(execution.molecule_type) == len(naive.molecule_type)
    assert execution.counters.molecules_derived < naive.counters.molecules_derived
    report(
        "E-PERF3 ablation: push-down only",
        [("molecules derived (naive)", naive.counters.molecules_derived),
         ("molecules derived (push-down)", execution.counters.molecules_derived)],
    )


def test_perf3_ablation_prune_only(optimizer_db, benchmark):
    """Ablation: structure pruning alone shrinks every derived molecule."""
    plan = _naive_plan()
    pruned = prune_structure(plan).plan

    execution = benchmark(execute_plan, optimizer_db, pruned)

    naive = execute_plan(optimizer_db, plan)
    assert len(execution.molecule_type) == len(naive.molecule_type)
    assert execution.counters.atoms_touched < naive.counters.atoms_touched
    report(
        "E-PERF3 ablation: prune only",
        [("atoms touched (naive)", naive.counters.atoms_touched),
         ("atoms touched (pruned)", execution.counters.atoms_touched)],
    )


def test_perf3_cost_model_ranks_correctly(optimizer_db, benchmark):
    """The cost model ranks the rewritten plan at or below the naive plan."""
    planner = Planner(optimizer_db)

    choice = benchmark(planner.optimize, _naive_plan())

    assert choice.optimized_cost <= choice.original_cost
    naive = execute_plan(optimizer_db, choice.original)
    optimized = execute_plan(optimizer_db, choice.optimized)
    estimated_better = choice.optimized_cost <= choice.original_cost
    measured_better = optimized.counters.atoms_touched <= naive.counters.atoms_touched
    assert estimated_better == measured_better, "the cost model must rank plans like the measurement"


def test_perf3_mql_statement_through_pipeline(optimizer_db, benchmark):
    """The full MQL path (parse → plan → optimize → stream) beats the literal plan.

    The restriction-push-down query performs measurably fewer atom visits than
    the unoptimized plan variant run through the same executor.
    """
    statement = (
        "SELECT state, area FROM mt_state(state-area-edge-point) WHERE state.hectare > 700;"
    )
    interpreter = MQLInterpreter(optimizer_db)

    result = benchmark(interpreter.execute, statement)

    assert len(result) > 0
    assert "push_down_restriction" in result.plan_choice.applied_rules
    choice = result.plan_choice
    naive = execute_plan(optimizer_db, choice.original)
    assert {m.root_atom.identifier for m in result} == {
        m.root_atom.identifier for m in naive.molecule_type
    }
    assert result.counters.atoms_touched < naive.counters.atoms_touched
    assert result.counters.molecules_derived < naive.counters.molecules_derived
    report(
        "E-PERF3 MQL through the plan pipeline",
        [("applied rules", ", ".join(choice.applied_rules)),
         ("atoms touched (literal plan)", naive.counters.atoms_touched),
         ("atoms touched (optimized MQL)", result.counters.atoms_touched)],
    )


def test_perf3_seeded_scan(optimizer_db, benchmark):
    """A component equality conjunct seeds the roots: only the answer is derived.

    Same plan, two executors: the default one has no index to name the
    matching ``point`` atoms and visits every state; one with an accelerator
    store walks up from the single matching point.
    """
    atom_types, directed_links = mt_state_description()
    description = MoleculeTypeDescription(atom_types, directed_links)
    plan = RestrictPlan(DefinePlan("mt_state", description), attr("name", "point") == "corner-7")
    seeded_executor = Executor(optimizer_db, accelerators=AcceleratorStore())

    seeded = benchmark(seeded_executor.run, plan)

    naive = execute_plan(optimizer_db, plan)
    value = lambda m: (m.root_atom.identifier, m.atom_identifiers)  # noqa: E731
    assert sorted(map(value, seeded.molecule_type)) == sorted(map(value, naive.molecule_type))
    assert len(seeded.molecule_type) == 2  # a corner point lies on one shared border
    assert seeded.counters.molecules_derived == len(seeded.molecule_type)
    assert naive.counters.molecules_derived == len(optimizer_db.atyp("state"))
    assert seeded.counters.atoms_touched < naive.counters.atoms_touched
    report(
        "E-PERF3 seeded scan (point.name = 'corner-7')",
        [("molecules derived (all roots)", naive.counters.molecules_derived),
         ("molecules derived (seeded)", seeded.counters.molecules_derived),
         ("atoms touched (all roots)", naive.counters.atoms_touched),
         ("atoms touched (seeded)", seeded.counters.atoms_touched)],
    )


def test_perf3_gamma_pruned_plan(optimizer_db, benchmark):
    """Under Γ only the aggregate's branch of the structure is walked."""
    atom_types, directed_links = mt_state_description()
    description = MoleculeTypeDescription(atom_types, directed_links)
    plan = AggregatePlan(
        DefinePlan("mt_state", description),
        (attr("code", "state"),),
        (AggregateSpec("COUNT", component="area", output="count(area)"),),
    )
    rewritten = prune_structure(plan)
    assert rewritten.applied_rules == ("prune_structure",)
    executor = Executor(optimizer_db)

    pruned = benchmark(executor.run_aggregate, rewritten.plan)

    naive = executor.run_aggregate(plan)
    assert pruned.rows == naive.rows and len(pruned.rows) == len(optimizer_db.atyp("state"))
    assert pruned.counters.atoms_touched < naive.counters.atoms_touched
    report(
        "E-PERF3 Γ-pruned plan (COUNT(area) GROUP BY state.code)",
        [("atoms touched (naive)", naive.counters.atoms_touched),
         ("atoms touched (pruned)", pruned.counters.atoms_touched)],
    )
