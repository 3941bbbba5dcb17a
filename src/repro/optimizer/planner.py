"""The rule-driven planner: rewrite, cost, choose.

:class:`Planner` takes an initial plan (typically the literal translation of
an MQL statement: α → Σ → Π), applies the rewrite rules, estimates the cost of
both variants, and returns a :class:`PlanChoice`.  The chosen variant runs on
the streaming executor (:mod:`repro.engine.executor`) — this is the pipeline
behind ``MQLInterpreter`` and ``PrimaEngine.query``.  The E-PERF3 benchmark
executes both variants and compares the estimated ranking against the measured
work counters.

Recursive plans get extra treatment: the planner consults the executor's
accelerator store (when one is attached) for the ``accelerate_recursion``
rewrite, costs the fixpoint-vs-interval choice from the observed recursion
profiles in :class:`~repro.optimizer.statistics.DatabaseStatistics`, and
annotates the :class:`PlanChoice` with per-recursion notes — traversal depth,
estimated closure size, and the interval index state — surfaced by
``EXPLAIN``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.database import Database
from repro.engine.executor import Executor
from repro.core.predicates import equality_conjuncts
from repro.engine.logical import (
    AggregatePlan,
    ColumnarAggregatePlan,
    DefinePlan,
    IntervalScanPlan,
    ProjectPlan,
    RestrictPlan,
    SetOpPlan,
    recursive_nodes,
)
from repro.optimizer.plans import PlanExecution, PlanNode, describe_plan
from repro.optimizer.rules import RewriteResult, rewrite
from repro.optimizer.statistics import CostModel, DatabaseStatistics, recursion_profile_key


@dataclass
class PlanChoice:
    """The planner's decision: both plan variants with their estimated costs."""

    original: PlanNode
    optimized: PlanNode
    original_cost: float
    optimized_cost: float
    applied_rules: Tuple[str, ...]
    #: Human-readable planner annotations (recursion depth/closure estimates,
    #: interval index state) rendered by :meth:`explain`.
    notes: Tuple[str, ...] = ()

    @property
    def best(self) -> PlanNode:
        """The cheaper plan according to the cost model."""
        return self.optimized if self.optimized_cost <= self.original_cost else self.original

    @property
    def improvement(self) -> float:
        """Estimated cost ratio original/optimized (>= 1.0 means the rewrite helps)."""
        if self.optimized_cost == 0:
            return float("inf") if self.original_cost > 0 else 1.0
        return self.original_cost / self.optimized_cost

    def explain(self) -> str:
        """Render both plans, the cost estimates, and any planner notes."""
        text = (
            "original plan (estimated cost {:.1f}):\n{}\n"
            "optimized plan (estimated cost {:.1f}, rules: {}):\n{}".format(
                self.original_cost,
                describe_plan(self.original, "  "),
                self.optimized_cost,
                ", ".join(self.applied_rules) or "none",
                describe_plan(self.optimized, "  "),
            )
        )
        if self.notes:
            text += "\n" + "\n".join(self.notes)
        return text


def _decides(applied_rules: Tuple[str, ...], plan: PlanNode) -> bool:
    """Whether costing has something to decide: a rule fired, or the plan
    recurses (fixpoint against interval scan)."""
    return bool(applied_rules) or bool(recursive_nodes(plan))


class Planner:
    """Applies the rewrite rules and picks the cheaper plan.

    When an :class:`~repro.engine.executor.Executor` is supplied its access
    structures (the accelerator store) are reused for execution and
    for the ``accelerate_recursion`` and ``columnarize_aggregate`` rewrites;
    otherwise a transient executor over *database* is created on demand.

    Statistics are collected lazily, on the first optimization where a
    rewrite rule actually fired or a recursive node needs costing (costing
    identical non-recursive plans decides nothing).  Afterwards they can be
    maintained incrementally through :meth:`apply_event` — the storage engine
    subscribes its planner to its database's change events, so occurrence
    counts stay exact across writes (per-attribute distinct-value counts keep
    their collected values, an approximation that only shapes selectivity
    guesses).  Results stay correct either way: ranking drift can never
    change what a plan returns.
    """

    def __init__(self, database: Database, executor: Optional[Executor] = None) -> None:
        self.database = database
        self._statistics: Optional[DatabaseStatistics] = None
        self._cost_model: Optional[CostModel] = None
        self.executor = executor

    @property
    def statistics(self) -> DatabaseStatistics:
        """Occurrence statistics, collected from the database on first use."""
        if self._statistics is None:
            self._statistics = DatabaseStatistics.collect(self.database)
        return self._statistics

    @property
    def cost_model(self) -> CostModel:
        """The cost model over :attr:`statistics` (also lazily created)."""
        if self._cost_model is None:
            self._cost_model = CostModel(self.statistics)
        return self._cost_model

    @property
    def accelerators(self):
        """The executor's accelerator store, consulted by
        ``accelerate_recursion`` and ``columnarize_aggregate``."""
        return getattr(self.executor, "accelerators", None)

    @property
    def statistics_epoch(self) -> int:
        """:attr:`DatabaseStatistics.epoch` — 0 before the first collection
        (a plan chosen before it consulted no statistics)."""
        return self._statistics.epoch if self._statistics is not None else 0

    def apply_event(self, event) -> None:
        """Fold one change event into the collected statistics.

        A no-op before the first collection (there is nothing to maintain
        yet).  The storage engine feeds every write through here, so a
        planner held across mutations keeps ranking on exact occurrence
        counts instead of drifting — without ever re-scanning the database.
        """
        if self._statistics is not None:
            self._statistics.apply_event(event)

    def optimize(self, plan: PlanNode) -> PlanChoice:
        """Rewrite *plan* and return the :class:`PlanChoice` to execute."""
        rewritten = self._rewrite(plan)
        if not _decides(rewritten.applied_rules, rewritten.plan):
            # No rule fired on a non-recursive plan: both variants are the
            # same plan, so collecting statistics and estimating costs would
            # decide nothing.
            return PlanChoice(
                original=plan,
                optimized=rewritten.plan,
                original_cost=0.0,
                optimized_cost=0.0,
                applied_rules=(),
            )
        return self._costed(plan, rewritten)

    def explain(self, plan: PlanNode) -> PlanChoice:
        """The :class:`PlanChoice` for ``EXPLAIN``: always costed — also when
        no rule fired and :meth:`optimize` would not bother — and annotated
        with how every α of the chosen plan finds its roots."""
        choice = self._costed(plan, self._rewrite(plan))
        choice.notes = self._root_access_notes(choice.optimized) + choice.notes
        return choice

    def _rewrite(self, plan: PlanNode) -> RewriteResult:
        return rewrite(plan, self.accelerators, statistics=lambda: self.statistics)

    def _costed(self, plan: PlanNode, rewritten: RewriteResult) -> PlanChoice:
        choice = PlanChoice(
            original=plan,
            optimized=rewritten.plan,
            original_cost=self.cost_model.estimate(plan),
            optimized_cost=self.cost_model.estimate(rewritten.plan),
            applied_rules=rewritten.applied_rules,
        )
        self._annotate(choice)
        return choice

    def annotate(self, choice: PlanChoice) -> None:
        """Give a choice :meth:`optimize` returned earlier — replayed by the
        interpreter's statement cache — the notes of the present moment.

        Those describe the state around the plan, not the plan: the observed
        recursion profiles and the accelerators' state.  A choice
        :meth:`optimize` left uncosted keeps none.
        """
        if _decides(choice.applied_rules, choice.optimized):
            self._annotate(choice)

    def _annotate(self, choice: PlanChoice) -> None:
        choice.notes = self._recursion_notes(
            recursive_nodes(choice.optimized)
        ) + self._columnar_notes(choice.optimized)

    def _root_access_notes(self, plan: PlanNode) -> Tuple[str, ...]:
        """One ``root access:`` line per α of *plan*, as the cost model sees it."""
        notes: List[str] = []

        def visit(node: PlanNode, restrict: Optional[RestrictPlan] = None) -> None:
            if isinstance(node, DefinePlan):
                walk = self.cost_model.upward_walk(restrict) if restrict is not None else None
                if walk is not None:
                    count = math.ceil(walk.candidates)
                    access = (
                        f"upward walk from ≈ {count} {walk.atom_type} "
                        f"candidate{'s' * (count != 1)} of {walk.conjuncts} equality "
                        f"conjunct{'s' * (walk.conjuncts != 1)}"
                    )
                elif equality_conjuncts(node.root_filter, node.description.root):
                    access = "root index"
                else:
                    access = "all roots"
                notes.append(f"α {node.name}: root access: {access}")
            elif isinstance(node, RestrictPlan):
                visit(node.child, node)
            elif isinstance(node, (ProjectPlan, AggregatePlan)):
                visit(node.child)
            elif isinstance(node, SetOpPlan):
                visit(node.left)
                visit(node.right)

        visit(plan)
        return tuple(notes)

    def _columnar_notes(self, plan: PlanNode) -> Tuple[str, ...]:
        """EXPLAIN annotations for a columnarized Γ: projection state and size."""
        if not isinstance(plan, ColumnarAggregatePlan):
            return ()
        accelerators = self.accelerators
        if accelerators is None:
            return ()
        return tuple(accelerators.describe_projection(plan.atom_type_name))

    def _recursion_notes(self, nodes) -> Tuple[str, ...]:
        """EXPLAIN annotations for every recursive node of the chosen plan:
        observed (or bounded) traversal depth and closure size, plus the
        interval index state when the node was accelerated."""
        notes: List[str] = []
        statistics = self.statistics
        for node in nodes:
            description = node.description
            key = recursion_profile_key(description)
            atoms = statistics.atom_counts.get(description.atom_type_name, 0)
            profile = statistics.recursion_profile(key)
            if profile is not None:
                notes.append(
                    "recursion {name}[{atom} via {link} {direction}]: observed depth "
                    "{depth:.1f}, closure ≈ {closure:.1f} atoms/root over "
                    "{roots:.0f} roots ({runs:.0f} runs)".format(
                        name=node.name,
                        atom=description.atom_type_name,
                        link=description.link_type_name,
                        direction=description.direction,
                        depth=profile["avg_depth"],
                        closure=profile["avg_closure"],
                        roots=profile["roots"],
                        runs=profile["runs"],
                    )
                )
            else:
                bound = (
                    description.max_depth
                    if description.max_depth is not None
                    else max(0, atoms)
                )
                notes.append(
                    "recursion {name}[{atom} via {link} {direction}]: no observed "
                    "runs yet — estimated depth ≤ {bound}, closure ≤ {atoms} "
                    "atoms/root".format(
                        name=node.name,
                        atom=description.atom_type_name,
                        link=description.link_type_name,
                        direction=description.direction,
                        bound=bound,
                        atoms=atoms,
                    )
                )
            if isinstance(node, IntervalScanPlan):
                candidates = self.cost_model.enumeration_candidates(node)
                if candidates:
                    count = math.ceil(sum(candidates))
                    notes.append(
                        f"  root access: ancestor walk from ≈ {count} "
                        f"candidate{'s' * (count != 1)} of {len(candidates)} equality "
                        f"conjunct{'s' * (len(candidates) != 1)} "
                        "(a graph-mode index visits all roots)"
                    )
                else:
                    notes.append("  root access: all roots")
                accelerators = self.accelerators
                if accelerators is not None:
                    notes.extend(accelerators.describe_index(description))
        return tuple(notes)

    def execute_best(self, plan: PlanNode) -> PlanExecution:
        """Optimize *plan* and execute the chosen variant on the executor."""
        choice = self.optimize(plan)
        executor = self.executor or Executor(self.database)
        return executor.run(choice.best)
