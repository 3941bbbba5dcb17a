"""Compilation of logical plans into physical operators, and their execution.

:func:`compile_plan` maps each logical node onto its streaming counterpart
(α → :class:`~repro.engine.physical.MoleculeScan`, Σ →
:class:`~repro.engine.physical.Restrict`, …).  :class:`Executor` binds a
database plus its access structures (an accelerator store) and runs
plans, materializing only the final result as a
:class:`~repro.core.molecule.MoleculeType`.

The executor itself applies **no** rewrites — optimization is the planner's
job (:mod:`repro.optimizer.planner`), which rewrites and costs the same
logical IR and hands the chosen variant to :func:`Executor.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.core.database import Database
from repro.core.molecule import Molecule, MoleculeType
from repro.engine.logical import (
    AggregatePlan,
    ColumnarAggregatePlan,
    DefinePlan,
    DeleteMolecules,
    InsertMolecule,
    IntervalScanPlan,
    ModifyAtoms,
    PlanNode,
    ProjectPlan,
    RecursivePlan,
    RestrictPlan,
    SetOpPlan,
    WritePlanNode,
    plan_name,
)
from repro.engine.physical import (
    AggregationOperator,
    ColumnarAggregate,
    Difference,
    ExecutionContext,
    ExecutionCounters,
    HashAggregate,
    Intersection,
    IntervalScan,
    MoleculeScan,
    PhysicalOperator,
    Project,
    RecursiveScan,
    Restrict,
    Union,
)
from repro.engine.write import (
    DeleteMoleculesOp,
    InsertMoleculeOp,
    ModifyAtomsOp,
    WriteOperator,
    WriteSummary,
)


def compile_plan(plan: PlanNode) -> PhysicalOperator:
    """Translate a logical plan into a tree of pull-based physical operators."""
    if isinstance(plan, DefinePlan):
        return MoleculeScan(
            plan.name, plan.description, plan.root_filter, root_access=plan.root_access
        )
    if isinstance(plan, AggregatePlan):
        child = compile_plan(plan.child)
        return HashAggregate(child, plan.group_by, plan.aggregates)
    if isinstance(plan, ColumnarAggregatePlan):
        return ColumnarAggregate(
            plan.name,
            plan.atom_type_name,
            plan.group_by,
            plan.aggregates,
            plan.root_filter,
            plan.hop,
        )
    if isinstance(plan, RecursivePlan):
        return RecursiveScan(plan.name, plan.description, plan.formula)
    if isinstance(plan, IntervalScanPlan):
        return IntervalScan(plan.name, plan.description, plan.formula)
    if isinstance(plan, RestrictPlan):
        return Restrict(compile_plan(plan.child), plan.formula)
    if isinstance(plan, ProjectPlan):
        return Project(compile_plan(plan.child), plan.atom_type_names, owner=plan_name(plan.child))
    if isinstance(plan, SetOpPlan):
        left = compile_plan(plan.left)
        right = compile_plan(plan.right)
        operator = {"UNION": Union, "DIFFERENCE": Difference, "INTERSECT": Intersection}[
            plan.operator
        ]
        return operator(left, right)
    raise TypeError(f"unknown plan node: {plan!r}")


def compile_write_plan(plan: WritePlanNode) -> WriteOperator:
    """Translate a logical write plan into its physical write operator.

    The qualifying-read source of δ/μ nodes is compiled through
    :func:`compile_plan`, so index-backed root access and incidence
    traversal serve the write path exactly as they serve queries.
    """
    if isinstance(plan, InsertMolecule):
        return InsertMoleculeOp(plan.name, plan.description, plan.data)
    if isinstance(plan, DeleteMolecules):
        return DeleteMoleculesOp(compile_plan(plan.source), plan.cascade)
    if isinstance(plan, ModifyAtoms):
        return ModifyAtomsOp(compile_plan(plan.source), plan.atom_type_name, plan.updates)
    raise TypeError(f"unknown write plan node: {plan!r}")


@dataclass
class ExecutionResult:
    """The materialized outcome of running one plan."""

    molecule_type: MoleculeType
    database: Database
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)

    def __len__(self) -> int:
        return len(self.molecule_type)

    def __iter__(self) -> Iterator[Molecule]:
        return iter(self.molecule_type)


@dataclass
class AggregateExecutionResult:
    """The outcome of running one Γ plan: named columns over ordered rows."""

    columns: Tuple[str, ...]
    rows: "Tuple[Tuple, ...]"
    database: Database
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> "Iterator[Tuple]":
        return iter(self.rows)


@dataclass
class WriteExecutionResult:
    """The outcome of running one write plan: affected molecules plus counts."""

    molecule_type: MoleculeType
    database: Database
    summary: WriteSummary
    counters: ExecutionCounters = field(default_factory=ExecutionCounters)

    def __len__(self) -> int:
        return len(self.molecule_type)

    def __iter__(self) -> Iterator[Molecule]:
        return iter(self.molecule_type)


class Executor:
    """Runs logical plans over one database with shared access structures.

    *accelerators* is the
    :class:`~repro.storage.accelerators.AcceleratorStore` that answers
    pushed-down equality filters, recursive plans and aggregate scans; link
    traversal reads the link types' own incidence.  Without one (the
    default) every operator scans: a bare :class:`Database` may be mutated
    between runs and the executor has no hook to keep an index coherent.
    Callers that keep the store coherent (the storage engine folds every
    change event of its database into its one store), or whose database
    never changes, pass one.
    """

    def __init__(self, database: Database, accelerators=None) -> None:
        self.database = database
        #: Optional :class:`~repro.storage.accelerators.AcceleratorStore`
        #: shared with the owning engine.
        self.accelerators = accelerators

    def context(
        self,
        counters: Optional[ExecutionCounters] = None,
        snapshot=None,
    ) -> ExecutionContext:
        """A fresh execution context sharing the executor's access structures.

        With *snapshot* (a :class:`~repro.core.versions.Snapshot`) the context
        reads through a pinned :meth:`Database.at` view.  Equality lookups
        still read the store's head indexes, as a source of candidates: a
        lookup is widened by the atoms that carry a version chain and every
        candidate is read back through the view
        (:class:`~repro.engine.physical.ExecutionContext`).  Traversal reads
        the view's link types, which resolve the visible links.

        Snapshot contexts are safe to build and run from any thread: the
        pinned views resolve lock-free over immutable version chains (copying
        mutable head collections briefly under the per-type head locks), and
        the accelerator store is internally locked — an equality lookup runs
        under its lock and the looked-up type's head lock, and the other
        accelerators serve a pinned reader only while they provably hold the
        pinned state (the fixpoint loop and the row fold otherwise).  Head
        contexts (``snapshot=None``) read the link types' live incidence
        buckets and the live columnar arrays unlocked and belong to the
        engine's owning thread.
        """
        if snapshot is None:
            return ExecutionContext(self.database, counters, accelerators=self.accelerators)
        return ExecutionContext(
            self.database.at(snapshot), counters, snapshot=snapshot,
            accelerators=self.accelerators,
        )

    def stream(
        self, plan: PlanNode, context: Optional[ExecutionContext] = None
    ) -> Iterator[Molecule]:
        """Execute *plan* lazily, yielding result molecules as they are produced."""
        ctx = context or self.context()
        return compile_plan(plan).execute(ctx)

    def run(self, plan: PlanNode, context: Optional[ExecutionContext] = None) -> ExecutionResult:
        """Execute *plan* and materialize the result molecule type."""
        ctx = context or self.context()
        operator = compile_plan(plan)
        molecules: Tuple[Molecule, ...] = tuple(operator.execute(ctx))
        description = operator.describe(ctx)
        molecule_type = MoleculeType(plan_name(plan), description, molecules)
        return ExecutionResult(molecule_type, self.database, ctx.counters)

    def run_aggregate(
        self, plan: PlanNode, context: Optional[ExecutionContext] = None
    ) -> AggregateExecutionResult:
        """Execute a Γ plan and materialize its canonically ordered rows."""
        ctx = context or self.context()
        operator = compile_plan(plan)
        if not isinstance(operator, AggregationOperator):
            raise TypeError(f"not an aggregation plan: {plan!r}")
        rows = tuple(operator.rows(ctx))
        return AggregateExecutionResult(
            operator.columns(), rows, self.database, ctx.counters
        )

    def run_write(
        self,
        plan: "WritePlanNode | WriteOperator",
        context: Optional[ExecutionContext] = None,
        txn=None,
    ) -> WriteExecutionResult:
        """Execute a write plan atomically and report the affected molecules.

        Without *txn* the statement runs inside its own auto-committed
        :class:`~repro.manipulation.transactions.Transaction`: any failure —
        a domain violation on a later child, a cardinality error, a broken
        source stream — rolls back every mutation already applied, so a DML
        statement either happens completely or not at all.  On a versioned
        database the commit additionally performs first-committer-wins
        conflict detection.

        With *txn* (an active session transaction, e.g. MQL ``BEGIN WORK``)
        the statement runs inside it under a savepoint: a failing statement
        is undone back to its own start, the surrounding transaction stays
        active, and nothing is published until the session commits.
        """
        from repro.manipulation.transactions import Transaction  # deferred: cycle

        ctx = context or self.context()
        operator = plan if isinstance(plan, WriteOperator) else compile_write_plan(plan)
        if txn is not None:
            mark = txn.savepoint()
            try:
                molecule_type, summary = operator.apply(ctx, txn)
            except BaseException:
                txn.rollback_to(mark)
                raise
            return WriteExecutionResult(molecule_type, self.database, summary, ctx.counters)
        txn = Transaction(self.database)
        txn.begin()
        try:
            molecule_type, summary = operator.apply(ctx, txn)
        except BaseException:
            if txn.is_active:
                txn.rollback()
            raise
        try:
            txn.commit()
        except BaseException:
            # A commit-time failure (e.g. the durable engine's WAL append)
            # must not leave an orphaned active transaction holding applied
            # but undurable state: the auto-committed statement is atomic.
            if txn.is_active:
                txn.rollback()
            raise
        return WriteExecutionResult(molecule_type, self.database, summary, ctx.counters)


def run_plan(database: Database, plan: PlanNode) -> ExecutionResult:
    """One-call convenience: compile and run *plan* over *database*."""
    return Executor(database).run(plan)
