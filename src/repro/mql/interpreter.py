"""Execution of MQL statements over a MAD database.

Every statement takes one route: it is translated into the logical plan IR
(the literal α → Σ → Π translation of chapter 4: "the whole molecule-type
definition is expressed in the FROM clause", "molecule restriction in MQL is
expressed within the WHERE clause, and molecule projection is accomplished
within the SELECT clause"; set operations between query blocks map onto Ω, Δ
and Ψ), the rule-driven planner picks a variant, and the streaming executor
runs it — intermediate molecule sets are never materialized.  The
materializing evaluation of Definitions 8–10 (each step propagating its
result set into an enlarged database) is the definition this route is
checked against; the test suite keeps it as its reference, the product does
not run it.  ``EXPLAIN <statement>`` reports the planner's choice without
executing.

**Statement cache — compile once, run many.**  A statement given as text is
tokenized and split into its *template* and its literals
(:func:`~repro.mql.parser.template`: every literal in a value position —
comparison right-hand side, ``SET`` value, INSERT object value — becomes a
slot).  The interpreter keeps a bounded LRU (:data:`STATEMENT_CACHE_CAPACITY`
templates) from template to the planner's choice for it, planned once from
the slotted AST; a later statement with the same template is served by one
dictionary lookup and one bind of its literals into the cached plans — no
parse, translation, rewrite or costing.  Planning is literal-invariant (the
rules treat any right-hand side that is not an attribute reference as an
opaque constant, selectivities are distinct-count based), which is what
makes a shared entry exact.  An entry is stamped with what planning did
depend on — the structure-index registry version and the planner's
statistics epoch — and re-planned when a stamp moves; DDL drops the cache
with the interpreter.  A statement given as an AST goes through the same
compile step but is never stored; EXPLAIN statements are planned fresh.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.analysis.runtime import make_lock, make_rlock
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.database import Database
from repro.core.derivation import resolve_description
from repro.core.molecule import Molecule, MoleculeType
from repro.core.recursion import RecursiveMolecule
from repro.core.predicates import And, Comparison, Formula, Not, Or
from repro.engine.executor import Executor, compile_plan
from repro.engine.logical import (
    AggregatePlan,
    ColumnarAggregatePlan,
    DeleteMolecules,
    InsertMolecule,
    ModifyAtoms,
    PlanNode,
    WritePlanNode,
    describe_plan,
    map_plan,
    plan_name,
    recursive_nodes,
)
from repro.engine.physical import ExecutionCounters
from repro.engine.write import WriteSummary
from repro.exceptions import (
    MQLSemanticError,
    StorageError,
    TransactionConflictError,
    TransactionError,
)
from repro.manipulation.transactions import Transaction
from repro.mql.ast_nodes import (
    CheckpointStatement,
    DeleteStatement,
    DMLStatement,
    ExplainStatement,
    InsertStatement,
    ModifyStatement,
    Query,
    SetOperation,
    Slot,
    Statement,
    TransactionStatement,
)
from repro.mql.lexer import Token, tokenize
from repro.mql.parser import parse, parse_template, template
from repro.mql.translator import QueryTranslator
from repro.optimizer.planner import PlanChoice, Planner
from repro.optimizer.statistics import recursion_profile_key

#: Statement templates one interpreter's statement cache holds; the least
#: recently used one is dropped beyond it.
STATEMENT_CACHE_CAPACITY = 256

#: First keywords of the statements the cache never serves: EXPLAIN is
#: planned fresh, transaction and checkpoint statements have no plan.
_UNCACHED = frozenset({"EXPLAIN", "BEGIN", "COMMIT", "ROLLBACK", "CHECKPOINT"})

_READS = (Query, SetOperation)
_WRITES = (InsertStatement, DeleteStatement, ModifyStatement)


class _CachedStatement(NamedTuple):
    """One compiled statement: a template in the cache, whose plans hold
    slots, or a statement given as an AST."""

    #: The statement's AST class (``Query``, ``SetOperation`` or a DML class).
    kind: type
    #: The planner's choice for the read — the query, or the qualifying read
    #: of DELETE/MODIFY — without its notes, the anonymous link uses of the
    #: plan that runs resolved; ``None`` for INSERT.
    choice: Optional[PlanChoice]
    #: The write plan (its source is the bound choice's best); ``None`` for reads.
    write: Optional[WritePlanNode]
    #: ``(structure-index registry version, statistics epoch)`` when the
    #: statement was planned.
    stamps: Tuple[int, int]


@dataclass
class QueryResult:
    """The outcome of executing one MQL statement.

    Attributes
    ----------
    molecule_type:
        The result molecule type (the statement's value in the algebra).
    database:
        The interpreter's database, which the result is valid over; reads
        leave it unchanged.
    statement:
        The parsed AST, kept for explain-style reporting — or the statement
        text for a statement served through the statement cache (the
        cached template's AST holds slots, not this statement's literals).
    counters:
        Work counters of the streaming execution (``None`` for EXPLAIN,
        transaction and checkpoint statements, which execute no plan).
    plan_choice:
        The planner's costed decision (``None`` for INSERT, which has no
        read to plan, and for transaction and checkpoint statements).
    explanation:
        For ``EXPLAIN`` statements: :meth:`PlanChoice.explain` output; the
        statement itself is not executed and the molecule set is empty.
    write_summary:
        For DML statements: the affected-count report of the write plan
        (molecules affected, atoms/links inserted, removed, modified).
    columns / rows:
        For aggregate statements (``GROUP BY``/aggregate functions): the
        result is a canonically ordered row set, not a molecule set —
        *columns* names the group keys and aggregates, *rows* carries the
        value tuples; ``molecule_type`` is then ``None``.
    """

    molecule_type: Optional[MoleculeType]
    database: Database
    statement: "Optional[str | Statement | DMLStatement | TransactionStatement]" = None
    counters: Optional[ExecutionCounters] = None
    plan_choice: Optional[PlanChoice] = None
    explanation: Optional[str] = None
    write_summary: Optional[WriteSummary] = None
    columns: Optional[Tuple[str, ...]] = None
    rows: Optional[Tuple[Tuple, ...]] = None

    @property
    def molecules(self) -> Tuple[Molecule, ...]:
        """The result molecules."""
        if self.molecule_type is None:
            return ()
        return self.molecule_type.occurrence

    @property
    def affected_count(self) -> int:
        """Molecules affected by a DML statement (result size for queries)."""
        if self.write_summary is not None:
            return self.write_summary.molecules_affected
        return len(self)

    def __len__(self) -> int:
        if self.rows is not None:
            return len(self.rows)
        return len(self.molecule_type) if self.molecule_type is not None else 0

    def __iter__(self):
        if self.rows is not None:
            return iter(self.rows)
        return iter(self.molecule_type if self.molecule_type is not None else ())

    def to_dicts(self) -> List[Dict[str, object]]:
        """Render the result — molecules as nested dictionaries, aggregate
        rows as flat column-name dictionaries."""
        if self.rows is not None:
            return [dict(zip(self.columns or (), row)) for row in self.rows]
        return [molecule.to_nested_dict() for molecule in self]


class MQLInterpreter:
    """Executes MQL statements against a database through the plan pipeline.

    The interpreter owns a :class:`~repro.optimizer.planner.Planner` (its
    statistics collected from the database on first use) and an
    :class:`~repro.engine.executor.Executor` whose access structures are
    reused across statements.  A storage engine supplies the executor to
    share its accelerator store (equality indexes, structure indexes,
    columnar projections) with the planner; neighbour traversal reads the
    link types' own incidence.  Every statement is compiled by one step
    (:meth:`_compile`): statements given as text through the statement
    cache (module docstring), which every route through the interpreter
    shares — ``execute`` at the head, in a ``BEGIN WORK`` session and at a
    pinned snapshot (``at=``), :meth:`plan` and :meth:`read_plan` —
    statements given as an AST without it.
    """

    def __init__(
        self,
        database: Database,
        executor: Optional[Executor] = None,
        checkpoint=None,
    ) -> None:
        self.database = database
        self.executor = executor or Executor(database)
        self.planner = Planner(database, executor=self.executor)
        #: Active session transaction (``BEGIN WORK`` … ``COMMIT WORK``).
        self._session: Optional[Transaction] = None  # guarded-by: MQLInterpreter._session_guard
        #: The thread that ran ``BEGIN WORK`` — sessions have thread
        #: affinity: session-scoped statements from any other thread are
        #: rejected with a clear error (pinned-snapshot reads via ``at=``
        #: remain safe from every thread).
        self._session_thread: Optional[int] = None  # guarded-by: MQLInterpreter._session_guard
        #: Guards the ``_session``/``_session_thread`` transitions: two
        #: threads racing ``BEGIN WORK`` must not both pass the
        #: already-active check and orphan one registered, pinned
        #: transaction forever.
        self._session_guard = make_lock("MQLInterpreter._session_guard")
        #: Serializes planning, the statement cache and statistics
        #: maintenance: snapshot readers on worker threads plan one at a time
        #: (execution itself runs concurrently), and a writer folding a
        #: change event into the planner statistics can never race a reader
        #: mid-optimize.
        self._plan_lock = make_rlock("MQLInterpreter._plan_lock")
        #: The statement cache: template key → :class:`_CachedStatement`,
        #: least recently used first.
        self._statements: "OrderedDict[tuple, _CachedStatement]" = OrderedDict()  # guarded-by: MQLInterpreter._plan_lock
        #: Statements served from the cache, planned into it (a first
        #: sight, or a re-plan) and entries dropped because a stamp moved.
        self._cache_counts = {"hits": 0, "misses": 0, "invalidations": 0}  # guarded-by: MQLInterpreter._plan_lock
        #: Callable serving MQL ``CHECKPOINT`` — a durable storage engine
        #: passes its durability owner's ``checkpoint``; ``None`` rejects
        #: the statement (nothing durable to checkpoint).
        self._checkpoint_hook = checkpoint

    def apply_event(self, event) -> None:
        """Fold one database change event into the planner's statistics.

        The public maintenance hook the storage engine drives on every
        write; a no-op until the statistics are first collected.  Serialized
        on the planner lock against concurrent plan optimization by
        snapshot-reader threads.
        """
        with self._plan_lock:
            self.planner.apply_event(event)

    # ---------------------------------------------------------------- public

    def execute(
        self,
        statement: "str | Statement | DMLStatement | ExplainStatement | TransactionStatement",
        at=None,
    ) -> QueryResult:
        """Parse (when given text) and execute an MQL statement.

        DML statements (INSERT / DELETE / MODIFY) run atomically: outside a
        session transaction the whole statement is applied inside its own
        undo-logged, auto-committed transaction; inside ``BEGIN WORK`` …
        ``COMMIT WORK`` it runs under a savepoint of the session transaction
        and is published only at ``COMMIT WORK`` (first committer wins).

        *at* (a :class:`~repro.core.versions.Snapshot`) pins the read to a
        generation — the storage engine's ``snapshot_at`` handles pass it.
        A pinned read is read-only: DML, transaction and checkpoint
        statements raise :class:`StorageError` there.  Inside a session
        transaction queries default to the snapshot pinned at ``BEGIN WORK``
        plus the session's own writes (repeatable reads).  One deliberate
        boundary: the *qualifying read* of a DML statement always runs at
        the head — deletions must observe every concurrent-committed link to
        never leave dangling references, and any overlap with a concurrent
        writer's keys aborts via first-committer-wins anyway.

        Text is served through the statement cache (module docstring),
        except EXPLAIN, transaction and checkpoint statements.

        Thread affinity: while a ``BEGIN WORK`` session is active, every
        statement that would touch the session (anything without ``at=``)
        must come from the thread that began it; other threads get a
        :class:`TransactionError` pointing them at snapshot handles.
        Pinned reads (``at=``) are safe from any thread.
        """
        if isinstance(statement, str):
            tokens = tokenize(statement)
            if tokens[0].value not in _UNCACHED:
                return self._execute_cached(statement, tokens, at)
            statement = parse(tokens)
        return self._execute_ast(statement, at)

    def _execute_cached(self, text: str, tokens: List[Token], at) -> QueryResult:
        """:meth:`execute` for a statement the cache serves."""
        key, values = template(tokens)
        entry = self._lookup(key)
        ast = parse_template(tokens) if entry is None else None
        self._check_route(type(ast) if entry is None else entry.kind, at)
        if entry is None:
            entry = self._plan_template(key, ast)
        return self._run(text, entry, values, at)

    def _execute_ast(self, ast, at) -> QueryResult:
        """:meth:`execute` for a parsed statement (compiled, never cached)."""
        inner = ast.statement if isinstance(ast, ExplainStatement) else ast
        self._check_route(type(inner), at)
        if isinstance(ast, TransactionStatement):
            return self._execute_transaction_statement(ast)
        if isinstance(ast, CheckpointStatement):
            return self._execute_checkpoint(ast)
        if isinstance(inner, TransactionStatement):
            raise MQLSemanticError("transaction statements cannot be EXPLAINed")
        if isinstance(inner, CheckpointStatement):
            raise MQLSemanticError("CHECKPOINT cannot be EXPLAINed")
        if inner is not ast:
            return self._explain(inner)
        return self._run(ast, self._compile(ast), [], at)

    def _check_route(self, kind: type, at) -> None:
        """Thread affinity for a statement that touches the session; a
        pinned read (*at*) must be a query."""
        if at is None:
            self._check_session_affinity()
        elif not issubclass(kind, _READS):
            raise StorageError(_READ_ONLY)

    def _run(self, statement, entry: _CachedStatement, values: List[object], at) -> QueryResult:
        """Bind *values* into a compiled statement and execute it: a read at
        *at*, in the session or at the head; a write atomically."""
        choice = self._bind_choice(entry, values)
        if entry.write is None:
            snapshot = at if at is not None else self._session_snapshot()
            return self._run_read(statement, choice, snapshot)
        return self._run_write(statement, _bind_write(entry.write, values, choice), choice)

    # ------------------------------------------------------- statement cache

    def _entry(self, tokens: List[Token]) -> Tuple[_CachedStatement, List[object]]:
        """The cached template of *tokens* (planned now on a miss) and the
        statement's literals."""
        key, values = template(tokens)
        entry = self._lookup(key)
        if entry is None:
            entry = self._plan_template(key, parse_template(tokens))
        return entry, values

    def _lookup(self, key: tuple) -> Optional[_CachedStatement]:
        """The template cached under *key* while its stamps hold (a hit);
        ``None`` — a miss — otherwise, dropping an entry whose stamp moved."""
        with self._plan_lock:
            entry = self._statements.get(key)
            if entry is not None:
                if entry.stamps == self._stamps():
                    self._statements.move_to_end(key)
                    self._cache_counts["hits"] += 1
                    return entry
                del self._statements[key]
                self._cache_counts["invalidations"] += 1
            self._cache_counts["misses"] += 1
            return None

    def _plan_template(self, key: tuple, ast) -> _CachedStatement:
        """Compile a template's AST and cache the outcome; a statement that
        fails here caches nothing."""
        entry = self._compile(ast)
        with self._plan_lock:
            self._statements[key] = entry
            if len(self._statements) > STATEMENT_CACHE_CAPACITY:
                self._statements.popitem(last=False)
        return entry

    def _compile(self, ast) -> _CachedStatement:
        """Translate and plan *ast* — the one compile step behind a cache
        miss (a template, its value positions holding slots), a statement
        given as an AST and :meth:`plan`.

        The stamps are read before planning, so anything that moves
        meanwhile makes a cached entry stale rather than wrong."""
        with self._plan_lock:
            stamps = self._stamps()
            write, read = self._translate(ast)
            choice = self.planner.optimize(read) if read is not None else None
            if choice is not None:
                # What describes the present moment is re-attached per use.
                choice.notes = ()
                # The plan that runs resolves its anonymous link uses once,
                # here, instead of in every execution's scan operator.
                resolved = map_plan(
                    choice.best,
                    description=lambda description: resolve_description(
                        self.database, description
                    ),
                )
                if choice.best is choice.optimized:
                    choice.optimized = resolved
                else:
                    choice.original = resolved
            return _CachedStatement(type(ast), choice, write, stamps)

    def _translate(self, ast) -> Tuple[Optional[WritePlanNode], Optional[PlanNode]]:
        """The write plan of *ast* (``None`` for a query) and the read to
        plan: the query, or the qualifying read of DELETE/MODIFY (``None``
        for INSERT)."""
        translator = QueryTranslator(self.database)
        if isinstance(ast, _WRITES):
            write = translator.translate_dml(ast)
            return write, None if isinstance(write, InsertMolecule) else write.source
        return None, translator.translate_statement(ast)

    # requires: MQLInterpreter._plan_lock
    def _stamps(self) -> Tuple[int, int]:
        """What a cached plan depends on besides its template: the
        structure-index registry (``accelerate_recursion``) and the
        statistics epoch."""
        accelerators = self.planner.accelerators
        return (
            accelerators.registry_version if accelerators is not None else 0,
            self.planner.statistics_epoch,
        )

    def _bind_choice(
        self, entry: _CachedStatement, values: List[object]
    ) -> Optional[PlanChoice]:
        """The compiled choice with *values* bound into both plans (none for
        a statement given as an AST) and the notes of this moment
        (:meth:`Planner.annotate`)."""
        cached = entry.choice
        if cached is None:
            return None
        choice = PlanChoice(
            original=_bind_plan(cached.original, values),
            optimized=_bind_plan(cached.optimized, values),
            original_cost=cached.original_cost,
            optimized_cost=cached.optimized_cost,
            applied_rules=cached.applied_rules,
        )
        with self._plan_lock:
            self.planner.annotate(choice)
        return choice

    def plan_cache_statistics(self) -> Dict[str, int]:
        """The statement cache's size and counters: ``plan_cache_entries``,
        ``plan_cache_hits``, ``plan_cache_misses`` (cacheable statements
        that had to be planned) and ``plan_cache_invalidations`` (entries
        dropped because a stamp moved)."""
        with self._plan_lock:
            report = {"plan_cache_entries": len(self._statements)}
            for name, count in self._cache_counts.items():
                report[f"plan_cache_{name}"] = count
            return report

    # --------------------------------------------------- session transactions

    @property
    def in_transaction(self) -> bool:
        """``True`` while a ``BEGIN WORK`` session transaction is active."""
        return self._session is not None and self._session.is_active

    def _session_snapshot(self):
        if self._session is not None and self._session.is_active:
            return self._session.snapshot
        return None

    def _check_session_affinity(self) -> None:
        """Reject session-scoped statements from a foreign thread.

        One MQL session = one thread: the session transaction's undo log,
        savepoints and pinned snapshot are single-writer state.  Concurrent
        readers belong on pinned snapshot handles
        (``engine.snapshot_at()`` / ``engine.parallel_query()``), which
        execute through ``at=`` and bypass the session entirely.
        """
        if not self.in_transaction:
            return
        if threading.get_ident() != self._session_thread:
            raise TransactionError(
                "this interpreter has an active BEGIN WORK session bound to "
                "the thread that began it; sessions have thread affinity — "
                "run concurrent reads through engine.snapshot_at() or "
                "engine.parallel_query() instead"
            )

    def _execute_transaction_statement(self, statement: TransactionStatement) -> QueryResult:
        # One session transition at a time: a racing second BEGIN WORK must
        # see the first one's session and fail, never orphan a registered,
        # snapshot-pinned transaction by overwriting it.
        with self._session_guard:
            return self._transaction_statement_locked(statement)

    # requires: MQLInterpreter._session_guard
    def _transaction_statement_locked(
        self, statement: TransactionStatement
    ) -> QueryResult:
        action = statement.action
        if action == "BEGIN":
            if self.in_transaction:
                raise TransactionError("a transaction is already active in this session")
            # Versioning is enabled on demand: from here on mutations are
            # stamped, and the session's pin makes them recorded.
            self.database.enable_versioning()
            txn = Transaction(self.database, pin_snapshot=True)
            txn.begin()
            self._session = txn
            self._session_thread = threading.get_ident()
        elif action in ("COMMIT", "ROLLBACK"):
            txn = self._session
            if txn is None or not txn.is_active:
                raise TransactionError(f"{action} WORK without an active transaction")
            self._session = None
            self._session_thread = None
            if action == "COMMIT":
                try:
                    txn.commit()  # raises TransactionConflictError when it loses
                except BaseException:
                    if txn.is_active:
                        # Not a conflict (the loser is fully rolled back) but
                        # a commit-time failure such as a WAL append error:
                        # the session stays open so the user can retry COMMIT
                        # WORK or ROLLBACK WORK explicitly.
                        self._session = txn
                        self._session_thread = threading.get_ident()
                    raise
            else:
                txn.rollback()
        else:  # pragma: no cover - the parser only produces the three actions
            raise MQLSemanticError(f"unknown transaction statement {action!r}")
        return QueryResult(
            None, self.database, statement, explanation=f"{action} WORK"
        )

    def _execute_checkpoint(self, statement: CheckpointStatement) -> QueryResult:
        """Run MQL ``CHECKPOINT`` through the engine's checkpoint hook."""
        if self._checkpoint_hook is None:
            raise MQLSemanticError(
                "CHECKPOINT requires a durable storage engine "
                "(PrimaEngine with durability=DurabilityConfig(...))"
            )
        info = self._checkpoint_hook()
        return QueryResult(
            None,
            self.database,
            statement,
            explanation=(
                f"CHECKPOINT #{info['checkpoints']} at generation "
                f"{info['generation']} ({info['atoms']} atoms, {info['links']} links); "
                "WAL truncated"
            ),
        )

    def plan(self, statement: "str | Statement | DMLStatement") -> PlanChoice:
        """Translate *statement* and return the planner's costed choice.

        For DELETE/MODIFY the choice covers the *qualifying read* (the write
        node itself has no plan alternatives); INSERT has no read sub-plan.

        Serialized on the planner lock: concurrent snapshot-reader threads
        plan one at a time over the shared statistics (execution of the
        chosen plan runs outside the lock, fully concurrent).  Text is
        served through the statement cache, like :meth:`execute`; an AST is
        compiled by the same step and not stored.  The choice's notes are
        those of the moment of the call either way.
        """
        entry, values = None, []
        if isinstance(statement, str):
            tokens = tokenize(statement)
            if tokens[0].value not in _UNCACHED:
                entry, values = self._entry(tokens)
            else:
                statement = parse(tokens)
        if entry is None:
            if isinstance(statement, ExplainStatement):
                statement = statement.statement
            if isinstance(statement, (TransactionStatement, CheckpointStatement)):
                raise MQLSemanticError("transaction and checkpoint statements have no plan")
            entry = self._compile(statement)
        if entry.choice is None:
            raise MQLSemanticError("INSERT has no qualifying read plan to optimize")
        return self._bind_choice(entry, values)

    def read_plan(self, statement: str) -> Optional[PlanChoice]:
        """The planner's choice for *statement* when it is a query — a query
        block or a set operation between blocks — else ``None`` (DML,
        EXPLAIN, transaction and checkpoint statements).

        Served through the statement cache like :meth:`execute`; raises the
        statement's MQL errors.  The read router classifies a batch with it.
        """
        tokens = tokenize(statement)
        if tokens[0].value in _UNCACHED:
            return None
        entry, values = self._entry(tokens)
        if entry.kind not in _READS:
            return None
        return self._bind_choice(entry, values)

    def explain(self, statement: "str | Statement | DMLStatement") -> List[str]:
        """Return the algebra-operation plan for *statement* without executing it.

        The plan lists one line per algebra operation — this is the "sound
        basis to express the semantics" of MQL made visible (the literal
        logical plan, before any rewriting); it is what the optimizer
        rewrites.
        """
        ast = parse(statement) if isinstance(statement, str) else statement
        if isinstance(ast, ExplainStatement):
            ast = ast.statement
        write, read = self._translate(ast)
        return describe_plan(read if write is None else write).splitlines()

    # ------------------------------------------------------ planned pipeline

    def _run_read(self, statement, choice: PlanChoice, snapshot=None) -> QueryResult:
        """Execute a planned read at the head or at *snapshot*."""
        context = self.executor.context(snapshot=snapshot) if snapshot is not None else None
        if isinstance(choice.best, (AggregatePlan, ColumnarAggregatePlan)):
            aggregate = self.executor.run_aggregate(choice.best, context=context)
            return QueryResult(
                None,
                self.database,
                statement,
                counters=aggregate.counters,
                plan_choice=choice,
                columns=aggregate.columns,
                rows=aggregate.rows,
            )
        result = self.executor.run(choice.best, context=context)
        self._observe_recursion(choice.best, result)
        return QueryResult(
            result.molecule_type,
            self.database,
            statement,
            counters=result.counters,
            plan_choice=choice,
        )

    def _observe_recursion(self, plan, result) -> None:
        """Feed observed fixpoint behaviour back into the planner statistics.

        After a recursive execution the actual closure sizes and traversal
        depths (the fixpoint iteration counts) are known exactly — recording
        them per recursive description turns the cost model's flat
        ``atoms + links`` recursion heuristic into a data-driven estimate,
        and EXPLAIN reports the observed numbers on the next plan.
        """
        nodes = recursive_nodes(plan)
        if not nodes:
            return
        molecules = [
            molecule
            for molecule in result.molecule_type
            if isinstance(molecule, RecursiveMolecule)
        ]
        if not molecules:
            return
        roots = len(molecules)
        avg_closure = sum(len(molecule) for molecule in molecules) / roots
        avg_depth = sum(molecule.depth() for molecule in molecules) / roots
        with self._plan_lock:
            statistics = self.planner.statistics
            for node in nodes:
                statistics.observe_recursion(
                    recursion_profile_key(node.description), roots, avg_closure, avg_depth
                )

    # --------------------------------------------------------- write pipeline

    def _run_write(
        self, statement, plan: WritePlanNode, choice: Optional[PlanChoice]
    ) -> QueryResult:
        """Execute a planned write atomically — in the session transaction
        when one is active, else auto-committed."""
        txn = self._session if self.in_transaction else None
        try:
            result = self.executor.run_write(plan, txn=txn)
        except TransactionConflictError:
            # The session lost a write-write race: snapshot-isolation dooms
            # the whole transaction, not just the statement.  The session
            # teardown takes the guard — a concurrent BEGIN WORK must see
            # either the doomed session or the cleared slot, never a torn
            # transition.
            if txn is not None:
                with self._session_guard:
                    if self._session is txn:
                        self._session = None
                        self._session_thread = None
                if txn.is_active:
                    txn.rollback()
            raise
        return QueryResult(
            result.molecule_type,
            self.database,
            statement,
            counters=result.counters,
            plan_choice=choice,
            write_summary=result.summary,
        )

    def _explain_write(
        self,
        statement: DMLStatement,
        plan: WritePlanNode,
        choice: Optional[PlanChoice],
    ) -> QueryResult:
        """Report a write plan (and its optimized qualifying read) without executing.

        ``EXPLAIN DELETE``/``EXPLAIN MODIFY`` report the planner's choice for
        the qualifying read; ``EXPLAIN INSERT`` and ``EXPLAIN MODIFY``
        additionally report the validation and cardinality checks the write
        operator will run.
        """
        explanation = describe_plan(plan)
        if choice is not None:
            explanation += "\nqualifying read — " + choice.explain()
        checks = self._write_validation_report(plan)
        if checks:
            explanation += "\nwill validate —\n" + "\n".join("  " + line for line in checks)
        if isinstance(plan, InsertMolecule):
            empty = MoleculeType(plan.name, plan.description, ())
        else:
            operator = compile_plan(plan.source)
            description = operator.describe(self.executor.context())
            empty = MoleculeType(plan_name(plan.source), description, ())
        return QueryResult(
            empty,
            self.database,
            statement,
            plan_choice=choice,
            explanation=explanation,
        )

    def _write_validation_report(self, plan: WritePlanNode) -> List[str]:
        """The validation/cardinality checks a write plan will run, one per line."""
        lines: List[str] = []
        if isinstance(plan, InsertMolecule):
            description = resolve_description(self.database, plan.description)
            for type_name in description.traversal_order():
                bare = type_name.split("@", 1)[0]
                if not self.database.has_atom_type(bare):
                    continue
                attributes = ", ".join(self.database.atyp(bare).description.names)
                lines.append(f"domain check {bare}({attributes})")
            for directed in description.directed_links:
                name = directed.link_type_name.split("~", 1)[0]
                if not self.database.has_link_type(name):
                    continue
                link_type = self.database.ltyp(name)
                lines.append(
                    f"cardinality check {name} ({link_type.cardinality.value}) "
                    f"{directed.source.split('@', 1)[0]} - {directed.target.split('@', 1)[0]}"
                )
            shared = self._shared_subobject_references(plan.data)
            for reference in shared:
                lines.append(f"shared subobject: reuse existing atom _id={reference!r}")
        elif isinstance(plan, ModifyAtoms):
            target = plan.atom_type_name.split("@", 1)[0]
            if self.database.has_atom_type(target):
                for attribute, value in plan.updates:
                    lines.append(f"domain check {target}.{attribute} = {value!r}")
                lines.append(f"identity preserved: links of {target} atoms stay valid")
        return lines

    @staticmethod
    def _shared_subobject_references(data: "Mapping | Sequence") -> List[object]:
        """Collect every ``_id`` reference in a nested INSERT object literal."""
        found: List[object] = []
        if isinstance(data, dict):
            for key, value in data.items():
                if key == "_id":
                    found.append(value)
                else:
                    found.extend(MQLInterpreter._shared_subobject_references(value))
        elif isinstance(data, (list, tuple)):
            for item in data:
                found.extend(MQLInterpreter._shared_subobject_references(item))
        return found

    def _explain(self, ast) -> QueryResult:
        """``EXPLAIN``: the planner's choice, always costed and saying how
        each α finds its roots (:meth:`Planner.explain`); nothing runs."""
        with self._plan_lock:
            write, read = self._translate(ast)
            choice = self.planner.explain(read) if read is not None else None
        if write is not None:
            if choice is not None:
                write = replace(write, source=choice.best)
            return self._explain_write(ast, write, choice)
        # The empty result carries the plan's *output* schema (post-projection),
        # which the compiled operator reports — not the defining α structure.
        operator = compile_plan(choice.best)
        description = operator.describe(self.executor.context())
        empty = MoleculeType(plan_name(choice.best), description, ())
        return QueryResult(
            empty,
            self.database,
            ast,
            plan_choice=choice,
            explanation=choice.explain(),
        )


_READ_ONLY = "snapshot handles are read-only; run DML through the engine"


def _bind_plan(plan: PlanNode, values: Sequence[object]) -> PlanNode:
    """*plan* with every slot of its formulas replaced by its literal."""
    if not values:
        return plan
    return map_plan(plan, formula=lambda formula: _bind_formula(formula, values))


def _bind_formula(formula: Formula, values: Sequence[object]) -> Formula:
    if isinstance(formula, Comparison):
        if isinstance(formula.rhs, Slot):
            return Comparison(formula.lhs, formula.op, formula.rhs.bind(values))
        return formula
    if isinstance(formula, (And, Or)):
        return type(formula)(*(_bind_formula(operand, values) for operand in formula.operands))
    if isinstance(formula, Not):
        return Not(_bind_formula(formula.operand, values))
    return formula


def _bind_write(
    write: WritePlanNode, values: Sequence[object], choice: Optional[PlanChoice]
) -> WritePlanNode:
    """The cached write plan with *values* bound, reading through *choice*."""
    if isinstance(write, InsertMolecule):
        return InsertMolecule(write.name, write.description, _bind_data(write.data, values))
    if isinstance(write, ModifyAtoms):
        updates = tuple((attribute, _bind_data(value, values)) for attribute, value in write.updates)
        return ModifyAtoms(choice.best, write.atom_type_name, updates)
    return DeleteMolecules(choice.best, write.cascade)


def _bind_data(node: object, values: Sequence[object]) -> object:
    """A literal, or a nested INSERT object, with its slots bound."""
    if isinstance(node, Slot):
        return node.bind(values)
    if isinstance(node, dict):
        return {key: _bind_data(value, values) for key, value in node.items()}
    if isinstance(node, list):
        return [_bind_data(item, values) for item in node]
    return node


def execute(database: Database, statement: "str | Statement | ExplainStatement") -> QueryResult:
    """One-call convenience: execute *statement* against *database*."""
    return MQLInterpreter(database).execute(statement)
