"""Spans recorded from outside the engine, around the public call of each layer.

A traced statement is replayed stage by stage on ``engine.interpreter()``
(whose ``database``, ``planner`` and ``executor`` are public)::

    stmt
      mql.lex -> mql.parse -> mql.translate -> optimizer.plan -> engine.compile
      -> engine.execute | engine.write (-> storage.wal.append) -> mql.render

Session statements (``BEGIN WORK`` … ``COMMIT WORK`` and the DML between
them) need the interpreter's private session, so they run whole under one
``mql.session`` span (``manipulation.commit`` for ``COMMIT WORK``).  A layer's
self time is its span minus the child spans inside it.  Spans inside
``src/repro`` are a later issue.
"""

from __future__ import annotations

import json
from dataclasses import replace
from time import perf_counter_ns
from typing import Dict, List

from repro.engine.executor import compile_plan, compile_write_plan
from repro.engine.logical import (
    AggregatePlan,
    ColumnarAggregatePlan,
    DeleteMolecules,
    ModifyAtoms,
)
from repro.mql.ast_nodes import (
    CheckpointStatement,
    DeleteStatement,
    InsertStatement,
    ModifyStatement,
    TransactionStatement,
)
from repro.mql.interpreter import QueryResult
from repro.mql.lexer import tokenize
from repro.mql.parser import parse
from repro.mql.translator import QueryTranslator
from repro.storage.wal import WriteAheadLog

FRONTEND = ("mql.lex", "mql.parse", "mql.translate", "optimizer.plan", "engine.compile")
_DML = (InsertStatement, DeleteStatement, ModifyStatement)


class Tracer:
    """In-memory span store: ``[name, start_ns, end_ns, parent, stmt_id]`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Class label of each ``stmt`` span, by statement id.
        self.classes: List[str] = []
        #: Per planned statement: (stmt_id, rules fired, chosen plan's type name).
        self.plans: List[tuple] = []
        #: Per rendered read: (stmt_id, results returned, ExecutionCounters).
        self.reads: List[tuple] = []
        #: The open span WAL appends nest under; -1 outside traced statements.
        self.current = -1

    def begin(self, name: str, parent: int, stmt_id: int) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent, stmt_id])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter_ns()

    def statement(self, cls: str) -> int:
        """Open a ``stmt`` span of latency class *cls*; returns its span index."""
        self.classes.append(cls)
        self.current = self.begin("stmt", -1, len(self.classes) - 1)
        return self.current

    def finish(self, root: int) -> None:
        self.end(root)
        self.current = -1

    def write(self, path: str) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "stmt_id")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)

    # ----------------------------------------------------- staged execution

    def query(self, engine, text: str, cls: str):
        """Run one MQL statement stage by stage.

        Returns ``(result, rendered)``; *rendered* is ``to_dicts()`` for
        planned reads and ``None`` for everything else.
        """
        interp = engine.interpreter()
        root = self.statement(cls)
        sid = len(self.classes) - 1
        try:
            span = self.begin("mql.lex", root, sid)
            tokens = tokenize(text)
            self.end(span)
            span = self.begin("mql.parse", root, sid)
            ast = parse(tokens)
            self.end(span)
            if isinstance(ast, (TransactionStatement, CheckpointStatement)) or interp.in_transaction:
                commit = isinstance(ast, TransactionStatement) and ast.action == "COMMIT"
                span = self.begin("manipulation.commit" if commit else "mql.session", root, sid)
                self.current = span
                outcome = interp.execute(ast), None
                self.end(span)
            elif isinstance(ast, _DML):
                outcome = self._write(interp, ast, root, sid), None
            else:
                outcome = self._read(interp, ast, root, sid)
        finally:
            # A raising statement must not leave WAL appends nesting under it.
            self.finish(root)
        return outcome

    def call(self, cls: str, layer: str, function):
        """Run one API call (not MQL) as a statement with a single *layer* span."""
        root = self.statement(cls)
        span = self.begin(layer, root, len(self.classes) - 1)
        self.current = span
        try:
            outcome = function()
        finally:
            self.end(span)
            self.finish(root)
        return outcome

    def _write(self, interp, ast, root: int, sid: int) -> QueryResult:
        span = self.begin("mql.translate", root, sid)
        plan = QueryTranslator(interp.database).translate_dml(ast)
        self.end(span)
        choice = None
        if isinstance(plan, (DeleteMolecules, ModifyAtoms)):
            span = self.begin("optimizer.plan", root, sid)
            choice = interp.planner.optimize(plan.source)
            self.end(span)
            plan = replace(plan, source=choice.best)
            self.plans.append((sid, len(choice.applied_rules), type(choice.best).__name__))
        span = self.begin("engine.compile", root, sid)
        operator = compile_write_plan(plan)
        self.end(span)
        span = self.begin("engine.write", root, sid)
        self.current = span
        written = interp.executor.run_write(operator)
        self.end(span)
        return QueryResult(
            written.molecule_type,
            interp.database,
            ast,
            counters=written.counters,
            plan_choice=choice,
            write_summary=written.summary,
        )

    def _read(self, interp, ast, root: int, sid: int):
        span = self.begin("mql.translate", root, sid)
        logical = QueryTranslator(interp.database).translate_statement(ast)
        self.end(span)
        span = self.begin("optimizer.plan", root, sid)
        choice = interp.planner.optimize(logical)
        self.end(span)
        best = choice.best
        self.plans.append((sid, len(choice.applied_rules), type(best).__name__))
        span = self.begin("engine.compile", root, sid)
        compile_plan(best)
        self.end(span)
        span = self.begin("engine.execute", root, sid)
        if isinstance(best, (AggregatePlan, ColumnarAggregatePlan)):
            done = interp.executor.run_aggregate(best)
            result = QueryResult(
                None, interp.database, ast, counters=done.counters, plan_choice=choice,
                columns=done.columns, rows=done.rows,
            )
        else:
            done = interp.executor.run(best)
            result = QueryResult(
                done.molecule_type, interp.database, ast, counters=done.counters,
                plan_choice=choice,
            )
        self.end(span)
        span = self.begin("mql.render", root, sid)
        rendered = result.to_dicts()
        self.end(span)
        self.reads.append((sid, len(result), result.counters))
        return result, rendered

    # ------------------------------------------------------------- analysis

    def durations(self, name: str) -> List[int]:
        return [end - start for span, start, end, _, _ in self.spans if span == name]

    def child_time(self) -> Dict[int, int]:
        """Summed duration of the direct children of every span, by parent index."""
        total: Dict[int, int] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                total[parent] = total.get(parent, 0) + (end - start)
        return total


class TimedWAL(WriteAheadLog):
    """A ``WriteAheadLog`` that records a span around every public ``append``.

    Passed as ``DurabilityConfig.wal_factory`` in traced runs; untraced runs
    use the stock log.
    """

    def __init__(self, path, fsync, group_commit, tracer: Tracer) -> None:
        super().__init__(path, fsync=fsync, group_commit=group_commit)
        self._tracer = tracer

    def append(self, payload: Dict[str, object]) -> int:
        tracer = self._tracer
        parent = tracer.current
        if parent < 0:
            return super().append(payload)
        span = tracer.begin("storage.wal.append", parent, tracer.spans[parent][4])
        try:
            return super().append(payload)
        finally:
            tracer.end(span)
