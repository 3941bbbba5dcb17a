"""MQL — the molecule query language ("MOL") of chapter 4.

An SQL-like surface language whose semantics are *defined by translation to
the molecule algebra*: the FROM clause is a molecule-type definition (α), the
WHERE clause a molecule-type restriction (Σ), and the SELECT clause a
molecule-type projection (Π).  Set operations between query blocks map to
Ω/Δ/Ψ.

The two statements of the paper work verbatim::

    SELECT ALL
    FROM mt_state (state - area - edge - point);

    SELECT ALL
    FROM point - edge - (area - state, net - river)
    WHERE point.name = 'pn';

Pipeline: :func:`tokenize` → :func:`parse` → :class:`QueryTranslator` (logical
plan) → :class:`~repro.optimizer.planner.Planner` (rewrite + cost) →
:class:`~repro.engine.executor.Executor` (streaming evaluation), driven by
:class:`MQLInterpreter` (or the one-call convenience :func:`execute`) — the one
route every statement takes.  Prefix a statement with ``EXPLAIN`` to see the
planner's choice without executing.
"""

from repro.mql.ast_nodes import (
    Assignment,
    AttributeReference,
    ComparisonCondition,
    DeleteStatement,
    ExplainStatement,
    FromClause,
    InsertStatement,
    LogicalCondition,
    ModifyStatement,
    NotCondition,
    Query,
    RecursiveStructure,
    SetOperation,
    StructureBranch,
    StructureNode,
    TransactionStatement,
)
from repro.mql.interpreter import MQLInterpreter, QueryResult, execute
from repro.mql.lexer import Token, TokenType, tokenize
from repro.mql.parser import parse
from repro.mql.translator import QueryTranslator, structure_to_description, to_logical_plan

__all__ = [
    "Assignment",
    "AttributeReference",
    "ComparisonCondition",
    "DeleteStatement",
    "ExplainStatement",
    "FromClause",
    "InsertStatement",
    "LogicalCondition",
    "ModifyStatement",
    "MQLInterpreter",
    "NotCondition",
    "Query",
    "QueryResult",
    "QueryTranslator",
    "RecursiveStructure",
    "SetOperation",
    "StructureBranch",
    "StructureNode",
    "Token",
    "TokenType",
    "TransactionStatement",
    "execute",
    "parse",
    "structure_to_description",
    "to_logical_plan",
    "tokenize",
]
