"""The references the planned pipeline is checked against.

* :func:`literal` — MQL as the paper defines it: the FROM clause is a
  molecule-type definition (α), WHERE a restriction (Σ), SELECT a projection
  (Π), set operations between blocks Ω/Δ/Ψ, each step evaluated by the
  materializing molecule algebra, which propagates its result set into an
  enlarged database (Definitions 8–10).  It has no Γ.  Propagation renames
  atom types, so compare its molecules by value — root identifier plus
  component identifiers — not by type name.
* :func:`row` — a statement on the row operators over an engine's data.  A
  plain :class:`~repro.mql.interpreter.MQLInterpreter` over the engine's
  database has no columnar store, so its planner keeps every Γ on the
  hash/sorted-group fold over the molecule scan.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.database import Database
from repro.core.molecule import MoleculeType
from repro.core.molecule_algebra import (
    molecule_difference,
    molecule_intersection,
    molecule_projection,
    molecule_restriction,
    molecule_type_definition,
    molecule_union,
)
from repro.core.recursion import RecursiveDescription, recursive_molecule_type
from repro.exceptions import MQLSemanticError
from repro.mql.ast_nodes import Query, SetOperation, Statement
from repro.mql.interpreter import MQLInterpreter, QueryResult
from repro.mql.parser import parse
from repro.mql.translator import QueryTranslator, next_anonymous_name


def literal(database: Database, statement: "str | Statement") -> QueryResult:
    """Evaluate a query (text or AST) by the literal α → Σ → Π translation.

    The result's ``database`` is the enlarged ``DB'``; it carries no
    counters and no plan choice."""
    ast = parse(statement) if isinstance(statement, str) else statement
    molecule_type, database = _execute_statement(ast, database)
    return QueryResult(molecule_type, database, ast)


def row(engine, statement, at=None) -> QueryResult:
    """*statement* on the row operators over *engine*'s data: at the pinned
    snapshot *at*; else, while the engine's interpreter has a ``BEGIN WORK``
    session open, at the session's snapshot plus its own writes; else at the
    head."""
    if at is None:
        at = engine.interpreter()._session_snapshot()
    return MQLInterpreter(engine.to_database()).execute(statement, at=at)


def _execute_statement(
    statement: Statement, database: Database
) -> Tuple[MoleculeType, Database]:
    if isinstance(statement, SetOperation):
        left_type, database = _execute_statement(statement.left, database)
        right_type, database = _execute_statement(statement.right, database)
        if statement.operator == "UNION":
            result = molecule_union(database, left_type, right_type)
        elif statement.operator == "DIFFERENCE":
            result = molecule_difference(database, left_type, right_type)
        else:
            result = molecule_intersection(database, left_type, right_type)
        return result.molecule_type, result.database
    if not isinstance(statement, Query):
        raise MQLSemanticError(f"cannot execute {statement!r}")
    return _execute_query(statement, database)


def _execute_query(query: Query, database: Database) -> Tuple[MoleculeType, Database]:
    if query.aggregates or query.group_by:
        raise MQLSemanticError("the literal algebra has no Γ materialization")
    translator = QueryTranslator(database)
    description = translator.translate_from(query.from_clause)
    name = query.from_clause.molecule_name or next_anonymous_name()

    if isinstance(description, RecursiveDescription):
        molecule_type = recursive_molecule_type(database, name, description)
        if query.where is not None:
            formula = translator.translate_condition(query.where, description)
            kept = tuple(m for m in molecule_type if formula.evaluate_molecule(m))
            molecule_type = MoleculeType(name, molecule_type.description, kept)
        if not query.select_all:
            raise MQLSemanticError("projection over a RECURSIVE structure is not supported")
        return molecule_type, database

    molecule_type = molecule_type_definition(database, name, description)
    if query.where is not None:
        formula = translator.translate_condition(query.where, description)
        restricted = molecule_restriction(database, molecule_type, formula)
        molecule_type, database = restricted.molecule_type, restricted.database
    projection = translator.translate_projection(query, description)
    if projection is not None:
        projected = molecule_projection(database, molecule_type, projection)
        molecule_type, database = projected.molecule_type, projected.database
    return molecule_type, database
