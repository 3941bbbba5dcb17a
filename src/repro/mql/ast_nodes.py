"""Abstract syntax tree of MQL statements.

The AST mirrors the three-clause structure of an MQL query block plus the set
operations between blocks:

* :class:`Query` — ``SELECT`` projection list (or ALL), :class:`FromClause`,
  optional ``WHERE`` condition;
* :class:`FromClause` — an optional molecule-type name plus the molecule
  structure, expressed as a tree of :class:`StructureNode`/:class:`StructureBranch`
  (the dash-path notation of the paper), or a :class:`RecursiveStructure`;
* conditions — :class:`ComparisonCondition`, :class:`LogicalCondition`,
  :class:`NotCondition` over :class:`AttributeReference` and literals;
* :class:`SetOperation` — UNION / DIFFERENCE / INTERSECT of two queries;
* DML — :class:`InsertStatement` (structure plus a nested object literal),
  :class:`DeleteStatement` and :class:`ModifyStatement`, both of which carry a
  full molecule query (FROM structure + WHERE condition) as their qualifying
  read.

A literal in a value position (a comparison's right-hand side, a ``SET``
value, an INSERT object value) is a plain Python value — or, in the AST of a
statement *template*, a :class:`Slot` standing for it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class AttributeReference:
    """An attribute reference ``atom_type.attribute`` or a bare ``attribute``."""

    attribute: str
    atom_type: Optional[str] = None

    def __str__(self) -> str:
        if self.atom_type:
            return f"{self.atom_type}.{self.attribute}"
        return self.attribute


class Slot:
    """The place of a literal in a statement *template* (see
    :func:`repro.mql.parser.parse_template`): the *index*-th literal in a
    value position, negated when the statement wrote ``- number``.

    *sample* is the literal of the statement the template was parsed from;
    it only ever supplies the slot's ``repr``, so an error message raised
    while a template is translated reads exactly as it would for the
    statement itself.  Slots stay inside the interpreter's statement cache,
    which replaces every one of them by its literal (:meth:`bind`) before a
    plan is compiled or returned.
    """

    __slots__ = ("index", "sample", "negated")

    def __init__(self, index: int, sample: object, negated: bool = False) -> None:
        self.index = index
        self.sample = sample
        self.negated = negated

    def bind(self, values: Sequence[object]) -> object:
        """This slot's literal among *values* (a statement's literals in order)."""
        value = values[self.index]
        return -value if self.negated else value  # type: ignore[operator]

    def __neg__(self) -> "Slot":
        return Slot(self.index, -self.sample, not self.negated)  # type: ignore[operator]

    def __repr__(self) -> str:
        return repr(self.sample)


@dataclass(frozen=True)
class ComparisonCondition:
    """``lhs <op> rhs`` where rhs is a literal or another attribute reference."""

    lhs: AttributeReference
    operator: str
    rhs: object


@dataclass(frozen=True)
class LogicalCondition:
    """AND/OR combination of two or more conditions."""

    operator: str  # "AND" | "OR"
    operands: Tuple[object, ...]


@dataclass(frozen=True)
class NotCondition:
    """Negation of a condition."""

    operand: object


@dataclass(frozen=True)
class StructureBranch:
    """A parenthesized branch group ``(path, path, ...)`` hanging off the previous node."""

    branches: Tuple["StructurePath", ...]


@dataclass(frozen=True)
class StructureNode:
    """A single atom-type node in a structure path, with the link used to reach it.

    ``link_name`` is ``"-"`` for the anonymous link (resolved from the schema)
    or an explicit bracketed link-type name; it is ``None`` for the first node
    of a path.
    """

    atom_type: str
    link_name: Optional[str] = None


@dataclass(frozen=True)
class StructurePath:
    """A dash-separated path of nodes and branch groups."""

    elements: Tuple[Union[StructureNode, StructureBranch], ...]


@dataclass(frozen=True)
class RecursiveStructure:
    """``RECURSIVE part [composition] DOWN`` — a recursive molecule structure."""

    atom_type: str
    link_name: Optional[str] = None
    direction: str = "down"
    max_depth: Optional[int] = None


@dataclass(frozen=True)
class FromClause:
    """The FROM clause: an optional molecule-type name plus the structure."""

    structure: Union[StructurePath, RecursiveStructure]
    molecule_name: Optional[str] = None


@dataclass(frozen=True)
class AggregateItem:
    """One aggregate call in a SELECT list: ``func(attr)`` or ``COUNT(*)``.

    *argument* is ``None`` for ``COUNT(*)`` (*star* is then ``True``); for
    component counts the argument is a bare :class:`AttributeReference` whose
    ``attribute`` names an atom type of the FROM structure.  *distinct*
    marks ``COUNT(DISTINCT attr)`` — the parser only accepts it on COUNT
    over an attribute argument.
    """

    func: str  # "COUNT" | "SUM" | "MIN" | "MAX" | "AVG"
    argument: Optional[AttributeReference] = None
    star: bool = False
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.star else str(self.argument)
        if self.distinct:
            inner = f"distinct {inner}"
        return f"{self.func.lower()}({inner})"


@dataclass(frozen=True)
class Query:
    """A single SELECT-FROM-WHERE query block.

    Aggregation extends the block: when *aggregates* is non-empty the SELECT
    list consisted of aggregate calls (plus, optionally, the *select_refs*
    attribute references, each of which must also appear in *group_by*) and
    the result is a set of rows, not molecules.
    """

    select_all: bool
    projection: Tuple[str, ...]
    from_clause: FromClause
    where: Optional[object] = None
    aggregates: Tuple[AggregateItem, ...] = ()
    group_by: Tuple[AttributeReference, ...] = ()
    select_refs: Tuple[AttributeReference, ...] = ()


@dataclass(frozen=True)
class SetOperation:
    """A set operation between two query expressions (left-associative)."""

    operator: str  # "UNION" | "DIFFERENCE" | "INTERSECT"
    left: object
    right: object


@dataclass(frozen=True, eq=False)
class InsertStatement:
    """``INSERT <structure> VALUES {…}`` — create one complex object.

    The nested object literal mirrors the manipulation API's nested-dictionary
    form: child atom-type names map to an object or a parenthesized list of
    objects; ``_id`` references an existing atom (shared subobject).
    """

    from_clause: FromClause
    data: Mapping[str, object]


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE [CASCADE] [name] FROM <structure> [WHERE …]`` — remove molecules.

    The from/where pair forms a full molecule query: the planner optimizes the
    qualifying read before any mutation happens.
    """

    from_clause: FromClause
    where: Optional[object] = None
    cascade: bool = False


@dataclass(frozen=True)
class Assignment:
    """One ``attribute = literal`` pair of a MODIFY … SET list."""

    attribute: AttributeReference
    value: object


@dataclass(frozen=True)
class ModifyStatement:
    """``MODIFY <atom type> FROM <structure> SET a = v, … [WHERE …]``.

    Updates the target atom type's atoms within every qualifying molecule;
    identity is preserved, so links and containing molecules stay valid.
    """

    target: str
    from_clause: FromClause
    assignments: Tuple[Assignment, ...]
    where: Optional[object] = None


@dataclass(frozen=True)
class CheckpointStatement:
    """``CHECKPOINT`` — persist a snapshot image and truncate the WAL.

    Only meaningful on a durable storage engine
    (:class:`~repro.storage.engine.PrimaEngine` with a durability
    configuration); rejected while a session transaction is active, because
    the head then carries uncommitted writes.
    """


@dataclass(frozen=True)
class TransactionStatement:
    """``BEGIN WORK`` / ``COMMIT WORK`` / ``ROLLBACK WORK``.

    Scopes an interpreter session as one transaction: between BEGIN and
    COMMIT every query reads the snapshot pinned at BEGIN (plus the session's
    own writes — repeatable reads), DML statements accumulate in one
    write-set, and COMMIT publishes them under first-committer-wins conflict
    detection.  The ``WORK`` keyword is optional, as in SQL-89.
    """

    action: str  # "BEGIN" | "COMMIT" | "ROLLBACK"


#: Any executable parse result: a single query block or a tree of set operations.
Statement = Union[Query, SetOperation]

#: The three data-manipulation statements.
DMLStatement = Union[InsertStatement, DeleteStatement, ModifyStatement]


@dataclass(frozen=True, eq=False)
class ExplainStatement:
    """``EXPLAIN <statement>`` — report the optimizer's plan choice, do not execute."""

    statement: "Statement | DMLStatement"
