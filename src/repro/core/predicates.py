"""Qualification formulas and the ``qual`` predicate (Definitions 4 and 10).

The atom-type restriction ``σ[restr(ad)](at)`` and the molecule-type
restriction ``Σ[restr(md)](mt)`` both rely on a *qualification formula*
``restr`` and on a predicate ``qual`` that "decides whether the atom (or
molecule) at hand fulfills the qualification condition".  This module provides
a small expression language for those formulas:

* :class:`Comparison` — ``attribute <op> constant`` or ``attribute <op>
  attribute``; for molecules the attribute reference is qualified with an atom
  type name (``point.name = 'pn'``),
* :class:`And`, :class:`Or`, :class:`Not` — the boolean connectives,
* :class:`TrueFormula` / :class:`FalseFormula` — constants,
* :func:`attr` — a builder producing comparisons with operator syntax
  (``attr("hectare") > 1000``).

Evaluation against an atom uses :meth:`Formula.evaluate_atom`; evaluation
against a molecule uses :meth:`Formula.evaluate_molecule` with existential
semantics over component atoms of the referenced type (a molecule qualifies
when *some* component atom of that type satisfies the comparison — the natural
reading of the paper's ``point.name = 'pn'`` example, where each molecule is
rooted in exactly one ``point`` atom).
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exceptions import RestrictionError

_OPERATORS: Dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "==": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _compare(op: str, left: object, right: object) -> bool:
    """Apply comparison *op*, treating None as failing every comparison except != ."""
    func = _OPERATORS[op]
    if left is None or right is None:
        if op in ("!=", "<>"):
            return left is not right
        if op in ("=", "=="):
            return left is None and right is None
        return False
    try:
        return bool(func(left, right))
    except TypeError:
        return False


class Formula:
    """Abstract base class of qualification formulas."""

    def evaluate_atom(self, atom) -> bool:
        """Return ``True`` when *atom* satisfies this formula."""
        raise NotImplementedError

    def evaluate_molecule(self, molecule) -> bool:
        """Return ``True`` when *molecule* satisfies this formula."""
        raise NotImplementedError

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        """Return the ``(atom_type, attribute)`` pairs referenced by this formula."""
        raise NotImplementedError

    def referenced_atom_types(self) -> Tuple[str, ...]:
        """Return the atom-type names explicitly referenced (deduplicated, ordered)."""
        seen = []
        for type_name, _ in self.referenced_attributes():
            if type_name is not None and type_name not in seen:
                seen.append(type_name)
        return tuple(seen)

    # Boolean composition -----------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


class TrueFormula(Formula):
    """The always-true qualification (restriction with it is the identity)."""

    def evaluate_atom(self, atom) -> bool:
        return True

    def evaluate_molecule(self, molecule) -> bool:
        return True

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        return ()

    def __repr__(self) -> str:
        return "TRUE"


class FalseFormula(Formula):
    """The always-false qualification (restriction with it empties the occurrence)."""

    def evaluate_atom(self, atom) -> bool:
        return False

    def evaluate_molecule(self, molecule) -> bool:
        return False

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        return ()

    def __repr__(self) -> str:
        return "FALSE"


class Comparison(Formula):
    """An atomic comparison ``<lhs> <op> <rhs>``.

    ``lhs`` is an attribute reference; ``rhs`` is either a constant or another
    attribute reference (see :class:`AttributeRef`).  Attribute references may
    carry an atom-type qualifier, which is required for molecule evaluation
    whenever the attribute name is ambiguous.
    """

    def __init__(self, lhs: "AttributeRef", op: str, rhs: object) -> None:
        if op not in _OPERATORS:
            raise RestrictionError(f"unknown comparison operator: {op!r}")
        self.lhs = lhs
        self.op = op
        self.rhs = rhs

    def evaluate_atom(self, atom) -> bool:
        left = self.lhs.value_from_atom(atom)
        right = self.rhs.value_from_atom(atom) if isinstance(self.rhs, AttributeRef) else self.rhs
        return _compare(self.op, left, right)

    def evaluate_molecule(self, molecule) -> bool:
        left_values = self.lhs.values_from_molecule(molecule)
        if isinstance(self.rhs, AttributeRef):
            right_values = self.rhs.values_from_molecule(molecule)
            return any(
                _compare(self.op, left, right)
                for left in left_values
                for right in right_values
            )
        return any(_compare(self.op, left, self.rhs) for left in left_values)

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        refs = [(self.lhs.atom_type, self.lhs.attribute)]
        if isinstance(self.rhs, AttributeRef):
            refs.append((self.rhs.atom_type, self.rhs.attribute))
        return tuple(refs)

    def __repr__(self) -> str:
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


class AttributeRef:
    """A reference to an attribute, optionally qualified with an atom type.

    ``AttributeRef("hectare")`` references the attribute of whatever atom is
    being tested; ``AttributeRef("name", "point")`` references the ``name``
    attribute of ``point`` atoms inside a molecule.
    """

    __slots__ = ("attribute", "atom_type")

    def __init__(self, attribute: str, atom_type: Optional[str] = None) -> None:
        self.attribute = attribute
        self.atom_type = atom_type

    def value_from_atom(self, atom) -> object:
        if self.atom_type is not None and atom.type_name != self.atom_type:
            return None
        return atom.get(self.attribute)

    def values_from_molecule(self, molecule) -> Tuple[object, ...]:
        atoms = molecule.atoms_of_type(self.atom_type) if self.atom_type else molecule.atoms
        return tuple(atom.get(self.attribute) for atom in atoms)

    # Operator overloads to build comparisons fluently ------------------------

    def __eq__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, "=", other)

    def __ne__(self, other: object) -> "Comparison":  # type: ignore[override]
        return Comparison(self, "!=", other)

    def __lt__(self, other: object) -> "Comparison":
        return Comparison(self, "<", other)

    def __le__(self, other: object) -> "Comparison":
        return Comparison(self, "<=", other)

    def __gt__(self, other: object) -> "Comparison":
        return Comparison(self, ">", other)

    def __ge__(self, other: object) -> "Comparison":
        return Comparison(self, ">=", other)

    def __hash__(self) -> int:
        return hash((self.attribute, self.atom_type))

    def __repr__(self) -> str:
        if self.atom_type:
            return f"{self.atom_type}.{self.attribute}"
        return self.attribute


class And(Formula):
    """Conjunction of two or more formulas."""

    def __init__(self, *operands: Formula) -> None:
        if len(operands) < 2:
            raise RestrictionError("And requires at least two operands")
        self.operands = tuple(operands)

    def evaluate_atom(self, atom) -> bool:
        return all(op.evaluate_atom(atom) for op in self.operands)

    def evaluate_molecule(self, molecule) -> bool:
        return all(op.evaluate_molecule(molecule) for op in self.operands)

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        refs: list = []
        for op in self.operands:
            refs.extend(op.referenced_attributes())
        return tuple(refs)

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(op) for op in self.operands) + ")"


class Or(Formula):
    """Disjunction of two or more formulas."""

    def __init__(self, *operands: Formula) -> None:
        if len(operands) < 2:
            raise RestrictionError("Or requires at least two operands")
        self.operands = tuple(operands)

    def evaluate_atom(self, atom) -> bool:
        return any(op.evaluate_atom(atom) for op in self.operands)

    def evaluate_molecule(self, molecule) -> bool:
        return any(op.evaluate_molecule(molecule) for op in self.operands)

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        refs: list = []
        for op in self.operands:
            refs.extend(op.referenced_attributes())
        return tuple(refs)

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(op) for op in self.operands) + ")"


class Not(Formula):
    """Negation of a formula."""

    def __init__(self, operand: Formula) -> None:
        self.operand = operand

    def evaluate_atom(self, atom) -> bool:
        return not self.operand.evaluate_atom(atom)

    def evaluate_molecule(self, molecule) -> bool:
        return not self.operand.evaluate_molecule(molecule)

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        return self.operand.referenced_attributes()

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


class PredicateFormula(Formula):
    """Escape hatch wrapping an arbitrary Python callable as a formula.

    The callable receives the atom or molecule and returns a boolean.  Used by
    tests and by applications whose conditions are not expressible as simple
    comparisons; the optimizer treats such formulas as opaque.
    """

    def __init__(self, func: Callable[[object], bool], description: str = "<predicate>") -> None:
        self.func = func
        self.description = description

    def evaluate_atom(self, atom) -> bool:
        return bool(self.func(atom))

    def evaluate_molecule(self, molecule) -> bool:
        return bool(self.func(molecule))

    def referenced_attributes(self) -> Tuple[Tuple[Optional[str], str], ...]:
        return ()

    def __repr__(self) -> str:
        return self.description


def attr(attribute: str, atom_type: Optional[str] = None) -> AttributeRef:
    """Build an attribute reference: ``attr("hectare") > 1000``.

    For molecule qualifications use the qualified form
    ``attr("name", "point") == "pn"`` (the paper writes ``point.name = 'pn'``).
    A dotted string ``attr("point.name")`` is accepted as a shorthand.
    """
    if atom_type is None and "." in attribute:
        atom_type, attribute = attribute.split(".", 1)
    return AttributeRef(attribute, atom_type)


def conjoin(formulas: Sequence[Formula]) -> Formula:
    """Combine *formulas* with AND; empty input yields :class:`TrueFormula`."""
    formulas = [f for f in formulas if not isinstance(f, TrueFormula)]
    if not formulas:
        return TrueFormula()
    if len(formulas) == 1:
        return formulas[0]
    return And(*formulas)


def split_conjunction(formula: Formula) -> Tuple[Formula, ...]:
    """Flatten nested conjunctions into their conjuncts (used by the optimizer)."""
    if isinstance(formula, And):
        parts: list = []
        for operand in formula.operands:
            parts.extend(split_conjunction(operand))
        return tuple(parts)
    if isinstance(formula, TrueFormula):
        return ()
    return (formula,)


def equality_conjuncts(
    formula: Optional[Formula], atom_type_name: str
) -> List[Comparison]:
    """The conjuncts of *formula* of the form ``atom_type.attr = constant``.

    Only conjuncts explicitly qualified with *atom_type_name* (derived-type
    suffixes ignored) count: these are the ones an existential molecule
    restriction can answer per conjunct from the atoms matching them.
    """
    if formula is None:
        return []
    bare = atom_type_name.split("@", 1)[0]
    return [
        conjunct
        for conjunct in split_conjunction(formula)
        if isinstance(conjunct, Comparison)
        and conjunct.op in ("=", "==")
        and not isinstance(conjunct.rhs, AttributeRef)
        and conjunct.lhs.atom_type is not None
        and conjunct.lhs.atom_type.split("@", 1)[0] == bare
    ]
