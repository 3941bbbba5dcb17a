"""The atom-type algebra π, σ, ×, ω, δ with link-type inheritance (Definition 4, Theorem 1).

The five atom-type operations mirror the relational algebra but operate on
atom types and — crucially — *inherit* the link types of their operands to the
result atom type, so that results "could be reused in subsequent operations"
(in particular in molecule derivation, which relies on the existence of link
types).  The paper defers the formal definition of inheritance to [Mi88a]; we
implement the natural construction:

* every link type incident to an operand atom type is copied under a fresh
  name, re-targeted at the result atom type, and its occurrence is rewritten
  so that each link now references the result atoms derived from the operand
  atoms it originally referenced;
* atoms produced by projection, restriction, union and difference keep their
  operand identity, so rewriting reduces to filtering;
* atoms produced by the cartesian product carry composite identities
  (``a1&a2``), and a link incident to ``a1`` is rewritten to every result atom
  whose provenance contains ``a1``.

Each operation returns an :class:`AtomOperationResult` carrying the result
atom type, the inherited link types, and the *enlarged database* — the
original database is never mutated, which is exactly the closure statement of
Theorem 1: every result is representable in ``DB*``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.link import Link, LinkType
from repro.core.predicates import Formula, PredicateFormula
from repro.exceptions import (
    ProjectionError,
    RestrictionError,
    UnionCompatibilityError,
)

_result_counter = itertools.count(1)


def _fresh_name(prefix: str) -> str:
    """Generate a fresh result-type name (element of the naming set N)."""
    return f"{prefix}${next(_result_counter)}"


@dataclass
class AtomOperationResult:
    """The outcome of an atom-type operation.

    Attributes
    ----------
    atom_type:
        The freshly constructed result atom type.
    inherited_link_types:
        The link types inherited from the operands, already re-targeted at the
        result atom type.
    database:
        The enlarged database containing the operands, the result atom type
        and the inherited link types.
    provenance:
        Mapping from result-atom identifiers to the operand-atom identifiers
        they were derived from (used by molecule propagation and by tests).
    """

    atom_type: AtomType
    inherited_link_types: Tuple[LinkType, ...]
    database: Database
    provenance: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def __iter__(self):
        # Allow ``atom_type, links, db = project(...)`` style unpacking.
        return iter((self.atom_type, self.inherited_link_types, self.database))


def _inherit_link_types(
    database: Database,
    operands: Sequence[AtomType],
    result: AtomType,
    origin_map: Dict[str, Set[str]],
) -> Tuple[LinkType, ...]:
    """Inherit every link type incident to *operands* onto *result*.

    *origin_map* maps each operand-atom identifier to the set of result-atom
    identifiers derived from it.  Links whose operand endpoint has no derived
    result atom simply disappear (e.g. the operand atom was filtered out by a
    restriction) — this is what keeps referential integrity intact with "no
    dangling references".
    """
    inherited: List[LinkType] = []
    operand_names = {operand.name for operand in operands}
    for operand in operands:
        for link_type in database.link_types_of(operand.name):
            other_type = link_type.other_type(operand.name)
            new_name = f"{link_type.name}~{result.name}"
            if link_type.is_reflexive:
                # Both endpoints map through the origin map.
                new_link_type = LinkType(new_name, result.name, result.name,
                                         cardinality=link_type.cardinality)
                for link in link_type:
                    # The given order keeps the two roles (e.g. super/sub-part).
                    for new_first in origin_map.get(link.first, ()):
                        for new_second in origin_map.get(link.second, ()):
                            new_link_type.add(Link(new_name, new_first, new_second,
                                                   result.name, result.name))
                inherited.append(new_link_type)
                continue
            new_link_type = LinkType(new_name, result.name, other_type,
                                     cardinality=link_type.cardinality)
            # A stored non-reflexive link is in definition order.
            operand_first = link_type.atom_type_names[0] == operand.name
            for link in link_type:
                if operand_first:
                    operand_id, other_id = link.first, link.second
                else:
                    operand_id, other_id = link.second, link.first
                for new_id in origin_map.get(operand_id, ()):
                    new_link_type.add(Link(new_name, new_id, other_id, result.name, other_type))
            inherited.append(new_link_type)
    # Avoid duplicating link types when both operands of a binary operation
    # are the same atom type.
    unique: Dict[str, LinkType] = {}
    for link_type in inherited:
        unique.setdefault(link_type.name, link_type)
    return tuple(unique.values())


def _identity_origin_map(result: AtomType) -> Dict[str, Set[str]]:
    """Origin map for operations whose result atoms keep their operand identity."""
    return {atom.identifier: {atom.identifier} for atom in result}


def project(
    database: Database,
    atom_type: "AtomType | str",
    attributes: Sequence[str],
    name: Optional[str] = None,
) -> AtomOperationResult:
    """Atom-type projection ``π[proj(ad)](at)``.

    The result atom type carries only the attributes in *attributes*; result
    atoms keep the identity of their operand atoms (atoms remain "uniquely
    identifiable", so projection never collapses two distinct atoms).
    """
    operand = database.atyp(atom_type) if isinstance(atom_type, str) else atom_type
    missing = [a for a in attributes if a not in operand.description]
    if missing:
        raise ProjectionError(
            f"projection attributes {missing!r} not in atom type {operand.name!r}"
        )
    result_name = name or _fresh_name(f"proj({operand.name})")
    description = operand.description.project(list(attributes))
    result = AtomType(result_name, description)
    provenance: Dict[str, Tuple[str, ...]] = {}
    for atom in operand:
        projected = atom.projected(list(attributes), type_name=result_name)
        result.add(projected)
        provenance[projected.identifier] = (atom.identifier,)
    origin_map = _identity_origin_map(result)
    inherited = _inherit_link_types(database, [operand], result, origin_map)
    enlarged = database.enlarged([result], inherited)
    return AtomOperationResult(result, inherited, enlarged, provenance)


def restrict(
    database: Database,
    atom_type: "AtomType | str",
    formula: "Formula | callable",
    name: Optional[str] = None,
) -> AtomOperationResult:
    """Atom-type restriction ``σ[restr(ad)](at)``.

    *formula* is a qualification formula (see :mod:`repro.core.predicates`) or
    a plain callable over atoms.  The result keeps the operand's description
    and contains exactly the atoms satisfying the formula.
    """
    operand = database.atyp(atom_type) if isinstance(atom_type, str) else atom_type
    if callable(formula) and not isinstance(formula, Formula):
        formula = PredicateFormula(formula)
    if not isinstance(formula, Formula):
        raise RestrictionError(f"not a qualification formula: {formula!r}")
    result_name = name or _fresh_name(f"restr({operand.name})")
    result = AtomType(result_name, operand.description)
    provenance: Dict[str, Tuple[str, ...]] = {}
    for atom in operand:
        if formula.evaluate_atom(atom):
            kept = Atom(result_name, atom.values, identifier=atom.identifier)
            result.add(kept)
            provenance[kept.identifier] = (atom.identifier,)
    origin_map = _identity_origin_map(result)
    inherited = _inherit_link_types(database, [operand], result, origin_map)
    enlarged = database.enlarged([result], inherited)
    return AtomOperationResult(result, inherited, enlarged, provenance)


def product(
    database: Database,
    first: "AtomType | str",
    second: "AtomType | str",
    name: Optional[str] = None,
) -> AtomOperationResult:
    """Atom-type cartesian product ``×(at1, at2)``.

    The result description is the union of both operand descriptions (clashing
    attribute names are disambiguated with the operand name as prefix); each
    result atom is the concatenation ``a1 & a2`` and carries the composite
    identity ``id1&id2``.
    """
    left = database.atyp(first) if isinstance(first, str) else first
    right = database.atyp(second) if isinstance(second, str) else second
    result_name = name or _fresh_name(f"x({left.name},{right.name})")
    description = left.description.union(right.description, left.name, right.name)
    result = AtomType(result_name, description)
    provenance: Dict[str, Tuple[str, ...]] = {}
    origin_map: Dict[str, Set[str]] = {}
    names = list(description.names)
    for a1 in left:
        for a2 in right:
            combined = a1.concatenated(a2, result_name, names)
            result.add(combined)
            provenance[combined.identifier] = (a1.identifier, a2.identifier)
            origin_map.setdefault(a1.identifier, set()).add(combined.identifier)
            origin_map.setdefault(a2.identifier, set()).add(combined.identifier)
    inherited = _inherit_link_types(database, [left, right], result, origin_map)
    enlarged = database.enlarged([result], inherited)
    return AtomOperationResult(result, inherited, enlarged, provenance)


def _check_union_compatible(left: AtomType, right: AtomType, operation: str) -> None:
    if left.description != right.description:
        raise UnionCompatibilityError(
            f"{operation} requires identical descriptions; "
            f"{left.name!r} has {list(left.description.names)!r}, "
            f"{right.name!r} has {list(right.description.names)!r}"
        )


def union(
    database: Database,
    first: "AtomType | str",
    second: "AtomType | str",
    name: Optional[str] = None,
) -> AtomOperationResult:
    """Atom-type union ``ω(at1, at2)`` (descriptions must be identical)."""
    left = database.atyp(first) if isinstance(first, str) else first
    right = database.atyp(second) if isinstance(second, str) else second
    _check_union_compatible(left, right, "union")
    result_name = name or _fresh_name(f"union({left.name},{right.name})")
    result = AtomType(result_name, left.description)
    provenance: Dict[str, Tuple[str, ...]] = {}
    for operand in (left, right):
        for atom in operand:
            if atom.identifier in result:
                continue
            kept = Atom(result_name, atom.values, identifier=atom.identifier)
            result.add(kept)
            provenance[kept.identifier] = (atom.identifier,)
    origin_map = _identity_origin_map(result)
    inherited = _inherit_link_types(database, [left, right], result, origin_map)
    enlarged = database.enlarged([result], inherited)
    return AtomOperationResult(result, inherited, enlarged, provenance)


def difference(
    database: Database,
    first: "AtomType | str",
    second: "AtomType | str",
    name: Optional[str] = None,
) -> AtomOperationResult:
    """Atom-type difference ``δ(at1, at2)`` (descriptions must be identical)."""
    left = database.atyp(first) if isinstance(first, str) else first
    right = database.atyp(second) if isinstance(second, str) else second
    _check_union_compatible(left, right, "difference")
    result_name = name or _fresh_name(f"diff({left.name},{right.name})")
    result = AtomType(result_name, left.description)
    removed = set(right.identifiers())
    removed_values = {frozenset(atom.values.items()) for atom in right}
    provenance: Dict[str, Tuple[str, ...]] = {}
    for atom in left:
        if atom.identifier in removed:
            continue
        if frozenset(atom.values.items()) in removed_values:
            # Set difference is value-based when identities differ between the
            # two operands (e.g. the operands were loaded independently).
            continue
        kept = Atom(result_name, atom.values, identifier=atom.identifier)
        result.add(kept)
        provenance[kept.identifier] = (atom.identifier,)
    origin_map = _identity_origin_map(result)
    inherited = _inherit_link_types(database, [left], result, origin_map)
    enlarged = database.enlarged([result], inherited)
    return AtomOperationResult(result, inherited, enlarged, provenance)


def intersection(
    database: Database,
    first: "AtomType | str",
    second: "AtomType | str",
    name: Optional[str] = None,
) -> AtomOperationResult:
    """Derived atom-type intersection, expressed as ``δ(at1, δ(at1, at2))``.

    Provided for convenience and exercised by the closure benchmarks; the
    construction demonstrates operation concatenation over the enlarged
    database exactly as the paper does for the molecule algebra's Ψ.
    """
    left = database.atyp(first) if isinstance(first, str) else first
    step = difference(database, left, second)
    return difference(step.database, left, step.atom_type, name=name)


class AtomAlgebra:
    """Object-style facade binding the atom-type operations to one database.

    Every call returns the :class:`AtomOperationResult`; the facade keeps
    track of the latest enlarged database so that successive operations can be
    chained without threading the database by hand::

        algebra = AtomAlgebra(db)
        border = algebra.product("area", "edge", name="border")
        big = algebra.restrict(border.atom_type, attr("hectare") > 1000)
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    def _advance(self, result: AtomOperationResult) -> AtomOperationResult:
        self.database = result.database
        return result

    def project(self, atom_type, attributes, name=None) -> AtomOperationResult:
        """π — see :func:`project`."""
        return self._advance(project(self.database, atom_type, attributes, name))

    def restrict(self, atom_type, formula, name=None) -> AtomOperationResult:
        """σ — see :func:`restrict`."""
        return self._advance(restrict(self.database, atom_type, formula, name))

    def product(self, first, second, name=None) -> AtomOperationResult:
        """× — see :func:`product`."""
        return self._advance(product(self.database, first, second, name))

    def union(self, first, second, name=None) -> AtomOperationResult:
        """ω — see :func:`union`."""
        return self._advance(union(self.database, first, second, name))

    def difference(self, first, second, name=None) -> AtomOperationResult:
        """δ — see :func:`difference`."""
        return self._advance(difference(self.database, first, second, name))

    def intersection(self, first, second, name=None) -> AtomOperationResult:
        """Derived intersection — see :func:`intersection`."""
        return self._advance(intersection(self.database, first, second, name))
