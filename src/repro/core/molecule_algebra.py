"""The molecule algebra α, Σ, Π, X, Ω, Δ (+ derived Ψ) and result propagation (Defs. 8–10, Thms. 2–3).

Every molecule-type operation follows the three-phase scheme of Fig. 5:

1. **operation-specific actions** produce a *result set* ``rst = <mname, rsd,
   rsv>`` (a molecule-type description plus the molecules that survive the
   operation);
2. the function **prop** (Definition 9) materializes that result set into the
   database: the atom types and link types used by ``rsd`` are *renamed* and
   their occurrences are *restricted* to exactly the atoms/links appearing in
   ``rsv``, and the database is enlarged with them;
3. the **molecule-type definition α** (Definition 8) is performed over the
   enlarged database, re-deriving the result molecule set — by construction it
   contains exactly one molecule per element of ``rsv``.

This construction is what makes the molecule algebra *closed* (Theorem 3):
the result of every operation is again a molecule type over a database of the
database domain, so operations can be concatenated arbitrarily — e.g. the
derived intersection ``Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2))``.

The operation-specific phase of every function is a thin wrapper over a
single-node streaming plan from :mod:`repro.engine.physical` (a
``MoleculeScan`` for α, a ``Restrict``/``Project``/set operator over a
``MoleculeSource`` for the rest), so the algebra and the plan pipeline share
one evaluation engine; only the materializing phases 2–3 (``prop`` + α over
the enlarged database) are specific to the algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.derivation import resolve_description
from repro.core.graph import DirectedLink
from repro.core.link import Link, LinkType
from repro.core.molecule import Molecule, MoleculeType, MoleculeTypeDescription
from repro.core.predicates import Formula, PredicateFormula
from repro.engine import physical as _physical
from repro.engine.logical import canonical_structure
from repro.exceptions import (
    AlgebraError,
    RestrictionError,
    UnionCompatibilityError,
)

_prop_counter = itertools.count(1)


def _fresh_suffix() -> str:
    return f"${next(_prop_counter)}"


@dataclass
class ResultSet:
    """The result set ``rst = <mname, rsd, rsv>`` of Definition 9."""

    name: str
    description: MoleculeTypeDescription
    molecules: Tuple[Molecule, ...]


@dataclass
class MoleculeOperationResult:
    """The outcome of a molecule-type operation.

    Attributes
    ----------
    molecule_type:
        The result molecule type ``mt`` (valid over :attr:`database`).
    database:
        The enlarged database ``DB'`` produced by propagation.
    propagated_atom_types / propagated_link_types:
        The renamed, occurrence-restricted types added by ``prop``.
    result_set:
        The intermediate result set, kept for verification (Fig. 5 benches
        check that ``mt``'s occurrence is equivalent to it).
    """

    molecule_type: MoleculeType
    database: Database
    propagated_atom_types: Tuple[AtomType, ...] = ()
    propagated_link_types: Tuple[LinkType, ...] = ()
    result_set: Optional[ResultSet] = None

    def __iter__(self):
        return iter((self.molecule_type, self.database))


# --------------------------------------------------------------------------- α


def molecule_type_definition(
    database: Database,
    name: str,
    description: "MoleculeTypeDescription | Sequence[str]",
    directed_links: Sequence["DirectedLink | Tuple[str, str, str]"] = (),
) -> MoleculeType:
    """The operator α (Definition 8): ``α[mname, G](C) = <mname, <C,G>, m_dom(<C,G>)>``.

    *description* may be a prepared :class:`MoleculeTypeDescription` or the
    set ``C`` of atom-type names accompanied by *directed_links* (``G``).
    The occurrence is derived immediately (eager ``m_dom``).
    """
    if not isinstance(description, MoleculeTypeDescription):
        description = MoleculeTypeDescription(list(description), list(directed_links))
    for type_name in description.atom_type_names:
        database.atyp(type_name)  # raises UnknownNameError when missing
    scan = _physical.MoleculeScan(name, description)
    context = _physical.ExecutionContext(database)
    molecules = tuple(scan.execute(context))
    return MoleculeType(name, scan.describe(context), molecules)


# ------------------------------------------------------------------------ prop


def propagate(result_set: ResultSet, database: Database) -> MoleculeOperationResult:
    """The function ``prop`` (Definition 9): materialize *result_set* into *database*.

    Returns the molecule type re-derived over the enlarged database; the
    re-derivation is guaranteed to reproduce the result set exactly because
    the propagated occurrences contain *only* atoms/links of result-set
    molecules and root atoms of exactly the result-set molecules.
    """
    rsd = resolve_description(database, result_set.description)
    suffix = _fresh_suffix()
    atom_name_map: Dict[str, str] = {}
    link_name_map: Dict[str, str] = {}

    # Collect, per original atom type, the atoms used by result-set molecules;
    # the root type is restricted to the molecules' root atoms so that the
    # re-derivation yields exactly one molecule per result-set element.
    atoms_per_type: Dict[str, Dict[str, Atom]] = {name: {} for name in rsd.atom_type_names}
    root_type = rsd.root
    root_ids = {m.root_atom.identifier for m in result_set.molecules}
    links_per_directed: Dict[Tuple[str, str, str], Set[Link]] = {
        dl.as_tuple(): set() for dl in rsd.directed_links
    }
    for molecule in result_set.molecules:
        for type_name in rsd.atom_type_names:
            for atom in molecule.atoms_of_type(type_name):
                if type_name == root_type and atom.identifier not in root_ids:
                    continue
                atoms_per_type[type_name][atom.identifier] = atom
        link_index: Dict[str, List[Link]] = {}
        for link in molecule.links:
            link_index.setdefault(link.link_type_name.split("~", 1)[0], []).append(link)
            link_index.setdefault(link.link_type_name, []).append(link)
        for directed in rsd.directed_links:
            # Match by the directed use's full name first; fall back to the
            # base link-type name so molecules stemming from a *differently*
            # propagated operand (e.g. the right side of a union) keep their
            # links through re-propagation.
            links = link_index.get(directed.link_type_name)
            if links is None:
                links = link_index.get(directed.link_type_name.split("~", 1)[0], ())
            for link in links:
                links_per_directed[directed.as_tuple()].add(link)

    # Build the renamed atom types C'.
    propagated_atom_types: List[AtomType] = []
    for type_name in rsd.atom_type_names:
        original = database.atyp(type_name)
        new_name = f"{type_name.split('@', 1)[0]}@{result_set.name}{suffix}"
        atom_name_map[type_name] = new_name
        renamed = AtomType(new_name, original.description)
        for atom in atoms_per_type[type_name].values():
            renamed.add(Atom(new_name, atom.values, identifier=atom.identifier))
        propagated_atom_types.append(renamed)

    # Build the inherited link types G'.
    propagated_link_types: List[LinkType] = []
    seen_link_names: Dict[str, LinkType] = {}
    renamed_links: List[DirectedLink] = []
    for directed in rsd.directed_links:
        base_name = directed.link_type_name.split("~", 1)[0]
        new_link_name = f"{base_name}~{result_set.name}{suffix}"
        link_name_map[directed.link_type_name] = new_link_name
        new_source = atom_name_map[directed.source]
        new_target = atom_name_map[directed.target]
        if new_link_name in seen_link_names:
            link_type = seen_link_names[new_link_name]
        else:
            link_type = LinkType(new_link_name, new_source, new_target)
            seen_link_names[new_link_name] = link_type
            propagated_link_types.append(link_type)
        for link in links_per_directed[directed.as_tuple()]:
            first, last = _use_endpoints(link, directed)
            link_type.add(Link(new_link_name, first, last, new_source, new_target))
        renamed_links.append(DirectedLink(new_link_name, new_source, new_target))

    new_description = MoleculeTypeDescription(
        [atom_name_map[name] for name in rsd.atom_type_names], renamed_links
    )
    enlarged = database.enlarged(propagated_atom_types, propagated_link_types)
    molecule_type = molecule_type_definition(enlarged, result_set.name, new_description)
    return MoleculeOperationResult(
        molecule_type,
        enlarged,
        tuple(propagated_atom_types),
        tuple(propagated_link_types),
        result_set,
    )


def _use_endpoints(link: Link, directed: DirectedLink) -> Tuple[str, str]:
    """``(source id, target id)`` of a link followed along *directed*.

    The endpoints are told apart by (undecorated) type — identifiers are
    unique only within a type; a use within one type keeps the link's given
    order, its only record of the two roles.
    """
    source = directed.source.split("@", 1)[0]
    target = directed.target.split("@", 1)[0]
    if source != target:
        ends = {type_name.split("@", 1)[0]: identifier for type_name, identifier in link.endpoints}
        if source in ends and target in ends:
            return ends[source], ends[target]
    return link.given_order


# --------------------------------------------------------------- Σ restriction


def molecule_restriction(
    database: Database,
    molecule_type: MoleculeType,
    formula: "Formula | callable",
    name: Optional[str] = None,
) -> MoleculeOperationResult:
    """Molecule-type restriction ``Σ[restr(md)](mt)`` (Definition 10).

    Keeps the molecules satisfying *formula* (a qualification formula over the
    molecule's component atoms, e.g. ``attr("name", "point") == "pn"``), then
    propagates and re-derives.
    """
    if callable(formula) and not isinstance(formula, Formula):
        formula = PredicateFormula(formula)
    if not isinstance(formula, Formula):
        raise RestrictionError(f"not a qualification formula: {formula!r}")
    result_name = name or f"restr({molecule_type.name})"
    operator = _physical.Restrict(_physical.MoleculeSource(molecule_type), formula)
    qualifying = tuple(operator.execute(_physical.ExecutionContext(database)))
    result_set = ResultSet(result_name, molecule_type.description, qualifying)
    return propagate(result_set, database)


# ---------------------------------------------------------------- Π projection


def molecule_projection(
    database: Database,
    molecule_type: MoleculeType,
    atom_type_names: Sequence[str],
    name: Optional[str] = None,
) -> MoleculeOperationResult:
    """Molecule-type projection ``Π``: keep only the given atom types of the structure.

    The root atom type must be retained and the retained subgraph must remain
    a valid molecule structure (coherent, single-rooted).  Each molecule is
    cut down to its atoms of the retained types and the links between them.
    """
    result_name = name or f"proj({molecule_type.name})"
    operator = _physical.Project(
        _physical.MoleculeSource(molecule_type), atom_type_names, owner=molecule_type.name
    )
    context = _physical.ExecutionContext(database)
    projected_description = operator.describe(context)  # raises on unknown/root loss
    projected = tuple(operator.execute(context))
    result_set = ResultSet(result_name, projected_description, projected)
    return propagate(result_set, database)


# ------------------------------------------------------------------- Ω / Δ / Ψ


def _check_compatible(first: MoleculeType, second: MoleculeType, operation: str) -> None:
    """Union/difference compatibility: identical graph structure over the same base types.

    The physical set operators re-check compatibility for the planner path;
    this algebra-level check exists besides it because only here are the
    operand *names* available for the error message.
    """
    if canonical_structure(first.description) != canonical_structure(second.description):
        raise UnionCompatibilityError(
            f"molecule-type {operation} requires structurally identical descriptions; "
            f"{first.name!r} and {second.name!r} differ"
        )


#: Value-based identity of a molecule (root identity plus component identities).
_molecule_value_key = _physical.molecule_value_key


def _stream_set_operation(
    database: Database,
    operator_class,
    first: MoleculeType,
    second: MoleculeType,
    result_name: str,
) -> MoleculeOperationResult:
    """Run one streaming set operator over the operand occurrences, then propagate."""
    operator = operator_class(
        _physical.MoleculeSource(first), _physical.MoleculeSource(second)
    )
    merged = tuple(operator.execute(_physical.ExecutionContext(database)))
    result_set = ResultSet(result_name, first.description, merged)
    return propagate(result_set, database)


def molecule_union(
    database: Database,
    first: MoleculeType,
    second: MoleculeType,
    name: Optional[str] = None,
) -> MoleculeOperationResult:
    """Molecule-type union ``Ω(mt1, mt2)`` over structurally identical types."""
    _check_compatible(first, second, "union")
    return _stream_set_operation(
        database, _physical.Union, first, second, name or f"union({first.name},{second.name})"
    )


def molecule_difference(
    database: Database,
    first: MoleculeType,
    second: MoleculeType,
    name: Optional[str] = None,
) -> MoleculeOperationResult:
    """Molecule-type difference ``Δ(mt1, mt2)``: molecules of mt1 not present in mt2."""
    _check_compatible(first, second, "difference")
    return _stream_set_operation(
        database, _physical.Difference, first, second, name or f"diff({first.name},{second.name})"
    )


def molecule_intersection(
    database: Database,
    first: MoleculeType,
    second: MoleculeType,
    name: Optional[str] = None,
) -> MoleculeOperationResult:
    """Derived intersection ``Ψ(mt1, mt2) = Δ(mt1, Δ(mt1, mt2))`` (paper, §3.2).

    Evaluated in a single streaming pass (value-key semi-join), which is
    set-theoretically identical to the double difference.
    """
    _check_compatible(first, second, "intersection")
    return _stream_set_operation(
        database,
        _physical.Intersection,
        first,
        second,
        name or f"intersect({first.name},{second.name})",
    )


# ------------------------------------------------------------ X cartesian prod


def molecule_product(
    database: Database,
    first: MoleculeType,
    second: MoleculeType,
    name: Optional[str] = None,
) -> MoleculeOperationResult:
    """Molecule-type cartesian product ``X(mt1, mt2)``.

    The paper omits the detailed definition (deferring to [Mi88a]); we
    implement the natural construction consistent with the closure
    requirement: a synthetic *pair* root atom type is created whose atoms are
    the concatenations of the two operand root atoms (exactly the atom-type
    cartesian product of the root types), with two synthetic link types
    connecting each pair atom to its two constituent root atoms.  The operand
    structures hang below unchanged, so the result is again a coherent,
    single-rooted DAG and every pair of operand molecules yields exactly one
    result molecule.
    """
    result_name = name or f"x({first.name},{second.name})"
    suffix = _fresh_suffix()
    pair_type_name = f"{result_name}_pair{suffix}"

    first_root_type = database.atyp(first.description.root)
    second_root_type = database.atyp(second.description.root)
    pair_description = first_root_type.description.union(
        second_root_type.description, first.description.root, second.description.root
    )
    pair_type = AtomType(pair_type_name, pair_description)
    left_link_name = f"{pair_type_name}-left"
    right_link_name = f"{pair_type_name}-right"
    left_link = LinkType(left_link_name, pair_type_name, first.description.root)
    right_link = LinkType(right_link_name, pair_type_name, second.description.root)

    names = list(pair_description.names)
    pair_molecule_inputs: List[Tuple[Atom, Molecule, Molecule]] = []
    for m1 in first:
        for m2 in second:
            pair_atom = m1.root_atom.concatenated(m2.root_atom, pair_type_name, names)
            pair_type.add(pair_atom)
            left_link.add(Link(left_link_name, pair_atom.identifier, m1.root_atom.identifier,
                               pair_type_name, first.description.root))
            right_link.add(Link(right_link_name, pair_atom.identifier, m2.root_atom.identifier,
                                pair_type_name, second.description.root))
            pair_molecule_inputs.append((pair_atom, m1, m2))

    combined_nodes = [pair_type_name]
    combined_edges: List[DirectedLink] = [
        DirectedLink(left_link_name, pair_type_name, first.description.root),
        DirectedLink(right_link_name, pair_type_name, second.description.root),
    ]

    def extend(description: MoleculeTypeDescription) -> None:
        for node in description.atom_type_names:
            if node not in combined_nodes:
                combined_nodes.append(node)
        for edge in description.directed_links:
            if edge not in combined_edges:
                combined_edges.append(edge)

    extend(resolve_description(database, first.description))
    extend(resolve_description(database, second.description))
    if first.description.root == second.description.root:
        raise AlgebraError(
            "molecule-type cartesian product of two types with the same root atom type "
            "is not supported; project or rename one operand first"
        )
    combined_description = MoleculeTypeDescription(combined_nodes, combined_edges)

    enlarged = database.enlarged([pair_type], [left_link, right_link])
    result_molecules: List[Molecule] = []
    for pair_atom, m1, m2 in pair_molecule_inputs:
        atoms = [pair_atom] + list(m1.atoms) + list(m2.atoms)
        links = (
            set(m1.links)
            | set(m2.links)
            | set(left_link.links_of(pair_atom.identifier))
            | set(right_link.links_of(pair_atom.identifier))
        )
        # Keep only the two synthetic links belonging to this pair atom.
        links = {
            link
            for link in links
            if link.link_type_name not in (left_link_name, right_link_name)
            or pair_atom.identifier in link.identifiers
        }
        result_molecules.append(Molecule(pair_atom, atoms, links, combined_description))

    result_set = ResultSet(result_name, combined_description, tuple(result_molecules))
    return propagate(result_set, enlarged)


# --------------------------------------------------------------------- facade


class MoleculeAlgebra:
    """Facade binding the molecule-type operations to an evolving database.

    The facade keeps the latest enlarged database so that operation chains
    (the whole point of algebraic closure, Theorem 3) read naturally::

        algebra = MoleculeAlgebra(db)
        mt_state = algebra.define("mt_state", ["state", "area", "edge", "point"],
                                  [("state-area", "state", "area"),
                                   ("area-edge", "area", "edge"),
                                   ("edge-point", "edge", "point")])
        big = algebra.restrict(mt_state, attr("hectare", "state") > 500)
    """

    def __init__(self, database: Database) -> None:
        self.database = database

    def _advance(self, result: MoleculeOperationResult) -> MoleculeOperationResult:
        self.database = result.database
        return result

    def define(
        self,
        name: str,
        atom_type_names: "Sequence[str] | MoleculeTypeDescription",
        directed_links: Sequence["DirectedLink | Tuple[str, str, str]"] = (),
    ) -> MoleculeType:
        """α — molecule-type definition over the current database."""
        return molecule_type_definition(self.database, name, atom_type_names, directed_links)

    def restrict(self, molecule_type, formula, name=None) -> MoleculeOperationResult:
        """Σ — molecule-type restriction."""
        return self._advance(molecule_restriction(self.database, molecule_type, formula, name))

    def project(self, molecule_type, atom_type_names, name=None) -> MoleculeOperationResult:
        """Π — molecule-type projection."""
        return self._advance(molecule_projection(self.database, molecule_type, atom_type_names, name))

    def union(self, first, second, name=None) -> MoleculeOperationResult:
        """Ω — molecule-type union."""
        return self._advance(molecule_union(self.database, first, second, name))

    def difference(self, first, second, name=None) -> MoleculeOperationResult:
        """Δ — molecule-type difference."""
        return self._advance(molecule_difference(self.database, first, second, name))

    def intersection(self, first, second, name=None) -> MoleculeOperationResult:
        """Ψ — derived molecule-type intersection."""
        return self._advance(molecule_intersection(self.database, first, second, name))

    def product(self, first, second, name=None) -> MoleculeOperationResult:
        """X — molecule-type cartesian product."""
        return self._advance(molecule_product(self.database, first, second, name))
