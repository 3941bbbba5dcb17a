"""Molecule derivation: ``m_dom``, ``contained``, ``total`` and ``mv_graph`` (Definition 6).

The derivation of a molecule-type occurrence "proceeds in a straight-forward
way using the molecule structure as a kind of template, which is laid over the
atom networks.  Thus, for each atom of the root atom type one molecule is
derived following all links determined by the link types of the molecule
structure to the children, grandchildren atoms etc. till the leaves are
reached.  Derivation of the children atoms means performing the hierarchical
join along the specified branches."

:func:`derive_occurrence` is the executable form of the function ``m_dom``;
:func:`mv_graph` re-checks a derived (or hand-built) molecule against its
description, and :func:`is_total` verifies maximality (the ``total``
predicate): a molecule must contain every atom that is *contained* w.r.t. the
description, and no atom that is not.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.graph import DirectedLink
from repro.core.link import Link, LinkType
from repro.core.molecule import Molecule, MoleculeTypeDescription
from repro.exceptions import MoleculeGraphError, SchemaError, UnknownNameError


def resolve_directed_link(database: Database, directed: DirectedLink) -> LinkType:
    """The ``ltyp`` function for directed uses: map a directed link to its link type.

    When the directed link carries the anonymous name ``"-"`` (the MQL
    shorthand "if there is only one link type defined between two atom types")
    the unique link type between source and target is resolved; ambiguity or
    absence raises :class:`SchemaError`.
    """
    name = directed.link_type_name
    if name and name != "-":
        link_type = database.ltyp(name)
        source = directed.source.split("@", 1)[0]
        target = directed.target.split("@", 1)[0]
        if not (
            link_type.connects_type(directed.source) or link_type.connects_type(source)
        ) or not (
            link_type.connects_type(directed.target) or link_type.connects_type(target)
        ):
            raise SchemaError(
                f"link type {name!r} does not connect {directed.source!r} and {directed.target!r}"
            )
        return link_type
    candidates = database.link_types_between(directed.source, directed.target)
    if not candidates:
        raise SchemaError(
            f"no link type defined between {directed.source!r} and {directed.target!r}"
        )
    if len(candidates) > 1:
        raise SchemaError(
            f"ambiguous link between {directed.source!r} and {directed.target!r}: "
            f"{[lt.name for lt in candidates]!r}; name the link type explicitly"
        )
    return candidates[0]


def resolve_description(
    database: Database, description: MoleculeTypeDescription
) -> MoleculeTypeDescription:
    """Return *description* with every anonymous link-type use resolved by name."""
    resolved = []
    changed = False
    for directed in description.directed_links:
        if directed.link_type_name and directed.link_type_name != "-":
            resolved.append(directed)
            continue
        link_type = resolve_directed_link(database, directed)
        resolved.append(DirectedLink(link_type.name, directed.source, directed.target))
        changed = True
    if not changed:
        return description
    return MoleculeTypeDescription(description.atom_type_names, resolved)


class StructureWalk:
    """One molecule structure laid over the atom networks, compiled once.

    Everything derivation needs per structure — the traversal order, the
    directed uses leaving and entering each atom type, their link types and
    the occurrences holding the partner atoms — is resolved here, so the
    per-molecule work is only the walk itself.  The walk runs on atom
    identifiers: :meth:`components` goes down from a root atom and returns the
    component atoms per atom type, :meth:`molecule` wraps the same walk into a
    :class:`Molecule`, and :meth:`roots_above` goes up from component atoms to
    the roots whose molecules contain them (links are symmetric; the
    description only lays a direction over them).

    An atom's links are what its link type's ``incident`` hands out: the
    live incidence bucket at the head (:meth:`LinkType.incident`), the
    visible links in a snapshot view
    (:meth:`~repro.core.versions.LinkTypeView.incident`) — one path for both.
    *link_types* pre-resolves the directed uses; :attr:`links_followed`
    counts the links the walk follows.
    """

    def __init__(
        self,
        database: Database,
        description: MoleculeTypeDescription,
        link_types: Optional[Dict[Tuple[str, str, str], LinkType]] = None,
    ) -> None:
        self.description = description
        self.root = description.root
        self.links_followed = 0
        #: Per atom type in root-first order: its child uses as
        #: ``(target type, link type, lookup in the target occurrence, far
        #: end)`` — see :func:`_far_end`.
        self._down: List[Tuple[str, List[Tuple[str, LinkType, object, Optional[int]]]]] = []
        #: Per atom type in leaf-first order: its parent uses as
        #: ``(source type, link type, lookup in the source occurrence, far
        #: end)``.
        self._up: List[Tuple[str, List[Tuple[str, LinkType, object, Optional[int]]]]] = []
        #: Whether every use joins two distinct, un-renamed atom types — then
        #: a link's far end is always the use's other type, and component
        #: atoms are filed under the description's own type names.
        self.plain = "@" not in self.root
        resolved: Dict[Tuple[str, str, str], Tuple[LinkType, Optional[int]]] = {}
        for type_name in description.traversal_order():
            children = []
            for directed in description.children_of(type_name):
                if link_types is not None:
                    link_type = link_types[directed.as_tuple()]
                else:
                    link_type = resolve_directed_link(database, directed)
                if link_type.is_reflexive or "@" in directed.target:
                    self.plain = False
                far = _far_end(link_type, type_name, directed.target)
                resolved[directed.as_tuple()] = link_type, far
                children.append((directed.target, link_type, database.atyp(directed.target).get, far))
            if children:
                self._down.append((type_name, children))
        for type_name in reversed(description.traversal_order()):
            parents = []
            for directed in description.parents_of(type_name):
                link_type, far = resolved[directed.as_tuple()]
                # Upward the source is the far end: the other endpoint.
                up = None if far is None else 1 - far
                parents.append((directed.source, link_type, database.atyp(directed.source).get, up))
            if parents:
                self._up.append((type_name, parents))

    def components(
        self, root_atom: Atom, links: Optional[Set[Link]] = None
    ) -> Dict[str, Dict[str, Atom]]:
        """The component atoms of the molecule rooted at *root_atom*, as
        ``{atom type: {identifier: atom}}``; followed links land in *links*.

        Traverses the structure in topological order; for every directed use
        ``<lt, P, C>`` and every component atom of type ``P`` already found,
        all atoms of type ``C`` connected through ``lt`` are added.  An atom
        reachable through several parents is included once — molecules are
        graphs, not trees.
        """
        per_type: Dict[str, Dict[str, Atom]] = {self.root: {root_atom.identifier: root_atom}}
        followed = 0
        for type_name, children in self._down:
            parents = per_type.get(type_name)
            if not parents:
                continue
            for target, link_type, lookup, far in children:
                bucket = per_type.get(target)
                if bucket is None:
                    bucket = per_type[target] = {}
                near = 1 - far if far is not None else None
                incident = link_type.incident
                for parent_id in parents:
                    for link in incident(parent_id):
                        if far is None:
                            first, second = link.given_order
                            child_id = second if first == parent_id else first
                        else:
                            endpoints = link.endpoints
                            if endpoints[near][1] != parent_id:
                                continue  # another type's atom with this identifier
                            child_id = endpoints[far][1]
                        child_atom = lookup(child_id)
                        if child_atom is None:
                            # The partner belongs to the other endpoint type of a
                            # reflexive or differently-directed use; skip it.
                            continue
                        followed += 1
                        if links is not None:
                            links.add(link)
                        bucket[child_id] = child_atom
        self.links_followed += followed
        return per_type

    def molecule(self, root_atom: Atom) -> Molecule:
        """Derive the single molecule rooted at *root_atom* (hierarchical join)."""
        links: Set[Link] = set()
        per_type = self.components(root_atom, links)
        atoms = [atom for bucket in per_type.values() for atom in bucket.values()]
        return Molecule(root_atom, atoms, links, self.description)

    def roots_above(self, type_name: str, identifiers: Iterable[str]) -> Set[str]:
        """Identifiers of the root atoms whose molecule contains one of the
        *type_name* atoms *identifiers*.

        The mirror image of :meth:`components`: atom types are visited
        leaf-first, so by the time a type's turn comes every child use has
        delivered its parents; the union over all parent uses keeps
        DAG-shaped structures exact.  Only sound on a :attr:`plain` walk.
        """
        reached: Dict[str, Set[str]] = {type_name: set(identifiers)}
        followed = 0
        for target, parents in self._up:
            children = reached.get(target)
            if not children:
                continue
            for source, link_type, lookup, far in parents:
                bucket = reached.setdefault(source, set())
                near = 1 - far if far is not None else None
                incident = link_type.incident
                for child_id in children:
                    for link in incident(child_id):
                        if far is None:
                            first, second = link.given_order
                            parent_id = second if first == child_id else first
                        else:
                            endpoints = link.endpoints
                            if endpoints[near][1] != child_id:
                                continue  # another type's atom with this identifier
                            parent_id = endpoints[far][1]
                        if parent_id not in bucket and lookup(parent_id) is not None:
                            bucket.add(parent_id)
                        followed += 1
        self.links_followed += followed
        return reached.get(self.root, set())


def _far_end(link_type: LinkType, near: str, far: str) -> Optional[int]:
    """Where in :attr:`Link.endpoints` a use's walk from a *near* atom finds
    the *far* atom: the index of the far type's endpoint when the link type
    joins exactly these two distinct types, else ``None``.

    Identifiers are unique only within an atom type, so the walk tells a
    link's sides apart by endpoint type wherever the types differ; with
    ``None`` (a reflexive link type) it goes by identifier.
    """
    first, second = link_type.atom_type_names
    if near != far and (near, far) in ((first, second), (second, first)):
        # Link.endpoints is sorted by type, and the two types differ.
        return 0 if far < near else 1
    return None


def derive_molecule(
    database: Database,
    description: MoleculeTypeDescription,
    root_atom: Atom,
    link_types: Optional[Dict[Tuple[str, str, str], LinkType]] = None,
) -> Molecule:
    """Derive the single molecule rooted at *root_atom* (hierarchical join).

    One-molecule convenience over :class:`StructureWalk`; callers deriving
    many molecules of one structure compile the walk once and call
    :meth:`StructureWalk.molecule` per root.
    """
    walk = StructureWalk(database, description, link_types)
    return walk.molecule(root_atom)


def derive_occurrence(
    database: Database,
    description: MoleculeTypeDescription,
) -> Tuple[Molecule, ...]:
    """The function ``m_dom``: derive every molecule of the description's occurrence.

    One molecule per atom of the root atom type, in the root occurrence's
    iteration order.
    """
    description = resolve_description(database, description)
    walk = StructureWalk(database, description)
    return tuple(walk.molecule(root_atom) for root_atom in database.atyp(description.root))


def contained(
    database: Database,
    description: MoleculeTypeDescription,
    molecule: Molecule,
    atom: Atom,
) -> bool:
    """The recursive ``contained`` predicate of Definition 6.

    An atom is contained when it is the molecule's root, or when for some
    directed link use ending in the atom's type there is a contained parent
    atom connected to it by a link of that use's link type.
    """
    if atom.identifier == molecule.root_atom.identifier:
        return atom.type_name == description.root or (
            atom.type_name.split("@", 1)[0] == description.root.split("@", 1)[0]
        )
    for directed in description.parents_of(atom.type_name):
        link_type = resolve_directed_link(database, directed)
        for link in link_type.links_of(atom.identifier):
            parent_id = link.other(atom.identifier)
            parent = molecule.get(parent_id)
            if parent is None:
                continue
            if parent.type_name != directed.source:
                continue
            if contained(database, description, molecule, parent):
                return True
    return False


def is_total(
    database: Database,
    description: MoleculeTypeDescription,
    molecule: Molecule,
) -> bool:
    """The ``total`` predicate: the molecule is maximal w.r.t. ``contained``.

    Every component atom must be contained, and every database atom of a
    participating atom type that is contained must be a component atom.
    """
    description = resolve_description(database, description)
    for atom in molecule.atoms:
        if not contained(database, description, molecule, atom):
            return False
    reference = derive_molecule(database, description, molecule.root_atom)
    return reference.atom_identifiers == molecule.atom_identifiers


def mv_graph(
    database: Database,
    description: MoleculeTypeDescription,
    molecule: Molecule,
) -> Tuple[bool, str]:
    """The ``mv_graph`` predicate: molecule conforms to description and is total.

    Checks (1) every component atom's type appears in ``C``; (2) every
    component link's type is the underlying link type of some directed use in
    ``G`` and connects component atoms; (3) the molecule graph is coherent and
    rooted at an atom of the root type; (4) the molecule is maximal (total).
    Returns ``(ok, reason)``.
    """
    description = resolve_description(database, description)
    allowed_types = set(description.atom_type_names)
    allowed_types_bare = {name.split("@", 1)[0] for name in allowed_types}
    for atom in molecule.atoms:
        if atom.type_name not in allowed_types and atom.type_name.split("@", 1)[0] not in allowed_types_bare:
            return False, f"atom {atom.identifier!r} has type outside the description"
    allowed_link_names = set()
    for directed in description.directed_links:
        allowed_link_names.add(resolve_directed_link(database, directed).name)
    component_ids = molecule.atom_identifiers
    for link in molecule.links:
        base_name = link.link_type_name.split("~", 1)[0]
        if link.link_type_name not in allowed_link_names and base_name not in {
            name.split("~", 1)[0] for name in allowed_link_names
        }:
            return False, f"link {link!r} uses a link type outside the description"
        if not all(identifier in component_ids for identifier in link.identifiers):
            return False, f"link {link!r} references atoms outside the molecule"
    root = molecule.root_atom
    if root.type_name != description.root and root.type_name.split("@", 1)[0] != description.root.split("@", 1)[0]:
        return False, f"root atom {root.identifier!r} is not of the root atom type"
    if not _is_connected(molecule):
        return False, "the molecule graph is not coherent"
    if not is_total(database, description, molecule):
        return False, "the molecule is not maximal (total) w.r.t. the atom networks"
    return True, ""


def _is_connected(molecule: Molecule) -> bool:
    """Check weak connectivity of the molecule graph (single atoms are connected)."""
    identifiers = set(molecule.atom_identifiers)
    if len(identifiers) <= 1:
        return True
    adjacency: Dict[str, Set[str]] = {identifier: set() for identifier in identifiers}
    for link in molecule.links:
        ids = tuple(link.identifiers)
        first, last = ids[0], ids[-1]
        if first in adjacency and last in adjacency:
            adjacency[first].add(last)
            adjacency[last].add(first)
    start = molecule.root_atom.identifier
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for neighbour in adjacency.get(current, ()):
            if neighbour not in seen:
                seen.add(neighbour)
                frontier.append(neighbour)
    return seen == identifiers


def hierarchical_join_statistics(
    database: Database,
    description: MoleculeTypeDescription,
) -> Dict[str, int]:
    """Return work counters for deriving the full occurrence.

    Used by the benchmarks to compare the number of atoms and links *touched*
    by molecule derivation against the intermediate-tuple counts of the
    equivalent relational join plan.
    """
    description = resolve_description(database, description)
    molecules = derive_occurrence(database, description)
    atoms_touched = sum(len(m) for m in molecules)
    links_touched = sum(len(m.links) for m in molecules)
    distinct_atoms: Set[str] = set()
    for molecule in molecules:
        distinct_atoms |= molecule.atom_identifiers
    return {
        "molecules": len(molecules),
        "atoms_touched": atoms_touched,
        "links_touched": links_touched,
        "distinct_atoms": len(distinct_atoms),
    }
