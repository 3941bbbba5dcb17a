"""Molecules, molecule-type descriptions and molecule types (Definitions 5–7).

* :class:`MoleculeTypeDescription` — the pair ``md = <C, G>`` of atom-type
  names and directed link-type uses, validated with the ``md_graph``
  predicate (directed, acyclic, coherent, single root).
* :class:`Molecule` — an element ``m = <c, g>`` of a molecule-type occurrence:
  a set of atoms plus the set of links connecting them, forming a maximal
  subgraph that conforms to the description.  Molecules of the same type may
  *overlap* (non-disjoint atom sets) — this is how the MAD model represents
  shared subobjects.
* :class:`MoleculeType` — the triple ``mt = <mname, md, mv>``.

The derivation of molecule occurrences (the function ``m_dom`` and the
``contained``/``total`` predicates) lives in :mod:`repro.core.derivation`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom
from repro.core.graph import DirectedLink, TypeGraph, md_graph, require_md_graph
from repro.core.link import Link
from repro.exceptions import MoleculeGraphError, SchemaError, UnknownNameError


class MoleculeTypeDescription:
    """The pair ``md = <C, G>`` of Definition 5.

    Parameters
    ----------
    atom_type_names:
        The set ``C`` of atom-type names (nodes of the type graph).
    directed_links:
        The set ``G`` of directed link-type uses; each may be a
        :class:`DirectedLink` or a ``(link_type_name, source, target)`` triple.
        When the link-type name is ``None`` or ``"-"`` the caller relies on
        there being exactly one link type between the two atom types; the
        resolution happens in the schema/derivation layer.
    """

    __slots__ = ("_atom_type_names", "_directed_links", "_graph")

    def __init__(
        self,
        atom_type_names: Sequence[str],
        directed_links: Sequence["DirectedLink | Tuple[str, str, str]"] = (),
    ) -> None:
        names: Tuple[str, ...] = tuple(dict.fromkeys(atom_type_names))
        links: List[DirectedLink] = []
        for entry in directed_links:
            if isinstance(entry, DirectedLink):
                links.append(entry)
            else:
                link_name, source, target = entry
                links.append(DirectedLink(link_name, source, target))
        self._atom_type_names = names
        self._directed_links = tuple(links)
        self._graph = require_md_graph(names, self._directed_links)

    # ------------------------------------------------------------- accessors

    @property
    def atom_type_names(self) -> Tuple[str, ...]:
        """The set ``C`` (in definition order)."""
        return self._atom_type_names

    @property
    def directed_links(self) -> Tuple[DirectedLink, ...]:
        """The set ``G`` of directed link-type uses."""
        return self._directed_links

    @property
    def graph(self) -> TypeGraph:
        """The validated type graph."""
        return self._graph

    @property
    def root(self) -> str:
        """The unique root atom type of the description."""
        return self._graph.roots()[0]

    @property
    def leaves(self) -> Tuple[str, ...]:
        """The leaf atom types (no outgoing directed links)."""
        return self._graph.leaves()

    def children_of(self, atom_type_name: str) -> Tuple[DirectedLink, ...]:
        """The directed link uses leaving *atom_type_name*."""
        return self._graph.children_edges(atom_type_name)

    def parents_of(self, atom_type_name: str) -> Tuple[DirectedLink, ...]:
        """The directed link uses entering *atom_type_name*."""
        return self._graph.parent_edges(atom_type_name)

    def traversal_order(self) -> Tuple[str, ...]:
        """Topological (root-first) order of the atom types, used by derivation."""
        return self._graph.topological_order()

    def paths_to(self, atom_type_name: str) -> Set[str]:
        """The atom types on some root-to-*atom_type_name* path, both ends
        included; *atom_type_name* may be the bare name of a renamed type.
        Empty when the description has no such type.
        """
        bare = atom_type_name.split("@", 1)[0]
        target = next(
            (name for name in self._atom_type_names if name.split("@", 1)[0] == bare),
            None,
        )
        if target is None:
            return set()
        path: Set[str] = {target}
        frontier = [target]
        while frontier:
            for directed in self.parents_of(frontier.pop()):
                if directed.source not in path:
                    path.add(directed.source)
                    frontier.append(directed.source)
        return path

    def link_type_names(self) -> Tuple[str, ...]:
        """The names of all link types used by the description (deduplicated)."""
        return tuple(dict.fromkeys(dl.link_type_name for dl in self._directed_links))

    # ---------------------------------------------------------- construction

    def projected(self, atom_type_names: Sequence[str]) -> "MoleculeTypeDescription":
        """Return the description induced by *atom_type_names*.

        The root must be retained and the induced graph must still satisfy
        ``md_graph`` (molecule-type projection keeps the structure coherent).
        """
        keep = list(dict.fromkeys(atom_type_names))
        if self.root not in keep:
            raise MoleculeGraphError(
                f"molecule-type projection must retain the root {self.root!r}"
            )
        unknown = [name for name in keep if name not in self._atom_type_names]
        if unknown:
            raise MoleculeGraphError(
                f"cannot project onto atom types {unknown!r}: not part of the description"
            )
        edges = [
            dl
            for dl in self._directed_links
            if dl.source in keep and dl.target in keep
        ]
        return MoleculeTypeDescription(keep, edges)

    def renamed(self, mapping: Mapping[str, str], link_mapping: Optional[Mapping[str, str]] = None) -> "MoleculeTypeDescription":
        """Return a description with atom-type (and optionally link-type) names replaced.

        Used by result propagation (Definition 9), where the result's molecule
        structure refers to renamed/propagated atom and link types but "still
        shows the same graph structure".
        """
        link_mapping = link_mapping or {}
        return MoleculeTypeDescription(
            [mapping.get(name, name) for name in self._atom_type_names],
            [
                DirectedLink(
                    link_mapping.get(dl.link_type_name, dl.link_type_name),
                    mapping.get(dl.source, dl.source),
                    mapping.get(dl.target, dl.target),
                )
                for dl in self._directed_links
            ],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoleculeTypeDescription):
            return NotImplemented
        return (
            frozenset(self._atom_type_names) == frozenset(other._atom_type_names)
            and frozenset(self._directed_links) == frozenset(other._directed_links)
        )

    def __hash__(self) -> int:
        return hash((frozenset(self._atom_type_names), frozenset(self._directed_links)))

    def __repr__(self) -> str:
        return (
            f"MoleculeTypeDescription(root={self.root!r}, "
            f"atom_types={list(self._atom_type_names)!r}, "
            f"links={[dl.as_tuple() for dl in self._directed_links]!r})"
        )


class Molecule:
    """An element ``m = <c, g>`` of a molecule-type occurrence (Definition 6).

    A molecule is identified by its root atom; two molecules of the same type
    with the same root atom and the same component sets are equal.  Molecules
    may share atoms with other molecules — sharing is *not* copying, the same
    :class:`Atom` object (same identifier) appears in several molecules.
    """

    __slots__ = ("root_atom", "_atoms", "_links", "_atoms_by_type", "description")

    def __init__(
        self,
        root_atom: Atom,
        atoms: Iterable[Atom],
        links: Iterable[Link],
        description: Optional[MoleculeTypeDescription] = None,
    ) -> None:
        self.root_atom = root_atom
        self._atoms: Dict[str, Atom] = {}
        self._atoms_by_type: Dict[str, List[Atom]] = {}
        for atom in atoms:
            if atom.identifier not in self._atoms:
                self._atoms[atom.identifier] = atom
                self._atoms_by_type.setdefault(atom.type_name, []).append(atom)
        if root_atom.identifier not in self._atoms:
            self._atoms[root_atom.identifier] = root_atom
            self._atoms_by_type.setdefault(root_atom.type_name, []).append(root_atom)
        self._links: FrozenSet[Link] = frozenset(links)
        self.description = description

    # ------------------------------------------------------------- accessors

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """All component atoms (the set ``c``)."""
        return tuple(self._atoms.values())

    @property
    def links(self) -> FrozenSet[Link]:
        """All component links (the set ``g``)."""
        return self._links

    @property
    def atom_identifiers(self) -> FrozenSet[str]:
        """The identifiers of the component atoms."""
        return frozenset(self._atoms)

    def atoms_of_type(self, type_name: Optional[str]) -> Tuple[Atom, ...]:
        """The component atoms belonging to atom type *type_name*.

        With ``None`` every component atom is returned.  Result atoms of
        propagated molecule types keep their original type name accessible via
        their identifier prefix, so lookups fall back to identifier matching.
        """
        if type_name is None:
            return self.atoms
        direct = self._atoms_by_type.get(type_name)
        if direct:
            return tuple(direct)
        # Propagated atom types carry names like "state@mt_state$3"; accept a
        # reference by the original (bare) name on either side.
        bare = type_name.split("@", 1)[0]
        matches = [
            atom
            for stored_type, atom_list in self._atoms_by_type.items()
            for atom in atom_list
            if stored_type.split("@", 1)[0] == bare
        ]
        return tuple(matches)

    def atom_type_names(self) -> Tuple[str, ...]:
        """The distinct atom-type names present in this molecule."""
        return tuple(self._atoms_by_type)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Atom):
            return item.identifier in self._atoms
        if isinstance(item, Link):
            return item in self._links
        return item in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms.values())

    def get(self, identifier: str) -> Optional[Atom]:
        """Return the component atom with *identifier*, or ``None``."""
        return self._atoms.get(identifier)

    # ---------------------------------------------------------------- algebra

    def shares_atoms_with(self, other: "Molecule") -> FrozenSet[str]:
        """Return the identifiers of atoms shared with *other* (shared subobjects)."""
        return self.atom_identifiers & other.atom_identifiers

    def projected(self, description: MoleculeTypeDescription) -> "Molecule":
        """Return the sub-molecule induced by *description* (used by Π).

        Keeps only atoms whose type is part of the projected description and
        links whose link-type use survives.
        """
        keep_types = set(description.atom_type_names)
        keep_types_bare = {name.split("@", 1)[0] for name in keep_types}
        kept_atoms = [
            atom
            for atom in self.atoms
            if atom.type_name in keep_types or atom.type_name.split("@", 1)[0] in keep_types_bare
        ]
        kept_ids = {atom.identifier for atom in kept_atoms}
        link_names = set(description.link_type_names())
        link_names_bare = {name.split("~", 1)[0] for name in link_names}
        kept_links = [
            link
            for link in self._links
            if (link.link_type_name in link_names or link.link_type_name.split("~", 1)[0] in link_names_bare)
            and link.first in kept_ids
            and link.second in kept_ids
        ]
        return Molecule(self.root_atom, kept_atoms, kept_links, description)

    def value_signature(self) -> Tuple:
        """A hashable signature of the molecule's content (used for set semantics)."""
        return (
            self.root_atom.identifier,
            frozenset(self._atoms),
            frozenset(self._links),
        )

    def to_nested_dict(self) -> Dict[str, object]:
        """Render the molecule as a nested dictionary rooted at the root atom.

        The nesting follows the description's directed links when a
        description is attached; otherwise atoms are grouped by type.  This is
        the canonical external representation used by the examples and by the
        NF² mapping.  Sibling atoms render sorted by identifier: the traversal
        order of derivation depends on set iteration, and byte-identical
        output across equivalent molecules (pinned readers, WAL-recovered
        engines) requires a canonical order.
        """
        if self.description is None:
            return {
                "root": self.root_atom.values | {"_id": self.root_atom.identifier},
                "atoms": {
                    type_name: [
                        atom.values | {"_id": atom.identifier}
                        for atom in sorted(atoms, key=lambda a: a.identifier)
                    ]
                    # Sorted type names: the grouping dict's insertion order
                    # follows derivation order, which differs between
                    # equivalent molecules (pinned readers, shipped plans).
                    for type_name, atoms in sorted(self._atoms_by_type.items())
                },
            }
        adjacency: Dict[str, Set[str]] = {}
        for link in self._links:
            first, second = link.first, link.second
            adjacency.setdefault(first, set()).add(second)
            adjacency.setdefault(second, set()).add(first)

        def build(atom: Atom, type_name: str, visited: FrozenSet[str]) -> Dict[str, object]:
            node: Dict[str, object] = atom.values
            node["_id"] = atom.identifier
            for directed in self.description.children_of(type_name):
                child_atoms = sorted(
                    (
                        child
                        for child in self.atoms_of_type(directed.target)
                        if child.identifier in adjacency.get(atom.identifier, set())
                        and child.identifier not in visited
                    ),
                    key=lambda child: child.identifier,
                )
                # Propagated atom types carry decorated names ("book@result$3");
                # render the nested dictionary under the bare, user-facing name.
                child_key = directed.target.split("@", 1)[0]
                if child_atoms:
                    node.setdefault(child_key, [])
                    for child in child_atoms:
                        node[child_key].append(
                            build(child, directed.target, visited | {atom.identifier})
                        )
            return node

        return build(self.root_atom, self.description.root, frozenset())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Molecule):
            return NotImplemented
        return self.value_signature() == other.value_signature()

    def __hash__(self) -> int:
        return hash(self.value_signature())

    def __repr__(self) -> str:
        return (
            f"Molecule(root={self.root_atom.identifier}, atoms={len(self._atoms)}, "
            f"links={len(self._links)})"
        )


class MoleculeType:
    """The triple ``mt = <mname, md, mv>`` of Definition 7."""

    __slots__ = ("_name", "_description", "_molecules")

    def __init__(
        self,
        name: str,
        description: MoleculeTypeDescription,
        molecules: Iterable[Molecule] = (),
    ) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"invalid molecule-type name: {name!r}")
        self._name = name
        self._description = description
        self._molecules: List[Molecule] = list(molecules)

    @property
    def name(self) -> str:
        """``mname`` — the molecule-type name."""
        return self._name

    @property
    def description(self) -> MoleculeTypeDescription:
        """``md`` — the molecule-type description."""
        return self._description

    @property
    def occurrence(self) -> Tuple[Molecule, ...]:
        """``mv`` — the molecule-type occurrence."""
        return tuple(self._molecules)

    @property
    def root_type_name(self) -> str:
        """The root atom type of the description."""
        return self._description.root

    def __len__(self) -> int:
        return len(self._molecules)

    def __iter__(self) -> Iterator[Molecule]:
        return iter(self._molecules)

    def __contains__(self, molecule: object) -> bool:
        return molecule in self._molecules

    def molecules_rooted_at(self, identifier: str) -> Tuple[Molecule, ...]:
        """Return the molecules whose root atom has *identifier*."""
        return tuple(m for m in self._molecules if m.root_atom.identifier == identifier)

    def find(self, **root_values: object) -> Tuple[Molecule, ...]:
        """Return molecules whose root atom matches all given attribute values."""
        matches = []
        for molecule in self._molecules:
            root = molecule.root_atom
            if all(root.get(key) == value for key, value in root_values.items()):
                matches.append(molecule)
        return tuple(matches)

    def shared_atoms(self) -> Dict[str, int]:
        """Return identifiers of atoms appearing in more than one molecule.

        The mapping value is the number of molecules containing the atom; this
        quantifies the "shared subobjects" of Fig. 2.
        """
        counts: Dict[str, int] = {}
        for molecule in self._molecules:
            for identifier in molecule.atom_identifiers:
                counts[identifier] = counts.get(identifier, 0) + 1
        return {identifier: count for identifier, count in counts.items() if count > 1}

    def atom_count(self) -> int:
        """Total number of atom occurrences summed over all molecules."""
        return sum(len(molecule) for molecule in self._molecules)

    def distinct_atom_count(self) -> int:
        """Number of distinct atoms over all molecules (shared atoms counted once)."""
        distinct: Set[str] = set()
        for molecule in self._molecules:
            distinct |= molecule.atom_identifiers
        return len(distinct)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MoleculeType):
            return NotImplemented
        return (
            self._name == other._name
            and self._description == other._description
            and set(m.value_signature() for m in self._molecules)
            == set(m.value_signature() for m in other._molecules)
        )

    def __hash__(self) -> int:
        return hash(self._name)

    def __repr__(self) -> str:
        return (
            f"MoleculeType({self._name!r}, root={self.root_type_name!r}, "
            f"molecules={len(self._molecules)})"
        )
