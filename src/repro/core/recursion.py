"""Recursive molecule types (the §5 outlook, following [Schö89]).

The MAD model "allows for reflexive link types and for other cycles in the
database schema; e.g. for modeling a bill-of-material application.  These
cycles are normally queried in a recursive manner, for example asking for the
parts explosion (i.e. sub-component view) of a given part."  The paper defers
the full treatment to [Schö89]; this module implements recursive molecule
types at the level of detail the paper sketches:

* a **recursive molecule-type description** designates one atom type and one
  (typically reflexive) link type as the *recursion edge*, traversed in a
  fixed direction (e.g. super-component → sub-component);
* the **occurrence** contains, for each atom of the root type, the molecule
  obtained by expanding the recursion edge transitively until a fixpoint is
  reached (cycle-safe), optionally bounded by a maximum depth;
* each component atom records its recursion **level**, so that the parts
  explosion can be rendered level by level (the usual BOM report).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom
from repro.core.database import Database
from repro.core.link import Link, LinkType
from repro.core.molecule import Molecule, MoleculeType, MoleculeTypeDescription
from repro.exceptions import RecursionLimitError, SchemaError, UnknownNameError


@dataclass(frozen=True)
class RecursiveDescription:
    """Description of a recursive molecule type.

    Attributes
    ----------
    atom_type_name:
        The atom type being expanded (e.g. ``"part"``).
    link_type_name:
        The (usually reflexive) link type traversed transitively
        (e.g. ``"composition"``).
    direction:
        ``"down"`` expands from the first endpoint towards the second
        (sub-component view / parts explosion); ``"up"`` expands in the
        opposite direction (super-component view / where-used).  For
        non-reflexive recursion edges the direction selects which endpoint
        type is treated as parent.
    max_depth:
        Optional safety bound; ``None`` expands to the fixpoint.
    """

    atom_type_name: str
    link_type_name: str
    direction: str = "down"
    max_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.direction not in ("down", "up"):
            raise SchemaError(f"recursion direction must be 'down' or 'up', got {self.direction!r}")


class RecursiveMolecule(Molecule):
    """A molecule produced by recursive expansion; records per-atom recursion levels."""

    __slots__ = ("levels",)

    def __init__(
        self,
        root_atom: Atom,
        atoms: Iterable[Atom],
        links: Iterable[Link],
        levels: Dict[str, int],
        description: Optional[MoleculeTypeDescription] = None,
    ) -> None:
        super().__init__(root_atom, atoms, links, description)
        self.levels = dict(levels)

    def atoms_at_level(self, level: int) -> Tuple[Atom, ...]:
        """Return the component atoms first reached at recursion depth *level*."""
        return tuple(atom for atom in self.atoms if self.levels.get(atom.identifier) == level)

    def depth(self) -> int:
        """The maximum recursion level present in the molecule."""
        return max(self.levels.values(), default=0)

    def explosion(self) -> List[Tuple[int, Atom]]:
        """Return the parts explosion as ``(level, atom)`` pairs, breadth-first."""
        ordered = sorted(self.atoms, key=lambda atom: (self.levels.get(atom.identifier, 0), atom.identifier))
        return [(self.levels.get(atom.identifier, 0), atom) for atom in ordered]


def _ordered_endpoints(link_type: LinkType, link: Link) -> Tuple[str, str]:
    """Return the (first_type_endpoint, second_type_endpoint) identifiers of *link*."""
    return link_type._ordered_ids(link)  # noqa: SLF001 - intentional internal reuse


def expand_recursive(
    database: Database,
    description: RecursiveDescription,
    root_atom: Atom,
) -> RecursiveMolecule:
    """Expand the recursion edge transitively from *root_atom* (cycle-safe fixpoint)."""
    atom_type = database.atyp(description.atom_type_name)
    link_type = database.ltyp(description.link_type_name)
    if not link_type.connects_type(description.atom_type_name):
        raise SchemaError(
            f"link type {description.link_type_name!r} does not connect atom type "
            f"{description.atom_type_name!r}"
        )

    levels: Dict[str, int] = {root_atom.identifier: 0}
    atoms: Dict[str, Atom] = {root_atom.identifier: root_atom}
    links: Set[Link] = set()
    frontier: List[str] = [root_atom.identifier]
    level = 0
    while frontier:
        if description.max_depth is not None and level >= description.max_depth:
            break
        level += 1
        next_frontier: List[str] = []
        for identifier in frontier:
            for link in link_type.incident(identifier):
                first_id, second_id = _ordered_endpoints(link_type, link)
                if description.direction == "down":
                    parent_id, child_id = first_id, second_id
                else:
                    parent_id, child_id = second_id, first_id
                if parent_id != identifier:
                    continue
                child = atom_type.get(child_id)
                if child is None:
                    other_name = link_type.other_type(description.atom_type_name)
                    child = database.atyp(other_name).get(child_id) if database.has_atom_type(other_name) else None
                if child is None:
                    continue
                links.add(link)
                if child.identifier not in atoms:
                    atoms[child.identifier] = child
                    levels[child.identifier] = level
                    next_frontier.append(child.identifier)
        frontier = next_frontier
        if description.max_depth is None and level > database.atom_count() + 1:
            raise RecursionLimitError(
                "recursive expansion did not reach a fixpoint within the database size bound"
            )
    return RecursiveMolecule(root_atom, atoms.values(), links, levels)


def recursive_molecule_type(
    database: Database,
    name: str,
    description: RecursiveDescription,
    roots: Optional[Iterable[Atom]] = None,
) -> MoleculeType:
    """Derive a recursive molecule type: one recursively expanded molecule per root atom.

    *roots* defaults to every atom of the recursion atom type; passing an
    explicit subset answers queries like "the parts explosion of part P".
    """
    atom_type = database.atyp(description.atom_type_name)
    if roots is None:
        roots = tuple(atom_type)
    base_description = MoleculeTypeDescription([description.atom_type_name], [])
    molecules = [expand_recursive(database, description, root) for root in roots]
    for molecule in molecules:
        molecule.description = base_description
    return MoleculeType(name, base_description, molecules)


def transitive_closure_size(
    database: Database,
    description: RecursiveDescription,
) -> Dict[str, int]:
    """Return the size of the transitive closure reached from every root atom.

    Used by the recursive-BOM benchmark to compare against the iterative
    relational closure computation.
    """
    atom_type = database.atyp(description.atom_type_name)
    sizes: Dict[str, int] = {}
    for root in atom_type:
        molecule = expand_recursive(database, description, root)
        sizes[root.identifier] = len(molecule) - 1  # exclude the root itself
    return sizes
