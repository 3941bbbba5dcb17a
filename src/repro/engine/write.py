"""Physical write operators: streaming molecule mutations under an undo log.

The read pipeline pulls molecules; the write pipeline pushes them into atom
and link mutations.  Each operator consumes the molecules of a physical
*source* operator (the optimized qualifying read of a DML statement) and
applies the corresponding manipulation — recording an undo action for every
individual mutation in the surrounding transaction's log, so a mid-statement
failure (domain violation on a later child, cardinality error on a link)
rolls the whole statement back and leaves no orphan atoms or dangling links.

Operators:

* :class:`InsertMoleculeOp` — ι: create the atoms and connecting links of one
  nested complex object in a single sweep, reusing existing atoms referenced
  by ``"_id"`` (shared subobjects);
* :class:`DeleteMoleculesOp` — δ: remove each source molecule's exclusive
  atoms (all atoms under *cascade*) together with every incident link;
* :class:`ModifyAtomsOp` — μ: replace attribute values of the target type's
  atoms in place, preserving identity so links and containing molecules stay
  valid.

Every mutation goes through :class:`~repro.core.atom.AtomType` /
:class:`~repro.core.link.LinkType`, so change events fire in mutation order
and the storage engine's incremental cache maintenance sees inserts,
deletions and modifications exactly once (rollbacks emit the compensating
events).  :meth:`apply` returns the affected molecules plus a
:class:`WriteSummary` of the counts reported on ``QueryResult``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Set, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.derivation import (
    derive_molecule,
    resolve_description,
    resolve_directed_link,
)
from repro.core.molecule import Molecule, MoleculeType, MoleculeTypeDescription
from repro.engine.physical import ExecutionContext, PhysicalOperator
from repro.exceptions import ManipulationError

if TYPE_CHECKING:  # deferred at runtime: manipulation imports this module
    from repro.manipulation.transactions import Transaction


@dataclass
class WriteSummary:
    """Affected-count report of one write-plan execution."""

    operation: str
    molecules_affected: int = 0
    atoms_inserted: int = 0
    atoms_removed: int = 0
    atoms_modified: int = 0
    atoms_kept: int = 0
    links_inserted: int = 0
    links_removed: int = 0


class WriteOperator:
    """Base class of the push-based write operators."""

    def apply(
        self, ctx: ExecutionContext, txn: "Transaction"
    ) -> Tuple[MoleculeType, WriteSummary]:
        """Apply the mutations, logging undo actions in *txn*.

        Returns the affected molecules (post-state for inserts, qualifying
        pre-state for deletes/modifications) and the count summary.
        """
        raise NotImplementedError

    # ------------------------------------------------------- shared helpers

    @staticmethod
    def _atom_type_of(ctx: ExecutionContext, type_name: str) -> AtomType:
        """Resolve *type_name* against the context database, accepting decorated names."""
        if ctx.database.has_atom_type(type_name):
            return ctx.database.atyp(type_name)
        return ctx.database.atyp(type_name.split("@", 1)[0])


class InsertMoleculeOp(WriteOperator):
    """ι as a physical operator: one-sweep creation of a nested complex object."""

    def __init__(
        self, name: str, description: MoleculeTypeDescription, data: Mapping[str, object]
    ) -> None:
        self.name = name
        self.description = description
        self.data = data

    def apply(
        self, ctx: ExecutionContext, txn: "Transaction"
    ) -> Tuple[MoleculeType, WriteSummary]:
        summary = WriteSummary("insert")
        description = resolve_description(ctx.database, self.description)
        link_types = {
            directed.as_tuple(): resolve_directed_link(ctx.database, directed)
            for directed in description.directed_links
        }

        def insert_node(type_name: str, node: Mapping[str, object]) -> Atom:
            atom_type = ctx.database.atyp(type_name)
            child_type_names = {dl.target for dl in description.children_of(type_name)}
            identifier = node.get("_id")
            if identifier is not None and atom_type.get(str(identifier)) is not None:
                atom = atom_type.get(str(identifier))
            else:
                values = {
                    key: value
                    for key, value in node.items()
                    if key not in child_type_names and key != "_id"
                }
                unknown = set(values) - set(atom_type.description.names)
                if unknown:
                    raise ManipulationError(
                        f"unknown attributes {sorted(unknown)!r} for atom type {type_name!r}"
                    )
                atom = txn.insert_atom_values(
                    type_name, values, identifier=str(identifier) if identifier is not None else None
                )
                summary.atoms_inserted += 1
                ctx.counters.atoms_touched += 1
            for directed in description.children_of(type_name):
                children = node.get(directed.target, [])
                if isinstance(children, Mapping):
                    children = [children]
                link_type = link_types[directed.as_tuple()]
                for child_node in children:
                    child_atom = insert_node(directed.target, child_node)
                    if txn.connect_new(link_type.name, atom, child_atom) is not None:
                        summary.links_inserted += 1
                        ctx.counters.links_followed += 1
            return atom

        root_atom = insert_node(description.root, self.data)
        molecule = derive_molecule(ctx.database, description, root_atom)
        ctx.counters.molecules_derived += 1
        summary.molecules_affected = 1
        return MoleculeType(self.name, description, (molecule,)), summary


class DeleteMoleculesOp(WriteOperator):
    """δ as a physical operator: stream qualifying molecules into deletions.

    Deletion follows the manipulation semantics: per molecule, atoms linked to
    any atom *outside* the molecule are shared subobjects and survive (unless
    *cascade*); the root always goes away, and every link incident to a
    removed atom is removed with it — the database never holds dangling links.
    """

    def __init__(self, source: PhysicalOperator, cascade: bool = False) -> None:
        self.source = source
        self.cascade = cascade

    def apply(
        self, ctx: ExecutionContext, txn: "Transaction"
    ) -> Tuple[MoleculeType, WriteSummary]:
        summary = WriteSummary("delete")
        affected: List[Molecule] = []
        component_union: Set[Tuple[str, str]] = set()
        removed: Set[Tuple[str, str]] = set()
        # The qualifying read is materialized up front: mutating occurrences
        # while the scan still iterates them would be the Halloween problem.
        for molecule in tuple(self.source.execute(ctx)):
            affected.append(molecule)
            summary.molecules_affected += 1
            component_union.update(map(_atom_key, molecule.atoms))
            for stored in self._removable(ctx, molecule, removed):
                # Through the transaction, so every removal carries a
                # conflict key (first committer wins) besides its undo action.
                summary.links_removed += txn.delete_atom(stored.type_name, stored.identifier)
                summary.atoms_removed += 1
                ctx.counters.atoms_touched += 1
                removed.add(_atom_key(stored))
        summary.atoms_kept = len(component_union) - summary.atoms_removed
        description = self.source.describe(ctx)
        return MoleculeType("deleted", description, tuple(affected)), summary

    def _removable(
        self,
        ctx: ExecutionContext,
        molecule: Molecule,
        already_removed: Set[Tuple[str, str]],
    ) -> List[Atom]:
        """The stored atoms of *molecule* to delete, in (type, identifier)
        order — the log's bytes must not hang on set order: all of them
        under *cascade*, else the root and every atom linked only inside it."""
        component_ids = set(molecule.atom_identifiers)
        root = _atom_key(molecule.root_atom)
        removable: List[Atom] = []
        for atom in sorted(molecule.atoms, key=_atom_key):
            stored = self._atom_type_of(ctx, atom.type_name).get(atom.identifier)
            if stored is None or _atom_key(stored) in already_removed:
                continue
            if self.cascade or _atom_key(atom) == root or not any(
                link.other(atom.identifier) not in component_ids
                for link_type in ctx.database.link_types_of(stored.type_name)
                for link in link_type.links_of(stored)
            ):
                removable.append(stored)
        return removable


def _atom_key(atom: Atom) -> Tuple[str, str]:
    """An atom's identity: its (undecorated) type and its identifier —
    identifiers are unique only within a type."""
    return atom.type_name.split("@", 1)[0], atom.identifier


class ModifyAtomsOp(WriteOperator):
    """μ as a physical operator: in-place attribute updates, identity preserved."""

    def __init__(
        self,
        source: PhysicalOperator,
        atom_type_name: str,
        updates: Sequence[Tuple[str, object]],
    ) -> None:
        self.source = source
        self.atom_type_name = atom_type_name
        self.updates = tuple(updates)

    def apply(
        self, ctx: ExecutionContext, txn: "Transaction"
    ) -> Tuple[MoleculeType, WriteSummary]:
        summary = WriteSummary("modify")
        affected: List[Molecule] = []
        modified: Set[str] = set()
        # Materialized for the same Halloween-problem reason as deletion: an
        # update must not re-qualify molecules it already modified.
        for molecule in tuple(self.source.execute(ctx)):
            targets = molecule.atoms_of_type(self.atom_type_name)
            if not targets:
                continue
            affected.append(molecule)
            summary.molecules_affected += 1
            for atom in sorted(targets, key=_atom_key):  # the log must not hang on set order
                if atom.identifier in modified:
                    continue
                self._modify_atom(ctx, txn, atom)
                modified.add(atom.identifier)
                summary.atoms_modified += 1
                ctx.counters.atoms_touched += 1
        description = self.source.describe(ctx)
        return MoleculeType("modified", description, tuple(affected)), summary

    def _modify_atom(self, ctx: ExecutionContext, txn: "Transaction", atom: Atom) -> None:
        atom_type = self._atom_type_of(ctx, atom.type_name)
        if atom_type.get(atom.identifier) is None:
            raise ManipulationError(
                f"no atom {atom.identifier!r} in atom type {atom_type.name!r}"
            )
        # The transaction owns the merge/validate/replace/undo protocol.
        txn.modify_atom_values(atom_type.name, atom.identifier, dict(self.updates))
