"""Read-optimized columnar projections of per-type snapshot state.

Aggregate scans (MQL ``GROUP BY``/aggregate functions) visit every atom of a
type but touch only a handful of attributes.  The row layout makes each visit
a dict traversal; a :class:`ColumnarProjection` instead keeps one Python list
per attribute, parallel to an identifier list, so the aggregate fold becomes
tight list indexing — several times faster on wide occurrences and friendlier
to the allocator (the per-atom dicts are never touched).

Projections are built lazily on first use (no DDL — any atom type is
eligible) and maintained incrementally from the engine's change-event stream:
inserts append, deletes swap-remove, modifications patch in place.  They live
in the engine's :class:`~repro.storage.accelerators.AcceleratorStore`, which
builds, folds, stamps and admits them under the same MVCC rule as the
structure indexes (its module docstring), and are never persisted.  A pinned
reader scans a copy of the arrays (:meth:`ColumnarProjection.for_pin`): the
next fold patches and swap-pops the live lists in place.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    ChangeEvent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database


class ColumnarProjection:
    """Per-type attribute arrays: one identifier list plus one list per attribute.

    Not internally synchronized — the owning
    :class:`~repro.storage.accelerators.AcceleratorStore` wraps every entry
    point in its lock.  Head readers receive the live lists; the engine's
    single-writer discipline (folds happen under the engine locks, head reads
    on the owning thread) makes that safe.  Pinned-snapshot readers receive a
    :meth:`for_pin` copy of a projection provably coherent with their pin.
    """

    def __init__(self, type_name: str) -> None:
        self.type_name = type_name
        #: Write generation the arrays are coherent with (stamped by the store).
        self.generation = 0
        #: ``True`` until built; set again when maintenance loses sync.
        self.stale = True
        #: Full rebuilds performed (one occurrence pass each).
        self.builds = 0
        #: Incremental maintenance gave up (missed events — rebuild next use).
        self.gap_events = 0
        self.identifiers: List[str] = []
        self._columns: Dict[str, List[object]] = {}
        self._row_of: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.identifiers)

    def __repr__(self) -> str:
        flag = ", stale" if self.stale else ""
        return (
            f"ColumnarProjection({self.type_name}, {len(self.identifiers)} rows, "
            f"{len(self._columns)} columns{flag})"
        )

    def column(self, attribute: str) -> List[object]:
        """The value array of *attribute* (parallel to :attr:`identifiers`)."""
        return self._columns[attribute]

    def for_pin(self) -> "ColumnarProjection":
        """What a pinned reader is handed: a copy of the arrays that no later
        fold reaches (scan-only: it cannot be maintained)."""
        copy = ColumnarProjection(self.type_name)
        copy.generation = self.generation
        copy.stale = False
        copy.identifiers = list(self.identifiers)
        copy._columns = {name: list(values) for name, values in self._columns.items()}
        return copy

    # --------------------------------------------------------------- rebuild

    def refresh(self, database: "Database") -> None:
        """Rebuild the arrays from the current occurrence (sorted by identifier)."""
        atom_type = database.atyp(self.type_name)
        attributes = tuple(atom_type.description.names)
        atoms = sorted(atom_type, key=lambda atom: atom.identifier)
        self.identifiers = [atom.identifier for atom in atoms]
        self._columns = {
            attribute: [atom.get(attribute) for atom in atoms]
            for attribute in attributes
        }
        self._row_of = {
            identifier: row for row, identifier in enumerate(self.identifiers)
        }
        self.stale = False
        self.builds += 1

    # ----------------------------------------------- incremental maintenance

    def apply_event(self, event: ChangeEvent) -> None:
        """Fold one change event of this projection's type into the arrays."""
        if self.stale or event.atom is None or event.type_name != self.type_name:
            return
        identifier = event.atom.identifier
        row = self._row_of.get(identifier)
        if event.kind == ATOM_DELETED:
            if row is None:
                return
            last = len(self.identifiers) - 1
            moved = self.identifiers[last]
            self.identifiers[row] = moved
            self.identifiers.pop()
            for values in self._columns.values():
                values[row] = values[last]
                values.pop()
            del self._row_of[identifier]
            if row != last:
                self._row_of[moved] = row
            return
        if event.kind == ATOM_INSERTED and row is None:
            self._row_of[identifier] = len(self.identifiers)
            self.identifiers.append(identifier)
            for attribute, values in self._columns.items():
                values.append(event.atom.get(attribute))
            return
        if event.kind in (ATOM_INSERTED, ATOM_MODIFIED):
            if row is None:
                # A modification for an atom we never saw inserted — the
                # event stream has a hole; resync on next head use.
                self._mark_stale()
                return
            for attribute, values in self._columns.items():
                values[row] = event.atom.get(attribute)

    def _mark_stale(self) -> None:
        if not self.stale:
            self.stale = True
            self.gap_events += 1

