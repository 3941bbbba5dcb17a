"""Read-optimized columnar projections of per-type snapshot state.

Aggregate scans (MQL ``GROUP BY``/aggregate functions) visit every atom of a
type but touch only a handful of attributes.  The row layout makes each visit
a dict traversal; a :class:`ColumnarProjection` instead keeps one Python list
per attribute, parallel to an identifier list, so the aggregate fold becomes
tight list indexing — several times faster on wide occurrences and friendlier
to the allocator (the per-atom dicts are never touched).

For each attribute that a Γ groups by or filters by equality, the projection
also keeps *value postings*: :func:`~repro.core.values.distinct_key` of a
value → the set of rows holding it, plus the keys whose rows may render their
``==``-equal values differently (``1``/``True``, ``-0.0``/``0.0``).  A
single-key ``GROUP BY`` takes its partitions straight from them, and an
equality conjunct its qualifying rows, so neither loops over every row in
Python.  Postings hold row numbers, not identifiers: a pinned reader scans
a copy of the arrays, and row numbers index that copy directly.

Projections are built lazily on first use (no DDL — any atom type is
eligible), postings on the first use of their attribute, and both are
maintained incrementally from the engine's change-event stream: inserts
append (and post the new row), deletes swap-remove (a posting follows the
last row to its new number), modifications patch in place (and move the row
between postings when its value changes).  They live in the engine's
:class:`~repro.storage.accelerators.AcceleratorStore`, which builds, folds,
stamps and admits them under the same MVCC rule as the structure indexes
(its module docstring), and are never persisted.  A pinned reader scans a
copy of the arrays and postings (:meth:`ColumnarProjection.for_pin`): the
next fold patches and swap-pops the live ones in place.  A rebuild
(:meth:`ColumnarProjection.refresh`) drops the postings.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    ChangeEvent,
)
from repro.core.values import distinct_key, group_rows, renders_alike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database

#: One attribute's value postings: ``distinct_key(value) -> rows`` and the
#: keys whose rows may render their ``==``-equal values differently.
Postings = Tuple[Dict[object, Set[int]], Set[object]]


class ColumnarProjection:
    """Per-type attribute arrays: one identifier list plus one list per
    attribute, and value postings for the attributes asked for.

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
        self._postings: Dict[str, Postings] = {}

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

    def postings(self, attribute: str) -> Postings:
        """The value postings of *attribute*, built from its array on first
        use (through :meth:`AcceleratorStore.postings
        <repro.storage.accelerators.AcceleratorStore.postings>`, which holds
        the store lock)."""
        entry = self._postings.get(attribute)
        if entry is None:
            values = self._columns[attribute]
            rows = range(len(values))
            try:
                buckets = group_rows(rows, values)
            except TypeError:
                buckets = group_rows(rows, map(distinct_key, values))
            mixed = {
                key
                for key, bucket in buckets.items()
                if not renders_alike(
                    list(map(values.__getitem__, bucket)), values[bucket[0]]
                )
            }
            entry = ({key: set(bucket) for key, bucket in buckets.items()}, mixed)
            self._postings[attribute] = entry
        return entry

    def for_pin(self) -> "ColumnarProjection":
        """What a pinned reader is handed: a copy of the arrays and postings
        that no later fold reaches (scan-only: it cannot be maintained)."""
        copy = ColumnarProjection(self.type_name)
        copy.generation = self.generation
        copy.stale = False
        copy.identifiers = list(self.identifiers)
        copy._columns = {name: list(values) for name, values in self._columns.items()}
        copy._postings = {
            name: ({key: set(rows) for key, rows in buckets.items()}, set(mixed))
            for name, (buckets, mixed) in self._postings.items()
        }
        return copy

    # --------------------------------------------------------------- rebuild

    def refresh(self, database: "Database") -> None:
        """Rebuild the arrays from the current occurrence (sorted by
        identifier); postings are rebuilt on their next use."""
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
        self._postings = {}
        self.stale = False
        self.builds += 1

    # ----------------------------------------------- incremental maintenance

    def apply_event(self, event: ChangeEvent) -> None:
        """Fold one change event of this projection's type into the arrays
        and postings."""
        if self.stale or event.atom is None or event.type_name != self.type_name:
            return
        identifier = event.atom.identifier
        row = self._row_of.get(identifier)
        if event.kind == ATOM_DELETED:
            if row is None:
                return
            last = len(self.identifiers) - 1
            with self._posting_sync():
                for attribute, (buckets, mixed) in self._postings.items():
                    values = self._columns[attribute]
                    _unpost(buckets, mixed, values[row], row)
                    if row != last:
                        moved = buckets[distinct_key(values[last])]
                        moved.discard(last)
                        moved.add(row)
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
            row = self._row_of[identifier] = len(self.identifiers)
            self.identifiers.append(identifier)
            for attribute, values in self._columns.items():
                value = event.atom.get(attribute)
                entry = self._postings.get(attribute)
                if entry is not None:
                    _post(*entry, values, value, row)
                values.append(value)
            return
        if event.kind in (ATOM_INSERTED, ATOM_MODIFIED):
            if row is None:
                # A modification for an atom we never saw inserted — the
                # event stream has a hole; resync on next head use.
                self._mark_stale()
                return
            changes = [
                (values, event.atom.get(attribute), self._postings.get(attribute))
                for attribute, values in self._columns.items()
            ]
            with self._posting_sync():
                for values, value, entry in changes:
                    if entry is not None and value is not values[row]:
                        _unpost(*entry, values[row], row)
                        _post(*entry, values, value, row)
            for values, value, _ in changes:
                values[row] = value

    def _mark_stale(self) -> None:
        if not self.stale:
            self.stale = True
            self.gap_events += 1

    @contextmanager
    def _posting_sync(self):
        """Postings that miss a value's key have lost sync with the arrays
        (a stored value mutated in place): drop them all, to be rebuilt on
        their next use, rather than fail the writer's fold."""
        try:
            yield
        except KeyError:
            self._postings = {}


def _post(
    buckets: Dict[object, Set[int]],
    mixed: Set[object],
    values: List[object],
    value: object,
    row: int,
) -> None:
    """Add *row*, which is to hold *value*, to its posting; the other rows
    of *values* (the attribute's array) already hold theirs."""
    key = distinct_key(value)
    bucket = buckets.get(key)
    if bucket is None:
        buckets[key] = {row}
        return
    if key not in mixed and not renders_alike((value,), values[next(iter(bucket))]):
        mixed.add(key)
    bucket.add(row)


def _unpost(
    buckets: Dict[object, Set[int]], mixed: Set[object], value: object, row: int
) -> None:
    """Remove *row*, which holds *value*, from its posting."""
    key = distinct_key(value)
    bucket = buckets[key]
    bucket.discard(row)
    if not bucket:
        del buckets[key]
        mixed.discard(key)
