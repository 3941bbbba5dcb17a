"""Read-optimized columnar projections of per-type snapshot state.

Aggregate scans (MQL ``GROUP BY``/aggregate functions) visit every atom of a
type but touch only a handful of attributes.  The row layout makes each visit
a dict traversal; a :class:`ColumnarProjection` instead keeps one Python list
per attribute, parallel to an identifier list, so the aggregate fold becomes
tight list indexing — several times faster on wide occurrences and friendlier
to the allocator (the per-atom dicts are never touched).

Projections are built lazily on first use (no DDL — any atom type is
eligible) and maintained incrementally from the engine's change-event stream:
inserts append, deletes swap-remove, modifications patch in place.  MVCC
follows the structure-index rules exactly: every projection is
generation-stamped by the owning engine, and a pinned snapshot is served only
when it carries no private or excluded writes and the stamp lies in its
window ``[newest mutation the snapshot sees, pinned generation]``
(:meth:`~repro.core.versions.Snapshot.covers` — a commit ticks the clock
without an event, so the stamp trails a pin taken at the head and still
holds its state).  Such a reader is handed a *copy* of the arrays, taken
under the store lock: the live lists are patched and swap-popped in place by
the next fold.  When nothing is built yet it builds the projection itself,
from its own pinned view and outside the store lock, and installs it only if
the stamp has not moved meanwhile — a replica is read through pins alone and
would otherwise never get one.  Anything else counts a ``snapshot_gap`` and
the operator falls back to the row path over the pinned view, preserving
byte parity.  All counters surface through ``maintenance_report()``.
"""

from __future__ import annotations

from repro.analysis.runtime import make_rlock
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

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

    Not internally synchronized — the owning :class:`ColumnarStore` wraps
    every entry point in its lock.  Head readers receive the live lists; the
    engine's single-writer discipline (folds happen under the engine locks,
    head reads on the owning thread) makes that safe.  Pinned-snapshot
    readers receive a :meth:`detached` copy of a projection provably coherent
    with their pin.
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

    def detached(self) -> "ColumnarProjection":
        """A copy of the arrays that no later fold reaches (scan-only: it
        cannot be maintained)."""
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
        """Fold one atom-level change event into the arrays."""
        if self.stale or event.atom is None:
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


class ColumnarStore:
    """Registry of columnar projections, shared by the engine and executors.

    The store's lock is a *leaf* lock, exactly like the structure-index
    store's: the engine's event path acquires it after the per-type head
    locks and the event lock; readers acquire it alone and never touch
    occurrence state while holding it.
    """

    def __init__(self) -> None:
        self._lock = make_rlock("ColumnarStore._lock")
        #: Planner/executor switch — ``False`` keeps every aggregate on the
        #: row operators (the benchmark baseline and an escape hatch).
        self.enabled = True
        self._projections: Dict[str, ColumnarProjection] = {}  # guarded-by: ColumnarStore._lock
        #: Engine write generation (stamped on every fold and fast-forward).
        self.generation = 0
        #: Pinned-snapshot reads that could not use a projection coherently.
        self.snapshot_gaps = 0
        #: Aggregate executions that took the row path instead (any reason).
        self.fallbacks = 0

    def projected_types(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._projections)

    def __len__(self) -> int:
        with self._lock:
            return len(self._projections)

    # ------------------------------------------------------------- execution

    def for_execution(self, type_name: str, ctx) -> Optional[ColumnarProjection]:
        """The projection serving *type_name* in *ctx*, or ``None`` (fallback).

        Head contexts create and (re)build projections in place and scan the
        live arrays.  A pinned-snapshot context is served only inside its
        window and without private or excluded writes, scans a copy, and
        builds a missing projection from its own view (module docstring).
        """
        bare = type_name.split("@", 1)[0]
        snapshot = getattr(ctx, "snapshot", None)
        if not ctx.database.has_atom_type(bare):
            return None
        with self._lock:
            if not self.enabled:
                return None
            projection = self._projections.get(bare)
            if snapshot is None:
                if projection is None:
                    projection = ColumnarProjection(bare)
                    self._projections[bare] = projection
                if projection.stale:
                    projection.refresh(ctx.database)
                    projection.generation = self.generation
                return projection
            built = projection is not None and not projection.stale
            stamp = projection.generation if built else self.generation
            if not snapshot.covers(stamp):
                # The operator counts the fallback when it takes the row
                # path; here we only record the coherence gap.
                self.snapshot_gaps += 1
                return None
            if built:
                return projection.detached()
        # Never under the leaf lock: iterating a view takes the type's head
        # lock, which a writer holds while it waits to fold in here.
        fresh = ColumnarProjection(bare)
        fresh.refresh(ctx.database)
        with self._lock:
            if self.generation != stamp or self._projections.get(bare) is not projection:
                self.snapshot_gaps += 1
                return None
            if projection is not None:
                fresh.builds += projection.builds
                fresh.gap_events = projection.gap_events
            fresh.generation = stamp
            self._projections[bare] = fresh
            return fresh.detached()

    def count_fallback(self) -> None:
        """One aggregate execution took the row path (ineligible filter, …)."""
        with self._lock:
            self.fallbacks += 1

    # ----------------------------------------------------------- maintenance

    def apply_event(self, event: ChangeEvent, generation: Optional[int] = None) -> None:
        """Fold one change event into the matching built projection."""
        with self._lock:
            if generation is not None:
                self.generation = generation
            for type_name, projection in self._projections.items():
                if event.atom is not None and event.type_name == type_name:
                    projection.apply_event(event)
                if generation is not None:
                    projection.generation = generation

    def stamp(self, generation: int) -> None:
        """Record the engine generation the built projections are coherent with."""
        with self._lock:
            self.generation = generation
            for projection in self._projections.values():
                if not projection.stale:
                    projection.generation = generation

    # ------------------------------------------------------------- reporting

    def describe(self, type_name: str) -> List[str]:
        """Human-readable state lines for EXPLAIN output."""
        bare = type_name.split("@", 1)[0]
        with self._lock:
            projection = self._projections.get(bare)
            if projection is None:
                return [f"columnar projection {bare}: built on first use"]
            return [
                f"columnar projection {bare}: {len(projection)} rows, "
                f"generation={projection.generation}"
                + (", stale (rebuild on next use)" if projection.stale else "")
            ]

    def statistics(self) -> Dict[str, int]:
        with self._lock:
            builds = sum(p.builds for p in self._projections.values())
            gaps = sum(p.gap_events for p in self._projections.values())
            return {
                "columnar_types": len(self._projections),
                "columnar_builds": builds,
                "columnar_gap_events": gaps,
                "columnar_snapshot_gaps": self.snapshot_gaps,
                "columnar_fallbacks": self.fallbacks,
                "columnar_generation": self.generation,
            }
