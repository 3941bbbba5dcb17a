"""One store for the derived access paths: equality indexes, structure
indexes and columnar projections.

In the MAD model only atoms and links are stored; molecules, and every
structure that speeds up deriving them, are derived.  The engine keeps three
kinds of such structure here:

* a :class:`~repro.storage.index.HashIndex` per ``(atom type, attribute)``
  and a :class:`~repro.storage.index.GridIndex` per ``(atom type,
  attributes)``, created on first use, which answer equality conjuncts and
  :meth:`~repro.storage.engine.PrimaEngine.lookup`;
* a :class:`~repro.storage.structure_index.StructureIndex` per registered
  ``(atom type, link type, direction)`` (``CREATE STRUCTURE INDEX``), which
  answers recursive closures by interval range scans;
* a :class:`~repro.storage.columnar.ColumnarProjection` per atom type,
  created on first use, which answers aggregate scans from attribute arrays
  and value postings (:meth:`AcceleratorStore.postings`).

All are built lazily, maintained from the engine's change-event stream by
one fold (:meth:`AcceleratorStore.apply_event`), stamped with the engine's
write generation, and never persisted: a checkpoint image carries the
registrations (catalog DDL), and the first use after recovery rebuilds the
rest from the occurrence.  Entries are keyed by bare atom type names.

Equality indexes are always read at the head, built from the head's atomic
``.occurrence`` copy under the store lock.  A pinned reader does not go
through the admission rule below: it asks for the head answer while it holds
the looked-up type's head lock, widens it by the identifiers carrying a
version chain and reads every candidate back through its view
(:class:`~repro.engine.physical.ExecutionContext`), which is exact at every
pin.

MVCC for the other two kinds: one admission rule serves both
(:meth:`AcceleratorStore._admit`).
A head context builds a missing or stale entry in place and reads it live.
A pinned-snapshot context is served only when it carries no private or
excluded writes and the stamp lies in its window ``[newest mutation the
snapshot sees, pinned generation]``
(:meth:`~repro.core.versions.Snapshot.covers`: a commit ticks the clock
without an event, so the stamp trails a pin taken at the head and still
holds its state).  When nothing is built yet, or the entry is stale, such a
reader builds it itself, from its own pinned view and outside the store
lock, and installs it only if the stamp has not moved meanwhile: a replica
is read through pins alone and would otherwise never get one.  The kinds
differ only in what a pinned reader is handed (``for_pin``): a copy of a
projection's arrays, which the next fold patches and swap-pops in place, and
the shared structure index itself, on which every later call re-checks under
the lock that nothing newer than the pin has been folded in
(:meth:`AcceleratorStore._coherent`).  Anything else counts a snapshot gap,
and the operator falls back to the fixpoint loop or the row fold over the
pinned view, preserving byte parity.  All counters surface through
``maintenance_report()``.

The store's lock is a *leaf* lock: the engine's event path acquires it after
the per-type head locks and the event lock, and a pinned equality lookup
after its type's head lock; nothing is acquired under it, and what is read
of the occurrence under it is an atomic ``.occurrence`` copy of the head.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.runtime import make_rlock
from repro.core.events import ChangeEvent
from repro.exceptions import StorageError
from repro.storage.columnar import ColumnarProjection, Postings
from repro.storage.index import GridIndex, HashIndex
from repro.storage.structure_index import StructureIndex, StructureKey, structure_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.core.recursion import RecursiveDescription


class AcceleratorStore:
    """The engine's equality indexes, structure indexes and columnar
    projections, shared by every executor (module docstring)."""

    def __init__(self) -> None:
        self._lock = make_rlock("AcceleratorStore._lock")
        #: Equality indexes by atom type, then by attribute (a hash index)
        #: or attribute tuple (a grid index); created on first use.
        self._equality: Dict[str, Dict[object, "HashIndex | GridIndex"]] = {}  # guarded-by: AcceleratorStore._lock
        #: Declared equality indexes (``create_index``), ``(atom type,
        #: attribute)``: catalog state, checkpointed and logged.
        self._declared: Set[Tuple[str, str]] = set()  # guarded-by: AcceleratorStore._lock
        #: Registered structure keys; ``None`` until first built.
        self._indexes: Dict[StructureKey, Optional[StructureIndex]] = {}  # guarded-by: AcceleratorStore._lock
        #: Columnar projections by atom type, created on first use.
        self._projections: Dict[str, ColumnarProjection] = {}  # guarded-by: AcceleratorStore._lock
        #: Bumped by every new registration — the stamp a cached plan that
        #: ``accelerate_recursion`` saw (or did not see) the registry by.
        self.registry_version = 0  # guarded-by: AcceleratorStore._lock
        #: Engine write generation (stamped on every fold and fast-forward).
        self.generation = 0
        #: Pinned reads refused by the admission rule or a coherence
        #: re-check, per kind.
        self._snapshot_gaps = {StructureIndex: 0, ColumnarProjection: 0}  # guarded-by: AcceleratorStore._lock
        #: Aggregate executions that took the row path instead (any reason).
        self._fallbacks = 0  # guarded-by: AcceleratorStore._lock

    # ---------------------------------------------------------- registration

    def register(self, atom_type_name: str, link_type_name: str, direction: str = "down") -> StructureKey:
        """Declare an accelerated recursive description; built on first use."""
        if direction not in ("down", "up"):
            raise StorageError(
                f"structure index direction must be 'down' or 'up', got {direction!r}"
            )
        key: StructureKey = (atom_type_name, link_type_name, direction)
        with self._lock:
            if key not in self._indexes:
                self._indexes[key] = None
                self.registry_version += 1
        return key

    def registered(self) -> Tuple[StructureKey, ...]:
        with self._lock:
            return tuple(self._indexes)

    def is_registered(self, description: "RecursiveDescription") -> bool:
        with self._lock:
            return structure_key(description) in self._indexes

    def declare_index(self, atom_type_name: str, attribute: str) -> None:
        """Declare an equality index (``create_index``); built on first use."""
        with self._lock:
            self._declared.add((atom_type_name, attribute))

    def is_declared(self, atom_type_name: str, attribute: str) -> bool:
        with self._lock:
            return (atom_type_name, attribute) in self._declared

    # ------------------------------------------------------------- execution

    def lookup(
        self,
        head: "Database",
        atom_type_name: str,
        attributes: "str | Tuple[str, ...]",
        value: object,
        counters=None,
    ) -> Optional[FrozenSet[str]]:
        """The atoms of *atom_type_name* in *head* that may match *value* (a
        superset, see :mod:`repro.storage.index`), or ``None`` when the type
        does not exist.  One attribute name reads its hash index; a tuple of
        them reads their grid, *value* binding any subset of them in a dict.

        A missing index is built from *head*'s ``.occurrence`` copy (one
        pass, charged to ``counters.atoms_indexed``)."""
        bare = atom_type_name.split("@", 1)[0]
        with self._lock:
            index = self._equality.get(bare, {}).get(attributes)
            if index is None:
                if not head.has_atom_type(bare):
                    return None
                kind = HashIndex if isinstance(attributes, str) else GridIndex
                index = kind(bare, attributes)
                atoms = head.atyp(bare).occurrence
                for atom in atoms:
                    index.insert(atom)
                if counters is not None:
                    counters.atoms_indexed += len(atoms)
                self._equality.setdefault(bare, {})[attributes] = index
            return index.lookup(value)

    def index_for(self, description: "RecursiveDescription", ctx) -> Optional[StructureIndex]:
        """The structure index answering *description* in *ctx*, or ``None``
        (the fixpoint fallback); only a registered key is served."""
        if not self.is_registered(description):
            return None
        return self._admit(self._indexes, structure_key(description), ctx, StructureIndex)

    def projection_for(self, type_name: str, ctx) -> Optional[ColumnarProjection]:
        """The projection of *type_name* in *ctx*, or ``None`` (the row
        fallback)."""
        bare = type_name.split("@", 1)[0]
        if not ctx.database.has_atom_type(bare):
            return None
        return self._admit(self._projections, bare, ctx, ColumnarProjection)

    def postings(self, projection: ColumnarProjection, attribute: str) -> Postings:
        """``projection.postings(attribute)`` under the store lock: a head
        projection's postings are built from the live arrays, which a fold
        changes only under this lock (a pinned copy is the reader's own)."""
        with self._lock:
            return projection.postings(attribute)

    def _admit(self, entries: dict, key, ctx, kind):
        """The one admission rule (module docstring): what *ctx* may read of
        the *kind* entry under *key* in *entries*, or ``None``."""
        snapshot = getattr(ctx, "snapshot", None)
        with self._lock:
            entry = entries.get(key)
            if snapshot is None:
                if entry is None:
                    entry = entries[key] = kind(key)
                if entry.stale:
                    entry.refresh(ctx.database)
                    entry.generation = self.generation
                return entry
            built = entry is not None and not entry.stale
            stamp = entry.generation if built else self.generation
            if not snapshot.covers(stamp):
                self._snapshot_gaps[kind] += 1
                return None
            if built:
                return entry.for_pin()
        # Never under the leaf lock: iterating a view takes the types' head
        # locks, which a writer holds while it waits to fold in here.
        fresh = kind(key)
        fresh.refresh(ctx.database)
        with self._lock:
            if self.generation != stamp or entries.get(key) is not entry:
                self._snapshot_gaps[kind] += 1
                return None
            if entry is not None:
                fresh.builds += entry.builds
                fresh.gap_events = entry.gap_events
            fresh.generation = stamp
            entries[key] = fresh
            return fresh.for_pin()

    def closure(
        self,
        index: StructureIndex,
        root: str,
        max_depth: Optional[int] = None,
        generation: Optional[int] = None,
    ):
        """``index.closure`` under the store lock.  A pinned reader passes its
        *generation*: :meth:`index_for` admitted the index once, but the head
        keeps folding writes into it, so every later call verifies that
        nothing newer than the pin has been folded in and answers ``None``
        (fixpoint fallback over the pinned view) once the encoding has moved
        on."""
        with self._lock:
            if not self._coherent(index, generation):
                return None
            return index.closure(root, max_depth)

    def qualifying_roots(
        self,
        index: StructureIndex,
        candidate_sets: Sequence[Iterable[str]],
        max_depth: Optional[int] = None,
        generation: Optional[int] = None,
    ) -> Optional[Set[str]]:
        """``index.qualifying_roots`` under the store lock; *generation* as in
        :meth:`closure`."""
        with self._lock:
            if not self._coherent(index, generation):
                return None
            return index.qualifying_roots(candidate_sets, max_depth)

    # requires: AcceleratorStore._lock
    def _coherent(self, index: StructureIndex, generation: Optional[int]) -> bool:
        """Whether *index*, admitted by :meth:`index_for`, still holds the
        state pinned at *generation* (head callers pass ``None``): stamps
        only grow, so it does until an event past the pin is folded in.  A
        refusal counts as a snapshot gap."""
        if generation is None or (not index.stale and index.generation <= generation):
            return True
        self._snapshot_gaps[StructureIndex] += 1
        return False

    def supports_pruning(self, index: StructureIndex) -> bool:
        with self._lock:
            return not index.stale and index.tree

    def count_fallback(self) -> None:
        """One aggregate execution took the row path (ineligible filter, …)."""
        with self._lock:
            self._fallbacks += 1

    # ----------------------------------------------------------- maintenance

    def apply_event(self, event: ChangeEvent, generation: int) -> None:
        """Fold one change event into every built accelerator and stamp it.

        An equality index takes an atom event of its own type only: an
        insertion replaces the atom's previous entry, so insertions and
        modifications share one path.
        """
        with self._lock:
            self.generation = generation
            if event.atom is not None and event.type_name in self._equality:
                for index in self._equality[event.type_name].values():
                    if event.kind == "atom_deleted":
                        index.remove(event.atom.identifier)
                    else:
                        index.insert(event.atom)
            for entry in self._entries():
                entry.apply_event(event)
                entry.generation = generation

    def stamp(self, generation: int) -> None:
        """Record the engine generation the built accelerators are coherent
        with (nothing was mutated)."""
        with self._lock:
            self.generation = generation
            for entry in self._entries():
                if not entry.stale:
                    entry.generation = generation

    # requires: AcceleratorStore._lock
    def _entries(self):
        """Every structure index and columnar projection built so far."""
        for entry in chain(self._indexes.values(), self._projections.values()):
            if entry is not None:
                yield entry

    # ------------------------------------------------------------- reporting

    def describe_index(self, description: "RecursiveDescription") -> List[str]:
        """EXPLAIN lines for the structure index of *description*."""
        key = structure_key(description)
        with self._lock:
            if key not in self._indexes:
                return []
            index = self._indexes[key]
            if index is None:
                return [
                    f"interval index {key[0]} via {key[1]} {key[2]}: registered, "
                    "built on first use"
                ]
            return index.describe()

    def describe_projection(self, type_name: str) -> List[str]:
        """EXPLAIN lines for the columnar projection of *type_name*."""
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
            indexes = [index for index in self._indexes.values() if index is not None]
            projections = list(self._projections.values())
            return {
                "index_builds": sum(map(len, self._equality.values())),
                "index_generation": self.generation,
                "structure_indexes": len(self._indexes),
                "structure_builds": sum(index.builds for index in indexes),
                "structure_gap_events": sum(index.gap_events for index in indexes),
                "structure_snapshot_gaps": self._snapshot_gaps[StructureIndex],
                "structure_generation": self.generation,
                "columnar_types": len(projections),
                "columnar_builds": sum(p.builds for p in projections),
                "columnar_gap_events": sum(p.gap_events for p in projections),
                "columnar_snapshot_gaps": self._snapshot_gaps[ColumnarProjection],
                "columnar_fallbacks": self._fallbacks,
                "columnar_generation": self.generation,
            }
