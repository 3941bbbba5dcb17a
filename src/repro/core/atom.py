"""Atoms and atom types (Definition 1).

An **atom** plays the role of a tuple in the relational model: it "consists
of attributes of various data types, is uniquely identifiable, and belongs to
its corresponding atom type".  An **atom type** is the triple
``at = <aname, ad, av>`` of a name, an atom-type description and an atom-type
occurrence (a set of atoms whose values lie in the description's domain).

Atoms carry a surrogate identifier so that links (Definition 2) can reference
them independently of attribute values — this is what makes shared subobjects
representable without foreign keys.
"""

from __future__ import annotations

import copy
import itertools
from contextlib import contextmanager
from repro.analysis.runtime import make_rlock
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.core.attributes import AtomTypeDescription, make_description
from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    ChangeEmitter,
    ChangeEvent,
)
from repro.core.versions import ABSENT, VersionChain, VersioningState
from repro.exceptions import DuplicateNameError, IntegrityError, SchemaError

_atom_counter = itertools.count(1)

#: Value types a caller can change in place after handing them over.
_MUTABLE = (list, dict, set, bytearray)


def _owned(row: Tuple[object, ...]) -> Tuple[object, ...]:
    """*row* with a deep copy of each :data:`_MUTABLE` value: the caller
    keeps the object it passed, and changing it later must not change the
    stored atom."""
    return tuple([copy.deepcopy(v) if isinstance(v, _MUTABLE) else v for v in row])


def _next_surrogate(type_name: str) -> str:
    """Generate a fresh, human-readable surrogate identifier for an atom."""
    return f"{type_name}#{next(_atom_counter)}"


class Atom:
    """A uniquely identifiable element of an atom-type occurrence.

    Parameters
    ----------
    type_name:
        Name of the atom type this atom belongs to.
    values:
        Mapping from attribute names to values; validated against the atom
        type's description when the atom is inserted into an occurrence.
    identifier:
        Optional explicit identifier.  When omitted a surrogate of the form
        ``"<type>#<n>"`` is generated.  Identifiers must be unique within the
        atom type's occurrence.

    An atom holds its values as one tuple plus a name → position map.  An
    atom stored in an :class:`AtomType` holds them in definition order and
    shares its description's :attr:`~AtomTypeDescription.positions`, so
    it carries no per-atom dictionary; :attr:`values` builds one on each
    read.  Atoms are never changed once built, so one atom object may sit in
    several occurrences (copies, bulk loads, rolled-back writes).
    """

    __slots__ = ("identifier", "type_name", "_values", "_positions")

    def __init__(
        self,
        type_name: str,
        values: Optional[Mapping[str, object]] = None,
        identifier: Optional[str] = None,
    ) -> None:
        self.type_name = type_name
        self.identifier = identifier if identifier is not None else _next_surrogate(type_name)
        if not isinstance(values, dict):
            values = dict(values or {})
        self._positions: Dict[str, int] = {
            name: position for position, name in enumerate(values)
        }
        self._values: Tuple[object, ...] = tuple(values.values())

    @classmethod
    def _stored(
        cls, type_name: str, identifier: str, row: Tuple[object, ...], positions: Dict[str, int]
    ) -> "Atom":
        """An atom of a validated *row* in the order of *positions* (its
        atom type's shared map)."""
        atom = cls.__new__(cls)
        atom.type_name = type_name
        atom.identifier = identifier
        atom._values = row
        atom._positions = positions
        return atom

    @property
    def values(self) -> Dict[str, object]:
        """A copy of the atom's attribute values."""
        return dict(zip(self._positions, self._values))

    def __getitem__(self, attribute: str) -> object:
        position = self._positions.get(attribute)
        return None if position is None else self._values[position]

    def get(self, attribute: str, default: object = None) -> object:
        """Return the value of *attribute*, or *default* when absent."""
        position = self._positions.get(attribute)
        return default if position is None else self._values[position]

    def with_values(self, **updates: object) -> "Atom":
        """Return a copy of this atom (same identity) with updated values."""
        merged = self.values
        merged.update(updates)
        return Atom(self.type_name, merged, identifier=self.identifier)

    def projected(self, names: Sequence[str], type_name: Optional[str] = None) -> "Atom":
        """Return a new atom restricted to the attributes in *names*.

        The projected atom keeps this atom's identity so that the link
        inheritance of the atom-type algebra can trace result atoms back to
        their operand atoms.
        """
        return Atom(
            type_name or self.type_name,
            {name: self.get(name) for name in names},
            identifier=self.identifier,
        )

    def concatenated(self, other: "Atom", type_name: str, names: Sequence[str]) -> "Atom":
        """Return the concatenation ``self & other`` used by the cartesian product.

        The result carries a composite identifier ``"<id1>&<id2>"`` so that
        provenance to both operand atoms is preserved.
        """
        combined: Dict[str, object] = {}
        pool = self.values
        pool_other = other.values
        for name in names:
            if name in pool:
                combined[name] = pool.pop(name)
            elif name in pool_other:
                combined[name] = pool_other.pop(name)
            else:
                # Prefixed names produced by AtomTypeDescription.union.
                bare = name.split(".", 1)[-1]
                if bare in pool:
                    combined[name] = pool.pop(bare)
                elif bare in pool_other:
                    combined[name] = pool_other.pop(bare)
        return Atom(type_name, combined, identifier=f"{self.identifier}&{other.identifier}")

    def provenance(self) -> Tuple[str, ...]:
        """Return the operand identifiers this atom was derived from.

        Atoms created directly have a single-element provenance (their own
        identifier); atoms produced by cartesian products report every operand
        identifier that was concatenated.
        """
        return tuple(self.identifier.split("&"))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return self.identifier == other.identifier and self.type_name == other.type_name

    def __hash__(self) -> int:
        return hash((self.type_name, self.identifier))

    def __repr__(self) -> str:
        shown = ", ".join(f"{k}={v!r}" for k, v in list(self.values.items())[:3])
        return f"Atom({self.identifier}, {shown})"


class AtomType:
    """The triple ``<aname, ad, av>`` of Definition 1.

    ``nam(at)``, ``des(at)`` and ``ext(at)`` of the paper correspond to the
    :attr:`name`, :attr:`description` and :attr:`occurrence` properties.
    """

    __slots__ = (
        "_name",
        "_description",
        "_atoms",
        "_emitter",
        "_versioning",
        "_versions",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        description: "AtomTypeDescription | Sequence | Mapping",
        atoms: Iterable[Atom] = (),
    ) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"invalid atom-type name: {name!r}")
        self._name = name
        self._description = make_description(description)
        self._atoms: Dict[str, Atom] = {}  # guarded-by: AtomType._lock
        self._emitter: Optional[ChangeEmitter] = None
        self._versioning: Optional[VersioningState] = None
        self._versions: Dict[str, VersionChain] = {}  # guarded-by: AtomType._lock
        #: Head lock: occurrence mutations hold it so the head swap, the
        #: version-chain record and the change-event emission form one
        #: atomic unit per type (events leave in generation order).  Readers
        #: only take it to copy the identifier sets for iteration.
        self._lock = make_rlock("AtomType._lock")
        for atom in atoms:
            self.add(atom)

    @property
    def events(self) -> ChangeEmitter:
        """The type's change emitter (created on first access)."""
        if self._emitter is None:
            self._emitter = ChangeEmitter()
        return self._emitter

    def _emit(
        self,
        kind: str,
        atom: Atom,
        previous: Optional[Atom] = None,
        generation: Optional[int] = None,
    ) -> None:
        if self._emitter is not None and len(self._emitter):
            self._emitter.emit(
                ChangeEvent(
                    kind, self._name, atom=atom, previous=previous, generation=generation
                )
            )

    # -- versioning ----------------------------------------------------------

    def attach_versioning(self, state: VersioningState) -> None:
        """Tie this type's mutations to a database's version clock.

        Every subsequent mutation ticks the clock; while the state is
        *recording* (at least one pin active) the pre- and post-states are
        kept in per-identifier copy-on-write version chains, which
        :meth:`repro.core.versions.AtomTypeView` resolves for pinned readers.
        """
        self._versioning = state

    # requires: AtomType._lock
    def _version_mutation(
        self, identifier: str, payload: object, base: object, swap
    ) -> Optional[int]:
        """Stamp one head mutation; chain-record and apply it atomically.

        *swap* is the head mutation itself.  Tick, recording decision,
        chain record and head swap run in **one critical section of the
        registry lock** (nested inside the head lock — the defined order):
        :meth:`VersioningState.pin` takes the same lock, so a concurrent
        pin lands either wholly before the unit (recording is then on and
        the pre-state is chained) or wholly after it (the new head *is* the
        pinned state).  Without this, a pin arriving between an unrecorded
        tick and the head swap would read the old head at a generation
        that already includes the mutation — a non-repeatable read.
        """
        state = self._versioning
        if state is None:
            swap()
            return None
        with state.lock:
            generation = state.mutation_generation = state.tick()
            if state.recording:
                chain = self._versions.get(identifier)
                if chain is None:
                    chain = VersionChain(base)
                    self._versions[identifier] = chain
                chain.record(generation, payload)
            swap()
        return generation

    def truncate_versions(self, horizon: Optional[int]) -> Tuple[int, int]:
        """Garbage-collect version chains; returns ``(live, collected)`` entries.

        *horizon* is the oldest generation any pinned reader may still
        resolve (``None`` means no reader is pinned — all history goes).  A
        chain whose single remaining entry matches the head state is dropped
        entirely: it can never disagree with an unversioned read.
        """
        with self._lock:
            if horizon is None:
                collected = sum(len(chain) for chain in self._versions.values())
                self._versions.clear()
                return 0, collected
            collected = 0
            live = 0
            dead = []
            for identifier, chain in self._versions.items():
                collected += chain.truncate(horizon)
                if len(chain) == 1:
                    payload = chain.head()
                    head = self._atoms.get(identifier)
                    if (payload is ABSENT and head is None) or payload is head:
                        dead.append(identifier)
                        collected += 1
                        continue
                live += len(chain)
            for identifier in dead:
                del self._versions[identifier]
            return live, collected

    def collect_versions(self) -> Tuple[int, int]:
        """Garbage-collect with a freshly read horizon; ``(live, collected)``.

        The horizon is re-read *inside* the head lock: chain recording and
        truncation serialize on it, so a pin registered before this moment
        is guaranteed visible — a stale, pre-computed horizon could clear a
        chain some just-pinned reader still needs.
        """
        with self._lock:
            state = self._versioning
            horizon = state.truncation_horizon() if state is not None else None
            return self.truncate_versions(horizon)

    def version_statistics(self) -> Tuple[int, int]:
        """``(chains, entries)`` currently held for this type."""
        with self._lock:
            return len(self._versions), sum(
                len(chain) for chain in self._versions.values()
            )

    def _known_identifiers(self) -> Tuple[str, ...]:
        """All identifiers with a head or versioned state, sorted (for views)."""
        with self._lock:
            return tuple(sorted(set(self._atoms) | set(self._versions)))

    @contextmanager
    def settled(self) -> "Iterator[FrozenSet[str]]":
        """Hold the head lock; yields the identifiers carrying a version chain.

        This is how a pinned reader turns an index maintained at the head
        into candidates for its own generation.  While any pin or
        transaction is active every mutation chains its pre-state, and a
        chain is dropped only once no live reader can tell it from the head
        — so an atom *without* a chain has the same state at the pin as at
        the head, and ``head answer ∪ chained identifiers`` is a superset of
        the pinned answer (the reader re-reads each candidate through its
        view).  Inside the block nothing of this type moves: a mutation that
        was in flight has finished, change event delivered, and the next one
        waits — the head answer read here and the yielded set describe the
        same instant.
        """
        with self._lock:
            yield frozenset(self._versions)

    # -- accessor functions of Definition 1 --------------------------------

    @property
    def name(self) -> str:
        """``nam(at)`` — the atom-type name."""
        return self._name

    @property
    def description(self) -> AtomTypeDescription:
        """``des(at)`` — the atom-type description."""
        return self._description

    @property
    def occurrence(self) -> Tuple[Atom, ...]:
        """``ext(at)`` — the atom-type occurrence as a tuple of atoms."""
        return tuple(self._atoms.values())

    # -- occurrence management ---------------------------------------------

    def add(self, atom: "Atom | Mapping[str, object]", identifier: Optional[str] = None) -> Atom:
        """Insert *atom* into the occurrence, validating it against the description.

        *atom* may be an :class:`Atom` or a plain mapping of attribute values
        (in which case a new atom is created).  Returns the stored atom.
        """
        if isinstance(atom, Atom):
            identifier = atom.identifier
        elif identifier is None:
            identifier = _next_surrogate(self._name)
        with self._lock:
            if identifier in self._atoms:
                raise IntegrityError(
                    f"atom identifier {identifier!r} already present in atom type {self._name!r}"
                )
            stored = self._stored_form(identifier, atom)
            generation = self._version_mutation(
                identifier,
                stored,
                ABSENT,
                lambda: self._atoms.__setitem__(identifier, stored),
            )
            self._emit(ATOM_INSERTED, stored, generation=generation)
        return stored

    def insert(self, identifier: Optional[str] = None, **values: object) -> Atom:
        """Convenience wrapper: create and add an atom from keyword values."""
        return self.add(values, identifier=identifier)

    def replace(self, atom: "Atom | Mapping[str, object]", identifier: Optional[str] = None) -> Atom:
        """Replace an existing atom's values in place, preserving its identity.

        *atom* may be an :class:`Atom` or, as for :meth:`add`, a mapping of
        attribute values stored under *identifier*.  The occurrence position
        is kept (no remove/re-add churn) and a single ``atom_modified`` event
        is emitted, which is what lets subscribers maintain derived
        structures without touching the atom's links.
        """
        if isinstance(atom, Atom):
            identifier = atom.identifier
        with self._lock:
            previous = self._atoms.get(identifier)
            if previous is None:
                raise IntegrityError(
                    f"atom {identifier!r} is not part of atom type {self._name!r}"
                )
            stored = self._stored_form(identifier, atom)
            generation = self._version_mutation(
                identifier,
                stored,
                previous,
                lambda: self._atoms.__setitem__(identifier, stored),
            )
            self._emit(ATOM_MODIFIED, stored, previous=previous, generation=generation)
        return stored

    def _stored_form(self, identifier: str, atom: "Atom | Mapping[str, object]") -> Atom:
        """The form of *atom* (an atom or a mapping of values) this type
        stores under *identifier*: its values validated into one row in
        definition order, sharing the description's position map.

        An atom of this type already in that form, which validation keeps
        as it is, is stored itself — atoms never change, so occurrences
        (the source and the engine of a bulk load) share it, and so does an
        atom whose row is already in definition order.  A row validated
        from values holds its own copy of them (:func:`_owned`).
        """
        description = self._description
        positions = description.positions
        if not isinstance(atom, Atom):
            row = _owned(description.validate_row(atom))
        elif atom._positions == positions:  # already a row in definition order
            row = description.revalidate_row(atom._values)
            if (
                row is atom._values
                and atom._positions is positions
                and atom.type_name == self._name
            ):
                return atom
        else:
            row = _owned(description.validate_row(atom.values))
        return Atom._stored(self._name, identifier, row, positions)

    def remove(self, atom: "Atom | str") -> Atom:
        """Remove an atom (by object or identifier) from the occurrence."""
        identifier = atom.identifier if isinstance(atom, Atom) else atom
        with self._lock:
            removed = self._atoms.get(identifier)
            if removed is None:
                raise IntegrityError(
                    f"atom {identifier!r} is not part of atom type {self._name!r}"
                )
            generation = self._version_mutation(
                identifier,
                ABSENT,
                removed,
                lambda: self._atoms.__delitem__(identifier),
            )
            self._emit(ATOM_DELETED, removed, generation=generation)
        return removed

    def get(self, identifier: str) -> Optional[Atom]:
        """Return the atom with *identifier*, or ``None``."""
        return self._atoms.get(identifier)

    def __contains__(self, atom: object) -> bool:
        if isinstance(atom, Atom):
            return atom.identifier in self._atoms
        return atom in self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms.values())

    # -- derived views -------------------------------------------------------

    def identifiers(self) -> Tuple[str, ...]:
        """Return the identifiers of all atoms in the occurrence."""
        return tuple(self._atoms)

    def empty_copy(self, name: Optional[str] = None) -> "AtomType":
        """Return a new atom type with the same description and an empty occurrence."""
        return AtomType(name or self._name, self._description)

    def copy(self, name: Optional[str] = None) -> "AtomType":
        """Return a deep copy (fresh occurrence dict, shared immutable atoms)."""
        clone = AtomType(name or self._name, self._description)
        for atom in self._atoms.values():
            clone._atoms[atom.identifier] = atom
        return clone

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomType):
            return NotImplemented
        return (
            self._name == other._name
            and self._description == other._description
            and set(self._atoms) == set(other._atoms)
        )

    def __hash__(self) -> int:
        return hash(self._name)

    def __repr__(self) -> str:
        return f"AtomType({self._name!r}, attributes={list(self._description.names)!r}, atoms={len(self)})"


def reset_surrogate_counter() -> None:
    """Reset the surrogate-identifier counter (used by tests for determinism)."""
    global _atom_counter
    _atom_counter = itertools.count(1)


def ensure_surrogate_counter(minimum: int) -> None:
    """Advance the surrogate counter past *minimum* (crash-recovery hook).

    WAL replay re-creates atoms under their original ``<type>#<n>``
    surrogates; in a fresh process the counter restarts at 1 and a later
    insert could collide with a recovered identifier.  Recovery therefore
    bumps the counter past the highest ordinal it replayed.
    """
    global _atom_counter
    probe = next(_atom_counter)
    _atom_counter = itertools.count(max(probe, minimum + 1))
