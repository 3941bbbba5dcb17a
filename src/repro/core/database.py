"""Databases and the database domain (Definition 3).

A **database** is the pair ``DB = <AT, LT>`` of a set of atom types and a set
of link types over those atom types.  The **database domain** ``DB*``
comprises all valid databases; every operation of the atom-type algebra and of
the molecule algebra is *closed* under this domain — each result atom type
(with its inherited link types) is added to a correspondingly *enlarged*
database.

The :class:`Database` class therefore provides, besides the obvious
registries, the ``atyp``/``ltyp`` lookup functions of the paper, validity
checking (the executable counterpart of membership in ``AT*``/``LT*``/``DB*``),
and :meth:`enlarged`, which produces the grown database used in closure
constructions without mutating the original.
"""

from __future__ import annotations

from repro.analysis.runtime import make_lock
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.attributes import AtomTypeDescription
from repro.core.events import ChangeEvent, Listener
from repro.core.link import Cardinality, Link, LinkType
from repro.core.versions import DatabaseView, Snapshot, VersioningState
from repro.exceptions import (
    DanglingLinkError,
    DuplicateNameError,
    SchemaError,
    StorageError,
    UnknownNameError,
)


class Database:
    """The pair ``<AT, LT>`` of Definition 3, with validity checking.

    Databases are ordinarily built through :class:`repro.schema.SchemaBuilder`
    or the dataset loaders, but can also be assembled directly::

        db = Database("geo")
        state = db.define_atom_type("state", {"name": "string", "hectare": "integer"})
        area = db.define_atom_type("area", {"area_id": "string"})
        db.define_link_type("state-area", "state", "area")
    """

    def __init__(self, name: str = "db") -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"invalid database name: {name!r}")
        self.name = name
        self._atom_types: Dict[str, AtomType] = {}
        self._link_types: Dict[str, LinkType] = {}
        self._listeners: List[Listener] = []
        self._versioning: Optional[VersioningState] = None  # guarded-by: Database._versioning_guard
        #: Guards versioning-state creation (``enable_versioning`` may race
        #: between an engine thread and an MQL ``BEGIN WORK`` elsewhere).
        self._versioning_guard = make_lock("Database._versioning_guard")

    # --------------------------------------------------------- change events

    def subscribe(self, listener: Listener) -> None:
        """Attach *listener* to every (current and future) type's change events.

        The listener receives one :class:`~repro.core.events.ChangeEvent` per
        occurrence-level mutation — atom inserted/deleted/modified, link
        connected/disconnected — in mutation order.  This is the hook the
        storage engine uses to maintain its indexes and accelerators
        incrementally instead of rebuilding them on every write.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)
        for atom_type in self._atom_types.values():
            atom_type.events.subscribe(listener)
        for link_type in self._link_types.values():
            link_type.events.subscribe(listener)

    def unsubscribe(self, listener: Listener) -> None:
        """Detach *listener* from this database's types (no error when absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)
        for atom_type in self._atom_types.values():
            atom_type.events.unsubscribe(listener)
        for link_type in self._link_types.values():
            link_type.events.unsubscribe(listener)

    # ----------------------------------------------------- versioning / MVCC

    @property
    def versioning(self) -> Optional[VersioningState]:
        """The database's concurrency state, or ``None`` until enabled."""
        return self._versioning

    def enable_versioning(self, start_generation: int = 0) -> VersioningState:
        """Switch on multi-version concurrency control (idempotent).

        Attaches a shared :class:`~repro.core.versions.VersioningState` —
        generation clock, pin registry, commit log — to every current and
        future atom/link type.  From this point each mutation is stamped with
        a generation, and while any reader pins a generation the pre-states
        are retained in copy-on-write version chains, so
        :meth:`at` can serve reads as of that generation.
        """
        with self._versioning_guard:
            if self._versioning is None:
                self._versioning = VersioningState(start_generation)
        for atom_type in self._atom_types.values():
            atom_type.attach_versioning(self._versioning)
        for link_type in self._link_types.values():
            link_type.attach_versioning(self._versioning)
        return self._versioning

    def at(self, snapshot: Snapshot) -> DatabaseView:
        """A read-only view of this database as of *snapshot*.

        Schema lookups resolve live (DDL is not versioned); occurrence reads
        resolve through the version chains, so the executor and the molecule
        derivation read the state the snapshot pinned.
        """
        return DatabaseView(self, snapshot)

    def pin(self, generation: Optional[int] = None) -> int:
        """Pin *generation* (default: current) against garbage collection."""
        if self._versioning is None:
            raise StorageError("versioning is not enabled on this database")
        return self._versioning.pin(generation)

    def release_pin(self, generation: int) -> None:
        """Release one pin and garbage-collect now-unreachable versions."""
        if self._versioning is None:
            return
        self._versioning.release(generation)
        self.collect_versions()

    def collect_versions(self) -> Dict[str, object]:
        """Truncate version chains past the oldest pin; returns GC statistics.

        Each type re-reads the horizon under its own head lock (see
        :meth:`AtomType.collect_versions`): chain recording and truncation
        serialize per type, so a pin or transaction registered before the
        type is visited is always honoured — no stale-horizon window in
        which a just-pinned reader's chains could be cleared.  The horizon
        covers pins *and* active transactions (see
        :meth:`~repro.core.versions.VersioningState.truncation_horizon`).
        """
        state = self._versioning
        if state is None:
            return {
                "versions_live": 0,
                "versions_collected": 0,
                "oldest_pinned_generation": None,
            }
        horizon = state.truncation_horizon()
        live = 0
        collected_total = 0
        for atom_type in self._atom_types.values():
            kept, collected = atom_type.collect_versions()
            live += kept
            collected_total += collected
        for link_type in self._link_types.values():
            kept, collected = link_type.collect_versions()
            live += kept
            collected_total += collected
        with state.lock:
            state.versions_collected += collected_total
            total_collected = state.versions_collected
        state.prune_commit_log()
        return {
            "versions_live": live,
            "versions_collected": total_collected,
            "oldest_pinned_generation": horizon,
        }

    def version_statistics(self) -> Dict[str, object]:
        """Live version-chain and pin statistics (without collecting)."""
        state = self._versioning
        live = 0
        if state is not None:
            for registry in (self._atom_types, self._link_types):
                for type_object in registry.values():
                    _chains, entries = type_object.version_statistics()
                    live += entries
        return {
            "versions_live": live,
            "versions_collected": state.versions_collected if state else 0,
            "oldest_pinned_generation": state.oldest_pinned() if state else None,
            "pins_active": state.pins_active if state else 0,
        }

    # ------------------------------------------------------------------ AT

    @property
    def atom_types(self) -> Tuple[AtomType, ...]:
        """The set ``AT`` of atom types (in definition order)."""
        return tuple(self._atom_types.values())

    @property
    def atom_type_names(self) -> Tuple[str, ...]:
        """The names of all atom types."""
        return tuple(self._atom_types)

    def define_atom_type(
        self,
        name: str,
        description: "AtomTypeDescription | Sequence | Mapping",
        atoms: Iterable[Atom] = (),
    ) -> AtomType:
        """Create a new atom type and register it; returns the atom type."""
        atom_type = AtomType(name, description, atoms)
        return self.add_atom_type(atom_type)

    def add_atom_type(self, atom_type: AtomType) -> AtomType:
        """Register an existing atom type; its name must be fresh."""
        self._require_plain()
        return self._register(atom_type)

    def _register(self, new_type: "AtomType | LinkType") -> "AtomType | LinkType":
        """Register an atom or link type, checked as :meth:`add_atom_type`
        and :meth:`add_link_type` check it but on a versioned database too:
        the catalog path of the engine that owns one (its DDL, bulk loads
        and replay go through ``PrimaEngine._add_type``)."""
        name = new_type.name
        if name in self:
            kind = "an atom type" if name in self._atom_types else "a link type"
            raise DuplicateNameError(f"name {name!r} already used by {kind}")
        # Copy-on-write: a storage engine registers types in its live
        # database while other threads iterate the registry (GC, planning).
        if isinstance(new_type, AtomType):
            self._atom_types = {**self._atom_types, name: new_type}
        else:
            for type_name in new_type.atom_type_names:
                if type_name not in self._atom_types:
                    raise UnknownNameError(
                        f"link type {name!r} references unknown atom type {type_name!r}"
                    )
            self._link_types = {**self._link_types, name: new_type}
        for listener in self._listeners:
            new_type.events.subscribe(listener)
        if self._versioning is not None:
            new_type.attach_versioning(self._versioning)
        return new_type

    def _require_plain(self) -> None:
        """Refuse a catalog change on a versioned database (every public
        one): its engine changes the catalog through logged DDL."""
        if self._versioning is not None:
            raise SchemaError(
                f"database {self.name!r} is versioned: its catalog changes only "
                "through its engine's DDL (create_atom_type/create_link_type)"
            )

    def atyp(self, name: "str | Iterable[str]") -> "AtomType | Tuple[AtomType, ...]":
        """The ``atyp`` function of Definition 1 (extended to name sets).

        With a single name returns that atom type; with an iterable of names
        returns the corresponding tuple of atom types.
        """
        if isinstance(name, str):
            try:
                return self._atom_types[name]
            except KeyError as exc:
                raise UnknownNameError(f"unknown atom type: {name!r}") from exc
        return tuple(self.atyp(single) for single in name)

    def has_atom_type(self, name: str) -> bool:
        """Return ``True`` when an atom type named *name* exists."""
        return name in self._atom_types

    def drop_atom_type(self, name: str) -> None:
        """Remove an atom type and every link type that references it."""
        self._require_plain()
        if name not in self._atom_types:
            raise UnknownNameError(f"unknown atom type: {name!r}")
        del self._atom_types[name]
        for link_name in [ln for ln, lt in self._link_types.items() if lt.connects_type(name)]:
            del self._link_types[link_name]

    # ------------------------------------------------------------------ LT

    @property
    def link_types(self) -> Tuple[LinkType, ...]:
        """The set ``LT`` of link types (in definition order)."""
        return tuple(self._link_types.values())

    @property
    def link_type_names(self) -> Tuple[str, ...]:
        """The names of all link types."""
        return tuple(self._link_types)

    def define_link_type(
        self,
        name: str,
        first_type: "AtomType | str",
        second_type: "AtomType | str",
        cardinality: Cardinality = Cardinality.MANY_TO_MANY,
    ) -> LinkType:
        """Create and register a link type between two existing atom types."""
        first_name = first_type.name if isinstance(first_type, AtomType) else first_type
        second_name = second_type.name if isinstance(second_type, AtomType) else second_type
        for type_name in (first_name, second_name):
            if type_name not in self._atom_types:
                raise UnknownNameError(
                    f"cannot define link type {name!r}: unknown atom type {type_name!r}"
                )
        link_type = LinkType(name, first_name, second_name, cardinality=cardinality)
        return self.add_link_type(link_type)

    def add_link_type(self, link_type: LinkType) -> LinkType:
        """Register an existing link type; both endpoint atom types must exist."""
        self._require_plain()
        return self._register(link_type)

    def ltyp(self, name: "str | Iterable") -> "LinkType | Tuple[LinkType, ...]":
        """The ``ltyp`` function: map a link-type name (or directed use) to its link type."""
        if isinstance(name, str):
            try:
                return self._link_types[name]
            except KeyError as exc:
                raise UnknownNameError(f"unknown link type: {name!r}") from exc
        return tuple(self.ltyp(single) for single in name)

    def has_link_type(self, name: str) -> bool:
        """Return ``True`` when a link type named *name* exists."""
        return name in self._link_types

    def drop_link_type(self, name: str) -> None:
        """Remove a link type from the database."""
        self._require_plain()
        if name not in self._link_types:
            raise UnknownNameError(f"unknown link type: {name!r}")
        del self._link_types[name]

    def link_types_of(self, atom_type: "AtomType | str") -> Tuple[LinkType, ...]:
        """Return every link type incident to *atom_type*."""
        name = atom_type.name if isinstance(atom_type, AtomType) else atom_type
        return tuple(lt for lt in self._link_types.values() if lt.connects_type(name))

    def link_types_between(self, first: str, second: str) -> Tuple[LinkType, ...]:
        """Return all link types connecting atom types *first* and *second*."""
        return tuple(
            lt
            for lt in self._link_types.values()
            if lt.description == frozenset((first, second)) or (first == second and lt.is_reflexive)
        )

    # --------------------------------------------------------- convenience

    def insert_atom(self, type_name: str, identifier: Optional[str] = None, **values: object) -> Atom:
        """Insert a new atom into atom type *type_name*."""
        return self.atyp(type_name).insert(identifier=identifier, **values)

    def connect(self, link_type_name: str, first: "Atom | str", second: "Atom | str") -> Link:
        """Insert a link of *link_type_name* between two atoms (see
        :meth:`typed_link`)."""
        return self.ltyp(link_type_name).add(self.typed_link(link_type_name, first, second))

    def typed_link(self, link_type_name: str, first: "Atom | str", second: "Atom | str") -> Link:
        """The link of *link_type_name* between two endpoints, each typed by
        the atom type that stores it (nothing is inserted).

        Identifiers are unique only within an atom type, and a link tells its
        endpoints apart by type (:attr:`Link.endpoints`).  An atom carries
        its type (:meth:`LinkType.link`).  Two bare identifiers are placed by
        looking them up (:meth:`LinkType.placed`): in definition order when
        they are stored that way, the other way round when only that fits.
        A pair stored neither way keeps definition order — that link dangles,
        and :meth:`validate` says so.
        """
        link_type = self.ltyp(link_type_name)
        if isinstance(first, str) and isinstance(second, str):
            atoms = (self.atyp(name) for name in link_type.atom_type_names)
            first, second = link_type.placed(first, second, *atoms) or (first, second)
        return link_type.link(first, second)

    def find_atom(self, identifier: str) -> Optional[Atom]:
        """Locate an atom by identifier across all atom types."""
        for atom_type in self._atom_types.values():
            atom = atom_type.get(identifier)
            if atom is not None:
                return atom
        return None

    # --------------------------------------------------------------- DB*

    def validate(self) -> None:
        """Check membership in the database domain ``DB*``.

        Raises when a link type references atoms that are not part of its
        endpoint atom types' occurrences (referential integrity: each
        endpoint is looked up in the atom type it is typed with) or when a
        link type's endpoint atom types are missing.
        """
        for link_type in self._link_types.values():
            first_name, second_name = link_type.atom_type_names
            if first_name not in self._atom_types or second_name not in self._atom_types:
                raise UnknownNameError(
                    f"link type {link_type.name!r} references undefined atom types"
                )
            first_atoms = self._atom_types[first_name]
            second_atoms = self._atom_types[second_name]
            # A stored link is in definition order: its first endpoint is
            # typed with the first atom type, its second with the second.
            for link in link_type:
                if link.first not in first_atoms:
                    endpoint_type, identifier = first_name, link.first
                elif link.second not in second_atoms:
                    endpoint_type, identifier = second_name, link.second
                else:
                    continue
                raise DanglingLinkError(
                    f"link {link!r} of type {link_type.name!r} references "
                    f"unknown {endpoint_type!r} atom {identifier!r}"
                )

    def is_valid(self) -> bool:
        """Return ``True`` when :meth:`validate` succeeds."""
        try:
            self.validate()
        except (DanglingLinkError, UnknownNameError):
            return False
        return True

    def enlarged(
        self,
        new_atom_types: Iterable[AtomType] = (),
        new_link_types: Iterable[LinkType] = (),
        name: Optional[str] = None,
    ) -> "Database":
        """Return a new database extended with additional atom/link types.

        This is the "correspondingly enlarged database" of the closure
        constructions (Theorem 1, Definition 9): the original database is left
        untouched; the result shares the original type objects and adds the
        new ones.
        """
        grown = Database(name or self.name)
        grown._atom_types = dict(self._atom_types)
        grown._link_types = dict(self._link_types)
        for atom_type in new_atom_types:
            if atom_type.name in grown._atom_types:
                # Result names are freshly generated; a clash means the caller
                # reused a name deliberately (idempotent re-registration).
                continue
            grown._atom_types[atom_type.name] = atom_type
        for link_type in new_link_types:
            if link_type.name in grown._link_types:
                continue
            grown._link_types[link_type.name] = link_type
        return grown

    def copy(self, name: Optional[str] = None) -> "Database":
        """Return a deep copy of the database (fresh atom/link type objects)."""
        clone = Database(name or self.name)
        for atom_type in self._atom_types.values():
            clone._atom_types[atom_type.name] = atom_type.copy()
        for link_type in self._link_types.values():
            clone._link_types[link_type.name] = link_type.copy()
        return clone

    # ---------------------------------------------------------- statistics

    def atom_count(self) -> int:
        """Total number of atoms across all atom types."""
        return sum(len(atom_type) for atom_type in self._atom_types.values())

    def link_count(self) -> int:
        """Total number of links across all link types."""
        return sum(len(link_type) for link_type in self._link_types.values())

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Return per-type occurrence sizes, used by reports and the optimizer."""
        return {
            "atom_types": {name: len(at) for name, at in self._atom_types.items()},
            "link_types": {name: len(lt) for name, lt in self._link_types.items()},
        }

    def __contains__(self, name: object) -> bool:
        return name in self._atom_types or name in self._link_types

    def __repr__(self) -> str:
        return (
            f"Database({self.name!r}, atom_types={len(self._atom_types)}, "
            f"link_types={len(self._link_types)}, atoms={self.atom_count()}, "
            f"links={self.link_count()})"
        )


def formal_specification(db: Database) -> str:
    """Render a database in the style of Figure 4 of the paper.

    Each atom type is shown as ``<name, {attributes}, {atoms}> ∈ AT*``, each
    link type as ``<name, {endpoints}, {links}> ∈ LT*``, and the database as
    ``<{atom types}, {link types}> ∈ DB*``.  Occurrences are elided after a few
    elements, matching the paper's presentation.
    """

    def preview(items: Sequence[str], limit: int = 4) -> str:
        shown = list(items[:limit])
        if len(items) > limit:
            shown.append("...")
        return "{" + ", ".join(shown) + "}"

    lines: List[str] = []
    for atom_type in db.atom_types:
        atom_previews = [
            "<" + ", ".join(repr(atom.get(name)) for name in atom_type.description.names) + ">"
            for atom in atom_type.occurrence
        ]
        lines.append(
            f"{atom_type.name} = <{atom_type.name}, "
            f"{preview(list(atom_type.description.names), limit=8)}, "
            f"{preview(atom_previews)}> ∈ AT*"
        )
    for link_type in db.link_types:
        link_previews = [
            "<" + ", ".join(sorted(link.identifiers)) + ">" for link in link_type.occurrence
        ]
        first, second = link_type.atom_type_names
        lines.append(
            f"{link_type.name} = <{link_type.name}, {{{first}, {second}}}, "
            f"{preview(link_previews)}> ∈ LT*"
        )
    lines.append(
        f"{db.name} = <{preview(list(db.atom_type_names), limit=10)}, "
        f"{preview(list(db.link_type_names), limit=10)}> ∈ DB*"
    )
    return "\n".join(lines)
