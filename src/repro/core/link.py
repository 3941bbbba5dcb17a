"""Links and link types (Definition 2).

A **link type** is the triple ``lt = <lname, ld, lv>`` where ``ld`` names the
two atom types it connects (possibly the same one — a *reflexive* link type)
and ``lv`` is a set of **links**, each an *unsorted pair* of atoms drawn from
the two atom types.  Links are the MAD model's explicit, bidirectional
representation of relationships; they replace the relational model's
foreign-key/primary-key connections and make referential integrity a property
maintained by the model itself ("there are no dangling references").

Link types may carry an optional cardinality restriction (the paper notes it
"is even possible to control cardinality restrictions specified in an
extended link-type definition"); see :class:`Cardinality`.
"""

from __future__ import annotations

import enum
from repro.analysis.runtime import make_rlock
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.events import (
    LINK_CONNECTED,
    LINK_DISCONNECTED,
    ChangeEmitter,
    ChangeEvent,
)
from repro.core.versions import ABSENT, PRESENT, VersionChain, VersioningState
from repro.exceptions import CardinalityError, DanglingLinkError, SchemaError


class Cardinality(enum.Enum):
    """Cardinality restriction of a link type, interpreted on the (from, to) pair.

    ``ONE_TO_ONE`` — each atom of either type participates in at most one link.
    ``ONE_TO_MANY`` — each atom of the *second* type links to at most one atom
    of the first type (the classical 1:n).
    ``MANY_TO_MANY`` — unrestricted (the default).
    """

    ONE_TO_ONE = "1:1"
    ONE_TO_MANY = "1:n"
    MANY_TO_MANY = "n:m"


class Link:
    """An unsorted pair of atom identifiers, tagged with its link type.

    Because links are unsorted pairs, ``Link(lt, a, b) == Link(lt, b, a)``.
    For reflexive link types the two endpoints may refer to distinct atoms of
    the same type; a self-loop (both endpoints the same atom) is permitted but
    rarely useful.

    A link is four slots: its type name, the two identifiers :attr:`first`
    and :attr:`second` in the order given, and :attr:`types`, the
    ``(first type, second type)`` pair — one tuple shared by every link its
    :class:`LinkType` builds.  A stored non-reflexive link is given in
    definition order, so a walk tells its sides apart by position.  The
    views :attr:`identifiers`, :attr:`given_order` and :attr:`endpoints`
    (sorted by type, then identifier, for display and for telling the
    endpoints apart by type) are computed on each read — a loop over many
    links reads :attr:`first` and :attr:`second` instead.
    """

    __slots__ = ("link_type_name", "first", "second", "types")

    def __init__(
        self,
        link_type_name: str,
        first: "Atom | str",
        second: "Atom | str",
        first_type: Optional[str] = None,
        second_type: Optional[str] = None,
    ) -> None:
        if isinstance(first, Atom):
            first_type, first = first.type_name, first.identifier
        if isinstance(second, Atom):
            second_type, second = second.type_name, second.identifier
        self.link_type_name = link_type_name
        # The construction order is preserved: for reflexive link types it is
        # the only way to tell the two roles apart (e.g. super-component vs.
        # sub-component on a 'composition' link).  Equality stays unordered,
        # matching the paper's "unsorted pair".
        self.first: str = first
        self.second: str = second
        self.types: Tuple[Optional[str], Optional[str]] = (first_type, second_type)

    @classmethod
    def _typed(
        cls, link_type_name: str, first: str, second: str, types: Tuple[str, str]
    ) -> "Link":
        """A link of two identifiers typed by an existing *types* pair (a
        link type's own, so its links share one tuple)."""
        link = cls.__new__(cls)
        link.link_type_name = link_type_name
        link.first = first
        link.second = second
        link.types = types
        return link

    @property
    def identifiers(self) -> FrozenSet[str]:
        """The unsorted pair of atom identifiers this link connects."""
        return frozenset((self.first, self.second))

    @property
    def given_order(self) -> Tuple[str, str]:
        """The endpoint identifiers in construction order (first, second).

        Needed to recover the two roles of a reflexive link type; for
        non-reflexive link types the endpoint atom types already disambiguate.
        """
        return (self.first, self.second)

    @property
    def endpoints(self) -> Tuple[Tuple[Optional[str], str], Tuple[Optional[str], str]]:
        """``((type, id), (type, id))`` sorted by type, then identifier."""
        first_type, second_type = self.types
        first = (first_type, self.first)
        second = (second_type, self.second)
        if (second_type or "", self.second) < (first_type or "", self.first):
            return (second, first)
        return (first, second)

    def connects(self, identifier: str) -> bool:
        """Return ``True`` when *identifier* is one of the two endpoints."""
        return identifier == self.first or identifier == self.second

    def other(self, identifier: str) -> str:
        """Return the endpoint opposite to *identifier*.

        For self-loops the same identifier is returned.
        """
        if identifier == self.first:
            return self.second
        if identifier == self.second:
            return self.first
        raise DanglingLinkError(f"atom {identifier!r} is not an endpoint of {self!r}")

    def endpoint_of_type(self, type_name: str) -> Optional[str]:
        """Return the endpoint identifier whose atom type is *type_name*, if any."""
        for endpoint_type, identifier in self.endpoints:
            if endpoint_type == type_name:
                return identifier
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Link):
            return NotImplemented
        first, second = self.first, self.second
        return self.link_type_name == other.link_type_name and (
            (first == other.first and second == other.second)
            or (first == other.second and second == other.first)
        )

    def __hash__(self) -> int:
        first, second = self.first, self.second
        if second < first:
            return hash((self.link_type_name, second, first))
        return hash((self.link_type_name, first, second))

    def __repr__(self) -> str:
        ids = " -- ".join(identifier for _, identifier in self.endpoints)
        return f"Link({self.link_type_name}: {ids})"


class LinkType:
    """The triple ``<lname, ld, lv>`` of Definition 2.

    Parameters
    ----------
    name:
        The link-type name (unique within a database).
    first_type, second_type:
        Names of the two connected atom types.  Equal names define a reflexive
        link type (e.g. the ``composition`` link type on ``parts`` in the
        bill-of-material example).
    cardinality:
        Optional :class:`Cardinality` restriction, enforced by :meth:`add`.
    """

    __slots__ = (
        "_name",
        "_first_type",
        "_second_type",
        "_types",
        "_links",
        "_by_atom",
        "cardinality",
        "_emitter",
        "_versioning",
        "_versions",
        "_historic_by_atom",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        first_type: "AtomType | str",
        second_type: "AtomType | str",
        links: Iterable[Link] = (),
        cardinality: Cardinality = Cardinality.MANY_TO_MANY,
    ) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"invalid link-type name: {name!r}")
        self._name = name
        self._first_type = first_type.name if isinstance(first_type, AtomType) else first_type
        self._second_type = second_type.name if isinstance(second_type, AtomType) else second_type
        #: The ``(first, second)`` type pair every link this type builds
        #: shares as its :attr:`Link.types`.
        self._types = (self._first_type, self._second_type)
        self.cardinality = cardinality
        self._links: Set[Link] = set()  # guarded-by: LinkType._lock
        #: Identifier → the links incident to it (an endpoint of either
        #: type), each link entered once.  A write replaces a bucket and
        #: never mutates one, so a reader holding a bucket holds a fixed
        #: value.
        self._by_atom: Dict[str, Tuple[Link, ...]] = {}  # guarded-by: LinkType._lock
        self._emitter: Optional[ChangeEmitter] = None
        self._versioning: Optional[VersioningState] = None
        self._versions: Dict[Link, VersionChain] = {}  # guarded-by: LinkType._lock
        self._historic_by_atom: Dict[str, Set[Link]] = {}  # guarded-by: LinkType._lock
        #: Head lock: mutations hold it so cardinality check, occurrence
        #: swap, chain record and event emission are one atomic unit per
        #: type; snapshot views take it briefly to copy the occurrence and
        #: historic sets (links hash through Python code — unguarded
        #: iteration over a set can observe a concurrent resize).  An
        #: incidence bucket is an immutable tuple, replaced whole by a
        #: write, so reading one needs no lock.
        self._lock = make_rlock("LinkType._lock")
        for link in links:
            self.add(link)

    @property
    def events(self) -> ChangeEmitter:
        """The type's change emitter (created on first access)."""
        if self._emitter is None:
            self._emitter = ChangeEmitter()
        return self._emitter

    def _emit(self, kind: str, link: Link, generation: Optional[int] = None) -> None:
        if self._emitter is not None and len(self._emitter):
            self._emitter.emit(
                ChangeEvent(kind, self._name, link=link, generation=generation)
            )

    # -- versioning ----------------------------------------------------------

    def attach_versioning(self, state: VersioningState) -> None:
        """Tie this type's mutations to a database's version clock.

        While the state is *recording* (a pin is active) connect/disconnect
        history is kept per link — :class:`repro.core.versions.LinkTypeView`
        resolves it so pinned readers traverse the occurrence as of their
        snapshot.
        """
        self._versioning = state

    # requires: LinkType._lock
    def _version_mutation(
        self, link: Link, payload: object, base: object, swap
    ) -> Optional[int]:
        """Stamp one head mutation; chain-record and apply it atomically.

        Mirrors :meth:`AtomType._version_mutation`: tick, recording
        decision, chain record and the occurrence swap (*swap*) form one
        critical section of the registry lock, so a concurrent pin lands
        wholly before (pre-state chained) or wholly after (new head is the
        pinned state) — never in between.
        """
        state = self._versioning
        if state is None:
            swap()
            return None
        with state.lock:
            generation = state.mutation_generation = state.tick()
            if state.recording:
                chain = self._versions.get(link)
                if chain is None:
                    chain = VersionChain(base)
                    self._versions[link] = chain
                chain.record(generation, payload)
                historic = self._historic_by_atom
                historic.setdefault(link.first, set()).add(link)
                historic.setdefault(link.second, set()).add(link)
            swap()
        return generation

    def truncate_versions(self, horizon: Optional[int]) -> Tuple[int, int]:
        """Garbage-collect link version chains; returns ``(live, collected)``."""
        with self._lock:
            if horizon is None:
                collected = sum(len(chain) for chain in self._versions.values())
                self._versions.clear()
                self._historic_by_atom.clear()
                return 0, collected
            collected = 0
            live = 0
            dead = []
            for link, chain in self._versions.items():
                collected += chain.truncate(horizon)
                if len(chain) == 1:
                    payload = chain.head()
                    at_head = link in self._links
                    if (payload is PRESENT) == at_head:
                        dead.append(link)
                        collected += 1
                        continue
                live += len(chain)
            for link in dead:
                del self._versions[link]
                for identifier in (link.first, link.second):
                    bucket = self._historic_by_atom.get(identifier)
                    if bucket is not None:
                        bucket.discard(link)
                        if not bucket:
                            del self._historic_by_atom[identifier]
            return live, collected

    def collect_versions(self) -> Tuple[int, int]:
        """Garbage-collect with a freshly read horizon; ``(live, collected)``.

        Mirrors :meth:`AtomType.collect_versions`: the horizon is re-read
        under the head lock so truncation can never race a pin registered
        moments earlier.
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

    def _known_links(self) -> "Tuple[List[Link], List[Link]]":
        """Copies of the head occurrence and versioned links (for views)."""
        with self._lock:
            return list(self._links), list(self._versions)

    def _incident_links(
        self, identifier: str
    ) -> "Tuple[Tuple[Link, ...], Tuple[Link, ...]]":
        """The head bucket (itself: it is never mutated) and a copy of the
        historic links incident to one atom."""
        with self._lock:
            return (
                self._by_atom.get(identifier, ()),
                tuple(self._historic_by_atom.get(identifier, ())),
            )

    # -- accessor functions of Definition 2 --------------------------------

    @property
    def name(self) -> str:
        """``nam(lt)`` — the link-type name."""
        return self._name

    @property
    def description(self) -> FrozenSet[str]:
        """``des(lt)`` — the (unordered) pair of connected atom-type names."""
        return frozenset((self._first_type, self._second_type))

    @property
    def atom_type_names(self) -> Tuple[str, str]:
        """The connected atom-type names as an ordered pair (definition order)."""
        return (self._first_type, self._second_type)

    @property
    def occurrence(self) -> FrozenSet[Link]:
        """``ext(lt)`` — the link-type occurrence."""
        return frozenset(self._links)

    @property
    def is_reflexive(self) -> bool:
        """``True`` when both connected atom types are the same."""
        return self._first_type == self._second_type

    def connects_type(self, type_name: str) -> bool:
        """Return ``True`` when this link type has *type_name* as an endpoint type."""
        return type_name in (self._first_type, self._second_type)

    def other_type(self, type_name: str) -> str:
        """Return the atom-type name opposite to *type_name* (itself when reflexive)."""
        if type_name == self._first_type:
            return self._second_type
        if type_name == self._second_type:
            return self._first_type
        raise SchemaError(f"atom type {type_name!r} is not connected by link type {self._name!r}")

    # -- occurrence management ---------------------------------------------

    def add(self, link: "Link | Tuple", second: "Atom | str | None" = None) -> Link:
        """Insert a link into the occurrence.

        Accepts either a prepared :class:`Link`, a 2-tuple of atoms or
        identifiers, or two positional atom arguments.  Cardinality
        restrictions are enforced here.

        Every inserted link carries this type's endpoint types, and a
        non-reflexive link gives its endpoints in definition order (so its
        :attr:`Link.given_order` — what logs and images record — replays to
        the same types).  Endpoints given as atoms or identifiers are typed as
        :meth:`link` types them; a prepared link of another name, with other
        endpoint types or given the other way round is rebuilt so.
        """
        if not isinstance(link, Link):
            link = self.link(link, second) if second is not None else self.link(*link)
        elif link.link_type_name != self._name or link.types != self._types:
            link = Link._typed(self._name, *self._ordered_ids(link), self._types)
        return self._insert(link, check=True)

    def link(self, first: "Atom | str", second: "Atom | str") -> Link:
        """A link of this type between two endpoints (nothing is inserted).

        The endpoints are typed by position, in definition order, exactly as
        :meth:`redo_connect` types a logged link; two atoms of a
        non-reflexive type are put in that order first, whichever way round
        they were given.  Bare identifiers cannot say which atom type stores
        them — :meth:`placed` puts them in order by looking.
        """
        if not self.is_reflexive and (
            getattr(first, "type_name", None) == self._second_type
            or getattr(second, "type_name", None) == self._first_type
        ):
            first, second = second, first
        return Link._typed(
            self._name,
            first.identifier if isinstance(first, Atom) else first,
            second.identifier if isinstance(second, Atom) else second,
            self._types,
        )

    def placed(
        self, first: str, second: str, first_atoms: AtomType, second_atoms: AtomType
    ) -> Optional[Tuple[str, str]]:
        """Two bare endpoint identifiers in definition order, judged by where
        they are stored (*first_atoms*/*second_atoms* hold this type's two
        atom types): as given when stored that way, swapped when only the
        other way round fits (never for a reflexive type), ``None`` when
        neither fits."""
        if first in first_atoms and second in second_atoms:
            return first, second
        if not self.is_reflexive and second in first_atoms and first in second_atoms:
            return second, first
        return None

    def redo_connect(self, first: str, second: str) -> Link:
        """Re-insert a logged link (recovery and replica replay).

        The cardinality restriction was enforced when the link was first
        connected and is *not* re-checked: a log replays in commit order,
        which can pass through states the original mutation order never
        produced (a re-applied prefix over a newer image; interleaved
        transactions), and the replayed end state is the validated one.
        """
        return self._insert(Link._typed(self._name, first, second, self._types), check=False)

    def _insert(self, link: Link, check: bool) -> Link:
        with self._lock:
            if link in self._links:
                return link
            if check:
                self._check_cardinality(link)

            def connect_head(link: Link = link) -> None:
                self._links.add(link)
                by_atom = self._by_atom
                first, second = link.first, link.second
                by_atom[first] = by_atom.get(first, ()) + (link,)
                if second != first:
                    by_atom[second] = by_atom.get(second, ()) + (link,)

            generation = self._version_mutation(link, PRESENT, ABSENT, connect_head)
            self._emit(LINK_CONNECTED, link, generation=generation)
        return link

    def connect(self, first: "Atom | str", second: "Atom | str") -> Link:
        """Convenience wrapper for :meth:`add` with two endpoints."""
        return self.add(first, second)

    def _check_cardinality(self, link: Link) -> None:
        if self.cardinality is Cardinality.MANY_TO_MANY:
            return
        reflexive = self.is_reflexive
        for endpoint_type, identifier in link.endpoints:
            bucket = self._by_atom.get(identifier, ())
            # Only this atom's links: another type's atom may share the
            # identifier.  A stored non-reflexive link is in definition
            # order, so the side of this atom's type is a position.
            if reflexive:
                taken = bool(bucket)
            elif endpoint_type == self._first_type:
                taken = any(other.first == identifier for other in bucket)
            else:
                taken = any(other.second == identifier for other in bucket)
            if not taken:
                continue
            if self.cardinality is Cardinality.ONE_TO_ONE:
                raise CardinalityError(
                    f"link type {self._name!r} is 1:1 but atom {identifier!r} already participates"
                )
            if self.cardinality is Cardinality.ONE_TO_MANY and endpoint_type == self._second_type:
                raise CardinalityError(
                    f"link type {self._name!r} is 1:n but atom {identifier!r} of type "
                    f"{self._second_type!r} already has a parent link"
                )

    def remove(self, link: Link) -> None:
        """Remove *link* from the occurrence (no error when absent)."""
        with self._lock:
            if link not in self._links:
                return
            # The stored object — chained and emitted as stored, in
            # definition order — from the smaller of its two buckets; both
            # buckets then drop it by identity.
            by_atom = self._by_atom
            smaller = min(by_atom[link.first], by_atom[link.second], key=len)
            link = next(other for other in smaller if other == link)

            def disconnect_head(link: Link = link) -> None:
                self._links.discard(link)
                by_atom = self._by_atom
                for identifier in {link.first, link.second}:
                    kept = tuple([other for other in by_atom[identifier] if other is not link])
                    if kept:
                        by_atom[identifier] = kept
                    else:
                        del by_atom[identifier]

            generation = self._version_mutation(link, ABSENT, PRESENT, disconnect_head)
            self._emit(LINK_DISCONNECTED, link, generation=generation)

    def links_of(self, atom: "Atom | str") -> FrozenSet[Link]:
        """Return all links incident to *atom*.

        An identifier matches an endpoint of either type.  An :class:`Atom`
        matches only the endpoint of its own type: identifiers are unique
        within a type, so a link of another type's atom with the same
        identifier is not this atom's.  Like :meth:`incident`, it reads the
        bucket without the lock: a bucket is never mutated.
        """
        if not isinstance(atom, Atom):
            return frozenset(self._by_atom.get(atom, ()))
        endpoint = (atom.type_name, atom.identifier)
        return frozenset(
            link for link in self._by_atom.get(atom.identifier, ()) if endpoint in link.endpoints
        )

    def incident(self, identifier: str) -> "Tuple[Link, ...]":
        """The links incident to *identifier* (an endpoint of either type) —
        the neighbour-traversal access path of molecule derivation.

        The incidence bucket itself, with no lock and no copy: a tuple, each
        link once, that a write replaces and never mutates — so it stays
        as it was handed out, whatever a writer on another thread does
        meanwhile.  It is the head as of the read; snapshot readers get the
        same method on :class:`~repro.core.versions.LinkTypeView`.
        """
        return self._by_atom.get(identifier, ())

    def partners_of(self, atom: "Atom | str") -> FrozenSet[str]:
        """Return the identifiers linked to *atom* through this link type."""
        identifier = atom.identifier if isinstance(atom, Atom) else atom
        return frozenset(link.other(identifier) for link in self._by_atom.get(identifier, ()))

    def __contains__(self, link: object) -> bool:
        return link in self._links

    def __len__(self) -> int:
        return len(self._links)

    def __iter__(self) -> Iterator[Link]:
        return iter(self._links)

    def empty_copy(self, name: Optional[str] = None) -> "LinkType":
        """Return a link type with the same description and an empty occurrence."""
        return LinkType(name or self._name, self._first_type, self._second_type, cardinality=self.cardinality)

    def copy(self, name: Optional[str] = None) -> "LinkType":
        """Return a copy of this link type including its occurrence."""
        clone = self.empty_copy(name)
        for link in self._links:
            clone.add(link)
        return clone

    def restricted_to(
        self,
        name: str,
        allowed_first: Set[str],
        allowed_second: Set[str],
        first_type: Optional[str] = None,
        second_type: Optional[str] = None,
    ) -> "LinkType":
        """Return a renamed copy keeping only links whose endpoints are allowed.

        This is the core of link-type *inheritance* (Definition 4 discussion)
        and of result *propagation* (Definition 9): the structure of the link
        type is preserved while the occurrence is filtered to the atoms that
        survive in the result atom types.
        """
        clone = LinkType(
            name,
            first_type or self._first_type,
            second_type or self._second_type,
            cardinality=self.cardinality,
        )
        for link in self._links:
            first_id, second_id = self._ordered_ids(link)
            if first_id in allowed_first and second_id in allowed_second:
                clone.add(clone.link(first_id, second_id))
            elif self.is_reflexive and second_id in allowed_first and first_id in allowed_second:
                clone.add(clone.link(second_id, first_id))
        return clone

    def _ordered_ids(self, link: Link) -> Tuple[str, str]:
        """Return the link's endpoint identifiers ordered as (first_type, second_type)."""
        if self.is_reflexive or link.types == self._types:
            return link.first, link.second
        first_id = link.endpoint_of_type(self._first_type)
        second_id = link.endpoint_of_type(self._second_type)
        if first_id is None or second_id is None:
            # A link typed for other atom types: by position, as given.
            return link.given_order
        return (first_id, second_id)

    def validate_against(self, first: AtomType, second: AtomType) -> None:
        """Check referential integrity: every link endpoint exists in its atom type.

        Raises :class:`DanglingLinkError` when a link references a missing atom.
        """
        for link in self._links:
            first_id, second_id = self._ordered_ids(link)
            if first_id not in first and second_id not in first and not self.is_reflexive:
                raise DanglingLinkError(
                    f"link {link!r} has no endpoint in atom type {first.name!r}"
                )
            if self.is_reflexive:
                for identifier in (first_id, second_id):
                    if identifier not in first:
                        raise DanglingLinkError(
                            f"link {link!r} references missing atom {identifier!r}"
                        )
            else:
                if first_id not in first or second_id not in second:
                    # Endpoints may be stored in either order; try the swap.
                    if not (second_id in first and first_id in second):
                        raise DanglingLinkError(
                            f"link {link!r} references atoms missing from "
                            f"{first.name!r}/{second.name!r}"
                        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinkType):
            return NotImplemented
        return (
            self._name == other._name
            and self.description == other.description
            and self.occurrence == other.occurrence
        )

    def __hash__(self) -> int:
        return hash(self._name)

    def __repr__(self) -> str:
        return (
            f"LinkType({self._name!r}, {self._first_type!r} -- {self._second_type!r}, "
            f"links={len(self)})"
        )
