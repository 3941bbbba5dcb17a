"""Multi-version concurrency control: version chains, snapshots and commit log.

The MAD model's molecule views are *dynamic*: they are derived on demand from
the shared atom networks.  That only composes with concurrent writers when a
long-running reader can keep deriving against a stable database state while
the head moves on.  This module provides the machinery:

* :class:`VersioningState` — the per-database concurrency state: a monotonic
  generation clock (every occurrence-level mutation ticks it), a refcounted
  **pin registry** (readers pin the generation they want to keep seeing), the
  **commit log** used for first-committer-wins conflict detection, and the
  registry of active transactions;
* :class:`VersionChain` — the copy-on-write history of one atom identifier
  (payloads are :class:`~repro.core.atom.Atom` objects or :data:`ABSENT`) or
  one link (payloads are :data:`PRESENT`/:data:`ABSENT`), newest last, with a
  base entry at generation 0 capturing the pre-history state;
* :class:`Snapshot` — a visibility predicate: generation stamp plus the set
  of generations written by the owning transaction (so a transaction reads
  its own uncommitted writes on top of its pinned snapshot);
* :class:`AtomTypeView` / :class:`LinkTypeView` / :class:`DatabaseView` —
  read-only facades that answer every read the executor issues
  (``get``/iteration/``links_of``/…) *as of* a snapshot, so molecule
  derivation and recursive expansion run unchanged against a pinned
  generation.

Version chains are recorded **only while at least one pin is active**: an
unpinned database pays one integer tick per mutation and nothing else.  This
is sound because a pin taken at generation *P* guarantees every later
mutation is recorded, and the first recorded mutation of an object captures
its pre-state (the state at *P*) as the chain's base entry.  The garbage
collector (:meth:`VersioningState.truncation_horizon` driving the types'
``truncate_versions``) drops every entry no live pin or active transaction
can reach.

The chains are also what lets a pinned reader use the **access paths kept at
the head**.  An object without a chain has the same state at the pin as at
the head, so an index maintained at the head answers a pinned lookup once the
identifiers that carry a chain are added to its answer
(:meth:`~repro.core.atom.AtomType.settled`; the reader resolves every
candidate through its view, so the superset is exact) — no second index, no
journal beside the chains.  Structures derived from the whole head (structure
indexes, columnar projections) serve a pin while their stamp lies in the
snapshot's window (:meth:`Snapshot.covers`): the clock also ticks for commits,
which mutate nothing, so :attr:`VersioningState.mutation_generation` keeps
the generation of the newest mutation beside it.

**Thread safety.**  :class:`VersioningState` is the engine-level mutex of the
MVCC substrate: one re-entrant :attr:`VersioningState.lock` guards the
generation clock, the pin registry, the commit log, the active-transaction
registry and every conflict check, so pins, commits and conflict validation
are race-proof across threads.  Snapshot *reads* stay lock-free: resolved
version chains are append-only (truncation swaps in a fresh list, never
mutates one a reader may hold), and :class:`Snapshot` visibility is computed
over immutable ints.  Writer attribution (:meth:`VersioningState.writing`)
is thread-local, so concurrent writers on different threads never steal each
other's generations or change events.  See DESIGN.md "Threading model" for
the full lock order.

**One write surface.**  :meth:`VersioningState.mutation_tick` refuses every
mutation of a versioned database made outside a writer block — a
:class:`~repro.manipulation.transactions.Transaction`'s or replay's.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager

from repro.analysis.runtime import make_rlock
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.exceptions import StorageError, TransactionConflictError, TransactionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.atom import Atom, AtomType
    from repro.core.database import Database
    from repro.core.link import Link, LinkType


class _Sentinel:
    """A named singleton marker used as a version-chain payload."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"


#: Payload marking "object not present" (deleted atom / disconnected link).
ABSENT = _Sentinel("ABSENT")
#: Payload marking "link present" (link chains carry no further state).
PRESENT = _Sentinel("PRESENT")

#: Conflict-key tags (atom writes vs. link writes).
ATOM_KEY = "atom"
LINK_KEY = "link"

WriteKey = Tuple[str, str, object]


def atom_key(type_name: str, identifier: str) -> WriteKey:
    """The conflict-detection key of one atom occurrence entry."""
    return (ATOM_KEY, type_name, identifier)


def link_key(link_type_name: str, identifiers: "FrozenSet[str]") -> WriteKey:
    """The conflict-detection key of one link occurrence entry."""
    return (LINK_KEY, link_type_name, identifiers)


class Snapshot:
    """A visibility predicate over version generations.

    A plain reader snapshot sees every generation up to :attr:`generation`,
    except the *excluded* ones — generations written by transactions that
    were still uncommitted when the snapshot was taken (no dirty reads).  A
    transaction's snapshot additionally sees the generations the transaction
    itself produced (*own*), so qualifying reads observe the transaction's
    uncommitted writes — *own* is the transaction's live set, shared by
    reference, and grows as the transaction writes.

    Use :meth:`VersioningState.make_snapshot` to build one with the current
    exclusion set.

    *newest_mutation* is the generation of the newest occurrence mutation at
    or below :attr:`generation`.  A commit ticks the clock without mutating
    anything, so a structure derived from the head and stamped anywhere in
    ``[newest_mutation, generation]`` holds exactly the pinned state
    (:meth:`covers`); left out, only a stamp equal to the pin does.
    """

    __slots__ = ("generation", "own", "excluded", "newest_mutation")

    def __init__(
        self,
        generation: int,
        own: Optional[Set[int]] = None,
        excluded: "FrozenSet[int]" = frozenset(),
        newest_mutation: Optional[int] = None,
    ) -> None:
        self.generation = generation
        self.own: "Set[int] | FrozenSet[int]" = own if own is not None else frozenset()
        self.excluded = excluded
        self.newest_mutation = generation if newest_mutation is None else newest_mutation

    def visible(self, generation: int) -> bool:
        """``True`` when a version stamped *generation* is visible here."""
        if generation in self.own:
            return True
        return generation <= self.generation and generation not in self.excluded

    def covers(self, stamp: int) -> bool:
        """``True`` when a structure derived from the head and stamped *stamp*
        — every change event up to that generation folded in, none after —
        holds the state this snapshot reads.  Never with own or excluded
        writes: such a snapshot differs from every state the head was in."""
        return (
            not self.own
            and not self.excluded
            and self.newest_mutation <= stamp <= self.generation
        )

    def __repr__(self) -> str:
        return (
            f"Snapshot(generation={self.generation}, own={len(self.own)}, "
            f"excluded={len(self.excluded)})"
        )


class VersionChain:
    """The ordered version history of one object (atom or link).

    Entries are ``(generation, payload)`` pairs, oldest first; the entry at
    generation 0 is the *base* — the object's state before its first recorded
    mutation.  :meth:`at` resolves the newest entry visible to a snapshot.
    """

    __slots__ = ("_entries",)

    def __init__(self, base: object) -> None:
        self._entries: List[Tuple[int, object]] = [(0, base)]

    def record(self, generation: int, payload: object) -> None:
        """Append one version (mutations arrive in generation order)."""
        self._entries.append((generation, payload))

    def at(self, snapshot: Snapshot) -> object:
        """The newest payload visible to *snapshot* (the base is always visible)."""
        for generation, payload in reversed(self._entries):
            if snapshot.visible(generation):
                return payload
        return ABSENT  # unreachable while a base entry exists

    def head(self) -> object:
        """The newest payload (what an unversioned read of the chain would see)."""
        return self._entries[-1][1]

    def truncate(self, horizon: int) -> int:
        """Drop entries no pin at or after *horizon* can reach; return the count.

        Every entry newer than *horizon* is kept, plus the newest entry at or
        below it (it is the state a pin at *horizon* resolves to).
        """
        keep_from = 0
        for position, (generation, _payload) in enumerate(self._entries):
            if generation <= horizon:
                keep_from = position
        if keep_from == 0:
            return 0
        self._entries = self._entries[keep_from:]
        return keep_from

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VersionChain({self._entries!r})"


class VersioningState:
    """Per-database concurrency state: clock, pins, commit log, transactions."""

    def __init__(self, start_generation: int = 0) -> None:
        #: The engine-level mutex: clock, pins, commit log, active
        #: transactions and conflict checks are all guarded by this one
        #: re-entrant lock (see the module docstring for the lock order).
        self.lock = make_rlock("VersioningState.lock")
        #: Monotonic generation counter; every occurrence mutation ticks it.
        self.generation = start_generation
        #: Generation of the newest occurrence mutation.  Commits tick the
        #: clock past it (:meth:`record_commit`) and replay fast-forwards the
        #: clock without mutating; :meth:`mutation_tick` sets it.
        self.mutation_generation = start_generation
        #: Refcounted pins per generation (readers + session transactions).
        self._pins: Dict[int, int] = {}  # guarded-by: VersioningState.lock
        #: Pinned generation -> the older generation its snapshots read at:
        #: one taken while a transaction has uncommitted writes excludes
        #: them for good, so it resolves the states *before* those writes
        #: however the writer ends (see :meth:`pin`).
        self._pin_floors: Dict[int, int] = {}  # guarded-by: VersioningState.lock
        #: ``(commit_generation, write_keys)`` of every relevant commit.
        self._commit_log: List[Tuple[int, FrozenSet[WriteKey]]] = []  # guarded-by: VersioningState.lock
        #: Transactions currently between ``begin`` and ``commit``/``rollback``.
        self.active_transactions: "Set[object]" = set()
        #: ``None``, or why the owning engine refuses writes: it was fenced by
        #: a replica promotion (``PrimaEngine.fence()``, under :attr:`lock`),
        #: or it is a follower not yet promoted.  Transactions refuse to
        #: begin *and* to commit (an in-flight one aborts at its commit
        #: point), so no write follows the final catch-up slice.
        self.fenced: Optional[str] = None
        #: Cumulative number of version entries dropped by garbage collection.
        self.versions_collected = 0
        #: Callbacks ``(transaction, committed)`` fired when a transaction
        #: finishes — at commit *immediately after* the commit-log append
        #: (the WAL emits its record here, atomically with the MVCC commit),
        #: and at rollback/conflict abort with ``committed=False`` (the WAL
        #: discards the buffered events — redo-only logging).
        self.transaction_hooks: "List[Callable[[object, bool], None]]" = []
        #: Per-thread writer attribution (:meth:`writing`): two writer
        #: threads must never attribute each other's mutations.
        self._local = threading.local()

    @property
    def current_writer(self) -> Optional[object]:
        """The writer inside a :meth:`writing` block on this thread.

        Listeners use it to attribute a change event to the writer that
        produced it (the engine's WAL buffers events per writer until that
        writer commits)."""
        return getattr(self._local, "writer", None)

    @contextmanager
    def writing(self, writer: object, own: "Optional[Set[int]]" = None) -> Iterator[None]:
        """Attribute this thread's mutations to *writer* inside the block —
        the only place a versioned database may be mutated
        (:meth:`mutation_tick`).

        With *own* (a transaction's live write-generation set) each tick
        joins the set *inside* the clock's critical section: a snapshot
        built between a mutation and the block's exit already sees the
        generation in ``own`` and excludes it — no dirty-read window.
        Blocks nest; the enclosing attribution returns on exit."""
        local = self._local
        saved = (getattr(local, "writer", None), getattr(local, "own", None))
        local.writer, local.own = writer, own
        try:
            yield
        finally:
            local.writer, local.own = saved

    def notify_transaction_finished(self, txn: object, committed: bool) -> None:
        """Fire every transaction hook (commit: right after the log append)."""
        for hook in list(self.transaction_hooks):
            hook(txn, committed)

    # ------------------------------------------------------------------ clock

    def tick(self) -> int:
        """Advance and return the generation clock.

        Inside a :meth:`writing` block the fresh generation joins the
        writer's ``own`` set while the lock is still held —
        :meth:`make_snapshot` (also under the lock) therefore always sees a
        complete ``own`` set and can exclude every in-flight uncommitted
        write.
        """
        with self.lock:
            self.generation += 1
            generation = self.generation
            own = getattr(self._local, "own", None)
            if own is not None:
                own.add(generation)
        return generation

    # requires: VersioningState.lock
    def mutation_tick(self) -> int:
        """Tick for one occurrence mutation, before the types'
        ``_version_mutation`` applies it; raises :class:`TransactionError`
        outside a :meth:`writing` block, so nothing mutates a versioned
        database unclaimed, unlogged or behind a follower's primary."""
        if getattr(self._local, "writer", None) is None:
            raise TransactionError(
                "a versioned database changes only inside a Transaction; "
                "write through Transaction, MQL DML or the engine's interface"
            )
        self.mutation_generation = generation = self.tick()
        return generation

    @property
    def recording(self) -> bool:
        """``True`` while any pin **or transaction** is active.

        Pins need history so their snapshots can resolve pre-states.  Active
        transactions need it too: a reader may pin *mid-transaction*, and the
        exclusion set of :meth:`make_snapshot` can only hide the uncommitted
        writes if their pre-states were chained.  Outside both, mutations pay
        one integer tick and record nothing (transaction-local chains are
        collected as soon as the last transaction/pin ends).

        Read lock-free on the mutation path: container truthiness is atomic,
        and the pin/tick interleaving is safe either way — a pin that lands
        after a mutation's recording check necessarily pins a generation at
        or above that mutation (both run under :attr:`lock`), so the head it
        falls back to *is* the pinned state."""
        return bool(self._pins) or bool(self.active_transactions)

    # ------------------------------------------------------------------- pins

    def pin(self, generation: Optional[int] = None) -> int:
        """Pin *generation* (default: current) and return it (refcounted).

        Rejects generations the registry cannot serve exactly: future ones
        (nothing to read yet) and ones below the retention floor — the
        truncation horizon while pins/transactions hold history, or the
        current generation when nothing does (no chains are retained then,
        so *any* older generation would silently read head state).  A
        successful pin therefore always yields an exact snapshot.

        A pin taken while transactions hold uncommitted writes at or below
        it also retains the generation just before the oldest of them:
        :meth:`make_snapshot` (same critical section) excludes those writes,
        and the states underneath must outlive the writers — once one
        commits or rolls back its start generation leaves the horizon, and
        truncating to the pin itself would hand the reader the excluded
        value, or nothing.
        """
        with self.lock:
            pinned = self.generation if generation is None else generation
            if pinned > self.generation:
                raise StorageError(
                    f"cannot pin future generation {pinned} (current is {self.generation})"
                )
            horizon = self.truncation_horizon()
            floor = self.generation if horizon is None else horizon
            if pinned < floor:
                raise StorageError(
                    f"cannot pin generation {pinned}: version history below "
                    f"generation {floor} is not retained (it was truncated, "
                    "or never recorded)"
                )
            self._pins[pinned] = self._pins.get(pinned, 0) + 1
            for txn in self.active_transactions:
                uncommitted = [g for g in getattr(txn, "own_generations", ()) if g <= pinned]
                if uncommitted:
                    self._pin_floors[pinned] = min(
                        self._pin_floors.get(pinned, pinned), min(uncommitted) - 1
                    )
            return pinned

    def release(self, generation: int) -> None:
        """Release one pin on *generation*.

        Over-releasing — a generation that was never pinned, or whose pins
        were all released already — raises :class:`StorageError`: under
        threads a silent no-op here masks refcount races and lets the
        garbage collector free chains a live reader still needs.  (The
        engine-level :class:`~repro.storage.engine.SnapshotHandle` stays
        idempotent — it guards its own released flag before calling down.)
        """
        with self.lock:
            count = self._pins.get(generation, 0)
            if count == 0:
                raise StorageError(
                    f"over-release of generation {generation}: no active pin "
                    "(every release must pair with exactly one pin)"
                )
            if count == 1:
                del self._pins[generation]
                self._pin_floors.pop(generation, None)
            else:
                self._pins[generation] = count - 1

    def oldest_pinned(self) -> Optional[int]:
        """The oldest pinned generation, or ``None`` when nothing is pinned."""
        with self.lock:
            return min(self._pins) if self._pins else None

    @property
    def pins_active(self) -> int:
        """The number of active pins (across all generations)."""
        with self.lock:
            return sum(self._pins.values())

    # -------------------------------------------------------------- conflicts

    def check_write(self, key: WriteKey, txn: object) -> None:
        """Raise :class:`TransactionConflictError` when writing *key* is unsafe.

        Two conditions abort the writer (the standard snapshot-isolation
        write rules, applied eagerly so undo logs of interleaved transactions
        never entangle):

        * another *active* transaction already wrote the key — write-write
          conflict with an uncommitted peer;
        * a transaction that committed after *txn* began wrote the key — the
          first committer has already won.

        Runs under :attr:`lock` so two threads claiming the same key race
        the lock, not each other: exactly one of them sees the other's
        write-set entry.
        """
        with self.lock:
            for other in self.active_transactions:
                if other is not txn and key in getattr(other, "write_keys", ()):
                    raise TransactionConflictError(
                        f"write-write conflict on {key!r} with a concurrent transaction"
                    )
            start = getattr(txn, "start_generation", 0)
            conflicting = self.committed_after(start, (key,))
        if conflicting is not None:
            raise TransactionConflictError(
                f"{conflicting!r} was modified by a transaction that committed "
                "after this one began (first committer wins)"
            )

    def committed_after(
        self, generation: int, keys: Iterable[WriteKey]
    ) -> Optional[WriteKey]:
        """The first of *keys* committed after *generation*, or ``None``."""
        wanted = set(keys)
        if not wanted:
            return None
        with self.lock:
            for commit_generation, committed in reversed(self._commit_log):
                if commit_generation <= generation:
                    break
                overlap = wanted & committed
                if overlap:
                    return next(iter(overlap))
        return None

    def record_commit(self, keys: Iterable[WriteKey]) -> None:
        """Append one commit-log entry, stamped with a fresh generation.

        The commit must occupy its own position in the generation order: a
        transaction that began *after* the writes but *before* this commit
        has ``start_generation`` at least the last write's stamp, and only a
        strictly newer commit stamp makes :meth:`committed_after` catch the
        overlap (first committer wins).
        """
        frozen = frozenset(keys)
        if frozen:
            with self.lock:
                self._commit_log.append((self.tick(), frozen))

    def make_snapshot(
        self, generation: Optional[int] = None, own: Optional[Set[int]] = None
    ) -> Snapshot:
        """Build a snapshot at *generation* (default: current).

        Generations written by transactions still active now are excluded —
        their writes are uncommitted, and a reader pinning mid-flight must
        not observe them (no dirty reads).  *own* (a transaction's live
        write-generation set) is passed through and never excluded.
        """
        with self.lock:
            pinned = self.generation if generation is None else generation
            excluded: Set[int] = set()
            for txn in self.active_transactions:
                gens = getattr(txn, "own_generations", None)
                if gens is None or gens is own:
                    continue
                excluded.update(g for g in gens if g <= pinned)
            # Only at the clock is the newest mutation below the pin known.
            newest = self.mutation_generation if pinned == self.generation else pinned
            return Snapshot(
                pinned, own=own, excluded=frozenset(excluded), newest_mutation=newest
            )

    def prune_commit_log(self) -> None:
        """Drop commit-log entries no active transaction can conflict with."""
        with self.lock:
            if not self.active_transactions:
                self._commit_log.clear()
                return
            horizon = min(
                getattr(txn, "start_generation", 0) for txn in self.active_transactions
            )
            keep_from = 0
            for position, (commit_generation, _keys) in enumerate(self._commit_log):
                if commit_generation <= horizon:
                    keep_from = position + 1
            if keep_from:
                del self._commit_log[:keep_from]

    # ------------------------------------------------------------ maintenance

    def truncation_horizon(self) -> Optional[int]:
        """The oldest generation any reader may still need (``None`` = none).

        Bounded by the oldest pin — or the floor it retains, see :meth:`pin`
        — **and** the oldest active transaction's start generation: a
        transaction's pre-states must survive until it finishes, because a
        reader pinning mid-flight excludes the writer's generations and
        resolves those pre-states through the chains.  (Truncating them on
        an unrelated pin release would silently hand such a reader the
        writer's uncommitted values.)
        """
        with self.lock:
            candidates = [self._pin_floors.get(pin, pin) for pin in self._pins]
            candidates.extend(
                getattr(txn, "start_generation", 0)
                for txn in self.active_transactions
            )
            return min(candidates) if candidates else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"VersioningState(generation={self.generation}, pins={self.pins_active}, "
            f"active={len(self.active_transactions)}, log={len(self._commit_log)})"
        )


# --------------------------------------------------------------------- views


class AtomTypeView:
    """A read-only, snapshot-consistent facade over one :class:`AtomType`.

    Iteration is sorted by identifier — a pinned reader must produce
    byte-identical results run after run, and the head dictionaries reorder
    under concurrent deletes/re-inserts.

    Thread safety: point reads (``get``) are lock-free — single dict lookups
    with string keys are atomic, and chain resolution walks immutable entry
    lists.  Iteration copies the identifier sets under the type's head lock
    (one brief critical section) and then resolves each identifier lock-free.
    """

    __slots__ = ("_type", "_snapshot")

    def __init__(self, atom_type: "AtomType", snapshot: Snapshot) -> None:
        self._type = atom_type
        self._snapshot = snapshot

    @property
    def name(self) -> str:
        return self._type.name

    @property
    def description(self):
        return self._type.description

    def get(self, identifier: str) -> "Optional[Atom]":
        chain = self._type._versions.get(identifier)
        if chain is None:
            return self._type._atoms.get(identifier)
        payload = chain.at(self._snapshot)
        return None if payload is ABSENT else payload  # type: ignore[return-value]

    def __iter__(self) -> "Iterator[Atom]":
        for identifier in self._type._known_identifiers():
            atom = self.get(identifier)
            if atom is not None:
                yield atom

    @property
    def occurrence(self) -> "Tuple[Atom, ...]":
        return tuple(self)

    def identifiers(self) -> Tuple[str, ...]:
        return tuple(atom.identifier for atom in self)

    def __contains__(self, atom: object) -> bool:
        identifier = getattr(atom, "identifier", atom)
        return self.get(identifier) is not None  # type: ignore[arg-type]

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomTypeView({self._type.name!r}@{self._snapshot.generation})"


class LinkTypeView:
    """A read-only, snapshot-consistent facade over one :class:`LinkType`.

    Thread safety: occurrence iteration and incident-link lookups copy the
    head/historic sets under the type's head lock (links hash through Python
    code, so even building a set from them is interruptible by a concurrent
    writer) and take the head incidence bucket as it is — an immutable
    tuple; visibility resolution over them is lock-free.
    """

    __slots__ = ("_type", "_snapshot")

    def __init__(self, link_type: "LinkType", snapshot: Snapshot) -> None:
        self._type = link_type
        self._snapshot = snapshot

    # Schema-level accessors delegate: the schema is not versioned.

    @property
    def name(self) -> str:
        return self._type.name

    @property
    def description(self):
        return self._type.description

    @property
    def atom_type_names(self) -> Tuple[str, str]:
        return self._type.atom_type_names

    @property
    def cardinality(self):
        return self._type.cardinality

    @property
    def is_reflexive(self) -> bool:
        return self._type.is_reflexive

    def connects_type(self, type_name: str) -> bool:
        return self._type.connects_type(type_name)

    def other_type(self, type_name: str) -> str:
        return self._type.other_type(type_name)

    def _ordered_ids(self, link: "Link") -> Tuple[str, str]:
        return self._type._ordered_ids(link)

    # Occurrence-level reads resolve through the version chains.

    def _link_visible(self, link: "Link") -> bool:
        chain = self._type._versions.get(link)
        if chain is None:
            return link in self._type._links
        return chain.at(self._snapshot) is PRESENT

    def links_of(self, atom: "Atom | str") -> "FrozenSet[Link]":
        """:meth:`LinkType.links_of` as of the snapshot."""
        identifier = getattr(atom, "identifier", atom)
        head, historic = self._type._incident_links(identifier)
        # A link both in the head bucket and historic is checked twice and
        # kept once: visibility depends on the link alone.
        visible = frozenset(
            link for link in itertools.chain(head, historic) if self._link_visible(link)
        )
        if identifier is not atom:  # an Atom: only its own type's endpoint
            endpoint = (atom.type_name, identifier)  # type: ignore[union-attr]
            return frozenset(link for link in visible if endpoint in link.endpoints)
        return visible

    #: :meth:`LinkType.incident` as of the snapshot: the visible links
    #: incident to an identifier, resolved over copies.
    incident = links_of

    def partners_of(self, atom: "Atom | str") -> FrozenSet[str]:
        identifier = getattr(atom, "identifier", atom)
        return frozenset(link.other(identifier) for link in self.links_of(identifier))

    def __iter__(self) -> "Iterator[Link]":
        head, versioned = self._type._known_links()
        seen: Set["Link"] = set()
        for link in head:
            seen.add(link)
            if self._link_visible(link):
                yield link
        for link in versioned:
            if link not in seen and self._link_visible(link):
                yield link

    @property
    def occurrence(self) -> "FrozenSet[Link]":
        return frozenset(self)

    def __contains__(self, link: object) -> bool:
        if link in self._type._links or link in self._type._versions:
            return self._link_visible(link)  # type: ignore[arg-type]
        return False

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinkTypeView({self._type.name!r}@{self._snapshot.generation})"


class DatabaseView:
    """A read-only facade presenting a :class:`Database` as of one snapshot.

    Schema lookups (``atyp``/``ltyp``/…) resolve against the live schema —
    DDL is not versioned — but every returned type is wrapped in its
    snapshot-consistent view, so the executor, molecule derivation and
    recursive expansion all read occurrence state as of the snapshot without
    any changes of their own.
    """

    __slots__ = ("_database", "_snapshot", "_atom_count")

    def __init__(self, database: "Database", snapshot: Snapshot) -> None:
        self._database = database
        self._snapshot = snapshot
        self._atom_count: Optional[int] = None

    @property
    def name(self) -> str:
        return self._database.name

    @property
    def snapshot(self) -> Snapshot:
        return self._snapshot

    @property
    def head(self) -> "Database":
        """The database this view reads as of its snapshot."""
        return self._database

    # ---------------------------------------------------------------- lookup

    def atyp(self, name: "str | Iterable[str]"):
        if isinstance(name, str):
            return AtomTypeView(self._database.atyp(name), self._snapshot)
        return tuple(self.atyp(single) for single in name)

    def ltyp(self, name: "str | Iterable"):
        if isinstance(name, str):
            return LinkTypeView(self._database.ltyp(name), self._snapshot)
        return tuple(self.ltyp(single) for single in name)

    def has_atom_type(self, name: str) -> bool:
        return self._database.has_atom_type(name)

    def has_link_type(self, name: str) -> bool:
        return self._database.has_link_type(name)

    @property
    def atom_types(self) -> Tuple[AtomTypeView, ...]:
        return tuple(
            AtomTypeView(atom_type, self._snapshot)
            for atom_type in self._database.atom_types
        )

    @property
    def link_types(self) -> Tuple[LinkTypeView, ...]:
        return tuple(
            LinkTypeView(link_type, self._snapshot)
            for link_type in self._database.link_types
        )

    @property
    def atom_type_names(self) -> Tuple[str, ...]:
        return self._database.atom_type_names

    @property
    def link_type_names(self) -> Tuple[str, ...]:
        return self._database.link_type_names

    def link_types_of(self, atom_type) -> Tuple[LinkTypeView, ...]:
        name = getattr(atom_type, "name", atom_type)
        return tuple(
            LinkTypeView(link_type, self._snapshot)
            for link_type in self._database.link_types_of(name)
        )

    def link_types_between(self, first: str, second: str) -> Tuple[LinkTypeView, ...]:
        return tuple(
            LinkTypeView(link_type, self._snapshot)
            for link_type in self._database.link_types_between(first, second)
        )

    # ------------------------------------------------------------ statistics

    def find_atom(self, identifier: str) -> "Optional[Atom]":
        for atom_type in self.atom_types:
            atom = atom_type.get(identifier)
            if atom is not None:
                return atom
        return None

    def atom_count(self) -> int:
        # Cached per view: a snapshot's contents never change, and recursive
        # expansion consults this bound once per level.
        if self._atom_count is None:
            self._atom_count = sum(len(atom_type) for atom_type in self.atom_types)
        return self._atom_count

    def link_count(self) -> int:
        return sum(len(link_type) for link_type in self.link_types)

    def __contains__(self, name: object) -> bool:
        return name in self._database

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseView({self._database.name!r}@{self._snapshot.generation})"
