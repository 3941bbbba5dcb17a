"""Transactions: write-sets, first-committer-wins commits, and undo logging.

The paper's manipulation facilities presume that a complex-object update is
applied atomically; since the MVCC change this module also makes *interleaved*
transactions safe.  A :class:`Transaction` over a database with versioning
enabled (see :meth:`repro.core.database.Database.enable_versioning`) carries:

* a **write-set** of conflict keys — one per atom or link the transaction
  wrote.  Before every write the key is checked against the write-sets of all
  other *active* transactions and against the database's **commit log**
  (commits newer than this transaction's start); either overlap raises
  :class:`~repro.exceptions.TransactionConflictError` immediately, and the
  commit-log check is repeated at :meth:`commit` — **first committer wins**,
  the loser is rolled back completely and leaves no partial state.
* an optional pinned :class:`~repro.core.versions.Snapshot` (session
  transactions, e.g. MQL ``BEGIN WORK``): reads through the snapshot see the
  database as of ``begin`` *plus* this transaction's own writes (the write
  generations are tracked in the snapshot's ``own`` set — including the
  compensating generations of partial rollbacks).
* the **undo log** of callables, demoted to the intra-statement rollback
  mechanism: :meth:`savepoint`/:meth:`rollback_to` undo a failed statement
  inside a longer transaction, and :meth:`rollback` undoes everything.

On a database without versioning the transaction degrades to the historical
pure undo-log behaviour (no conflict detection, no snapshot).

**Thread safety.**  Each :class:`Transaction` instance belongs to the thread
that drives it (one writer = one thread), but *different* transactions may
run on different threads concurrently: claims, registration, commit
validation, the commit-log append and the durability hook are serialized on
the versioning state's engine lock, undo/redo mutations take the per-type
head locks, and writer attribution is thread-local — see DESIGN.md
"Threading model".
"""

from __future__ import annotations

from contextlib import nullcontext
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.core.atom import Atom
from repro.core.database import Database
from repro.core.link import Link, LinkType
from repro.core.versions import Snapshot, WriteKey, atom_key, link_key
from repro.exceptions import (
    ManipulationError,
    TransactionConflictError,
    TransactionError,
)


class TransactionLog:
    """An ordered list of undo actions."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def record(self, undo: Callable[[], None]) -> None:
        """Append an undo action."""
        self._undo.append(undo)

    def undo_all(self) -> int:
        """Run all undo actions in reverse order; returns the number executed."""
        return self.undo_to(0)

    def undo_to(self, mark: int) -> int:
        """Undo back to *mark* (a former length); returns the number executed."""
        count = 0
        while len(self._undo) > mark:
            action = self._undo.pop()
            action()
            count += 1
        return count

    def clear(self) -> None:
        """Drop all recorded actions (commit)."""
        self._undo.clear()

    def __len__(self) -> int:
        return len(self._undo)


class Transaction:
    """Context manager bundling atom/link operations with rollback support.

    Example::

        with Transaction(db) as txn:
            state = txn.insert_atom("state", name="Tocantins", code="TO", hectare=500)
            area = txn.insert_atom("area", area_id="a_new")
            txn.connect("state-area", state, area)
            # leaving the block commits; an exception rolls everything back

    With *pin_snapshot* the transaction pins the begin-time generation and
    exposes :attr:`snapshot` — the repeatable-read visibility MQL sessions
    use (``BEGIN WORK``).  Requires versioning to be enabled on the database.
    """

    def __init__(self, database: Database, pin_snapshot: bool = False) -> None:
        self.database = database
        self.log = TransactionLog()
        self._active = False
        self._pin_snapshot = pin_snapshot
        self._state = None  # the database's VersioningState while active
        self._pinned_generation: Optional[int] = None
        #: Generation the transaction began at (conflict-detection baseline).
        self.start_generation = 0
        #: Conflict keys of every atom/link this transaction wrote.
        self.write_keys: Set[WriteKey] = set()
        #: Generations produced by this transaction's writes (and undos).
        self._own_generations: Set[int] = set()
        #: Repeatable-read snapshot (session transactions only).
        self.snapshot: Optional[Snapshot] = None
        #: ``True`` once this transaction's entry is in the MVCC commit log
        #: (set in :meth:`commit`; a retried commit skips straight to the
        #: durability hook instead of re-validating against itself).
        self._commit_logged = False

    # ------------------------------------------------------------- lifecycle

    def __enter__(self) -> "Transaction":
        self.begin()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if exc_type is None:
            self.commit()
        elif self._active:
            self.rollback()
        return False

    def begin(self) -> None:
        """Start the transaction (registers it for conflict detection).

        Registration — start-generation read, active-set entry and the
        optional snapshot pin — happens in one critical section of the
        versioning state's engine lock, so a concurrent committer can never
        slip its commit between this transaction's baseline and its
        registration.
        """
        if self._active:
            raise TransactionError("transaction already active")
        self._active = True
        state = self.database.versioning
        self._state = state
        if state is not None:
            with state.lock:
                if state.fenced is not None:
                    self._active = False
                    raise TransactionError(state.fenced)
                self.start_generation = state.generation
                state.active_transactions.add(self)
                if self._pin_snapshot:
                    self._pinned_generation = state.pin(state.generation)
                    self.snapshot = state.make_snapshot(own=self._own_generations)
        elif self._pin_snapshot:
            raise TransactionError(
                "snapshot transactions require versioning; call "
                "Database.enable_versioning() first"
            )

    def commit(self) -> None:
        """Publish all changes; first committer wins on conflicting write-sets.

        Re-validates the write-set against the commit log: if any key was
        committed by another transaction after this one began, every change
        is undone and :class:`TransactionConflictError` is raised — the
        transaction leaves no partial state.

        Committers are serialized on the versioning state's engine lock:
        validation, the commit-log append and the durability hook (the WAL
        record) form one critical section, so racing threads commit in a
        total order and the WAL record order matches the commit-log order.
        The loser's rollback runs *outside* the lock (undo takes per-type
        head locks; its keys stay claimed until :meth:`_finish`).
        """
        self._require_active()
        state = self._state
        if state is not None:
            conflicting = None
            fenced = False
            with state.lock:
                if not self._commit_logged and state.fenced is not None:
                    # The engine was fenced by a replica promotion after this
                    # transaction began: its writes must not reach the commit
                    # log (the promoted follower already took the final feed
                    # cut).  Abort exactly like a conflict loser.
                    fenced = True
                if not fenced and not self._commit_logged:
                    conflicting = state.committed_after(
                        self.start_generation, self.write_keys
                    )
                    if conflicting is None:
                        state.record_commit(self.write_keys)
                        # A retried commit (after e.g. a WAL append failure
                        # below) must not re-validate against — or re-append —
                        # its own commit-log entry: the MVCC publish already
                        # happened.
                        self._commit_logged = True
                if conflicting is None and not fenced:
                    # Durability point: the WAL hook appends this
                    # transaction's commit record here, atomically with the
                    # MVCC commit-log entry.  On failure the transaction
                    # stays active and commit() is retryable.
                    state.notify_transaction_finished(self, committed=True)
            if fenced or conflicting is not None:
                self.rollback()
            if fenced:
                raise TransactionError(
                    "engine was fenced (a follower was promoted) before this "
                    "transaction committed; all changes were rolled back"
                )
            if conflicting is not None:
                raise TransactionConflictError(
                    f"{conflicting!r} was committed by a concurrent transaction "
                    "after this one began (first committer wins)"
                )
        self.log.clear()
        self._finish()

    def rollback(self) -> int:
        """Undo all changes made through this transaction; returns the undo count."""
        self._require_active()
        with self._tracked():
            undone = self.log.undo_all()
        self._finish()
        if self._state is not None:
            self._state.notify_transaction_finished(self, committed=False)
        return undone

    def _finish(self) -> None:
        self._active = False
        state = self._state
        if state is not None:
            with state.lock:
                state.active_transactions.discard(self)
                state.prune_commit_log()
                pinned = self._pinned_generation
                self._pinned_generation = None
                still_recording = state.recording
            # GC runs outside the engine lock — truncation takes the
            # per-type head locks, which must never nest inside it.
            if pinned is not None:
                self.database.release_pin(pinned)
            elif not still_recording:
                # Last transaction out with no reader pinned: the chains
                # recorded for mid-flight pin safety are unreachable now.
                # (A pin or transaction that sneaks in concurrently is safe:
                # collect_versions re-reads the horizon under the lock.)
                self.database.collect_versions()

    def _require_active(self) -> None:
        if not self._active:
            raise TransactionError("no active transaction")

    @property
    def is_active(self) -> bool:
        """``True`` between ``begin`` and ``commit``/``rollback``."""
        return self._active

    @property
    def own_generations(self) -> Set[int]:
        """The write generations this transaction has produced so far.

        Consulted by :meth:`VersioningState.make_snapshot` so snapshots taken
        while this transaction is still active exclude its uncommitted
        writes (no dirty reads).
        """
        return self._own_generations

    # ------------------------------------------------------------ savepoints

    def savepoint(self) -> int:
        """Mark the current undo position (statement boundary)."""
        return len(self.log)

    def rollback_to(self, mark: int) -> int:
        """Undo back to *mark* — intra-statement rollback; the transaction
        stays active.  Compensating write generations join the transaction's
        ``own`` set so a pinned session snapshot sees the restored state."""
        self._require_active()
        with self._tracked():
            return self.log.undo_to(mark)

    # -------------------------------------------------- write-set bookkeeping

    def _claim(self, key: WriteKey) -> None:
        """Check *key* against concurrent writers, then add it to the write-set.

        Check and claim happen in one critical section of the engine lock:
        of two threads claiming the same key concurrently, exactly one sees
        the other's entry and aborts with a conflict.
        """
        if self._state is not None:
            with self._state.lock:
                self._state.check_write(key, self)
                self.write_keys.add(key)

    def _record_key(self, key: WriteKey) -> None:
        """Add *key* without a conflict check (freshly created objects)."""
        if self._state is not None:
            with self._state.lock:
                self.write_keys.add(key)

    def _tracked(self):
        """Make the block's mutations this transaction's writes.

        Inside it the versioning state's (thread-local) ``current_writer``
        names this transaction — the gate every versioned mutation passes,
        and how event listeners (the engine's WAL buffer) attribute each
        change event to its writer.  Undo blocks run tracked too: their
        compensating events join the same buffer, which a rollback then
        discards wholesale.  Each generation ticked inside joins ``own``
        within :meth:`VersioningState.tick`'s critical section, so a
        snapshot built mid-block (which iterates ``own_generations`` under
        the same lock) already excludes every in-flight write: there is no
        window for a dirty read.
        """
        if self._state is None:
            return nullcontext()
        return self._state.writing(self, own=self._own_generations)

    # ------------------------------------------------------------ operations

    def insert_atom(self, atom_type_name: str, identifier: Optional[str] = None, **values) -> Atom:
        """Insert an atom, recording its removal as the undo action."""
        return self.insert_atom_values(atom_type_name, values, identifier=identifier)

    def insert_atom_values(
        self,
        atom_type_name: str,
        values: Mapping[str, object],
        identifier: Optional[str] = None,
    ) -> Atom:
        """Keyword-collision-free variant of :meth:`insert_atom`.

        The write operators pass user-supplied attribute mappings through
        here, where an attribute named ``identifier`` cannot clash with the
        parameter of the ``**values`` convenience form.
        """
        self._require_active()
        atom_type = self.database.atyp(atom_type_name)
        if identifier is not None:
            # Re-creating a known identifier races with concurrent writers.
            self._claim(atom_key(atom_type.name, identifier))
        with self._tracked():
            atom = atom_type.add(dict(values), identifier=identifier)
        self._record_key(atom_key(atom_type.name, atom.identifier))
        self.log.record(lambda: atom_type.remove(atom.identifier))
        return atom

    def delete_atom(self, atom_type_name: str, identifier: str) -> int:
        """Delete an atom and its incident links, recording their
        re-insertion as the undo action; returns the links removed.

        Every key is claimed before the first mutation — the atom's first,
        so a concurrent delete of it is a conflict — and a conflict leaves
        no partial effects.  The links go first, each type's in endpoint
        order (the log's bytes must not hang on set order), then the atom.
        """
        self._require_active()
        atom_type = self.database.atyp(atom_type_name)
        self._claim(atom_key(atom_type.name, identifier))
        atom = atom_type.get(identifier)
        if atom is None:
            raise TransactionError(f"no atom {identifier!r} in {atom_type_name!r}")
        incident: List[Tuple[LinkType, Link]] = [
            (link_type, link)
            for link_type in self.database.link_types_of(atom_type_name)
            for link in sorted(link_type.links_of(atom), key=attrgetter("given_order"))
        ]
        for link_type, link in incident:
            self._claim(link_key(link_type.name, link.identifiers))
        with self._tracked():
            for link_type, link in incident:
                link_type.remove(link)
            atom_type.remove(identifier)

        def undo() -> None:
            atom_type.add(atom)
            for link_type, link in incident:
                link_type.add(link)

        self.log.record(undo)
        return len(incident)

    def connect(self, link_type_name: str, first: "Atom | str", second: "Atom | str") -> Link:
        """Insert a link, recording its removal as the undo action.

        Connecting an already-linked pair is a no-op (links are sets), so no
        undo action is recorded for it — a rollback must not take away a link
        that existed before the transaction.
        """
        link = self.connect_new(link_type_name, first, second)
        if link is None:
            # Already linked: LinkType.add is idempotent and returns the
            # typed link without emitting an event.
            return self.database.ltyp(link_type_name).add(
                self.database.typed_link(link_type_name, first, second)
            )
        return link

    def connect_new(
        self, link_type_name: str, first: "Atom | str", second: "Atom | str"
    ) -> Optional[Link]:
        """Insert a link with undo logging; ``None`` when it already existed.

        This is the canonical logged-connect protocol: pre-existing links
        (e.g. a shared subobject re-reached through another parent) survive a
        rollback because no undo action is recorded for them.  The return
        value tells callers whether a link was actually created.  Endpoints
        are typed as :meth:`~repro.core.database.Database.typed_link` types
        them.
        """
        self._require_active()
        link_type = self.database.ltyp(link_type_name)
        link = self.database.typed_link(link_type_name, first, second)
        if link in link_type:
            return None
        self._claim(link_key(link_type.name, link.identifiers))
        with self._tracked():
            link_type.add(link)
        self.log.record(lambda: link_type.remove(link))
        return link

    def disconnect(self, link_type_name: str, link: Link) -> None:
        """Remove one link, recording its re-connection as the undo action."""
        self._require_active()
        link_type = self.database.ltyp(link_type_name)
        if link not in link_type:
            return
        self._claim(link_key(link_type.name, link.identifiers))
        with self._tracked():
            link_type.remove(link)
        self.log.record(lambda lt=link_type, lk=link: lt.add(lk))

    def modify_atom(self, atom_type_name: str, identifier: str, **updates) -> Atom:
        """Modify an atom's values in place, recording restoration of the old atom."""
        return self.modify_atom_values(atom_type_name, identifier, updates)

    def modify_atom_values(
        self, atom_type_name: str, identifier: str, updates: Mapping[str, object]
    ) -> Atom:
        """Keyword-collision-free variant of :meth:`modify_atom`.

        *updates* are merged over the atom's values and the result replaces
        it (:meth:`replace_atom_values`).  An update that violates the
        attribute domain raises :class:`ManipulationError` before any key is
        claimed, and nothing has been changed.  The write operators pass
        user-supplied attribute mappings through here, where an attribute
        named ``identifier`` cannot clash with the parameters of the
        ``**updates`` convenience form.
        """
        self._require_active()
        atom_type = self.database.atyp(atom_type_name)
        old = atom_type.get(identifier)
        if old is None:
            raise TransactionError(f"no atom {identifier!r} in {atom_type_name!r}")
        merged = old.values
        merged.update(updates)
        try:
            validated = atom_type.description.validate_values(merged)
        except Exception as exc:
            raise ManipulationError(
                f"invalid update for atom {identifier!r}: {exc}"
            ) from exc
        return self.replace_atom_values(atom_type_name, identifier, validated)

    def replace_atom_values(
        self, atom_type_name: str, identifier: str, values: Mapping[str, object]
    ) -> Atom:
        """Replace an atom's values whole, preserving its identity (links
        stay valid), recording restoration of the old atom as the undo
        action.

        The one replace primitive (``PrimaEngine.store_atom`` of a stored
        identifier and :meth:`modify_atom_values` both call it).  Attributes
        missing from *values* become ``None``.  The atom type validates
        *values* before anything changes: a value outside its domain raises
        :class:`~repro.exceptions.DomainError`, an unknown attribute
        :class:`~repro.exceptions.AttributeError_`, an absent atom
        :class:`~repro.exceptions.IntegrityError`.
        """
        self._require_active()
        atom_type = self.database.atyp(atom_type_name)
        old = atom_type.get(identifier)
        self._claim(atom_key(atom_type.name, identifier))
        with self._tracked():
            new_atom = atom_type.replace(values, identifier=identifier)
        self.log.record(lambda: atom_type.replace(old))
        return new_atom
