"""The PRIMA-like two-layer engine: atom-oriented interface + molecule processing.

The engine mirrors the architecture the paper reports for the PRIMA prototype:

* the **basic component** (:meth:`PrimaEngine.atom_interface` methods:
  ``store_atom``, ``get_atom``, ``connect``, ``neighbours``, ``lookup``)
  provides an atom-oriented interface whose functionality corresponds to the
  atom-type algebra;
* the **molecule component** (:meth:`PrimaEngine.define_molecule_type`,
  :meth:`PrimaEngine.query`) performs molecule processing and exposes an MQL
  interface: statements are translated to logical plans, optimized by the
  rule-driven planner, and run on the streaming executor — which reuses the
  engine's secondary indexes as access paths and traverses neighbours
  through the link types' own incidence.
  MQL DML statements (INSERT / DELETE / MODIFY) run through the same
  pipeline: the write plan mutates the database atomically.

**One state.**  The two components are two *interfaces* over one occurrence
of atoms and links: the engine creates one versioned
:class:`~repro.core.database.Database` at construction and
:meth:`PrimaEngine.to_database` returns that object for the engine's life.
DDL adds types to it, the basic interface reads and writes its
``AtomType``/``LinkType`` heads, MQL and the manipulation API mutate it
directly, and recovery and replicas replay into it.  Its version clock, pins
and commit log are the engine's MVCC state.

**Cache maintenance.**  The accelerator store (equality indexes, structure
indexes, columnar projections) and the planner statistics are *derived*
from the database and maintained in place: the engine subscribes to the
database's change events once and folds each atom/link delta into them,
advancing a :attr:`generation` counter the store is stamped with (a store
whose generation matches the engine's is coherent by construction).  DDL
drops only the interpreter — never the database or the store — and the next
read rebuilds it.  Neighbour traversal needs no derived structure:
a link type's occurrence already is the incidence (Definition 2), and
queries walk it in place.

**Durability.**  With ``durability=DurabilityConfig(directory)`` the engine
opens (and crash-recovers) a write-ahead log on construction: change events
are buffered per writer — a transaction, or one basic-interface operation —
and appended as one checksummed commit record when the writer commits —
atomically with the MVCC commit-log entry for transactions — so recovery
(:mod:`repro.storage.recovery`) is pure redo of the committed prefix.
:meth:`PrimaEngine.checkpoint` (or MQL ``CHECKPOINT``) writes a compact
catalog + occurrence image and truncates the log.

**Read replicas.**  A durable engine lazily owns one commit feed
(:class:`~repro.storage.replication.CommitFeed`, its only WAL tap), from
which the worker-process pool (:meth:`PrimaEngine.process_pool`) and the
replication hub (:meth:`PrimaEngine.replication_hub`) catch their replicas
up; :meth:`PrimaEngine.parallel_query` hands ``mode="process"`` and
``mode="replica"`` to the one read router in :mod:`repro.engine.router`.
"""

from __future__ import annotations

import collections
import os

from repro.analysis.runtime import make_lock, make_rlock
from repro.analysis.runtime import checker_report as runtime_lock_report
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.events import ChangeEvent
from repro.core.link import Cardinality, Link, LinkType
from repro.core.molecule import MoleculeType, MoleculeTypeDescription
from repro.core.molecule_algebra import molecule_type_definition
from repro.core.versions import Snapshot
from repro.exceptions import StorageError
from repro.storage.recovery import RecoveryResult, describe_attributes, recover
from repro.storage.accelerators import AcceleratorStore
from repro.storage.wal import DurabilityConfig, WriteAheadLog, encode_event

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.mql.interpreter import MQLInterpreter, QueryResult
    from repro.optimizer.planner import PlanChoice


class PrimaEngine:
    """An in-memory, two-layer storage engine for MAD databases.

    Every write — basic interface, MQL DML, the manipulation API on
    :meth:`to_database` — lands in the engine's one database and is folded
    into the accelerator store (equality indexes, structure indexes,
    columnar projections) and the planner statistics in place.

    *durability* (a :class:`~repro.storage.wal.DurabilityConfig`) makes the
    engine persistent: construction recovers the directory's checkpoint and
    write-ahead log (redo of committed transactions only), then opens the
    log for appending.  Every DDL statement and every committed transaction
    is logged; :meth:`checkpoint` writes a snapshot image and truncates the
    log.  Without *durability* the engine is purely in-memory, as before.
    """

    def __init__(
        self,
        name: str = "prima",
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        self.name = name
        #: The engine's one copy of the state.  Its versioning state carries
        #: the MVCC clock, the pins, the commit log and the fence flag.
        self._database = Database(name)
        self._database.subscribe(self._on_change)
        state = self._database.enable_versioning()
        self._interpreter: Optional["MQLInterpreter"] = None
        #: Serializes basic-interface writes (store_atom/connect/delete_atom),
        #: DDL and checkpoints against each other.
        self._write_lock = make_rlock("PrimaEngine._write_lock")
        #: Guards lazy construction/teardown of the interpreter and the
        #: replica machinery (process pool, commit feed, replication hub).
        self._cache_lock = make_rlock("PrimaEngine._cache_lock")
        #: The event path's lock: generation counter, stats, WAL routing and
        #: incremental cache maintenance fold one event at a time.  Acquired
        #: *inside* the per-type head locks; only ever acquires the true
        #: leaves above it — the interpreter's plan lock, the accelerator
        #: store's lock and the WAL's lock (see DESIGN.md "Threading
        #: model").  Readers never take it.
        self._event_lock = make_rlock("PrimaEngine._event_lock")
        #: Monotonic write generation — the newest change event folded into
        #: the derived structures, which are stamped with the generation they
        #: are coherent with.  Follows the database's version clock.
        self.generation = 0
        self._stats: Dict[str, int] = {
            # The database is created once, with the engine.
            "snapshot_builds": 1,
            "interpreter_builds": 0,
            "invalidations": 0,
            "events_applied": 0,
            # Statement-cache counters of the interpreters DDL dropped.
            "plan_cache_hits": 0,
            "plan_cache_misses": 0,
            "plan_cache_invalidations": 0,
        }
        #: Basic-interface reads and occurrence writes per type name.
        self._reads: Dict[str, int] = collections.Counter()
        self._writes: Dict[str, int] = collections.Counter()
        #: Every derived access path: the equality indexes (declared by
        #: :meth:`create_index` or built for a query), the structure indexes
        #: over recursive link closures (``CREATE STRUCTURE INDEX``) and the
        #: columnar projections backing aggregate scans.  Created before
        #: recovery runs, which may replay ``index`` and ``structure_index``
        #: DDL records into it.
        self._accelerators = AcceleratorStore()
        # -- durability state (all inert when durability is None) -----------
        self._durability = durability
        self._wal: Optional[WriteAheadLog] = None
        #: Change events buffered per active writer (keyed by ``id``) — a
        #: transaction, or this engine for a basic-interface operation;
        #: flushed as one commit record when the writer commits, discarded
        #: when it rolls back — redo-only logging.  (Each entry is appended
        #: and flushed by the one thread driving that writer.)
        self._wal_tx_pending: Dict[int, List[Dict[str, object]]] = {}
        self._recovery: Optional[RecoveryResult] = None
        self._checkpoints = 0
        #: Lazily created WAL tap the process pool and the replication hub
        #: catch their replicas up from (:meth:`_open_feed`).
        self._commit_feed = None  # guarded-by: PrimaEngine._cache_lock
        #: Lazily created pool of checkpoint-seeded worker processes
        #: (:meth:`process_pool`); ``None`` until first use and for
        #: in-memory engines.
        self._procpool = None  # guarded-by: PrimaEngine._cache_lock
        #: Lazily created replication hub (:meth:`replication_hub`);
        #: ``None`` until first use and for in-memory engines.
        self._replication = None  # guarded-by: PrimaEngine._cache_lock
        if durability is not None:
            # The WAL flushes a transaction's buffered events when it commits
            # (and discards them when it rolls back); the hook fires inside
            # Transaction.commit, right after the MVCC commit-log append.
            state.transaction_hooks.append(self._wal_transaction_finished)
            # Recovery runs before the WAL opens for appending, so nothing
            # replayed here is ever re-logged.
            self._recovery = recover(self, durability)
            factory = durability.wal_factory or WriteAheadLog
            self._wal = factory(
                durability.wal_path,
                fsync=durability.fsync,
                group_commit=durability.group_commit,
            )

    # ------------------------------------------------------------------ DDL

    def create_atom_type(self, name: str, description) -> AtomType:
        """Create an atom type; returns the database's :class:`AtomType`."""
        return self._add_atom_type(AtomType(name, description))

    def _add_atom_type(self, atom_type: AtomType) -> AtomType:
        """Register *atom_type* — empty for DDL, already filled for a bulk
        load (:meth:`from_database`, a checkpoint image): the occurrence was
        validated once when the type was built and enters without a
        per-atom change event, before any derived structure exists."""
        with self._ddl(atom_type.name):
            self._database.add_atom_type(atom_type)
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "atom_type",
                    "name": atom_type.name,
                    "attributes": describe_attributes(atom_type.description),
                }
            )
        return atom_type

    def create_link_type(
        self,
        name: str,
        first_type: str,
        second_type: str,
        cardinality: Cardinality = Cardinality.MANY_TO_MANY,
    ) -> LinkType:
        """Create a link type; returns the database's :class:`LinkType`,
        which enforces *cardinality* on every later :meth:`connect`."""
        return self._add_link_type(LinkType(name, first_type, second_type, cardinality=cardinality))

    def _add_link_type(self, link_type: LinkType) -> LinkType:
        """Register *link_type* — empty for DDL, already filled for a bulk
        load (see :meth:`_add_atom_type`)."""
        with self._ddl(link_type.name):
            self._database.add_link_type(link_type)
        if self._wal is not None:
            first_type, second_type = link_type.atom_type_names
            self._wal.append_ddl(
                {
                    "op": "link_type",
                    "name": link_type.name,
                    "first": first_type,
                    "second": second_type,
                    "cardinality": link_type.cardinality.value,
                }
            )
        return link_type

    @contextmanager
    def _ddl(self, name: str):
        """Guard one type registration, then drop the derived caches.

        Refused while any transaction is active (the rule
        :meth:`checkpoint` applies): dropping the interpreter would orphan a
        ``BEGIN WORK`` session it owns.  The check and the registration
        share one critical section of the versioning lock, so no
        transaction can begin in between.
        """
        with self._write_lock, self._cache_lock:
            self._require_unfenced()
            if name in self._database:
                raise StorageError(f"type name {name!r} already in use")
            state = self._database.versioning
            with state.lock:
                if state.active_transactions:
                    raise StorageError(
                        "cannot create a type while transactions are active; "
                        "COMMIT WORK or ROLLBACK WORK first"
                    )
                yield
            self._invalidate()

    def create_index(self, atom_type_name: str, attribute: str) -> None:
        """Create a secondary index on ``atom_type_name.attribute``.

        The declaration is catalog state (logged, checkpointed) registered
        in the accelerator store; the index itself is built there on first
        use and maintained like every index the executor uses.
        """
        self._require_unfenced()
        if attribute not in self._database.atyp(atom_type_name).description:
            raise StorageError(
                f"cannot index unknown attribute {attribute!r} of {atom_type_name!r}"
            )
        self._accelerators.declare_index(atom_type_name, attribute)
        if self._wal is not None:
            self._wal.append_ddl(
                {"op": "index", "type": atom_type_name, "attribute": attribute}
            )

    def create_structure_index(
        self, atom_type_name: str, link_type_name: str, direction: str = "down"
    ) -> None:
        """Register an interval-encoded structure index over a recursive closure.

        Recursive queries over ``atom_type_name`` via ``link_type_name`` in
        *direction* (``"down"`` follows the link's first→second orientation,
        ``"up"`` the reverse) are then answered by interval range scans (or a
        compact-adjacency sweep on non-tree networks) instead of the
        hop-by-hop fixpoint loop.  The encoding is built lazily on first use
        and maintained incrementally off the change-event stream.
        """
        self._require_unfenced()
        self._database.atyp(atom_type_name)  # existence check
        if atom_type_name not in self._database.ltyp(link_type_name).atom_type_names:
            raise StorageError(
                f"link type {link_type_name!r} does not connect atom type "
                f"{atom_type_name!r}"
            )
        self._accelerators.register(atom_type_name, link_type_name, direction)
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "structure_index",
                    "type": atom_type_name,
                    "link": link_type_name,
                    "direction": direction,
                }
            )

    # --------------------------------------------- atom-oriented interface

    def store_atom(self, atom_type_name: str, identifier: Optional[str] = None, **values) -> Atom:
        """Insert (or replace) an atom — basic-component write operation.

        Basic-interface writes serialize on the engine's write lock so the
        mutation and its WAL record form one atomic operation even when
        several threads auto-commit concurrently.
        """
        with self._write_lock:
            self._require_unfenced()
            atom_type = self._database.atyp(atom_type_name)
            with self._operation():
                if identifier is None or atom_type.get(identifier) is None:
                    return atom_type.add(values, identifier=identifier)
                return atom_type.replace(Atom(atom_type_name, values, identifier=identifier))

    def get_atom(self, atom_type_name: str, identifier: str) -> Optional[Atom]:
        """Point lookup — basic-component read operation."""
        atom_type = self._database.atyp(atom_type_name)
        self._reads[atom_type_name] += 1
        return atom_type.get(identifier)

    def lookup(self, atom_type_name: str, attribute: str, value: object) -> Tuple[Atom, ...]:
        """Value lookup (indexed when possible) — basic-component read operation.

        A declared index (:meth:`create_index`) answers from the accelerator
        store; any other attribute is a filtered scan.
        """
        if not self._accelerators.is_declared(atom_type_name, attribute):
            return tuple(
                atom for atom in self.scan(atom_type_name) if atom.get(attribute) == value
            )
        atom_type = self._database.atyp(atom_type_name)
        identifiers = self._accelerators.lookup(self._database, atom_type_name, attribute, value)
        atoms = tuple(
            atom
            for atom in map(atom_type.get, identifiers)
            if atom is not None and atom.get(attribute) == value
        )
        self._reads[atom_type_name] += len(atoms)
        return atoms

    def scan(self, atom_type_name: str) -> Tuple[Atom, ...]:
        """Full scan of one atom type."""
        atoms = self._database.atyp(atom_type_name).occurrence
        self._reads[atom_type_name] += len(atoms)
        return atoms

    def connect(self, link_type_name: str, first: "Atom | str", second: "Atom | str") -> Link:
        """Insert a link — basic-component write operation.

        The link type checks its cardinality restriction before anything is
        written or logged; a refused link raises
        :class:`~repro.exceptions.CardinalityError` and leaves no trace.
        Endpoints may come either way round: each is typed by the atom type
        that stores it (:meth:`~repro.core.database.Database.typed_link`).
        """
        with self._write_lock:
            self._require_unfenced()
            link = self._database.typed_link(link_type_name, first, second)
            with self._operation():
                return self._database.ltyp(link_type_name).add(link)

    def neighbours(self, link_type_name: str, identifier: str) -> Tuple[str, ...]:
        """Adjacent atom identifiers through one link type."""
        link_type = self._database.ltyp(link_type_name)
        self._reads[link_type_name] += 1
        return tuple(link_type.partners_of(identifier))

    def delete_atom(self, atom_type_name: str, identifier: str) -> int:
        """Delete an atom and all its incident links; returns the links removed."""
        with self._write_lock:
            self._require_unfenced()
            atom_type = self._database.atyp(atom_type_name)
            atom = atom_type.get(identifier)
            if atom is None:
                raise StorageError(f"no atom {identifier!r} in atom type {atom_type_name!r}")
            with self._operation():
                removed = 0
                for link_type in self._database.link_types_of(atom_type_name):
                    removed += link_type.remove_atom(atom)
                atom_type.remove(identifier)
            return removed

    @contextmanager
    def _operation(self):
        """One basic-interface write: its change events are one commit record.

        For the block's duration this engine is the versioning state's
        (thread-local) writer, so :meth:`_wal_capture` buffers the events
        exactly as it does for a transaction; they are flushed as a single
        record on success and dropped on failure.
        """
        state = self._database.versioning
        token = state.begin_tracking(self)
        try:
            yield
        except BaseException:
            self._wal_transaction_finished(self, committed=False)
            raise
        finally:
            state.end_tracking(token)
        self._wal_transaction_finished(self, committed=True)

    # --------------------------------------------- molecule-processing layer

    def to_database(self) -> Database:
        """The engine's :class:`Database` — the same object for its whole life.

        It is the state itself, not an export: mutations applied to it
        directly — by MQL DML write plans or the manipulation API — are the
        engine's writes (logged, versioned, folded into the derived
        structures) exactly like basic-interface operations.
        """
        return self._database

    def define_molecule_type(
        self,
        name: str,
        atom_type_names: "Sequence[str] | MoleculeTypeDescription",
        directed_links: Sequence = (),
    ) -> MoleculeType:
        """Molecule-type definition (α) over the engine's current contents."""
        return molecule_type_definition(self.to_database(), name, atom_type_names, directed_links)

    def query(self, statement: str) -> "QueryResult":
        """Execute an MQL statement over the engine's current contents.

        Statements run through the planner → streaming-executor pipeline of
        the engine's interpreter (:meth:`interpreter`).  DML statements
        (INSERT / DELETE / MODIFY) execute atomically against the database;
        every change is folded into the cached access structures.
        ``BEGIN WORK`` / ``COMMIT WORK`` / ``ROLLBACK
        WORK`` scope the engine's interpreter session as one transaction with
        repeatable reads and first-committer-wins conflict detection; for
        pinned read-only views see :meth:`snapshot_at`.
        """
        return self.interpreter().execute(statement)

    def plan(self, statement: str) -> "PlanChoice":
        """Return the planner's costed plan choice for *statement*.

        Mirrors :meth:`MQLInterpreter.plan`; for a rendered report execute an
        ``EXPLAIN`` statement through :meth:`query` instead.
        """
        return self.interpreter().plan(statement)

    def interpreter(self) -> "MQLInterpreter":
        """The cached MQL interpreter bound to the engine's access structures.

        The interpreter's executor answers pushed-down equality filters,
        recursive closures and aggregate scans from the engine's accelerator
        store; the hierarchical join walks the link types' incidence
        directly.  Writes are folded into the store in place; DDL discards
        only the interpreter (its statement cache), and this method rebuilds
        it on its next call.
        """
        with self._cache_lock:
            if self._interpreter is None:
                from repro.engine.executor import Executor
                from repro.mql.interpreter import MQLInterpreter

                database = self._database
                executor = Executor(database, accelerators=self._accelerators)
                self._interpreter = MQLInterpreter(
                    database,
                    executor=executor,
                    checkpoint=self.checkpoint if self._durability is not None else None,
                )
                self._stats["interpreter_builds"] += 1
            return self._interpreter

    # --------------------------------------------------- snapshots and MVCC

    def snapshot_at(self, generation: Optional[int] = None) -> "SnapshotHandle":
        """Pin a generation and return a handle for repeatable reads.

        The handle's :meth:`SnapshotHandle.query` runs MQL against the
        pinned generation: concurrent committed DML (through this engine or
        any transaction on its snapshot) is invisible until the handle is
        released, while a fresh ``engine.query`` continues to see the head.
        Pinning is refcounted; releasing the last pin on a generation lets
        the garbage collector truncate the version chains behind it.

        *generation* defaults to the current write generation, resolved
        atomically inside the pin registry's lock (a concurrent writer
        cannot slip a tick between the read and the pin).  Pinning an older
        generation is allowed only down to the retention floor — the
        truncation horizon while other pins/transactions hold history —
        below it the registry refuses the pin rather than serve stale reads.

        Safe to call from any thread; the returned handle's reads are safe
        from any thread too (see :class:`SnapshotHandle`).
        """
        return self._pin(generation)[0]

    def _pin(self, generation: Optional[int]) -> "Tuple[SnapshotHandle, int]":
        """:meth:`snapshot_at` plus the commit-feed position at the pin.

        Both are taken inside the versioning engine lock, the critical
        section transactional commits append their WAL record in — a commit
        is either visible at the pin *and* below the cut, or neither.
        """
        database = self.to_database()
        interpreter = self.interpreter()
        feed = self._commit_feed
        state = database.versioning
        with state.lock:
            # Pin and snapshot-build form one critical section: a writer
            # finishing (e.g. rolling back) in between would otherwise leave
            # the exclusion set without its uncommitted generations and leak
            # dirty values into the handle.
            pinned = database.pin(generation)
            snapshot = state.make_snapshot(pinned)
            cut = feed.position() if feed is not None else 0
        return SnapshotHandle(database, interpreter, snapshot), cut

    def parallel_query(
        self,
        statements: "Iterable[str]",
        threads: Optional[int] = None,
        generation: Optional[int] = None,
        mode: str = "thread",
        workers: Optional[int] = None,
        max_lag: int = 0,
    ) -> "List[QueryResult]":
        """Run read-only MQL statements concurrently at one pinned generation.

        Pins a single snapshot (like :meth:`snapshot_at`), executes every
        statement through a worker-thread pool against that pinned
        generation, and returns the results **in statement order** —
        byte-identical to running the same statements serially on the same
        snapshot, no matter how much committed DML races at the head.
        Readers derive lock-free over the immutable version chains; the
        plan step serializes briefly on the interpreter's planner lock and
        an index lookup on the looked-up type's head lock and the
        accelerator store's lock (the store is the head's, shared by every
        reader — see DESIGN.md "Versioned access paths").

        *threads* defaults to ``min(len(statements), 4)``; ``threads=1``
        degrades to a serial loop over the same pinned handle (the E-PERF7
        benchmark's baseline).  DML and transaction statements are rejected
        by the underlying read-only snapshot handle.

        Note: under CPython's GIL the pure-Python execute phase of the
        statements is time-sliced, not parallel — the thread pool buys
        wall-clock when requests spend time off the GIL (client wire I/O,
        durable reads, checksum/compression of results), which is what the
        E-PERF7 benchmark measures.

        ``mode="process"`` and ``mode="replica"`` instead route the
        statements over read replicas (:mod:`repro.engine.router`): every
        replica is caught up to the pin first — or left out when it cannot
        serve it (a replica cannot rewind) — the statements go round-robin
        over the rest, and whatever no replica served (EXPLAIN, DML — which
        still raises —, anything unparseable or unshippable, refusals,
        crashes) runs on the primary at the same pinned generation.  Results
        keep statement order and render byte-identical ``to_dicts()``
        content.  ``mode="process"`` ships compiled plans to *workers*
        worker processes (:meth:`process_pool`), off-GIL, and partitions a
        single recursive or columnar-aggregate statement over all of them.
        ``mode="replica"`` sends statement text to the followers
        (:meth:`create_follower`); a follower lagging at most *max_lag*
        generations serves at its own applied generation, so with the
        default 0 every follower answers exactly at the pin.
        """
        statements = list(statements)
        if not statements:
            return []
        if mode in ("process", "replica"):
            from repro.engine.router import FollowerTarget, ReadRouter, WorkerSlot

            if mode == "process":
                pool = self.process_pool(workers)
                pool.counters["dispatches"] += 1
                counters = pool.counters
                targets = [WorkerSlot(pool, slot) for slot in range(pool.size)]
            else:
                hub = self._replication
                counters = hub.counters if hub is not None else collections.Counter()
                followers = hub.followers() if hub is not None else []
                targets = [FollowerTarget(hub, follower) for follower in followers]
            return ReadRouter(self).run(statements, generation, targets, counters, max_lag)
        if mode != "thread":
            raise StorageError(
                f"unknown parallel_query mode {mode!r}; use 'thread', "
                "'process' or 'replica'"
            )
        if threads is None:
            threads = min(len(statements), 4)
        with self.snapshot_at(generation) as handle:
            if threads <= 1:
                return [handle.query(statement) for statement in statements]
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(handle.query, statements))

    def process_pool(self, workers: Optional[int] = None):
        """The engine's pool of checkpoint-seeded worker processes (lazy).

        Requires durability: workers seed by loading the checkpoint image
        and replaying the WAL tail, then track the primary through
        incremental record shipping (see :mod:`repro.engine.procpool`).
        *workers* sizes the pool on first creation (default
        ``min(4, cpu count)``); later calls return the existing pool.
        """
        with self._cache_lock:
            if self._procpool is None:
                from repro.engine.procpool import ProcessPool

                size = workers or max(1, min(4, os.cpu_count() or 1))
                self._procpool = ProcessPool(self, self._open_feed(), size)
            return self._procpool

    def _open_feed(self):
        """The engine's one WAL tap (lazy; durable engines only)."""
        if self._wal is None:
            raise StorageError(
                "read replicas require a durable engine — they seed from its "
                "checkpoint image and WAL tail; construct it with "
                "durability=DurabilityConfig(directory)"
            )
        with self._cache_lock:
            if self._commit_feed is None:
                from repro.storage.replication import CommitFeed

                self._commit_feed = CommitFeed(self._wal)
            return self._commit_feed

    # --------------------------------------------------------- replication

    def replication_hub(self):
        """The engine's replication hub (lazy; durable engines only).

        The hub owns the in-process followers and ships them the commit
        feed (see :mod:`repro.storage.replication`).
        """
        with self._cache_lock:
            if self._replication is None:
                from repro.storage.replication import ReplicationHub

                self._replication = ReplicationHub(self, self._open_feed())
            return self._replication

    def create_follower(self, name: Optional[str] = None):
        """Seed a new in-process follower tracking this engine's WAL feed.

        Shorthand for ``engine.replication_hub().create_follower(name)``.
        The follower serves snapshot reads at its applied generation; the
        replica router (``parallel_query(mode="replica")``) fans read
        statements over all followers created this way.
        """
        return self.replication_hub().create_follower(name)

    def fence(self) -> None:
        """Refuse every future write — the promotion protocol's first step.

        Takes the write lock (draining in-flight basic-interface writers)
        and the versioning engine lock (draining racing committers) before
        flipping the flag, so after :meth:`fence` returns no record can
        ever reach the WAL again: basic-interface writes and DDL raise
        :class:`StorageError`, new transactions refuse to begin, and
        in-flight transactions abort at their commit point.  Reads (and
        :meth:`checkpoint`) keep working.  Idempotent.
        """
        state = self._database.versioning
        with self._write_lock, state.lock:
            state.fenced = True

    @property
    def fenced(self) -> bool:
        """``True`` once a follower promotion fenced this engine."""
        return self._database.versioning.fenced

    def _require_unfenced(self) -> None:
        if self.fenced:
            raise StorageError(
                "engine is fenced (a follower was promoted); writes must go "
                "to the promoted engine"
            )

    def collect_versions(self) -> Dict[str, object]:
        """Run version-chain garbage collection; returns the GC statistics."""
        return self._database.collect_versions()

    # ---------------------------------------------------- durability and WAL

    @classmethod
    def open(
        cls,
        directory,
        name: str = "prima",
        fsync: str = "batch",
        group_commit: int = 8,
    ) -> "PrimaEngine":
        """Open (or create) a durable engine rooted at *directory*.

        Construction recovers the directory's checkpoint and WAL; an empty
        directory yields an empty engine whose subsequent DDL and commits are
        logged.  Shorthand for ``PrimaEngine(durability=DurabilityConfig(…))``.
        """
        return cls(
            name,
            durability=DurabilityConfig(directory, fsync=fsync, group_commit=group_commit),
        )

    @property
    def durability(self) -> Optional[DurabilityConfig]:
        """The durability configuration, or ``None`` for in-memory engines."""
        return self._durability

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The open write-ahead log (``None`` for in-memory engines)."""
        return self._wal

    @property
    def recovery(self) -> Optional[RecoveryResult]:
        """What construction-time recovery replayed (``None`` when in-memory)."""
        return self._recovery

    def checkpoint(self) -> Dict[str, object]:
        """Write a snapshot image and truncate the WAL (quiescent points only).

        The checkpoint protocol is: image to a temporary file, fsync, atomic
        rename over the previous image, fsync the directory, *then* truncate
        the log — a crash between any two steps leaves a state recovery
        handles (old image + full log, or new image + full log, both of which
        replay to the committed head because replay is idempotent).  Refused
        while any transaction is active: the head then carries uncommitted
        writes that must not enter an image.  Holds the engine's write lock
        so no basic-interface write can interleave with the image.

        The write lock and the versioning lock are held for the whole
        image write, so the call stops the world: about 1.0 s on a durable
        100k-atom mesh and 1.2–1.3 s on a 104k-part forest (Python 3.11, 2
        cores; 3.5–4.9 s while the image was built whole and written by
        ``json.dump``).  The image is streamed in batches
        (:func:`~repro.storage.recovery.write_checkpoint`); a failed write
        leaves the previous image and the log as they were.
        """
        with self._write_lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> Dict[str, object]:
        if self._wal is None:
            raise StorageError(
                "checkpoint requires a durable engine; construct it with "
                "durability=DurabilityConfig(directory)"
            )
        if self._wal.closed:
            # Fail before the image write: replacing the image and then
            # failing to truncate would otherwise leave a half-finished
            # checkpoint behind a closed engine.
            raise StorageError("cannot checkpoint a closed engine; reopen the directory")
        from repro.storage.recovery import write_checkpoint  # deferred: cycle hygiene

        state = self._database.versioning
        # The quiescence check, the image and the truncate form one critical
        # section of the versioning engine lock: a transaction beginning (or
        # any mutation ticking) after the check would otherwise put
        # uncommitted state into the head mid-image.  Checkpoints are rare
        # and explicitly quiescent; stalling pins/commits for the image
        # write is the intended trade.
        with state.lock:
            if state.active_transactions or self._wal_tx_pending:
                raise StorageError(
                    "cannot checkpoint while transactions are active; "
                    "COMMIT WORK or ROLLBACK WORK first"
                )
            path = write_checkpoint(self, self._durability)
            self._wal.truncate()
        self._checkpoints += 1
        return {
            "path": str(path),
            "checkpoints": self._checkpoints,
            "generation": self.generation,
            "atoms": self._database.atom_count(),
            "links": self._database.link_count(),
        }

    def close(self) -> None:
        """Flush and close the WAL (idempotent; in-memory engines: no-op).

        Shuts down the worker-process pool and the replication hub first,
        if they were created (the hub's followers survive, detached, at
        their applied generations).  A closed durable engine keeps serving
        reads, but further writes fail at the log append — reopen the
        directory with :meth:`open` instead.
        """
        with self._cache_lock:
            pool, self._procpool = self._procpool, None
            hub, self._replication = self._replication, None
            feed, self._commit_feed = self._commit_feed, None
        if pool is not None:
            pool.shutdown()
        if hub is not None:
            hub.close()
        if feed is not None:
            feed.close()
        if self._wal is not None:
            self._wal.close()

    def _wal_capture(self, event: ChangeEvent) -> None:
        """Route one change event into the WAL's buffers.

        Events produced inside a writer's tracked block — a transaction, or
        one basic-interface operation (:meth:`_operation`) — are buffered
        under that writer (flushed at commit, dropped at rollback);
        everything else — a direct database mutation outside any
        transaction — auto-commits immediately.

        The writer attribution (``current_writer``) is thread-local, so
        concurrent writers on other threads can never interleave their
        events into this thread's records.
        """
        writer = self._database.versioning.current_writer
        record = encode_event(event)
        if writer is not None:
            self._wal_tx_pending.setdefault(id(writer), []).append(record)
        else:
            self._wal.commit_events([record])

    def _wal_transaction_finished(self, txn: object, committed: bool) -> None:
        """Transaction hook: flush the writer's buffered events on commit.

        Fired by :meth:`repro.manipulation.transactions.Transaction.commit`
        immediately after the MVCC commit-log append (and by ``rollback`` /
        conflict aborts with ``committed=False``, which discards the buffer —
        the log only ever carries committed transactions); a basic-interface
        operation ends through it too, with the engine as the writer.
        """
        events = self._wal_tx_pending.get(id(txn))
        if committed and events and self._wal is not None:
            # May raise (closed log, full disk): the buffer is kept so a
            # retried commit logs the transaction's events after all — the
            # pop below is only reached once the record is safely appended.
            self._wal.commit_events(events)
        self._wal_tx_pending.pop(id(txn), None)

    # -------------------------------------------------- cache maintenance

    def _on_change(self, event: ChangeEvent) -> None:
        """Fold one database change event into the derived structures.

        Serialized on the engine's event lock: concurrent writer threads
        emit events one at a time (each already holds its type's head lock),
        and every incremental cache applies exactly one delta at a time.
        The event lock acquires only the true leaves (the interpreter's plan
        lock, the WAL lock), so holding a head lock here can never deadlock.
        """
        with self._event_lock:
            # The database's version clock stamps every event; writers on
            # different types may reach this lock out of stamp order.
            self.generation = max(self.generation, event.generation)
            self._stats["events_applied"] += 1
            self._writes[event.type_name] += 1
            if self._wal is not None:
                self._wal_capture(event)
            self._accelerators.apply_event(event, self.generation)
            if self._interpreter is not None:
                self._interpreter.apply_event(event)

    def _advance_generation(self, generation: int) -> None:
        """Fast-forward the version clock and the write generation to
        *generation* (never backwards) — recovery and replicas resume at the
        generation their records were logged at.  Nothing is mutated, so
        whatever was coherent with the old generation is stamped coherent
        with the new one."""
        state = self._database.versioning
        with state.lock:
            state.generation = max(state.generation, generation)
        with self._event_lock:
            generation = self.generation = max(self.generation, generation)
            self._accelerators.stamp(generation)

    def _invalidate(self) -> None:
        """DDL: drop the interpreter (its planner and statement cache).

        The database, its version clock and its pins are never dropped; the
        accelerator store describes occurrences a new type does not change,
        so it stays as it is.  The dropped
        interpreter's statement-cache counters carry over, its entries
        counted as invalidated.
        """
        if self._interpreter is not None:
            cache = self._interpreter.plan_cache_statistics()
            for name in ("plan_cache_hits", "plan_cache_misses", "plan_cache_invalidations"):
                self._stats[name] += cache[name]
            self._stats["plan_cache_invalidations"] += cache["plan_cache_entries"]
        self._interpreter = None
        self._stats["invalidations"] += 1

    def maintenance_statistics(self) -> Dict[str, int]:
        """Build/rebuild counters plus the current write generation.

        ``interpreter_builds`` counts full (re)constructions — it stays at 1
        while ``events_applied`` grows and only DDL adds one;
        ``snapshot_builds`` is 1 for the engine's life (its database is
        created once); ``index_generation`` (like the ``structure_`` and
        ``columnar_generation``) equals ``generation`` whenever the
        accelerator store is coherent; ``index_builds`` counts the equality
        indexes built, each once for the engine's life.
        ``plan_cache_entries`` is the interpreter's statement-cache size,
        ``plan_cache_hits`` / ``_misses`` / ``_invalidations`` count over the
        engine's life (the entries DDL drops count as invalidated).
        """
        report = dict(self._stats)
        interpreter = self._interpreter
        cache = (
            interpreter.plan_cache_statistics()
            if interpreter is not None
            else {"plan_cache_entries": 0}
        )
        for name, count in cache.items():
            report[name] = report.get(name, 0) + count
        report["generation"] = self.generation
        # Read by benchmarks/harness/runner.py (storage.network.rebuilds); the
        # engine keeps no network, so it is 0 until the harness drops the key.
        report["network_rebuilds"] = 0
        report.update(self._accelerators.statistics())
        return report

    def maintenance_report(self) -> Dict[str, object]:
        """The full maintenance report: cache counters **plus** MVCC/GC state.

        Extends :meth:`maintenance_statistics` with the version-chain
        statistics benchmarks and tests assert on:

        * ``versions_live`` — version-chain entries currently held;
        * ``versions_collected`` — cumulative entries dropped by GC;
        * ``oldest_pinned_generation`` — the generation the oldest active
          reader pins (``None`` when nothing is pinned — chains are then
          truncated on the next collection);
        * ``pins_active`` — active snapshot/transaction pins;
        * ``wal_bytes`` / ``wal_records`` / ``wal_syncs`` — bytes and records
          currently in the write-ahead log (both reset by a checkpoint's
          truncate, so they always agree) and fsyncs issued (0 for in-memory
          engines);
        * ``wal_lifetime_bytes`` / ``wal_lifetime_records`` — totals over the
          log handle's lifetime, unaffected by truncation;
        * ``checkpoints`` — checkpoint images written by this engine;
        * ``recovery_replayed`` — WAL records replayed at construction;
        * ``replication_*`` — follower count, worst follower lag (in
          generations) and the hub's ship/route/fallback counters (all 0
          while no replication hub exists);
        * ``fenced`` — whether a follower promotion fenced this engine;
        * ``locks_declared`` / ``lock_assertions`` — only while the runtime
          lock-discipline checker (``REPRO_DEBUG_LOCKS=1``) is active:
          registry size and checked acquisitions process-wide.
        """
        report: Dict[str, object] = dict(self.maintenance_statistics())
        report.update(self._database.version_statistics())
        report["wal_bytes"] = self._wal.bytes_written if self._wal is not None else 0
        report["wal_records"] = self._wal.records_written if self._wal is not None else 0
        report["wal_syncs"] = self._wal.syncs if self._wal is not None else 0
        report["wal_lifetime_bytes"] = (
            self._wal.lifetime_bytes if self._wal is not None else 0
        )
        report["wal_lifetime_records"] = (
            self._wal.lifetime_records if self._wal is not None else 0
        )
        report["checkpoints"] = self._checkpoints
        report["recovery_replayed"] = (
            self._recovery.records_replayed if self._recovery is not None else 0
        )
        from repro.engine.procpool import COUNTERS as POOL_COUNTERS
        from repro.storage.replication import HUB_COUNTERS

        pool = self._procpool
        report["procpool_workers"] = pool.size if pool is not None else 0
        for key in POOL_COUNTERS:
            report[f"procpool_{key}"] = pool.counters[key] if pool is not None else 0
        hub = self._replication
        report["replication_followers"] = (
            len(hub.followers()) if hub is not None else 0
        )
        report["replication_lag"] = hub.max_lag() if hub is not None else 0
        for key in HUB_COUNTERS:
            report[f"replication_{key}"] = hub.counters[key] if hub is not None else 0
        report["fenced"] = self.fenced
        lock_report = runtime_lock_report()
        if lock_report is not None:
            # Only present while REPRO_DEBUG_LOCKS is (or was) active: a
            # stress artifact carrying these keys proves the lock-discipline
            # checker actually engaged during the run.
            report.update(lock_report)
        return report

    # ------------------------------------------------------------- loading

    @classmethod
    def from_database(
        cls,
        database: Database,
        name: Optional[str] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> "PrimaEngine":
        """Bulk-load an engine from an existing database.

        Every type is copied (its occurrence validated and its cardinality
        checked) once, whole — no per-atom change event, no log record.
        The copy shares the source's atoms and links: both are immutable,
        and an atom or link is rebuilt only where validation or typing
        changes it.  With *durability* (expects a fresh directory) the load
        is persisted as the first checkpoint instead — the cheap way to make
        a dataset durable.
        """
        engine = cls(name or database.name, durability=durability)
        for atom_type in database.atom_types:
            engine._add_atom_type(AtomType(atom_type.name, atom_type.description, atom_type))
        for link_type in database.link_types:
            engine._add_link_type(
                LinkType(
                    link_type.name,
                    *link_type.atom_type_names,
                    link_type,
                    cardinality=link_type.cardinality,
                )
            )
        if durability is not None:
            try:
                engine.checkpoint()
            except BaseException:
                engine.close()  # the caller never gets the engine: release its log
                raise
        return engine

    # ------------------------------------------------------------ statistics

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Occurrence sizes plus basic-interface read and write counters per
        type (used by the storage tests and benches)."""
        sizes = self._database.statistics()
        names = (*sizes["atom_types"], *sizes["link_types"])
        return {
            "atoms": sizes["atom_types"],
            "links": sizes["link_types"],
            "reads": {name: self._reads[name] for name in names},
            "writes": {name: self._writes[name] for name in names},
        }

    def __repr__(self) -> str:
        return (
            f"PrimaEngine({self.name!r}, atom_types={len(self._database.atom_types)}, "
            f"link_types={len(self._database.link_types)})"
        )


class SnapshotHandle:
    """A pinned, repeatable-read view over a :class:`PrimaEngine` snapshot.

    Obtained from :meth:`PrimaEngine.snapshot_at`; usable as a context
    manager.  The handle captures the engine's interpreter at pin time and
    reads the engine's database through its pin, so its reads stay
    generation-stable across writes and across DDL (which drops the
    engine's derived caches, never the database or its pins).
    :meth:`release` drops the pin and triggers version-chain garbage
    collection.

    Thread safety: :meth:`query` and :meth:`database_view` may be called
    from any thread, concurrently — reads resolve lock-free over immutable
    version chains (:meth:`PrimaEngine.parallel_query` fans one handle out
    over a pool).  :meth:`release` is idempotent and atomic: exactly one
    caller unpins, no matter how many threads race the release (the
    registry underneath treats a true over-release as an error).
    """

    def __init__(self, database: Database, interpreter, snapshot: Snapshot) -> None:
        self._database = database
        self._interpreter = interpreter
        self._snapshot = snapshot
        self._released = False  # guarded-by: SnapshotHandle._release_guard
        self._release_guard = make_lock("SnapshotHandle._release_guard")

    @property
    def generation(self) -> int:
        """The pinned write generation."""
        return self._snapshot.generation

    @property
    def snapshot(self) -> Snapshot:
        """The underlying visibility predicate (for executor-level callers)."""
        return self._snapshot

    def query(self, statement: str) -> "QueryResult":
        """Execute an MQL read statement as of the pinned generation.

        Snapshot handles are read-only: DML and transaction statements are
        rejected (the interpreter's rule for pinned reads) — writes go
        through ``engine.query`` (or a ``BEGIN WORK`` session) and remain
        invisible to this handle.  The statement text goes to the engine's
        interpreter as it is, so the handle shares its statement cache.
        """
        if self._released:
            raise StorageError("snapshot handle has been released")
        return self._interpreter.execute(statement, at=self._snapshot)

    def database_view(self):
        """The pinned :class:`~repro.core.versions.DatabaseView` (direct reads)."""
        if self._released:
            raise StorageError("snapshot handle has been released")
        return self._database.at(self._snapshot)

    def release(self) -> None:
        """Unpin the generation (idempotent); triggers version GC."""
        with self._release_guard:
            if self._released:
                return
            self._released = True
        self._database.release_pin(self._snapshot.generation)

    @property
    def released(self) -> bool:
        return self._released

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        self.release()
        return False

    def __repr__(self) -> str:
        state = "released" if self._released else "pinned"
        return f"SnapshotHandle(generation={self.generation}, {state})"
