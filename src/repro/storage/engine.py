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
  engine's secondary indexes and its cached atom network as access paths.
  MQL DML statements (INSERT / DELETE / MODIFY) run through the same
  pipeline: the write plan mutates the snapshot database atomically, and the
  engine mirrors every change back into its stores.

Internally the engine keeps one :class:`AtomStore` per atom type and one
:class:`LinkStore` per link type; :meth:`to_database` exports a consistent
:class:`~repro.core.database.Database` snapshot for the algebra layers.

**Cache maintenance.**  The snapshot, the atom network, the hash-index pool
and the planner statistics are cached together and — in the default
``incremental`` mode — maintained *in place* on every write: the engine
subscribes to the snapshot's change events and folds each atom/link delta
into the cached structures, bumping a :attr:`generation` counter that the
executor's index pool is stamped with (a pool whose generation matches the
engine's is coherent by construction).  The ``rebuild`` mode restores the
historical invalidate-everything behaviour — every write discards all caches
and the next read rebuilds them from the stores; the mixed-workload benchmark
compares the two.

**Durability.**  With ``durability=DurabilityConfig(directory)`` the engine
opens (and crash-recovers) a write-ahead log on construction: change events
are buffered per transaction and appended as one checksummed commit record
when the transaction commits — atomically with the MVCC commit-log entry —
so recovery (:mod:`repro.storage.recovery`) is pure redo of the committed
prefix.  :meth:`PrimaEngine.checkpoint` (or MQL ``CHECKPOINT``) writes a
compact catalog + occurrence image and truncates the log.

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
import threading

from repro.analysis.runtime import make_lock, make_rlock
from repro.analysis.runtime import checker_report as runtime_lock_report
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    LINK_CONNECTED,
    LINK_DISCONNECTED,
    ChangeEvent,
    Listener,
)
from repro.core.link import Cardinality, Link, LinkType
from repro.core.molecule import MoleculeType, MoleculeTypeDescription
from repro.core.molecule_algebra import molecule_type_definition
from repro.core.versions import Snapshot
from repro.exceptions import StorageError, UnknownNameError
from repro.storage.atom_store import AtomStore
from repro.storage.link_store import LinkStore
from repro.storage.network import AtomNetwork
from repro.storage.recovery import RecoveryResult, describe_attributes, recover
from repro.storage.columnar import ColumnarStore
from repro.storage.structure_index import StructureIndexStore
from repro.storage.wal import DurabilityConfig, WriteAheadLog, encode_event

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.engine.physical import IndexPool
    from repro.mql.interpreter import MQLInterpreter, QueryResult
    from repro.optimizer.planner import PlanChoice

#: The two cache-maintenance strategies.
INCREMENTAL = "incremental"
REBUILD = "rebuild"

#: MVCC statistics reported while no snapshot (and hence no version clock) exists.
NO_VERSION_STATISTICS: Dict[str, object] = {
    "versions_live": 0,
    "versions_collected": 0,
    "oldest_pinned_generation": None,
    "pins_active": 0,
}


class PrimaEngine:
    """An in-memory, two-layer storage engine for MAD databases.

    *maintenance* selects the cache strategy: ``"incremental"`` (default)
    folds every write into the cached snapshot, atom network, hash indexes
    and planner statistics; ``"rebuild"`` invalidates everything on each
    write and rebuilds lazily — the pre-write-pipeline behaviour, kept as
    the benchmark baseline.

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
        maintenance: str = INCREMENTAL,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        if maintenance not in (INCREMENTAL, REBUILD):
            raise StorageError(
                f"unknown maintenance mode {maintenance!r}; use 'incremental' or 'rebuild'"
            )
        self.name = name
        self.maintenance = maintenance
        self._atom_stores: Dict[str, AtomStore] = {}
        self._link_stores: Dict[str, LinkStore] = {}
        self._cardinalities: Dict[str, Cardinality] = {}
        self._snapshot: Optional[Database] = None
        self._network: Optional[AtomNetwork] = None
        self._interpreter: Optional["MQLInterpreter"] = None
        self._index_pool: Optional["IndexPool"] = None
        self._dirty = False
        #: Serializes basic-interface writes (store_atom/connect/delete_atom)
        #: and checkpoints against each other.
        self._write_lock = make_rlock("PrimaEngine._write_lock")
        #: Guards lazy construction/teardown of the cached access structures
        #: (snapshot, network, interpreter, index pool).
        self._cache_lock = make_rlock("PrimaEngine._cache_lock")
        #: The event path's lock: generation counter, stats, WAL routing,
        #: store mirror and incremental cache maintenance fold one event at
        #: a time.  Acquired *inside* the per-type head locks; only ever
        #: acquires the true leaves below it — the interpreter's plan lock
        #: and the WAL's lock (see DESIGN.md "Threading model").
        self._event_lock = make_rlock("PrimaEngine._event_lock")
        #: Per-thread mirror state: the ``_mirror`` guard flag and the
        #: direct-write WAL buffer belong to the thread driving the write.
        self._tls = threading.local()
        #: Monotonic write generation; cached access structures are stamped
        #: with the generation they are coherent with.
        self.generation = 0
        self._stats: Dict[str, int] = {
            "snapshot_builds": 0,
            "network_builds": 0,
            "interpreter_builds": 0,
            "invalidations": 0,
            "events_applied": 0,
        }
        #: Interval-encoded structure indexes over recursive link closures
        #: (``CREATE STRUCTURE INDEX``).  The store outlives cache
        #: invalidation — registrations and counters persist; only the
        #: encodings are marked stale.  Created before recovery runs, which
        #: may replay ``structure_index`` DDL records into it.
        self._structure_indexes = StructureIndexStore()
        #: Columnar attribute projections backing MQL aggregate scans.  Like
        #: the structure-index store it outlives cache invalidation: the
        #: arrays are merely marked stale and rebuilt lazily on next head use.
        self._columnar = ColumnarStore()
        # -- durability state (all inert when durability is None) -----------
        self._durability = durability
        self._wal: Optional[WriteAheadLog] = None
        #: Change events buffered per active transaction (keyed by ``id``);
        #: flushed as one commit record when the transaction commits,
        #: discarded when it rolls back — redo-only logging.  (Each entry is
        #: appended and flushed by the one thread driving that transaction.)
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
        #: ``True`` once :meth:`fence` ran (a follower was promoted over
        #: this engine): every write — basic interface, DDL, transactions —
        #: is refused from then on.
        self._fenced = False  # guarded-by: PrimaEngine._write_lock
        if durability is not None:
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

    def create_atom_type(self, name: str, description) -> AtomStore:
        """Create an atom type (backed by an :class:`AtomStore`)."""
        self._require_unfenced()
        if name in self._atom_stores or name in self._link_stores:
            raise StorageError(f"type name {name!r} already in use")
        store = AtomStore(name, description)
        self._atom_stores[name] = store
        self._invalidate()
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "atom_type",
                    "name": name,
                    "attributes": describe_attributes(store.description),
                }
            )
        return store

    def create_link_type(
        self,
        name: str,
        first_type: str,
        second_type: str,
        cardinality: Cardinality = Cardinality.MANY_TO_MANY,
    ) -> LinkStore:
        """Create a link type (backed by a :class:`LinkStore`)."""
        self._require_unfenced()
        if name in self._atom_stores or name in self._link_stores:
            raise StorageError(f"type name {name!r} already in use")
        for type_name in (first_type, second_type):
            if type_name not in self._atom_stores:
                raise UnknownNameError(f"unknown atom type {type_name!r}")
        store = LinkStore(name, first_type, second_type)
        self._link_stores[name] = store
        self._cardinalities[name] = cardinality
        self._invalidate()
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "link_type",
                    "name": name,
                    "first": first_type,
                    "second": second_type,
                    "cardinality": cardinality.value,
                }
            )
        return store

    def create_index(self, atom_type_name: str, attribute: str) -> None:
        """Create a secondary index on ``atom_type_name.attribute``."""
        self._require_unfenced()
        self._atom_store(atom_type_name).create_index(attribute)
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
        self._atom_store(atom_type_name)  # existence check
        link_store = self._link_stores.get(link_type_name)
        if link_store is None:
            raise UnknownNameError(f"unknown link type {link_type_name!r}")
        if atom_type_name not in (link_store.first_type, link_store.second_type):
            raise StorageError(
                f"link type {link_type_name!r} does not connect atom type "
                f"{atom_type_name!r}"
            )
        self._structure_indexes.register(atom_type_name, link_type_name, direction)
        if self._wal is not None:
            self._wal.append_ddl(
                {
                    "op": "structure_index",
                    "type": atom_type_name,
                    "link": link_type_name,
                    "direction": direction,
                }
            )

    def set_columnar(self, enabled: bool) -> None:
        """Switch the columnar aggregation path on or off.

        Disabled, every aggregate runs on the row operators (hash/sorted-group
        over the molecule scan) — the benchmark baseline and an escape hatch;
        the projections and their counters are kept, not dropped.
        """
        self._columnar.enabled = bool(enabled)

    # --------------------------------------------- atom-oriented interface

    def store_atom(self, atom_type_name: str, identifier: Optional[str] = None, **values) -> Atom:
        """Insert (or replace) an atom — basic-component write operation.

        Basic-interface writes serialize on the engine's write lock so the
        store mutation, the snapshot mirror and the WAL record form one
        atomic operation even when several threads auto-commit concurrently.
        """
        with self._write_lock:
            self._require_unfenced()
            store = self._atom_store(atom_type_name)
            with self._event_lock:
                # Store mutations share the event lock with the transactional
                # mirror path (_mirror_to_stores), so multi-step store
                # updates (dict + hash indexes) never interleave.
                atom = store.store(values, identifier=identifier)
            snapshot = self._maintainable()
            if snapshot is not None:
                with self._mirror():
                    atom_type = snapshot.atyp(atom_type_name)
                    if atom_type.get(atom.identifier) is None:
                        atom_type.add(atom)
                    else:
                        atom_type.replace(atom)
            else:
                self._after_write()
                self._wal_direct(
                    [
                        encode_event(
                            ChangeEvent(
                                ATOM_INSERTED,
                                atom_type_name,
                                atom=atom,
                                generation=self.generation,
                            )
                        )
                    ]
                )
            return atom

    def get_atom(self, atom_type_name: str, identifier: str) -> Optional[Atom]:
        """Point lookup — basic-component read operation."""
        return self._atom_store(atom_type_name).get(identifier)

    def lookup(self, atom_type_name: str, attribute: str, value: object) -> Tuple[Atom, ...]:
        """Value lookup (indexed when possible) — basic-component read operation."""
        return self._atom_store(atom_type_name).lookup(attribute, value)

    def scan(self, atom_type_name: str) -> Tuple[Atom, ...]:
        """Full scan of one atom type."""
        return self._atom_store(atom_type_name).scan()

    def connect(self, link_type_name: str, first: "Atom | str", second: "Atom | str") -> Link:
        """Insert a link — basic-component write operation.

        Cardinality restrictions live on the snapshot's link types, not the
        stores; when the mirror rejects the link the store write is undone
        before re-raising, so store and snapshot can never diverge.
        """
        with self._write_lock:
            self._require_unfenced()
            store = self._link_store(link_type_name)
            first_id = first.identifier if isinstance(first, Atom) else first
            second_id = second.identifier if isinstance(second, Atom) else second
            probe = Link(link_type_name, first_id, second_id, store.first_type, store.second_type)
            existed = probe in store
            with self._event_lock:
                link = store.store(first_id, second_id)
            snapshot = self._maintainable()
            if snapshot is not None:
                try:
                    with self._mirror():
                        snapshot.ltyp(link_type_name).connect(first_id, second_id)
                except Exception:
                    if not existed:
                        with self._event_lock:
                            store.delete(link)
                    raise
            else:
                self._after_write()
                self._wal_direct(
                    [
                        encode_event(
                            ChangeEvent(
                                LINK_CONNECTED,
                                link_type_name,
                                link=link,
                                generation=self.generation,
                            )
                        )
                    ]
                )
            return link

    def neighbours(self, link_type_name: str, identifier: str) -> Tuple[str, ...]:
        """Adjacent atom identifiers through one link type."""
        return tuple(self._link_store(link_type_name).neighbours(identifier))

    def delete_atom(self, atom_type_name: str, identifier: str) -> int:
        """Delete an atom and all its incident links; returns the links removed."""
        with self._write_lock:
            self._require_unfenced()
            return self._delete_atom_locked(atom_type_name, identifier)

    def _delete_atom_locked(self, atom_type_name: str, identifier: str) -> int:
        snapshot = self._maintainable()
        removed_links: List[Tuple[str, Link]] = []
        if self._wal is not None and snapshot is None:
            # The incident links must be captured before the stores drop them;
            # in the maintainable path the snapshot mirror emits one event per
            # removal instead.
            for link_store in self._link_stores.values():
                if atom_type_name in (link_store.first_type, link_store.second_type):
                    removed_links.extend(
                        (link_store.link_type_name, link)
                        for link in link_store.links_of(identifier)
                    )
        with self._event_lock:
            removed_atom = self._atom_store(atom_type_name).delete(identifier)
            removed = 0
            for store in self._link_stores.values():
                if atom_type_name in (store.first_type, store.second_type):
                    removed += store.delete_atom(identifier)
        if snapshot is not None:
            with self._mirror():
                for link_type in snapshot.link_types_of(atom_type_name):
                    link_type.remove_atom(identifier)
                atom_type = snapshot.atyp(atom_type_name)
                if atom_type.get(identifier) is not None:
                    atom_type.remove(identifier)
        else:
            self._after_write()
            records = [
                encode_event(
                    ChangeEvent(
                        LINK_DISCONNECTED,
                        link_type_name,
                        link=link,
                        generation=self.generation,
                    )
                )
                for link_type_name, link in removed_links
            ]
            records.append(
                encode_event(
                    ChangeEvent(
                        ATOM_DELETED,
                        atom_type_name,
                        atom=removed_atom,
                        generation=self.generation,
                    )
                )
            )
            self._wal_direct(records)
        return removed

    # --------------------------------------------- molecule-processing layer

    def to_database(self) -> Database:
        """Export a :class:`Database` snapshot of the current engine contents.

        The snapshot is cached; in incremental mode it is maintained in place
        across writes (the engine subscribes to its change events), so
        repeated molecule queries over a mutating engine never re-export.
        Mutations applied directly to the snapshot — e.g. by MQL DML write
        plans or the manipulation API — are mirrored back into the stores.
        """
        with self._cache_lock:
            return self._to_database_locked()

    def _to_database_locked(self) -> Database:
        self._check_dirty()
        if self._snapshot is not None:
            return self._snapshot
        db = Database(self.name)
        for store in self._atom_stores.values():
            atom_type = AtomType(store.atom_type_name, store.description)
            for atom in store:
                atom_type.add(atom)
            db.add_atom_type(atom_type)
        for store in self._link_stores.values():
            link_type = LinkType(
                store.link_type_name,
                store.first_type,
                store.second_type,
                cardinality=self._cardinalities.get(store.link_type_name, Cardinality.MANY_TO_MANY),
            )
            for link in store:
                first, second = link.given_order
                link_type.add(Link(store.link_type_name, first, second, store.first_type, store.second_type))
            db.add_link_type(link_type)
        db.subscribe(self._listener_for(db))
        # The snapshot carries the MVCC state: its version clock continues
        # the engine's write generation, so event stamps and the engine's
        # counter stay in lock-step.
        state = db.enable_versioning(start_generation=self.generation)
        # A fence outlives cache invalidation: rebuilt snapshots carry it so
        # transactions on them keep refusing after the caches turn over.
        state.fenced = self._fenced
        if self._durability is not None:
            # The WAL flushes a transaction's buffered events when it commits
            # (and discards them when it rolls back); the hook fires inside
            # Transaction.commit, right after the MVCC commit-log append.
            state.transaction_hooks.append(self._wal_transaction_finished)
        self._snapshot = db
        self._stats["snapshot_builds"] += 1
        return db

    def define_molecule_type(
        self,
        name: str,
        atom_type_names: "Sequence[str] | MoleculeTypeDescription",
        directed_links: Sequence = (),
    ) -> MoleculeType:
        """Molecule-type definition (α) over the engine's current contents."""
        return molecule_type_definition(self.to_database(), name, atom_type_names, directed_links)

    def query(self, statement: str, optimize: bool = True) -> "QueryResult":
        """Execute an MQL statement over the engine's current contents.

        Statements run through the planner → streaming-executor pipeline by
        default; ``optimize=False`` executes the literal α→Σ→Π translation
        through the materializing molecule algebra instead.  DML statements
        (INSERT / DELETE / MODIFY) execute atomically against the snapshot;
        every change is mirrored into the stores and folded into the cached
        access structures.  ``BEGIN WORK`` / ``COMMIT WORK`` / ``ROLLBACK
        WORK`` scope the engine's interpreter session as one transaction with
        repeatable reads and first-committer-wins conflict detection; for
        pinned read-only views see :meth:`snapshot_at`.
        """
        return self.interpreter().execute(statement, optimize=optimize)

    def plan(self, statement: str) -> "PlanChoice":
        """Return the planner's costed plan choice for *statement*.

        Mirrors :meth:`MQLInterpreter.plan`; for a rendered report execute an
        ``EXPLAIN`` statement through :meth:`query` instead.
        """
        return self.interpreter().plan(statement)

    def interpreter(self) -> "MQLInterpreter":
        """The cached MQL interpreter bound to the engine's access structures.

        The interpreter's executor answers pushed-down equality filters
        through hash indexes built (on demand, then cached) from the same
        snapshot it queries, and traverses the cached atom network during the
        hierarchical join.  In incremental mode writes are folded into those
        structures in place; in rebuild mode any write discards them and this
        method rebuilds everything on its next call.
        """
        with self._cache_lock:
            self._check_dirty()
            if self._interpreter is None:
                from repro.engine.executor import Executor, IndexPool
                from repro.mql.interpreter import MQLInterpreter

                database = self.to_database()
                self._index_pool = IndexPool(database)
                self._index_pool.generation = self.generation
                self._structure_indexes.stamp(self.generation)
                self._columnar.stamp(self.generation)
                executor = Executor(
                    database,
                    indexes=self._index_pool,
                    network=self.network(),
                    structure=self._structure_indexes,
                    columnar=self._columnar,
                )
                from repro.optimizer.planner import Planner

                planner = Planner(database, executor=executor)
                # EXPLAIN reports whether the costed plan is worth shipping
                # to the process pool; the advisor reads the live pool state
                # (None while no pool exists — dispatch stays unreported).
                planner.dispatch_advisor = self._dispatch_state
                self._interpreter = MQLInterpreter(
                    database,
                    executor=executor,
                    planner=planner,
                    checkpoint=self.checkpoint if self._durability is not None else None,
                )
                self._stats["interpreter_builds"] += 1
            return self._interpreter

    def network(self) -> AtomNetwork:
        """Return the (cached, incrementally maintained) atom-network view."""
        with self._cache_lock:
            self._check_dirty()
            if self._network is None:
                self._network = AtomNetwork(self.to_database())
                self._network.generation = self.generation
                self._stats["network_builds"] += 1
            return self._network

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
        Readers run lock-free over the immutable version chains; only the
        plan step serializes briefly on the interpreter's planner lock.

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
        ``mode="serial"`` is the explicit one-thread baseline.
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
        if mode == "serial":
            threads = 1
        elif mode != "thread":
            raise StorageError(
                f"unknown parallel_query mode {mode!r}; use 'thread', "
                "'process', 'replica' or 'serial'"
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

    def _dispatch_state(self) -> "Optional[Dict[str, int]]":
        """Live pool + replica telemetry for the planner's dispatch costing.

        Merges the process pool's ``{"workers", "backlog"}`` with the
        replication hub's ``{"replicas", "replica_lag"}``; ``None`` while
        neither exists (dispatch stays unreported in EXPLAIN).
        """
        pool = self._procpool
        hub = self._replication
        if pool is None and hub is None:
            return None
        state: Dict[str, int] = {}
        if pool is not None:
            state.update(pool.dispatch_state())
        if hub is not None:
            state.update(hub.dispatch_state())
        return state

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
        with self._write_lock:
            snapshot = self._snapshot
            state = snapshot.versioning if snapshot is not None else None
            if state is not None:
                with state.lock:
                    self._fenced = True
                    state.fenced = True
            else:
                # No snapshot exists; _to_database_locked propagates the
                # flag into the next one it builds.
                self._fenced = True

    @property
    def fenced(self) -> bool:
        """``True`` once a follower promotion fenced this engine."""
        return self._fenced

    def _require_unfenced(self) -> None:
        if self._fenced:
            raise StorageError(
                "engine is fenced (a follower was promoted); writes must go "
                "to the promoted engine"
            )

    def collect_versions(self) -> Dict[str, object]:
        """Run version-chain garbage collection; returns the GC statistics."""
        if self._snapshot is None:
            return dict(NO_VERSION_STATISTICS)
        return self._snapshot.collect_versions()

    # ---------------------------------------------------- durability and WAL

    @classmethod
    def open(
        cls,
        directory,
        name: str = "prima",
        maintenance: str = INCREMENTAL,
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
            maintenance=maintenance,
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
        while any transaction is active: the stores then carry uncommitted
        mirror state that must not enter an image.  Holds the engine's write
        lock so no basic-interface write can interleave with the image.
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
        from contextlib import nullcontext

        from repro.storage.recovery import write_checkpoint  # deferred: cycle hygiene

        state = self._snapshot.versioning if self._snapshot is not None else None
        # The quiescence check, the image and the truncate form one critical
        # section of the versioning engine lock (when one exists): a
        # transaction beginning (or any mutation ticking) after the check
        # would otherwise mirror uncommitted state into the stores
        # mid-image.  Checkpoints are rare and explicitly quiescent;
        # stalling pins/commits for the image write is the intended trade.
        with state.lock if state is not None else nullcontext():
            if (state is not None and state.active_transactions) or self._wal_tx_pending:
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
            "atoms": sum(len(store) for store in self._atom_stores.values()),
            "links": sum(len(store) for store in self._link_stores.values()),
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

    def _wal_direct(self, records: "List[Dict[str, object]]") -> None:
        """Log one auto-committed basic-interface write (no transaction)."""
        if self._wal is not None and records:
            self._wal.commit_events(records)

    def _wal_capture(self, event: ChangeEvent, source: Database) -> None:
        """Route one change event into the WAL's buffers.

        Events produced inside a transaction's tracked block are buffered
        under that transaction (flushed at commit, dropped at rollback);
        events of a basic-interface store write collect in the mirror buffer
        (one record per operation); everything else — a direct snapshot
        mutation outside any transaction — auto-commits immediately.

        Both the writer attribution (``current_writer``) and the mirror
        buffer are thread-local, so concurrent writers on other threads can
        never interleave their events into this thread's records.
        """
        state = source.versioning
        writer = state.current_writer if state is not None else None
        record = encode_event(event)
        if writer is not None:
            self._wal_tx_pending.setdefault(id(writer), []).append(record)
        elif self._mirroring:
            self._direct_buffer().append(record)
        else:
            self._wal.commit_events([record])

    def _wal_transaction_finished(self, txn: object, committed: bool) -> None:
        """Transaction hook: flush the writer's buffered events on commit.

        Fired by :meth:`repro.manipulation.transactions.Transaction.commit`
        immediately after the MVCC commit-log append (and by ``rollback`` /
        conflict aborts with ``committed=False``, which discards the buffer —
        the log only ever carries committed transactions).
        """
        events = self._wal_tx_pending.get(id(txn))
        if committed and events and self._wal is not None:
            # May raise (closed log, full disk): the buffer is kept so a
            # retried commit logs the transaction's events after all — the
            # pop below is only reached once the record is safely appended.
            self._wal.commit_events(events)
        self._wal_tx_pending.pop(id(txn), None)

    # -------------------------------------------------- cache maintenance

    def _maintainable(self) -> Optional[Database]:
        """The live snapshot a write can be folded into, or ``None``.

        Returns the snapshot *object* (not a boolean) so callers hold a
        stable reference: a concurrent cache teardown may null
        ``self._snapshot`` mid-write, and re-reading the attribute would
        crash.  Writing into a just-discarded snapshot is safe — its
        listener path degrades to the stale-handle invalidate-on-next-read
        behaviour.
        """
        if self.maintenance == INCREMENTAL and not self._dirty:
            return self._snapshot
        return None

    @property
    def _mirroring(self) -> bool:
        """``True`` while *this thread* is inside a :meth:`_mirror` block."""
        return getattr(self._tls, "mirroring", False)

    def _direct_buffer(self) -> "List[Dict[str, object]]":
        """This thread's buffer of one in-flight basic-interface write."""
        buffer = getattr(self._tls, "direct_buffer", None)
        if buffer is None:
            buffer = []
            self._tls.direct_buffer = buffer
        return buffer

    @contextmanager
    def _mirror(self):
        """Mark snapshot mutations that originated from a store write.

        Inside the guard, :meth:`_on_change` skips the store mirror (the
        store was already written) but still maintains the derived caches.
        The events of the guarded block form one basic-interface operation;
        on success they are flushed to the WAL as a single commit record, on
        failure (the store write was undone) they are discarded.  The guard
        flag and buffer are thread-local: mirror blocks on other threads
        neither see this block's events nor flush them.
        """
        self._tls.mirroring = True
        try:
            yield
        except BaseException:
            self._direct_buffer().clear()
            raise
        finally:
            self._tls.mirroring = False
        buffer = self._direct_buffer()
        if buffer:
            records = list(buffer)
            buffer.clear()
            self._wal_direct(records)

    def _listener_for(self, snapshot: Database) -> Listener:
        """A change listener that remembers which snapshot it watches.

        Snapshots are never unsubscribed: a write through a *stale* handle
        (one the engine has since discarded) must still reach the stores —
        it just degrades to invalidate-on-next-read instead of incremental
        maintenance, because the current caches never saw it.
        """

        def listener(event: ChangeEvent, _source: Database = snapshot) -> None:
            self._on_change(event, _source)

        return listener

    def _on_change(self, event: ChangeEvent, source: Database) -> None:
        """Fold one snapshot change event into stores and cached structures.

        Serialized on the engine's event lock: concurrent writer threads
        emit events one at a time (each already holds its type's head lock),
        and the store mirror plus every incremental cache apply exactly one
        delta at a time.  The event lock acquires only the true leaves (the
        interpreter's plan lock, the WAL lock), so holding a head lock here
        can never deadlock.
        """
        with self._event_lock:
            # The snapshot's version clock stamps every event; the engine
            # counter follows it (max() also absorbs stale-handle writes
            # whose discarded snapshot still ticks its own, older clock).
            self.generation = max(self.generation + 1, event.generation or 0)
            self._stats["events_applied"] += 1
            if self._wal is not None:
                self._wal_capture(event, source)
            if not self._mirroring:
                self._mirror_to_stores(event)
            if source is not self._snapshot:
                # Stale-handle write: the stores are up to date, the caches
                # never saw it — defer the teardown to the next read.
                self._dirty = True
                return
            if self.maintenance == REBUILD and not self._session_active():
                # The invalidate-everything baseline — but never while a
                # BEGIN WORK session holds the interpreter: tearing it down
                # would destroy the active transaction and orphan its
                # writes.  For the session's duration the caches are
                # maintained incrementally (the branch below); the first
                # write after it ends restores the rebuild behaviour.
                self._dirty = True
                return
            if self._network is not None:
                self._network.apply_event(event)
                self._network.generation = self.generation
            if self._index_pool is not None:
                self._index_pool.apply_event(event, generation=self.generation)
            self._structure_indexes.apply_event(event, generation=self.generation)
            self._columnar.apply_event(event, generation=self.generation)
            if self._interpreter is not None:
                self._interpreter.apply_event(event)

    def _mirror_to_stores(self, event: ChangeEvent) -> None:
        """Replay a snapshot-originated mutation on the backing stores."""
        if event.kind in (ATOM_INSERTED, ATOM_MODIFIED):
            store = self._atom_stores.get(event.type_name)
            if store is not None:
                store.store(event.atom)
        elif event.kind == ATOM_DELETED:
            store = self._atom_stores.get(event.type_name)
            if store is not None and event.atom.identifier in store:
                store.delete(event.atom.identifier)
        elif event.kind == LINK_CONNECTED:
            store = self._link_stores.get(event.type_name)
            if store is not None:
                first, second = event.link.given_order
                store.store(first, second)
        elif event.kind == LINK_DISCONNECTED:
            store = self._link_stores.get(event.type_name)
            if store is not None:
                store.delete(event.link)

    def _session_active(self) -> bool:
        """``True`` while the cached interpreter runs a ``BEGIN WORK`` session."""
        return self._interpreter is not None and getattr(
            self._interpreter, "in_transaction", False
        )

    def _after_write(self) -> None:
        """Account a store write that has no live snapshot to maintain.

        The generation bump shares the event lock with :meth:`_on_change` —
        the counter has exactly one guard, so ticks can never be lost
        between a direct store write and a concurrent snapshot mutation.
        """
        with self._event_lock:
            self.generation += 1
            if self.maintenance == REBUILD:
                self._dirty = True

    def _check_dirty(self) -> None:
        """Tear down invalidated caches before serving a read."""
        if self._dirty:
            self._invalidate()
            self._dirty = False

    def _invalidate(self) -> None:
        """Discard every cached access structure (DDL and rebuild mode).

        The discarded snapshot deliberately stays subscribed: writes through
        a stale handle keep reaching the stores (see :meth:`_listener_for`).
        """
        self._snapshot = None
        self._network = None
        self._interpreter = None
        self._index_pool = None
        # Registrations and counters survive; only the encodings go stale
        # (the next head use rebuilds them from the fresh snapshot).
        self._structure_indexes.mark_all_stale()
        self._columnar.mark_all_stale()
        self._stats["invalidations"] += 1

    def maintenance_statistics(self) -> Dict[str, int]:
        """Build/rebuild counters plus the current write generation.

        ``snapshot_builds`` / ``network_builds`` / ``interpreter_builds``
        count full (re)constructions — in incremental steady state they stay
        at 1 while ``events_applied`` grows; ``index_generation`` equals
        ``generation`` whenever the executor's index pool is coherent.
        """
        report = dict(self._stats)
        report["generation"] = self.generation
        report["network_rebuilds"] = self._network.rebuilds if self._network is not None else 0
        report["index_builds"] = self._index_pool.builds if self._index_pool is not None else 0
        report["index_generation"] = (
            self._index_pool.generation if self._index_pool is not None else 0
        )
        report.update(self._structure_indexes.statistics())
        report.update(self._columnar.statistics())
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
        * ``network_generation`` — the write generation the cached atom
          network was last maintained at;
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
        report["network_generation"] = (
            self._network.generation if self._network is not None else 0
        )
        if self._snapshot is not None and self._snapshot.versioning is not None:
            report.update(self._snapshot.version_statistics())
        else:
            report.update(NO_VERSION_STATISTICS)
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
        report["fenced"] = self._fenced
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
        maintenance: str = INCREMENTAL,
        durability: Optional[DurabilityConfig] = None,
    ) -> "PrimaEngine":
        """Bulk-load an engine from an existing database.

        With *durability* (expects a fresh directory) the bulk load bypasses
        the log and is persisted as the first checkpoint instead — the cheap
        way to make a dataset durable.
        """
        engine = cls(name or database.name, maintenance=maintenance, durability=durability)
        for atom_type in database.atom_types:
            store = engine.create_atom_type(atom_type.name, atom_type.description)
            for atom in atom_type:
                store.store(atom)
        for link_type in database.link_types:
            store = engine.create_link_type(
                link_type.name, *link_type.atom_type_names, cardinality=link_type.cardinality
            )
            for link in link_type:
                first, second = link.given_order
                store.store(first, second)
        engine._invalidate()
        if durability is not None:
            engine.checkpoint()
        return engine

    # ------------------------------------------------------------ statistics

    def statistics(self) -> Dict[str, Dict[str, int]]:
        """Read/write counters per store (used by the storage tests and benches)."""
        return {
            "atoms": {name: len(store) for name, store in self._atom_stores.items()},
            "links": {name: len(store) for name, store in self._link_stores.items()},
            "reads": {
                name: store.reads
                for name, store in {**self._atom_stores, **self._link_stores}.items()
            },
            "writes": {
                name: store.writes
                for name, store in {**self._atom_stores, **self._link_stores}.items()
            },
        }

    # ---------------------------------------------------------------- helpers

    def _atom_store(self, name: str) -> AtomStore:
        try:
            return self._atom_stores[name]
        except KeyError as exc:
            raise UnknownNameError(f"unknown atom type {name!r}") from exc

    def _link_store(self, name: str) -> LinkStore:
        try:
            return self._link_stores[name]
        except KeyError as exc:
            raise UnknownNameError(f"unknown link type {name!r}") from exc

    def __repr__(self) -> str:
        return (
            f"PrimaEngine({self.name!r}, atom_types={len(self._atom_stores)}, "
            f"link_types={len(self._link_stores)}, maintenance={self.maintenance!r})"
        )


class SnapshotHandle:
    """A pinned, repeatable-read view over a :class:`PrimaEngine` snapshot.

    Obtained from :meth:`PrimaEngine.snapshot_at`; usable as a context
    manager.  The handle captures the engine's interpreter and snapshot
    database at pin time, so its reads stay generation-stable even across
    engine cache invalidations.  :meth:`release` drops the pin and triggers
    version-chain garbage collection.

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
        rejected — writes go through ``engine.query`` (or a ``BEGIN WORK``
        session) and remain invisible to this handle.
        """
        if self._released:
            raise StorageError("snapshot handle has been released")
        from repro.mql.ast_nodes import (
            CheckpointStatement,
            DMLStatement,
            TransactionStatement,
        )
        from repro.mql.parser import parse  # deferred: package cycle

        ast = parse(statement) if isinstance(statement, str) else statement
        inner = getattr(ast, "statement", ast)  # unwrap EXPLAIN
        if isinstance(
            inner, (TransactionStatement, CheckpointStatement, *DMLStatement.__args__)
        ):
            raise StorageError(
                "snapshot handles are read-only; run DML through the engine"
            )
        return self._interpreter.execute(ast, at=self._snapshot)

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
