"""The PRIMA-like two-layer engine: atom-oriented interface + molecule processing.

The engine mirrors the architecture the paper reports for the PRIMA prototype:

* the **basic component** (``store_atom``, ``get_atom``, ``connect``,
  ``neighbours``, ``lookup``) provides an atom-oriented interface whose
  functionality corresponds to the atom-type algebra;
* the **molecule component** (:meth:`PrimaEngine.define_molecule_type`,
  :meth:`PrimaEngine.query`) performs molecule processing and exposes an MQL
  interface: statements — DML included — are translated to logical plans,
  optimized by the rule-driven planner and run on the streaming executor.

**One state.**  The two components are two *interfaces* over one occurrence
of atoms and links: the versioned :class:`~repro.core.database.Database` the
engine creates at construction, which :meth:`PrimaEngine.to_database`
returns for the engine's life.  Its version clock, pins and commit log are
the engine's MVCC state.  The engine folds each of its change events into
the derived access paths — the accelerator store and the planner
statistics — and advances :attr:`PrimaEngine.generation`; DDL drops only
the interpreter.  A link type's occurrence already is the incidence
(Definition 2), so traversal needs no derived structure.

Two jobs have owners of their own, each an optional reference of the
engine: durability — log, checkpoints, recovery — is
:class:`~repro.storage.recovery.Durability`, and read fan-out — commit feed,
process pool, replication hub — is :class:`~repro.engine.router.Replicas`.
"""

from __future__ import annotations

import collections

from repro.analysis.runtime import make_lock, make_rlock
from repro.analysis.runtime import checker_report as runtime_lock_report
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.atom import Atom, AtomType
from repro.core.database import Database
from repro.core.events import ChangeEvent
from repro.core.link import Cardinality, Link, LinkType
from repro.core.molecule import MoleculeType, MoleculeTypeDescription
from repro.core.molecule_algebra import molecule_type_definition
from repro.core.versions import Snapshot
from repro.exceptions import StorageError
from repro.manipulation.transactions import Transaction
from repro.storage.recovery import REPORT_KEYS as DURABILITY_KEYS
from repro.storage.recovery import Durability, RecoveryResult
from repro.storage.accelerators import AcceleratorStore
from repro.storage.wal import DurabilityConfig, WriteAheadLog

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.engine.router import Replicas
    from repro.mql.interpreter import MQLInterpreter, QueryResult
    from repro.optimizer.planner import PlanChoice


class PrimaEngine:
    """A two-layer storage engine for MAD databases.

    Every write — basic interface, MQL DML, the manipulation API on
    :meth:`to_database` — lands in the engine's one database and is folded
    into the accelerator store (equality indexes, structure indexes,
    columnar projections) and the planner statistics in place.

    *durability* (a :class:`~repro.storage.wal.DurabilityConfig`) makes the
    engine persistent: construction recovers the directory, and every DDL
    statement and committed transaction is logged from then on (see
    :class:`~repro.storage.recovery.Durability`).
    """

    def __init__(self, name: str = "prima", durability: Optional[DurabilityConfig] = None) -> None:
        self.name = name
        #: The engine's one copy of the state.  Its versioning state carries
        #: the MVCC clock, the pins, the commit log and the fence flag.
        self._database = Database(name)
        self._database.subscribe(self._on_change)
        self._database.enable_versioning()
        self._interpreter: Optional["MQLInterpreter"] = None
        #: Serializes basic-interface writes (store_atom/connect/delete_atom,
        #: each one auto-commit transaction), DDL, fence and checkpoints.
        self._write_lock = make_rlock("PrimaEngine._write_lock")
        #: Guards lazy construction/teardown of the interpreter and of the
        #: read fan-out (the replica owner and its process pool).
        self._cache_lock = make_rlock("PrimaEngine._cache_lock")
        #: The event path's lock: generation counter, stats and incremental
        #: cache maintenance fold one event at a time.  Acquired *inside* the
        #: per-type head locks; only ever acquires the true leaves above it —
        #: the interpreter's plan lock and the accelerator store's lock (see
        #: DESIGN.md "Threading model").  Readers never take it.
        self._event_lock = make_rlock("PrimaEngine._event_lock")
        #: Monotonic write generation — the newest change event folded into
        #: the derived structures, which are stamped with the generation they
        #: are coherent with.  Follows the database's version clock.
        self.generation = 0
        #: The database is created once, with the engine; the ``plan_cache_``
        #: counters are those of the interpreters DDL dropped.
        self._stats: Dict[str, int] = dict(
            snapshot_builds=1, interpreter_builds=0, invalidations=0, events_applied=0,
            plan_cache_hits=0, plan_cache_misses=0, plan_cache_invalidations=0,
        )
        #: Basic-interface reads and occurrence writes per type name.
        self._reads: Dict[str, int] = collections.Counter()
        self._writes: Dict[str, int] = collections.Counter()
        #: Every derived access path — equality, structure and columnar.
        #: Created before recovery runs, which may replay ``index`` and
        #: ``structure_index`` DDL records into it.
        self._accelerators = AcceleratorStore()
        #: Read fan-out, made on the first replica request (:meth:`_fan_out`).
        self._replicas: Optional["Replicas"] = None  # guarded-by: PrimaEngine._cache_lock
        #: Log, checkpoints and recovery; ``None`` for an in-memory engine.
        #: Building it recovers the directory into this engine.
        self._durable: Optional[Durability] = None
        if durability is not None:
            self._durable = Durability(self, durability)

    # ------------------------------------------------------------------ DDL

    def create_atom_type(self, name: str, description) -> AtomType:
        """Create an atom type; returns the database's :class:`AtomType`."""
        atom_type = self._add_type(AtomType(name, description))
        self._log_ddl("atom_type", atom_type)
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
        link_type = self._add_type(LinkType(name, first_type, second_type, cardinality=cardinality))
        self._log_ddl("link_type", link_type)
        return link_type

    def _add_type(self, new_type: "AtomType | LinkType") -> "AtomType | LinkType":
        """Register an atom or link type, then drop the derived caches.

        The type is empty for DDL and already filled for a bulk load
        (:meth:`from_database`, a checkpoint image): the occurrence was
        validated once when the type was built and enters without a
        per-atom change event, before any derived structure exists.  A bulk
        load is not logged: a checkpoint persists it.  Refused while any
        transaction is active (as :meth:`checkpoint` is): dropping the
        interpreter would orphan a ``BEGIN WORK`` session it owns.  The
        check and the registration share one critical section of the
        versioning lock, so no transaction can begin in between.
        """
        name = new_type.name
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
                if isinstance(new_type, AtomType):
                    self._database.add_atom_type(new_type)
                else:
                    self._database.add_link_type(new_type)
            self._invalidate()
        return new_type

    def _log_ddl(self, op: str, *subject) -> None:
        """Log one DDL statement on a durable engine
        (:meth:`~repro.storage.recovery.Durability.log_ddl`)."""
        if self._durable is not None:
            self._durable.log_ddl(op, *subject)

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
        self._log_ddl("index", atom_type_name, attribute)

    def create_structure_index(
        self, atom_type_name: str, link_type_name: str, direction: str = "down"
    ) -> None:
        """Register an interval-encoded structure index over a recursive closure.

        Recursive queries over ``atom_type_name`` via ``link_type_name`` in
        *direction* (``"down"``: the link's first→second orientation) are
        then answered by interval range scans (a compact-adjacency sweep on
        non-tree networks) instead of the hop-by-hop fixpoint loop; the
        encoding is built on first use and maintained off the event stream.
        """
        self._require_unfenced()
        self._database.atyp(atom_type_name)  # existence check
        if atom_type_name not in self._database.ltyp(link_type_name).atom_type_names:
            raise StorageError(
                f"link type {link_type_name!r} does not connect atom type "
                f"{atom_type_name!r}"
            )
        self._accelerators.register(atom_type_name, link_type_name, direction)
        self._log_ddl("structure_index", atom_type_name, link_type_name, direction)

    # --------------------------------------------- atom-oriented interface

    def store_atom(self, atom_type_name: str, identifier: Optional[str] = None, **values) -> Atom:
        """Insert (or replace whole) an atom — basic-component write operation."""
        with self._transaction() as txn:
            atom_type = self._database.atyp(atom_type_name)
            if identifier is None or atom_type.get(identifier) is None:
                return txn.insert_atom_values(atom_type_name, values, identifier=identifier)
            return txn.replace_atom_values(atom_type_name, identifier, values)

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
        with self._transaction() as txn:
            return txn.connect(link_type_name, first, second)

    def neighbours(self, link_type_name: str, identifier: str) -> Tuple[str, ...]:
        """Adjacent atom identifiers through one link type."""
        link_type = self._database.ltyp(link_type_name)
        self._reads[link_type_name] += 1
        return tuple(link_type.partners_of(identifier))

    def delete_atom(self, atom_type_name: str, identifier: str) -> int:
        """Delete an atom and all its incident links; returns the links removed."""
        with self._transaction() as txn:
            if self._database.atyp(atom_type_name).get(identifier) is None:
                raise StorageError(f"no atom {identifier!r} in atom type {atom_type_name!r}")
            return txn.delete_atom(atom_type_name, identifier)

    @contextmanager
    def _transaction(self) -> "Iterator[Transaction]":
        """One basic-interface write: an auto-commit :class:`Transaction` —
        one WAL record and one commit tick; it raises
        :class:`~repro.exceptions.TransactionConflictError` against an open
        transaction holding one of its keys.  On the write lock, so basic
        writers never conflict with each other."""
        with self._write_lock:
            self._require_unfenced()
            with Transaction(self._database) as txn:
                yield txn

    # --------------------------------------------- molecule-processing layer

    def to_database(self) -> Database:
        """The engine's :class:`Database` — the same object for its whole life.

        It is the state itself, not an export: mutations applied to it
        directly (MQL DML, the manipulation API) are the engine's writes,
        logged, versioned and folded exactly like basic-interface ones.
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
        """Execute an MQL statement on the engine's :meth:`interpreter`.

        DML executes atomically; ``BEGIN WORK`` / ``COMMIT WORK`` /
        ``ROLLBACK WORK`` scope the interpreter's session as one transaction
        (repeatable reads, first committer wins).  For pinned read-only
        views see :meth:`snapshot_at`.
        """
        return self.interpreter().execute(statement)

    def plan(self, statement: str) -> "PlanChoice":
        """The planner's costed plan choice for *statement* (a rendered
        report: ``EXPLAIN`` through :meth:`query`)."""
        return self.interpreter().plan(statement)

    def interpreter(self) -> "MQLInterpreter":
        """The cached MQL interpreter, its executor bound to the engine's
        accelerator store.  DDL discards it (with its statement cache); the
        next call rebuilds it."""
        with self._cache_lock:
            if self._interpreter is None:
                from repro.engine.executor import Executor
                from repro.mql.interpreter import MQLInterpreter

                database = self._database
                executor = Executor(database, accelerators=self._accelerators)
                self._interpreter = MQLInterpreter(
                    database,
                    executor=executor,
                    checkpoint=self._durable_part("checkpoint"),
                )
                self._stats["interpreter_builds"] += 1
            return self._interpreter

    # --------------------------------------------------- snapshots and MVCC

    def snapshot_at(self, generation: Optional[int] = None) -> "SnapshotHandle":
        """Pin a generation and return a handle for repeatable reads.

        Committed DML is invisible to the handle until it is released, while
        ``engine.query`` sees the head.  Pins are refcounted; releasing the
        last one on a generation lets GC truncate the chains behind it.
        *generation* defaults to the current write generation, resolved
        inside the pin registry's lock (a concurrent writer cannot slip a
        tick between the read and the pin); an older one is refused below
        the retention floor rather than served stale.  Safe from any thread,
        and so are the handle's reads.
        """
        return self._pin(generation)[0]

    def _pin(
        self, generation: Optional[int], position: Callable[[], int] = lambda: 0
    ) -> "Tuple[SnapshotHandle, int]":
        """:meth:`snapshot_at` plus ``position()`` read at the pin — the
        router passes the commit feed's.

        Both are taken inside the versioning engine lock, the critical
        section transactional commits append their WAL record in — a commit
        is either visible at the pin *and* below the cut, or neither.
        """
        database = self.to_database()
        interpreter = self.interpreter()
        state = database.versioning
        with state.lock:
            # Pin and snapshot-build form one critical section: a writer
            # finishing (e.g. rolling back) in between would otherwise leave
            # the exclusion set without its uncommitted generations and leak
            # dirty values into the handle.
            pinned = database.pin(generation)
            snapshot = state.make_snapshot(pinned)
            cut = position()
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

        Pins one snapshot and runs the statements on *threads* threads
        (default ``min(len(statements), 4)``; 1 is a serial loop, the E-PERF7
        baseline) over its handle, which rejects DML.  Results come **in
        statement order**, byte-identical to a serial run at the pin however
        much DML races at the head (DESIGN.md "Versioned access paths").
        Under CPython's GIL the execute phase is time-sliced, so threads buy
        wall-clock only off the GIL (wire I/O, durable reads), which is what
        E-PERF7 measures.

        ``mode="process"`` (*workers* worker processes) and
        ``mode="replica"`` (the followers, within *max_lag* generations)
        route the statements over the durable engine's read replicas
        instead: :meth:`~repro.engine.router.Replicas.route`.
        """
        statements = list(statements)
        if mode not in ("thread", "process", "replica"):
            raise StorageError(
                f"unknown parallel_query mode {mode!r}; use 'thread', "
                "'process' or 'replica'"
            )
        if not statements:
            return []
        if mode != "thread":
            return self._fan_out().route(statements, generation, mode, workers, max_lag)
        if threads is None:
            threads = min(len(statements), 4)
        with self.snapshot_at(generation) as handle:
            if threads <= 1:
                return [handle.query(statement) for statement in statements]
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                return list(pool.map(handle.query, statements))

    # -------------------------------------------------------- read fan-out

    def _fan_out(self) -> "Replicas":
        """The engine's read replicas (made on first use; durable engines
        only — replicas seed from the checkpoint image and the WAL tail)."""
        with self._cache_lock:
            if self._replicas is None:
                from repro.engine.router import Replicas

                self._replicas = Replicas(self, self._durable_part("wal", "a read replica"))
            return self._replicas

    def process_pool(self, workers: Optional[int] = None):
        """The engine's pool of checkpoint-seeded worker processes
        (:mod:`repro.engine.procpool`); *workers* sizes it on first use."""
        return self._fan_out().pool(workers)

    def replication_hub(self):
        """The engine's replication hub (durable engines only): it owns the
        in-process followers and ships them the commit feed (see
        :mod:`repro.storage.replication`)."""
        return self._fan_out().hub

    def create_follower(self, name: Optional[str] = None):
        """Seed a new in-process follower of this engine's commit feed — one
        more replica for ``parallel_query(mode="replica")``."""
        return self.replication_hub().create_follower(name)

    def fence(self) -> None:
        """Refuse every future write — the promotion protocol's first step.

        Takes the write lock (draining in-flight basic-interface writes,
        each one transaction) and the versioning engine lock (draining
        racing committers) before flipping the flag, so after :meth:`fence`
        returns no record can ever reach the WAL again: basic-interface
        writes and DDL raise :class:`StorageError`, new transactions refuse
        to begin, and in-flight transactions abort at their commit point.
        Reads (and :meth:`checkpoint`) keep working.  Idempotent.
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
                "engine is fenced (a follower was promoted); writes must go to the promoted engine"
            )

    def collect_versions(self) -> Dict[str, object]:
        """Run version-chain garbage collection; returns the GC statistics."""
        return self._database.collect_versions()

    # ---------------------------------------------------- durability and WAL

    @classmethod
    def open(
        cls, directory, name: str = "prima", fsync: str = "batch", group_commit: int = 8
    ) -> "PrimaEngine":
        """Open (or create) a durable engine rooted at *directory* — shorthand
        for ``PrimaEngine(durability=DurabilityConfig(…))``: an empty
        directory yields an empty engine whose DDL and commits are logged."""
        config = DurabilityConfig(directory, fsync=fsync, group_commit=group_commit)
        return cls(name, durability=config)

    @property
    def durability(self) -> Optional[DurabilityConfig]:
        """The durability configuration, or ``None`` for in-memory engines."""
        return self._durable_part("config")

    @property
    def wal(self) -> Optional[WriteAheadLog]:
        """The open write-ahead log (``None`` for in-memory engines)."""
        return self._durable_part("wal")

    @property
    def recovery(self) -> Optional[RecoveryResult]:
        """What construction-time recovery replayed (``None`` when in-memory)."""
        return self._durable_part("recovery")

    def checkpoint(self) -> Dict[str, object]:
        """Write a snapshot image and truncate the WAL (quiescent points only;
        see :meth:`~repro.storage.recovery.Durability.checkpoint`)."""
        return self._durable_part("checkpoint", "checkpoint")()

    def _durable_part(self, name: str, needed_by: str = ""):
        """Attribute *name* of the durability owner; ``None`` in memory, where
        a *needed_by* (what needs it) raises :class:`StorageError` instead."""
        if self._durable is None:
            if needed_by:
                raise StorageError(
                    f"{needed_by} requires a durable engine; construct it "
                    "with durability=DurabilityConfig(directory)"
                )
            return None
        return getattr(self._durable, name)

    def _owners(self) -> list:
        """The engine's durability and fan-out owners, in teardown order."""
        return [owner for owner in (self._replicas, self._durable) if owner is not None]

    def close(self) -> None:
        """Close the read fan-out, then the WAL (idempotent).

        The pool's workers stop; the hub's followers survive, detached, at
        their applied generations.  A closed durable engine keeps serving
        reads, but writes fail at the log append — reopen the directory.
        """
        with self._cache_lock:
            owners = self._owners()
            self._replicas = None
        for owner in owners:
            owner.close()

    # -------------------------------------------------- cache maintenance

    def _on_change(self, event: ChangeEvent) -> None:
        """Fold one database change event into the derived structures.

        Serialized on the event lock, so every incremental cache applies one
        delta at a time; it acquires only the true leaves (the plan lock and
        the accelerator store's lock), so the writer's head lock held here
        can never deadlock.
        """
        with self._event_lock:
            # The database's version clock stamps every event; writers on
            # different types may reach this lock out of stamp order.
            self.generation = max(self.generation, event.generation)
            self._stats["events_applied"] += 1
            self._writes[event.type_name] += 1
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

        The database, its pins and the accelerator store stay: a new type
        changes no occurrence they describe.  The dropped interpreter's
        statement-cache counters carry over, its entries as invalidated.
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

        ``interpreter_builds`` stays at 1 while ``events_applied`` grows
        (only DDL adds one); ``snapshot_builds`` is 1 for the engine's life;
        ``index_generation`` (like ``structure_`` and ``columnar_generation``)
        equals ``generation`` while the accelerator store is coherent;
        ``index_builds`` counts each equality index built once.  The
        ``plan_cache_*`` counters span the engine's life (entries DDL drops
        count as invalidated).
        """
        report = dict(self._stats, plan_cache_entries=0)
        interpreter = self._interpreter
        if interpreter is not None:
            for name, count in interpreter.plan_cache_statistics().items():
                report[name] += count
        report["generation"] = self.generation
        # Read by benchmarks/harness/runner.py (storage.network.rebuilds); the
        # engine keeps no network, so it is 0 until the harness drops the key.
        report["network_rebuilds"] = 0
        report.update(self._accelerators.statistics())
        return report

    def maintenance_report(self) -> Dict[str, object]:
        """:meth:`maintenance_statistics` plus MVCC/GC state and the owners'.

        Adds the database's version statistics (``versions_live``,
        ``versions_collected``, ``oldest_pinned_generation``,
        ``pins_active``); the durability owner's ``wal_*``, ``checkpoints``
        and ``recovery_replayed`` (:data:`repro.storage.recovery.REPORT_KEYS`)
        and the fan-out owner's ``procpool_*`` and ``replication_*``
        (:data:`repro.engine.router.REPORT_ZEROS`), 0 without the owner;
        ``fenced``; and ``locks_declared`` / ``lock_assertions`` only while
        the runtime lock checker (``REPRO_DEBUG_LOCKS=1``) is active.
        """
        from repro.engine.router import REPORT_ZEROS

        report: Dict[str, object] = dict(self.maintenance_statistics())
        report.update(self._database.version_statistics())
        # A missing owner reports zeros: every key is always present.
        report.update(dict.fromkeys(DURABILITY_KEYS, 0))
        report.update(REPORT_ZEROS)
        for owner in self._owners():
            report.update(owner.report())
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
        a dataset durable.  Nothing of it is logged, so a checkpoint that
        fails leaves the directory as it was.
        """
        engine = cls(name or database.name, durability=durability)
        for atom_type in database.atom_types:
            engine._add_type(AtomType(atom_type.name, atom_type.description, atom_type))
        for link_type in database.link_types:
            names = link_type.atom_type_names
            engine._add_type(
                LinkType(link_type.name, *names, link_type, cardinality=link_type.cardinality)
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
