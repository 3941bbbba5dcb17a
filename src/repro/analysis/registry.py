"""The lock registry: every lock in ``src/repro``, with its level.

This module is the **source of truth** for the lock hierarchy — DESIGN.md's
lock-order table is generated from it (``python -m repro.analysis
--emit-design-table``) and both the static analyzer
(:mod:`repro.analysis.lockorder`) and the runtime checker
(:mod:`repro.analysis.runtime`) enforce it:

* a lock may only be acquired while every currently-held lock has a
  **strictly lower** level (re-entering the same re-entrant lock is always
  allowed);
* every ``threading.Lock``/``RLock`` construction in the package must go
  through :func:`repro.analysis.runtime.make_lock` / ``make_rlock`` with a
  name declared here — an unregistered construction is an
  ``undeclared-lock`` finding.

Levels are spaced out (4, 6, 8, … 60) so future locks can slot between
existing ones without renumbering the world.  The ordering constraints that
pinned each level are recorded in the ``rationale`` fields; the load-bearing
ones are:

* ``ReplicationHub._lock`` and ``FollowerEngine._lock`` sit **below every
  engine-internal lock**: the hub builds whole follower engines and fences
  the primary (``promote`` → ``fence`` → write lock → versioning lock)
  while holding them.
* ``MQLInterpreter._session_guard`` is held across ``Transaction.begin`` /
  ``commit`` — which take the versioning lock and, on a conflict loser's
  rollback, the per-type head locks — so it must sit below level 20.
* The WAL observer contract (observers fire *inside* the log mutex, after
  the bytes reach the OS) forces the commit feed's lock **above**
  ``WriteAheadLog._lock``.
* ``StructureIndexStore._lock`` / ``ColumnarStore._lock`` are acquired by
  the engine's event path while it holds the event lock, so they sit above
  level 40; their refresh paths read atomic ``.occurrence`` copies and
  never take a head lock underneath.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

KIND_LOCK = "Lock"
KIND_RLOCK = "RLock"


@dataclass(frozen=True)
class LockSpec:
    """One declared lock: identity, level and what it guards."""

    #: Canonical name, ``Owner.attribute`` (how findings and the DESIGN.md
    #: table refer to it, and the literal passed to ``make_lock``).
    name: str
    #: Level in the hierarchy — acquisition order is strictly ascending.
    level: int
    #: ``"Lock"`` or ``"RLock"`` (re-entry of the same instance is only
    #: legal for the latter).
    kind: str
    #: Dotted module the lock is constructed in.
    module: str
    #: What the lock guards (one table cell of prose).
    guards: str
    #: Why the lock sits at this level (ordering constraints observed in
    #: the code); empty for locks whose position is unconstrained.
    rationale: str = ""
    #: ``True`` for a *family* of same-named instances (one lock per
    #: worker/type); instances of a family are never nested in each other.
    per_instance: bool = False

    @property
    def owner(self) -> str:
        return self.name.rsplit(".", 1)[0]

    @property
    def attribute(self) -> str:
        return self.name.rsplit(".", 1)[1]


#: Every lock in ``src/repro``, in ascending level order.
LOCKS: Tuple[LockSpec, ...] = (
    LockSpec(
        name="ReplicationHub._lock",
        level=4,
        kind=KIND_RLOCK,
        module="repro.storage.replication",
        guards="follower registry and hub counters; held across follower "
        "seeding, shipping and the fence→cut→ship promotion protocol",
        rationale="held while constructing whole FollowerEngines and while "
        "fencing the primary (promote → fence → write lock → versioning "
        "lock), so it must sit below every engine-internal lock",
    ),
    LockSpec(
        name="FollowerEngine._lock",
        level=6,
        kind=KIND_RLOCK,
        module="repro.storage.replication",
        guards="one follower's applies, re-seeds, snapshot acquisition and "
        "promotion flag (query execution runs outside it, on the handle)",
        rationale="held while applying records into (and snapshotting) the "
        "follower's own engine, so it sits below the engine locks; the hub "
        "lock is held when shipping to it, so it sits above level 4",
    ),
    LockSpec(
        name="MQLInterpreter._session_guard",
        level=8,
        kind=KIND_LOCK,
        module="repro.mql.interpreter",
        guards="the session transaction and its thread-affinity slot "
        "(BEGIN/COMMIT/ROLLBACK WORK transitions, conflict cleanup)",
        rationale="held across Transaction.begin/commit, which take the "
        "versioning lock — and head locks on the conflict loser's rollback "
        "— so it must sit below levels 18-30",
    ),
    LockSpec(
        name="PrimaEngine._write_lock",
        level=10,
        kind=KIND_RLOCK,
        module="repro.storage.engine",
        guards="basic-interface writes (store_atom / connect / delete_atom), "
        "type DDL, fence() and checkpoint() serialize against each other",
    ),
    LockSpec(
        name="PrimaEngine._cache_lock",
        level=15,
        kind=KIND_RLOCK,
        module="repro.storage.engine",
        guards="lazy construction/teardown of the derived access structures "
        "(interpreter, index pool, pool/hub references)",
        rationale="type DDL holds it across the versioning lock (the "
        "no-active-transaction check and the registration), so it sits "
        "below 30; shutdown hands pool/hub references out of the lock "
        "before closing them",
    ),
    LockSpec(
        name="Database._versioning_guard",
        level=18,
        kind=KIND_LOCK,
        module="repro.core.database",
        guards="versioning-state creation (enable_versioning may race an "
        "engine thread against an MQL BEGIN WORK elsewhere)",
        rationale="taken under the session guard (BEGIN WORK); acquires "
        "nothing underneath",
    ),
    LockSpec(
        name="AtomType._lock",
        level=20,
        kind=KIND_RLOCK,
        module="repro.core.atom",
        guards="per-type head lock: head swap + chain record + event "
        "emission are one atomic unit per mutation; GC truncation; "
        "snapshot views copy key sets under it",
        per_instance=True,
    ),
    LockSpec(
        name="LinkType._lock",
        level=22,
        kind=KIND_RLOCK,
        module="repro.core.link",
        guards="per-type head lock (see AtomType._lock), plus the "
        "cardinality check; link-type and atom-type head locks are never "
        "nested (a delete releases each link type's before taking the "
        "atom type's)",
        per_instance=True,
    ),
    LockSpec(
        name="VersioningState.lock",
        level=30,
        kind=KIND_RLOCK,
        module="repro.core.versions",
        guards="the engine lock: generation clock, pin registry, commit "
        "log, active transactions, conflict checks, commit validation + "
        "durability hook; every mutation's tick + chain record + head swap "
        "runs inside it",
        rationale="acquired inside the per-type head locks "
        "(_version_mutation) and while the session guard is held (commit)",
    ),
    LockSpec(
        name="ProcessPool._slot_locks",
        level=35,
        kind=KIND_LOCK,
        module="repro.engine.procpool",
        guards="one conversation (catch-up + execute batch, restarts "
        "included) at a time per worker slot",
        rationale="the slot holder reads the commit feed (level 55) during "
        "catch-up and respawn; slots are never nested in each other",
        per_instance=True,
    ),
    LockSpec(
        name="PrimaEngine._event_lock",
        level=40,
        kind=KIND_RLOCK,
        module="repro.storage.engine",
        guards="one change event at a time: generation counter, "
        "incremental cache maintenance, WAL routing; also every lookup and "
        "lazy build in the index pool, which readers on any thread share",
        rationale="acquired inside head locks and the versioning lock "
        "(event emission; a pinned lookup holds its type's head lock); only "
        "acquires the leaves above level 40",
    ),
    LockSpec(
        name="MQLInterpreter._plan_lock",
        level=42,
        kind=KIND_RLOCK,
        module="repro.mql.interpreter",
        guards="planning, the statement cache and planner-statistics "
        "maintenance (planner code never takes a head lock — statistics read "
        "atomic .occurrence copies); binding and execution run outside it",
        rationale="the event path folds statistics into it while holding "
        "the event lock (so it sits above 40); the optimizer consults the "
        "structure-index registry while planning, so it sits below "
        "StructureIndexStore._lock",
    ),
    LockSpec(
        name="StructureIndexStore._lock",
        level=44,
        kind=KIND_RLOCK,
        module="repro.storage.structure_index",
        guards="structure-index registration, lookup, encoding refresh and "
        "event folds; readers never touch occurrence state while holding "
        "it (refresh reads atomic .occurrence copies)",
        rationale="the event path folds into it while holding the event "
        "lock",
    ),
    LockSpec(
        name="ColumnarStore._lock",
        level=46,
        kind=KIND_RLOCK,
        module="repro.storage.columnar",
        guards="columnar projection registration, lazy (re)build and event "
        "folds; same leaf contract as the structure-index store",
        rationale="the event path folds into it while holding the event "
        "lock",
    ),
    LockSpec(
        name="WriteAheadLog._lock",
        level=52,
        kind=KIND_RLOCK,
        module="repro.storage.wal",
        guards="record append + counters + fsync policy (no torn or "
        "interleaved records under group commit); observers fire inside it "
        "after the bytes reach the OS",
        rationale="acquired under the write, versioning and event locks "
        "(direct logging, commit hook, event capture); observers only "
        "acquire the commit feed's lock above",
    ),
    LockSpec(
        name="CommitFeed._lock",
        level=55,
        kind=KIND_LOCK,
        module="repro.storage.replication",
        guards="the engine's in-memory WAL record feed and its subscribers' "
        "cursors (append from the observer; position, slice, advance and "
        "trim from shipping and worker catch-up)",
        rationale="the WAL observer appends while the log mutex is held, "
        "so the feed lock must sit above WriteAheadLog._lock; it is also "
        "taken under the versioning lock (pin + cut), a follower's lock "
        "(ship) and a worker slot lock (catch-up), and acquires nothing",
    ),
    LockSpec(
        name="SnapshotHandle._release_guard",
        level=60,
        kind=KIND_LOCK,
        module="repro.storage.engine",
        guards="the handle's released flag (idempotent release; the pin "
        "release and GC run after the guard is dropped)",
        rationale="a pure leaf: nothing is ever acquired inside it",
    ),
)

_BY_NAME: Dict[str, LockSpec] = {spec.name: spec for spec in LOCKS}
_BY_ATTRIBUTE: Dict[str, Tuple[LockSpec, ...]] = {}
for _spec in LOCKS:
    _BY_ATTRIBUTE.setdefault(_spec.attribute, ())
    _BY_ATTRIBUTE[_spec.attribute] = _BY_ATTRIBUTE[_spec.attribute] + (_spec,)


def lock_by_name(name: str) -> Optional[LockSpec]:
    """The registered lock called *name* (``Owner.attribute``), or ``None``."""
    return _BY_NAME.get(name)


def locks_by_attribute(attribute: str) -> Tuple[LockSpec, ...]:
    """Every registered lock whose attribute name is *attribute*."""
    return _BY_ATTRIBUTE.get(attribute, ())


def lock_for(owner: str, attribute: str) -> Optional[LockSpec]:
    """The lock declared as ``owner.attribute``, or ``None``."""
    return _BY_NAME.get(f"{owner}.{attribute}")


def declared_count() -> int:
    """Number of locks in the registry."""
    return len(LOCKS)


def design_table() -> str:
    """Render the registry as the DESIGN.md lock-order table (markdown).

    The table between the ``lock-table`` markers in DESIGN.md is this
    function's output verbatim — ``python -m repro.analysis`` fails when
    they diverge and ``--fix-design`` rewrites the block.
    """
    lines = [
        "  | level | lock | kind | guards |",
        "  |-------|------|------|--------|",
    ]
    for spec in LOCKS:
        name = f"`{spec.name}`"
        if spec.per_instance:
            name += " (per instance)"
        lines.append(
            f"  | {spec.level} | {name} | {spec.kind} | {spec.guards} |"
        )
    return "\n".join(lines)
