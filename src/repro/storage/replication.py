"""Log-shipping replication: the commit feed, the replica, catch-up, promotion.

The WAL's commit and DDL records are a self-contained replication feed
(every record carries the full change events of one committed unit), and
the recovery machinery replays them idempotently — the two properties this
module combines into read scale-out:

* **The commit feed.**  One :class:`CommitFeed` per durable engine taps the
  WAL (the only :meth:`~repro.storage.wal.WriteAheadLog.add_observer` call
  in the package) into an in-memory record list with monotone sequence
  numbers.  The observer fires inside the log mutex *after* the bytes reach
  the OS, so the feed is always a suffix of the durable file: a replica
  that subscribes and *then* seeds from the files holds at least every
  record below its :class:`FeedCursor`, and re-shipping the overlap
  double-applies idempotently.  The feed keeps the records past the lowest
  cursor — each once, however many subscribers; nothing while there are
  none — and :meth:`CommitFeed.take` alone decides which of them a replica
  may be given for a pinned read.

* **The replica.**  A :class:`FollowerEngine` is a checkpoint-seeded,
  read-only engine plus one apply path (:meth:`FollowerEngine.apply_records`).
  Seeding loads the checkpoint image and replays the WAL tail through the
  :mod:`repro.storage.recovery` primitives and never writes a byte back —
  unlike :func:`~repro.storage.recovery.recover`, a torn WAL tail is *not*
  truncated: against a live primary it is an in-flight append, not a crash
  artefact (see :func:`~repro.storage.wal.read_wal`).  Three transports
  feed the same class: **in-process** (:meth:`ReplicationHub.ship` hands
  the follower its feed slice), **pipe** (a :mod:`repro.engine.procpool`
  worker process hosts a follower and is sent the same slice) and **file
  poll** (:meth:`FollowerEngine.poll` reads the WAL file incrementally,
  from any process).

* **Promotion.**  :meth:`FollowerEngine.promote` fences the old primary
  *first* (no record can enter the feed afterwards), then ships the final
  slice, then detaches — so the promoted engine's state is byte-identical
  to the primary's committed head at the fence point.  The fenced primary
  refuses every subsequent write (basic interface, DDL, and transactions —
  in-flight transactions abort at their commit point).

The read router over these replicas lives in :mod:`repro.engine.router`
(:meth:`PrimaEngine.parallel_query` with ``mode="replica"`` or
``mode="process"``).
"""

from __future__ import annotations

import collections
import os
from repro.analysis.runtime import make_lock, make_rlock
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import StorageError
from repro.storage.recovery import RecoveryResult, apply_checkpoint, replay_records


#: The hub's counters, ``maintenance_report()``'s ``replication_*`` keys.
HUB_COUNTERS = (
    "followers_started",
    "ships",
    "records_shipped",
    "refusals",
    "promotions",
    "routed",
    "fallbacks",
    "skipped",
    "waits",
)


class ReplicationError(StorageError):
    """A replication-protocol violation (rewind, fenced feed, bad record)."""


# ---------------------------------------------------------- the commit feed


class FeedCursor:
    """One subscriber's place on the feed: the absolute sequence number one
    past the last record it was sent (see :meth:`CommitFeed.advance`)."""

    __slots__ = ("seq",)

    def __init__(self, seq: int) -> None:
        self.seq = seq


class CommitFeed:
    """The engine's WAL records since the slowest subscriber, held once;
    shared by the engine's process pool and its replication hub."""

    def __init__(self, wal) -> None:
        self._wal = wal
        self._lock = make_lock("CommitFeed._lock")
        self._records: List[Dict[str, object]] = []  # guarded-by: CommitFeed._lock
        self._base = 0  # absolute sequence number of self._records[0]  # guarded-by: CommitFeed._lock
        self._cursors: List[FeedCursor] = []  # guarded-by: CommitFeed._lock
        wal.add_observer(self._observe)

    def _observe(self, record: Dict[str, object]) -> None:
        with self._lock:
            if self._cursors:
                self._records.append(record)
            else:
                # Nobody to ship to: a later subscriber seeds from the files,
                # which by the observer's post-flush contract hold this record.
                self._base += 1

    def position(self) -> int:
        """The absolute sequence number one past the last observed record."""
        with self._lock:
            return self._base + len(self._records)

    def __len__(self) -> int:
        """Records currently held in memory."""
        with self._lock:
            return len(self._records)

    def subscribe(self) -> FeedCursor:
        """Register a subscriber at the current position.

        Subscribe *before* seeding the replica: every record below the
        cursor is then already in the files it seeds from, and every record
        at or past it stays on the feed until the cursor moves over it.
        """
        with self._lock:
            cursor = FeedCursor(self._base + len(self._records))
            self._cursors.append(cursor)
            return cursor

    def unsubscribe(self, cursor: FeedCursor) -> None:
        """Stop keeping records for *cursor* (idempotent)."""
        with self._lock:
            if cursor in self._cursors:
                self._cursors.remove(cursor)
            self._trim()

    def advance(self, cursor: FeedCursor, seq: Optional[int] = None) -> None:
        """Move *cursor* to *seq*, once the subscriber was sent everything
        below it (default: the feed head — it is about to re-seed from the
        files), and drop what every subscriber has now been sent."""
        with self._lock:
            cursor.seq = self._base + len(self._records) if seq is None else seq
            self._trim()

    def take(
        self, applied_seq: int, applied_gen: int, pin_gen: Optional[int], cut: int
    ) -> List[Dict[str, object]]:
        """The ``(applied_seq, cut]`` slice for a replica that has applied up
        to ``(applied_seq, applied_gen)`` and is to serve *pin_gen*.

        Sequence numbers — not generations — drive the slice: commit order
        is not generation order.  Generations only fast-forward the replica
        to the pin, or refuse the slice (:class:`ReplicationError`, nothing
        returned).  A replica serves its head — applying a record puts it AT
        that record's generation — so one already ahead of the pin cannot
        rewind, and a slice holding a commit past the pin (the cut is
        the live feed head) would make it answer for a future the pin must
        not see.  ``pin_gen=None`` asks for the head: every record up to
        *cut* is a decided commit, so only the position is checked.
        """
        if applied_seq > cut or (pin_gen is not None and applied_gen > pin_gen):
            raise ReplicationError(
                f"replica at generation {applied_gen} (seq {applied_seq}) is "
                f"ahead of the pinned generation {pin_gen} (seq {cut}) — "
                "cannot rewind"
            )
        with self._lock:
            base = self._base
            if applied_seq < base:
                raise ReplicationError(
                    f"feed records {applied_seq}..{base} are already trimmed: "
                    "the replica holds no subscribed cursor"
                )
            records = self._records[applied_seq - base : cut - base]
        if pin_gen is not None:
            for record in records:
                if int(record.get("gen", 0)) > pin_gen:
                    raise ReplicationError(
                        f"catch-up slice contains a commit at generation "
                        f"{record.get('gen')}, past the pinned generation "
                        f"{pin_gen} — too fresh"
                    )
        return records

    # requires: CommitFeed._lock
    def _trim(self) -> None:
        """Drop the records below the lowest cursor — all of them when
        nobody subscribes (bounded memory)."""
        head = self._base + len(self._records)
        floor = min((cursor.seq for cursor in self._cursors), default=head)
        drop = floor - self._base
        if drop > 0:
            del self._records[:drop]
            self._base = floor

    def close(self) -> None:
        """Remove the WAL tap (idempotent)."""
        self._wal.remove_observer(self._observe)


def checkpoint_stamp(path) -> Optional[Tuple[int, int, int]]:
    """Identity stamp of a checkpoint image: ``(mtime_ns, size, inode)``.

    A changed stamp means the primary wrote a new image (and truncated the
    WAL right after) — the signal a file-tailing follower re-seeds on.
    ``None`` when no image exists yet.
    """
    try:
        stat = os.stat(path)
    except OSError:
        return None
    return (stat.st_mtime_ns, stat.st_size, stat.st_ino)


@dataclass
class SeedResult:
    """What one seeding pass produced (engine + resume positions)."""

    engine: object
    generation: int
    records_replayed: int
    #: Absolute WAL offset one past the last record replayed — the file
    #: poller resumes from exactly here.
    wal_offset: int
    #: Checkpoint-image stamp at seed time (``None`` — no image yet).
    checkpoint_stamp: Optional[Tuple[int, int, int]]


def seed_engine(directory, name: str = "prima-replica") -> SeedResult:
    """Build a read-only engine replica from *directory*'s checkpoint + WAL.

    Mirrors :func:`repro.storage.recovery.recover` except that nothing is
    ever written: no WAL is opened for appending and a torn tail is skipped
    (``read_wal`` already stops at the last valid record) instead of
    truncated — against a live primary the tail is an in-flight append.
    The engine is fenced in *name* until :meth:`FollowerEngine.promote`.
    """
    from repro.core.atom import ensure_surrogate_counter
    from repro.storage.engine import PrimaEngine
    from repro.storage.wal import DurabilityConfig, read_wal

    config = DurabilityConfig(directory)
    stamp = checkpoint_stamp(config.checkpoint_path)
    engine = PrimaEngine(name=name)
    engine.to_database().versioning.fenced = f"follower {name!r} is read-only until promote()"
    highest = apply_checkpoint(engine, config) or 0
    replayed = RecoveryResult(generation=engine.generation)
    scan = read_wal(config.wal_path)
    ensure_surrogate_counter(max(highest, replay_records(engine, scan.records, replayed)))
    # Private on purpose: the replay primitives' companion.
    engine._advance_generation(replayed.generation)  # noqa: SLF001
    return SeedResult(engine, replayed.generation, len(scan.records), scan.valid_bytes, stamp)


# ------------------------------------------------------------- the follower


class FollowerEngine:
    """A read-only replica of a durable primary, fed by its WAL.

    Construct directly with the primary's durability directory for an
    out-of-process follower (drive it with :meth:`poll`; a process-pool
    worker hosts one and is sent its records over the pipe), or through
    :meth:`ReplicationHub.create_follower` /
    :meth:`PrimaEngine.create_follower` for an in-process follower the hub
    ships to incrementally.  Applied records mutate the follower engine's
    one database, so it is maintained incrementally like the head; reads
    (:meth:`query`) run against a pinned snapshot at the follower's applied
    generation and stay repeatable through MVCC while records keep applying
    underneath.
    """

    def __init__(self, directory, name: str = "prima-follower", hub=None) -> None:
        self._directory = str(directory)
        self.name = name
        self._hub = hub
        #: Serializes applies, re-seeds and snapshot acquisition.  Query
        #: *execution* runs outside it, on the acquired handle: the pin keeps
        #: the handle's generation readable from the version chains, so an
        #: in-flight read never sees a partial apply.
        self._lock = make_rlock("FollowerEngine._lock")
        self._promoted = False  # guarded-by: FollowerEngine._lock
        self._closed = False
        self.counters: Dict[str, int] = {
            "records_applied": 0,
            "polls": 0,
            "reseeds": 0,
            "torn_tail_retries": 0,
            "queries": 0,
        }
        #: Place on the primary's commit feed (hub transport only), taken
        #: before seeding so the seed covers everything below it.  Owned by
        #: the hub — it only advances when the hub ships.
        self._cursor = None
        if hub is not None:
            start, self._cursor = hub.head(hub.feed.subscribe)
        try:
            self._seed()
        except BaseException:
            if hub is not None:
                hub.feed.unsubscribe(self._cursor)
            raise
        if hub is not None:
            # Start at the primary's clock at the cursor: the seed holds
            # every commit below it, and a commit ticks past its record's
            # stamp.
            self.apply_records((), start)

    @property
    def applied_seq(self) -> int:
        """Feed position one past the last record the hub shipped (0
        without a hub)."""
        return self._cursor.seq if self._cursor is not None else 0

    def _seed(self) -> SeedResult:
        seed = seed_engine(self._directory, name=self.name)
        self._engine = seed.engine
        #: Generation the follower's state has reached (applied records
        #: plus pin fast-forwards).
        self.applied_generation = seed.generation  # guarded-by: FollowerEngine._lock
        self._wal_offset = seed.wal_offset
        self._stamp = seed.checkpoint_stamp
        return seed

    # ------------------------------------------------------------ applying

    def _require_live(self) -> None:
        if self._closed:
            raise ReplicationError(f"follower {self.name!r} is closed")
        if self._promoted:
            raise ReplicationError(
                f"follower {self.name!r} was promoted; use the engine "
                "promote() returned"
            )

    def apply_records(self, records, target_generation: int = 0) -> None:
        """Apply *records*, then fast-forward to *target_generation*.

        The one apply path of every transport: records arrive in log order
        and double-applies are idempotent.  The follower ends at the highest
        of its own generation, the applied records' and *target_generation*
        — the latter absorbs generation ticks that ship no bytes (rollbacks,
        no-op writes); nothing ever moves the follower backwards.
        """
        with self._lock:
            self._require_live()
            replayed = RecoveryResult(
                generation=max(self.applied_generation, int(target_generation))
            )
            replay_records(self._engine, records, replayed)
            self.counters["records_applied"] += len(records)
            self.applied_generation = replayed.generation
            self._engine._advance_generation(replayed.generation)  # noqa: SLF001

    def poll(self) -> int:
        """Apply newly durable records from the primary's files; returns the
        number of records applied by this call.

        The out-of-process transport.  Three cases per poll:

        * **new records** — applied from the last consumed offset
          (``read_wal(path, from_offset=…)``; never a full re-read);
        * **torn tail** — an append is in flight: the valid prefix is
          applied, the torn bytes are left alone, and the next poll resumes
          from the last good offset (*never* truncated — only crash
          recovery, which knows no append is in flight, may do that);
        * **checkpoint truncation** — the image stamp changed or the log
          shrank below the consumed offset: the primary checkpointed, so
          the follower re-seeds from the new image + fresh log instead of
          replaying a rewound file.  Re-seeding covers everything already
          applied (the image is taken at the primary's head), so the
          follower's generation never moves backwards.
        """
        with self._lock:
            self._require_live()
            from repro.storage.wal import DurabilityConfig, read_wal

            self.counters["polls"] += 1
            config = DurabilityConfig(self._directory)
            stamp = checkpoint_stamp(config.checkpoint_path)
            try:
                wal_size = os.path.getsize(config.wal_path)
            except OSError:
                wal_size = 0
            if stamp != self._stamp or wal_size < self._wal_offset:
                previous = self.applied_generation
                seed = self._seed()
                self.counters["reseeds"] += 1
                if seed.generation < previous:
                    raise ReplicationError(
                        f"re-seed from {self._directory!r} reached generation "
                        f"{seed.generation}, behind the follower's applied "
                        f"generation {previous} — a follower cannot rewind"
                    )
                return seed.records_replayed
            scan = read_wal(config.wal_path, from_offset=self._wal_offset)
            if scan.torn_tail:
                # In-flight append: apply the valid prefix, keep the offset
                # at the last good byte, and let a later poll retry.
                self.counters["torn_tail_retries"] += 1
            self.apply_records(scan.records)
            self._wal_offset = scan.valid_bytes
            return len(scan.records)

    # ------------------------------------------------------------- reading

    def snapshot(self):
        """Pin the follower's applied generation; returns a read handle.

        Acquisition serializes with applies (the handle is taken between
        records, never mid-apply); the returned handle's reads then run
        lock-free and stay repeatable while further records apply.
        """
        with self._lock:
            self._require_live()
            self.counters["queries"] += 1
            return self._engine.snapshot_at()

    def query(self, statement: str):
        """Execute one MQL read statement at the follower's applied generation."""
        handle = self.snapshot()
        try:
            return handle.query(statement)
        finally:
            handle.release()

    def lag(self, head_generation: int) -> int:
        """Generations this follower trails *head_generation* (may be < 0
        when the follower is ahead of an older pin)."""
        return int(head_generation) - self.applied_generation

    # ----------------------------------------------------------- lifecycle

    @property
    def engine(self):
        """The backing :class:`PrimaEngine`: until :meth:`promote` every write
        and DDL on it raises, in the follower's name; only replay changes it."""
        return self._engine

    @property
    def promoted(self) -> bool:
        return self._promoted

    def promote(self):
        """Promote this follower to a writable primary; returns its engine.

        Hub-attached followers run the full fail-over protocol, in this
        order: **fence** the old primary (its versioning state refuses new
        transactions and in-flight ones abort at commit; basic-interface
        writes and DDL raise — so nothing can enter the feed after the
        fence), take the **final cut**, **ship** the remaining slice, then
        **detach**.  The promoted engine's state is therefore exactly the
        old primary's committed head.

        File-tailing followers (no hub) drain one final :meth:`poll` and
        convert; fencing an out-of-process primary is the caller's job (the
        usual promotion trigger is that primary being gone).  Either way
        the follower's own fence goes last: its engine takes writes.
        """
        if self._hub is not None:
            self._hub.promote(self)
        else:
            with self._lock:
                self._require_live()
                self.poll()
        with self._lock:
            self._require_live()
            self._promoted = True
            engine = self._engine
            engine.to_database().versioning.fenced = None
        return engine

    def close(self) -> None:
        """Detach from the hub (if any) and refuse further use (idempotent)."""
        if self._closed:
            return
        self._closed = True
        hub, self._hub = self._hub, None
        if hub is not None:
            hub.detach(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "promoted"
            if self._promoted
            else ("closed" if self._closed else f"gen={self.applied_generation}")
        )
        return f"FollowerEngine({self.name!r}, {state})"


# ------------------------------------------------------------------ the hub


class ReplicationHub:
    """Primary-side replication state: the in-process followers of one engine.

    Made with the engine's read fan-out (:class:`repro.engine.router.Replicas`,
    durable engines only).  The hub ships from the engine's :class:`CommitFeed` (shared with
    the process pool): every record appended after a follower subscribed is
    shippable incrementally, anything earlier is covered by the follower's
    file-based seeding.
    """

    def __init__(self, engine, feed: CommitFeed) -> None:
        self._engine = engine
        self._directory = str(engine.durability.directory)
        #: The engine's commit feed (cut positions come from ``feed.position()``).
        self.feed = feed
        self._followers: List[FollowerEngine] = []  # guarded-by: ReplicationHub._lock
        self._lock = make_rlock("ReplicationHub._lock")
        self._closed = False
        self.counters: Dict[str, int] = collections.Counter(dict.fromkeys(HUB_COUNTERS, 0))

    # ------------------------------------------------------------ followers

    def create_follower(self, name: Optional[str] = None) -> FollowerEngine:
        """Seed a new in-process follower and register it for shipping.

        The follower subscribes to the feed *before* it seeds: every record
        below its cursor is, by the observer's post-flush contract, already
        in the files it seeds from; records at/after it ship incrementally,
        and any overlap with the seed double-applies idempotently.
        """
        with self._lock:
            if self._closed:
                raise ReplicationError("replication hub is closed")
            follower = FollowerEngine(
                self._directory,
                name=name or f"{self._engine.name}-follower-{self.counters['followers_started']}",
                hub=self,
            )
            self._followers.append(follower)
            self.counters["followers_started"] += 1
            return follower

    def followers(self) -> List[FollowerEngine]:
        with self._lock:
            return list(self._followers)

    def detach(self, follower: FollowerEngine) -> None:
        """Stop shipping to *follower* (it keeps serving its applied state)."""
        with self._lock:
            if follower in self._followers:
                self._followers.remove(follower)
                follower._hub = None
        self.feed.unsubscribe(follower._cursor)

    # ------------------------------------------------------------- shipping

    def ship(
        self,
        follower: FollowerEngine,
        pin_generation: Optional[int] = None,
        cut: Optional[int] = None,
    ) -> int:
        """Ship the ``(applied_seq, cut]`` feed slice to *follower*; returns
        the record count shipped.

        *pin_generation* is the fast-forward target and the refusal bound of
        :meth:`CommitFeed.take` — a refusal raises :class:`ReplicationError`
        and ships nothing.  When *pin_generation* is ``None`` the caller
        wants the head: the follower ends at the primary's clock, read with
        the default cut (:meth:`head`), and no record's generation refuses
        the slice — every record up to the cut is a decided commit.
        """
        target = pin_generation
        if target is None or cut is None:
            head, position = self.head()
            target = head if target is None else target
            cut = position if cut is None else cut
        with follower._lock:
            try:
                records = self.feed.take(
                    follower.applied_seq, follower.applied_generation, pin_generation, cut
                )
            except ReplicationError:
                self.counters["refusals"] += 1
                raise
            follower.apply_records(records, target)
            self.feed.advance(follower._cursor, cut)
        self.counters["ships"] += 1
        self.counters["records_shipped"] += len(records)
        return len(records)

    def catch_up_all(
        self, pin_generation: Optional[int] = None, cut: Optional[int] = None
    ) -> int:
        """Ship every follower to *(pin_generation, cut)*; returns records shipped."""
        shipped = 0
        for follower in self.followers():
            shipped += self.ship(follower, pin_generation, cut)
        return shipped

    def head(self, position: Optional[Callable[[], Any]] = None) -> Tuple[int, Any]:
        """The primary's version clock and *position()* (default: the feed
        position), read in one critical section of its versioning lock, as
        a pin reads them: every commit at or below the clock is below the
        position.  The clock, not the engine's generation (the newest
        change event), is what pins, routed reads and commits tick."""
        state = self._engine.to_database().versioning
        with state.lock:
            return state.generation, (position or self.feed.position)()

    def max_lag(self) -> int:
        """The largest follower lag behind the primary's clock, in
        generations (reads an atomic snapshot of the follower list)."""
        head = self.head()[0]
        followers = tuple(self._followers)
        return max(
            (head - follower.applied_generation for follower in followers),
            default=0,
        )

    # ------------------------------------------------------------ promotion

    def promote(self, follower: FollowerEngine) -> None:
        """Fail the primary over to *follower* (fence → final cut → ship → detach)."""
        with self._lock:
            if follower not in self._followers:
                raise ReplicationError(
                    "cannot promote a follower this hub is not shipping to"
                )
            # 1. Fence: after this, no write can append a WAL record, so the
            #    feed position below is the final one.
            self._engine.fence()
            # 2. Final cut at the fenced head; 3. ship the remaining slice.
            self.ship(follower, *self.head())
            self.counters["promotions"] += 1
        # 4. Detach — the promoted engine leaves the feed.
        self.detach(follower)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Detach every follower (idempotent).

        Followers are not destroyed: each keeps serving reads at its applied
        generation — it just stops receiving records.
        """
        if self._closed:
            return
        self._closed = True
        for follower in self.followers():
            self.detach(follower)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicationHub(followers={len(self._followers)}, "
            f"feed={self.feed.position()})"
        )
