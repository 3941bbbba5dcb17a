"""A persistent pool of worker processes that execute shipped read plans.

The GIL caps CPU-bound query execution at ~1× no matter how many threads
`parallel_query` fans out (the honest E-PERF7 number).  This module buys
real multi-core execution on stock CPython by shipping **compiled logical
plans** to worker **processes**.  A worker is a replica like any other: it
hosts a :class:`~repro.storage.replication.FollowerEngine` and serves it
over a pipe — this module is that transport plus the process lifecycle.

* **Seeding and catch-up** are the follower's (checkpoint image + WAL tail
  through the recovery primitives, never a write to the primary's files;
  then ``apply_records`` on every slice).  The pool holds one
  :class:`~repro.storage.replication.FeedCursor` per worker slot on the
  engine's :class:`~repro.storage.replication.CommitFeed`; before a
  dispatch each worker is sent exactly the slice
  :meth:`~repro.storage.replication.CommitFeed.take` grants it — never a
  full reload — or the plan is refused (a worker cannot rewind; the router
  falls back to primary-side snapshot execution).

* **Execution.**  ``execute`` runs the shipped plan against the hosted
  follower's engine, and only when the plan's pin *equals* the follower's
  applied generation.

* **Crash transparency.**  A worker that dies mid-dispatch (``kill -9``
  included) is detected on the pipe, respawned (reseeded from the on-disk
  checkpoint + WAL, its cursor moved to the feed head first), caught up,
  and the statement retried; repeated crashes — or a respawn that fails —
  degrade to primary-side fallback, never to an error.
"""

from __future__ import annotations

import collections
import dataclasses
import multiprocessing
import threading

from repro.analysis.runtime import make_lock
from typing import Dict, List, Tuple

from repro.exceptions import StorageError


#: The pool's counters, ``maintenance_report()``'s ``procpool_*`` keys.
COUNTERS = (
    "workers_started",
    "dispatches",
    "plans_shipped",
    "catchup_records",
    "restarts",
    "refusals",
    "fallbacks",
    "partitioned",
)


class WorkerCrashed(Exception):
    """The worker process died mid-conversation (detected on the pipe)."""


class WorkerRefused(Exception):
    """The worker cannot serve the plan's pinned generation."""


# ----------------------------------------------------------- worker process


def _execute_job(follower, job: Dict[str, object]):
    """Execute one shipped plan on the hosted follower's engine; returns the payload."""
    from repro.engine.executor import compile_plan
    from repro.engine.physical import (
        AggregationOperator,
        ColumnarAggregate,
        IntervalScan,
        RecursiveScan,
    )
    from repro.storage.shipping import (
        encode_group_states,
        encode_molecule_result,
        encode_row_result,
        plan_from_json,
    )

    pin = int(job["pin"])
    if pin != follower.applied_generation:
        raise WorkerRefused(
            f"plan pinned to generation {pin} but the worker is at "
            f"{follower.applied_generation} — catch-up comes first and a "
            "worker cannot rewind"
        )
    plan = plan_from_json(job["plan"])
    executor = follower.engine.interpreter().executor
    operator = compile_plan(plan)
    partition = job.get("partition")
    if partition is not None:
        if not isinstance(operator, (RecursiveScan, IntervalScan, ColumnarAggregate)):
            raise WorkerRefused(
                f"operator {type(operator).__name__} does not support partitioned execution"
            )
        operator.partition = (int(partition[0]), int(partition[1]))
    ctx = executor.context()
    if isinstance(operator, ColumnarAggregate) and job.get("mode") == "groups":
        groups = operator.partial_groups(ctx)
        payload: Dict[str, object] = {
            "kind": "groups",
            "groups": encode_group_states(operator.aggregates, groups),
        }
    elif isinstance(operator, AggregationOperator):
        payload = encode_row_result(operator.columns(), operator.rows(ctx))
    else:
        payload = encode_molecule_result(operator.execute(ctx))
    payload["counters"] = dataclasses.asdict(ctx.counters)
    return payload


def _worker_main(directory: str, conn) -> None:
    """Worker-process entry point: seed a follower, then serve it over the
    pipe until stopped."""
    from repro.storage.replication import FollowerEngine

    try:
        follower = FollowerEngine(directory, name="prima-worker")
    except BaseException as exc:  # noqa: BLE001 - reported to the primary
        try:
            conn.send(("seed_error", repr(exc)))
        finally:
            conn.close()
        return
    conn.send(("ready", follower.applied_generation))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op = message[0]
        if op == "stop":
            conn.send(("stopped",))
            break
        try:
            if op == "catchup":
                _op, records, target = message
                follower.apply_records(records, target)
                conn.send(("caught", follower.applied_generation))
            elif op == "execute":
                conn.send(("result", _execute_job(follower, message[1])))
            else:
                conn.send(("error", f"unknown op {op!r}"))
        except WorkerRefused as refusal:
            conn.send(("refused", str(refusal)))
        except BaseException as exc:  # noqa: BLE001 - reported to the primary
            conn.send(("error", repr(exc)))
    conn.close()


# ---------------------------------------------------------------- primary


class _WorkerHandle:
    """Primary-side state of one worker slot: process, pipe, applied positions."""

    __slots__ = ("process", "conn", "cursor", "applied_gen")

    def __init__(self, cursor) -> None:
        self.process = None
        self.conn = None
        #: The slot's place on the commit feed, kept across respawns.
        #: Tracked primary-side: it only advances when the primary ships.
        self.cursor = cursor
        #: Generation the worker has reached (applied records + fast-forwards).
        self.applied_gen = 0


class ProcessPool:
    """Spawn-context worker processes executing shipped read plans.

    Created lazily by :meth:`PrimaEngine.process_pool` (durable engines
    only) over the engine's commit feed: each slot subscribes before its
    worker seeds, so every record appended after that point is shippable
    incrementally; anything earlier is covered by the worker's file-based
    seeding.
    """

    def __init__(self, engine, feed, size: int) -> None:
        self._directory = str(engine.durability.directory)
        self._context = multiprocessing.get_context("spawn")
        #: The engine's commit feed (cut positions come from ``feed.position()``).
        self.feed = feed
        self._closed = False
        #: Added to on the thread that called the router (or
        #: :meth:`catch_up_all`) — conversations on fan-out threads tally
        #: into a per-call dict that is folded in after the join.
        self.counters: Dict[str, int] = collections.Counter(dict.fromkeys(COUNTERS, 0))
        # Every slot subscribes before any worker seeds.
        self._workers: List[_WorkerHandle] = [  # guarded-by: ProcessPool._slot_locks
            _WorkerHandle(feed.subscribe()) for _ in range(size)
        ]
        #: One conversation (catch-up + execute batch, restarts included) at
        #: a time per worker slot — concurrent dispatches interleave across
        #: slots, never on one pipe.
        self._slot_locks: List[threading.Lock] = [
            make_lock("ProcessPool._slot_locks") for _ in range(size)
        ]
        try:
            for worker in self._workers:
                self._spawn(worker)
        except BaseException:
            self.shutdown()  # stop what was started; nothing stays subscribed
            raise
        self.counters["workers_started"] = size

    # ------------------------------------------------------------ lifecycle

    @property
    def size(self) -> int:
        return len(self._workers)

    def _spawn(self, worker: _WorkerHandle) -> None:
        """Start a fresh process in *worker*'s slot and wait until it seeded."""
        # Move the cursor to the feed head *before* the process starts:
        # every record below it is durably in the files the worker reads,
        # and any overlap with records at/after it double-applies idempotently.
        self.feed.advance(worker.cursor)
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(self._directory, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker.process, worker.conn = process, parent_conn
        try:
            reply = parent_conn.recv()
        except (EOFError, OSError) as exc:
            raise StorageError(f"process-pool worker died while seeding: {exc!r}")
        if reply[0] != "ready":
            raise StorageError(f"process-pool worker failed to seed: {reply!r}")
        worker.applied_gen = int(reply[1])

    @staticmethod
    def _stop(worker: _WorkerHandle) -> None:
        """Ask *worker*'s process to stop (a dead pipe says it already has),
        then reap it — by force if it lingers."""
        if worker.process is None:
            return
        try:
            worker.conn.send(("stop",))
            worker.conn.recv()
        except (EOFError, OSError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=10)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=10)

    def shutdown(self) -> None:
        """Stop every worker and leave the commit feed (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            self._stop(worker)
            self.feed.unsubscribe(worker.cursor)
        # Slot locks are deliberately NOT taken here: shutdown runs after
        # the engine unpublished the pool (no new dispatches can reach it)
        # and closing the pipes makes any in-flight conversation fail over
        # to serial execution rather than deadlock against a dead worker.
        self._workers = []  # lock-lint: ignore[unguarded-write] — see above: pool already unpublished, pipes closed

    # ------------------------------------------------------------- dispatch

    def _call(self, worker: _WorkerHandle, message: Tuple) -> Tuple:
        """One pipe round-trip; raises :class:`WorkerCrashed` on a dead pipe."""
        try:
            worker.conn.send(message)
            return worker.conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            raise WorkerCrashed(repr(exc))

    def _catch_up(self, worker: _WorkerHandle, pin_gen: int, cut: int) -> int:
        """Send *worker* the slice the feed grants it for *(pin_gen, cut)* and
        fast-forward it to the pin; returns the record count.

        Raises :class:`~repro.storage.replication.ReplicationError` when the
        feed refuses the slice.
        """
        records = self.feed.take(worker.cursor.seq, worker.applied_gen, pin_gen, cut)
        if records or worker.applied_gen != pin_gen:
            reply = self._call(worker, ("catchup", records, pin_gen))
            if reply[0] != "caught":
                raise WorkerCrashed(f"catch-up failed: {reply!r}")
            worker.applied_gen = int(reply[1])
        self.feed.advance(worker.cursor, cut)
        return len(records)

    def run_batch(
        self,
        index: int,
        pin_gen: int,
        cut: int,
        jobs: List[Tuple[int, Dict[str, object]]],
        counts: Dict[str, int],
    ) -> Tuple[bool, Dict[int, Tuple]]:
        """Catch worker *index* up to *(pin_gen, cut)*, then run *jobs*
        (``(key, job)`` pairs) on it, in order.

        Returns ``(ready, outcomes)``.  *outcomes* holds one reply tuple per
        job key: the worker's ``("result", payload)`` / ``("refused", why)``,
        or — when the conversation ended early and *ready* is false —
        ``("refused", why)`` because the feed refused the catch-up, or
        ``("fallback", why)`` because the crash budget is spent.  A crash
        respawns the worker (reseeded from disk, caught up from the feed)
        and resumes with the job that was in flight; a third crash, or a
        respawn that fails, spends the budget.  What happened is added to
        *counts*, which belongs to the calling thread (see :attr:`counters`).
        """
        from repro.storage.replication import ReplicationError

        outcomes: Dict[int, Tuple] = {}
        pending = list(jobs)
        crashes = 0
        with self._slot_locks[index]:
            worker = self._workers[index]
            while True:
                try:
                    counts["catchup_records"] += self._catch_up(worker, pin_gen, cut)
                    while pending:
                        key, job = pending[0]
                        reply = self._call(worker, ("execute", job))
                        pending.pop(0)
                        outcomes[key] = reply
                        if reply[0] == "result":
                            counts["plans_shipped"] += 1
                        elif reply[0] == "refused":
                            counts["refusals"] += 1
                    return True, outcomes
                except ReplicationError as refusal:
                    verdict = ("refused", str(refusal))
                    counts["refusals"] += len(pending) or 1
                except WorkerCrashed as crash:
                    crashes += 1
                    verdict = ("fallback", f"worker crashed repeatedly: {crash}")
                    if crashes <= 2 and not self._closed:
                        self._stop(worker)
                        try:
                            self._spawn(worker)
                        except (StorageError, OSError) as failure:
                            verdict = ("fallback", f"worker respawn failed: {failure}")
                        else:
                            counts["restarts"] += 1
                            counts["workers_started"] += 1
                            continue
                outcomes.update((key, verdict) for key, _job in pending)
                return False, outcomes

    def catch_up_all(self, pin_gen: int, cut: int) -> None:
        """Bring every worker to *(pin_gen, cut)* (used by benchmarks/tests)."""
        counts: Dict[str, int] = collections.Counter()
        for index in range(len(self._workers)):
            self.run_batch(index, pin_gen, cut, [], counts)
        self.counters.update(counts)

    def worker_pids(self) -> List[int]:
        """The workers' process ids (crash tests kill these)."""
        return [worker.process.pid for worker in self._workers]
