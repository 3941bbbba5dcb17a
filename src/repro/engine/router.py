"""Read fan-out: a durable engine's replicas and the router over them.

:class:`Replicas` owns what a :class:`~repro.storage.engine.PrimaEngine`
fans reads out to — its one commit feed, the worker-process pool and the
replication hub — and tears them down in that order's reverse at close.

``PrimaEngine.parallel_query`` with ``mode="process"`` or ``mode="replica"``
runs here (:meth:`Replicas.route`).  Both modes are the same steps — the
replicas differ only in what they are sent, which the two target classes
below hide: pin and feed cut in one versioning-lock section; every target
**prepares** for ``(pin, cut)`` (catches up from the commit feed, or cannot
serve this pin); each statement is **classified** once (only queries and set
operations are routable, and a plan is built only for targets that are sent
one); the routable ones **fan out** round-robin over the prepared targets,
one thread each, and every statement runs whole on one target; whatever is
left unserved **falls back** to the primary at the same pin (DML and
transaction statements raise there, as in thread mode); the targets' counts,
kept in a dict of their own while they run on fan-out threads, are
**tallied** into the shared counters on the calling thread; the pin is
released.  Classification goes through
the primary interpreter's statement cache
(:meth:`MQLInterpreter.read_plan`), so a template the batch repeats is
parsed and planned once.
"""

from __future__ import annotations

import collections
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.engine.procpool import COUNTERS as POOL_COUNTERS
from repro.engine.procpool import ProcessPool
from repro.exceptions import StorageError
from repro.storage.replication import HUB_COUNTERS, CommitFeed, ReplicationError, ReplicationHub
from repro.storage.shipping import ShippedQueryResult, plan_to_json


class Routed(NamedTuple):
    """One routable statement of the batch."""

    index: int
    statement: str
    #: The job built from the optimized plan — plan-shipping targets only.
    job: Optional[Dict[str, object]]


class WorkerSlot:
    """A process-pool slot as a routing target: it is sent plan JSON over a
    pipe, with crash-retry (:meth:`ProcessPool.run_batch`)."""

    ships_plans = True

    def __init__(self, pool, index: int) -> None:
        self._pool = pool
        self._index = index
        self._at = (0, 0)
        self.counts: Dict[str, int] = collections.Counter()

    def prepare(self, pin_gen: int, cut: int, max_lag: int) -> bool:
        """Catch the worker up to *(pin_gen, cut)*, or refuse."""
        self._at = (pin_gen, cut)
        return self.execute([])[0]

    def execute(self, jobs) -> Tuple[bool, Dict[int, Tuple]]:
        return self._pool.run_batch(self._index, *self._at, jobs, self.counts)

    def serve(self, batch: List[Routed]) -> Dict[int, object]:
        _ready, outcomes = self.execute([(routed.index, routed.job) for routed in batch])
        return {
            routed.index: ShippedQueryResult.from_payload(
                routed.statement, outcomes[routed.index][1]
            )
            for routed in batch
            if outcomes[routed.index][0] == "result"
        }


class FollowerTarget:
    """An in-process follower as a routing target: it is sent statement text."""

    ships_plans = False

    def __init__(self, hub, follower) -> None:
        self._hub = hub
        self._follower = follower
        self.counts: Dict[str, int] = collections.Counter()

    def prepare(self, pin_gen: int, cut: int, max_lag: int) -> bool:
        """Skip a follower ahead of the pin (it cannot rewind); have the hub
        ship to one lagging more than *max_lag* generations; serve one within
        the bound as it is, at its own applied generation."""
        lag = self._follower.lag(pin_gen)
        if lag > max_lag:
            try:
                self._hub.ship(self._follower, pin_gen, cut)
                self.counts["waits"] += 1
            except ReplicationError:
                lag = -1
        if lag < 0:
            self.counts["skipped"] += 1
        return lag >= 0

    def serve(self, batch: List[Routed]) -> Dict[int, object]:
        results = {}
        for routed in batch:
            try:
                results[routed.index] = self._follower.query(routed.statement)
            except StorageError:
                # Follower-side failure (closed, promoted, racing detach):
                # the primary serves the statement.
                pass
        self.counts["routed"] += len(results)
        return results


class ReadRouter:
    """Routes one batch of read statements for a :class:`PrimaEngine`."""

    def __init__(self, engine, feed: CommitFeed) -> None:
        self._engine = engine
        self._feed = feed

    def run(
        self,
        statements: List[str],
        generation: Optional[int],
        targets: List[object],
        counters: Dict[str, int],
        max_lag: int = 0,
    ) -> List[object]:
        """Execute *statements* at one pin over *targets*; results come back
        in statement order.  *counters* is the targets' shared tally (the
        pool's or the hub's ``counters``, a :class:`collections.Counter`)."""
        handle, cut = self._engine._pin(generation, self._feed.position)  # noqa: SLF001
        try:
            pin_gen = handle.generation
            ready = [t for t in targets if t.prepare(pin_gen, cut, max_lag)]
            results: List[Optional[object]] = [None] * len(statements)
            if ready:
                routable = self._classify(statements, ready[0].ships_plans, pin_gen)
                for index, result in self._fan_out(routable, ready).items():
                    results[index] = result
            for index, result in enumerate(results):
                if result is None:
                    counters["fallbacks"] += 1
                    results[index] = handle.query(statements[index])
            return results
        finally:
            handle.release()
            for target in targets:
                counters.update(target.counts)

    def _classify(
        self, statements: List[str], ships_plans: bool, pin_gen: int
    ) -> List[Routed]:
        interpreter = self._engine.interpreter()
        routable: List[Routed] = []
        for index, statement in enumerate(statements):
            job = None
            try:
                choice = interpreter.read_plan(statement)
                if choice is None:
                    continue
                if ships_plans:
                    job = {"plan": plan_to_json(choice.best), "pin": pin_gen}
            except Exception:
                # Unparseable, untranslatable or unshippable (ShippingError):
                # the primary runs it and raises the proper MQL error.
                continue
            routable.append(Routed(index, statement, job))
        return routable

    @staticmethod
    def _fan_out(routable: List[Routed], ready: List[object]) -> Dict[int, object]:
        """Round-robin; each target serves its share on a thread of its own."""
        batches = [routable[first :: len(ready)] for first in range(len(ready))]
        pairs = [(target, batch) for target, batch in zip(ready, batches) if batch]
        served: Dict[int, object] = {}
        if pairs:
            with ThreadPoolExecutor(max_workers=len(pairs)) as fanout:
                for part in fanout.map(lambda pair: pair[0].serve(pair[1]), pairs):
                    served.update(part)
        return served


#: ``maintenance_report()``'s fan-out keys, all 0 while an engine has no
#: replicas: the pool's size and counters, the follower count, the worst
#: follower lag (in generations) and the hub's counters.
REPORT_ZEROS: Dict[str, int] = {
    "procpool_workers": 0,
    **{f"procpool_{key}": 0 for key in POOL_COUNTERS},
    "replication_followers": 0,
    "replication_lag": 0,
    **{f"replication_{key}": 0 for key in HUB_COUNTERS},
}


class Replicas:
    """A durable engine's read fan-out: commit feed, process pool, hub.

    Created on the engine's first replica request.  The feed taps the WAL
    (``wal``) once for both kinds of replica; the hub is cheap and made with
    it, the pool — worker processes — on first use (:meth:`pool`).
    """

    def __init__(self, engine, wal) -> None:
        self._engine = engine
        self.feed = CommitFeed(wal)
        self.hub = ReplicationHub(engine, self.feed)
        self._pool: Optional[ProcessPool] = None  # guarded-by: PrimaEngine._cache_lock

    def pool(self, workers: Optional[int] = None) -> ProcessPool:
        """The pool of checkpoint-seeded worker processes; *workers* sizes
        it on first use (default ``min(4, cpu count)``)."""
        with self._engine._cache_lock:  # noqa: SLF001
            if self._pool is None:
                size = workers or max(1, min(4, os.cpu_count() or 1))
                self._pool = ProcessPool(self._engine, self.feed, size)
            return self._pool

    def route(
        self,
        statements: List[str],
        generation: Optional[int],
        mode: str,
        workers: Optional[int],
        max_lag: int,
    ) -> List[object]:
        """``parallel_query``'s ``mode="process"`` and ``mode="replica"``.

        Every replica is caught up to the pin first — or left out when it
        cannot serve it (a replica cannot rewind) — the statements go
        round-robin over the rest, and whatever no replica served (EXPLAIN,
        DML — which still raises —, anything unparseable or unshippable,
        refusals, crashes) runs on the primary at the same pinned
        generation.  Results keep statement order and render byte-identical
        ``to_dicts()`` content.  ``mode="process"`` ships compiled plans to
        *workers* worker processes (:meth:`pool`), off-GIL; each statement
        runs whole on one of them.
        ``mode="replica"`` sends statement text to the hub's followers; one
        lagging at most *max_lag* generations serves at its own applied
        generation, so with the default 0 every follower answers exactly at
        the pin.
        """
        if mode == "process":
            pool = self.pool(workers)
            pool.counters["dispatches"] += 1
            counters = pool.counters
            targets = [WorkerSlot(pool, slot) for slot in range(pool.size)]
        else:
            counters = self.hub.counters
            targets = [FollowerTarget(self.hub, follower) for follower in self.hub.followers()]
        return ReadRouter(self._engine, self.feed).run(
            statements, generation, targets, counters, max_lag
        )

    def report(self) -> Dict[str, int]:
        """The :data:`REPORT_ZEROS` keys, counted."""
        report = dict(REPORT_ZEROS)
        pool = self._pool
        if pool is not None:
            report["procpool_workers"] = pool.size
            for key in POOL_COUNTERS:
                report[f"procpool_{key}"] = pool.counters[key]
        hub = self.hub
        report["replication_followers"] = len(hub.followers())
        report["replication_lag"] = hub.max_lag()
        for key in HUB_COUNTERS:
            report[f"replication_{key}"] = hub.counters[key]
        return report

    def close(self) -> None:
        """Stop the workers, detach the followers (they keep serving at
        their applied generations), then remove the WAL tap."""
        if self._pool is not None:
            self._pool.shutdown()
        self.hub.close()
        self.feed.close()
