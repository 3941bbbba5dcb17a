"""The five workloads: what each sets up, issues, and checks.

A workload hands the runner one *round* of operations at a time.  A round has
a fixed composition (only its order and its keys are drawn from the seed), and
the runner always finishes the round it started, so every run measures the
same statement mix however many rounds fit into ``--seconds``.  Operations
are generated lazily: a later operation of a round may depend on what an
earlier one acknowledged (the identifier a graft received, say).

Every operation is one call into the engine — an MQL statement through
``engine.query`` or, for link grafts and the read routes, one API call — and
every result is checked against the reference :class:`~.model.Model` outside
the timed span.
"""

from __future__ import annotations

import bisect
import functools
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

from bench_common import fingerprint, timed
from repro.storage.engine import PrimaEngine
from repro.storage.recovery import load_checkpoint
from repro.storage.shipping import plan_from_json, plan_to_json
from repro.storage.wal import DurabilityConfig

from .datasets import (
    FOREST_DEPTH,
    GROUPS,
    T0_BRANCHED,
    T0_T2,
    T0_T2_T4,
    build_forest,
    build_mesh,
    part_id,
)
from .model import Model, rows_match
from .tracing import TimedWAL, Tracer

PART: tuple = ("part", ())
ROUTES = ("serial", "pinned", "process", "replica")


@dataclass
class Op:
    """One timed call into the engine.

    *kind* is ``read`` (rendered inside the timed span), ``write`` (an
    acknowledged autocommit DML statement, link graft or ``COMMIT WORK``),
    ``session`` (``BEGIN WORK`` and the DML inside a transaction: a statement,
    but nothing is acknowledged yet) or ``maintenance`` (``CHECKPOINT``: timed
    on its own, outside the throughput and latency samples).
    """

    cls: str
    kind: str
    text: str
    expect: object = None
    call: Optional[Callable] = None
    #: Statements this operation stands for (a read-route batch carries 8).
    count: int = 1


class Workload:
    """Set-up, operation stream, checks and epilogue of one named workload."""

    name = ""
    #: WAL sync policy; ``None`` keeps the engine in memory.
    fsync: Optional[str] = None
    #: One latency sample per round (mean over its operations), not per operation.
    sample_rounds = False

    def __init__(self, seed: int, scale: float, workdir: Path, tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tracer = tracer
        self.rng = random.Random(seed * 7919 + 1)
        self.model: Model
        self.engine: Optional[PrimaEngine] = None
        #: Set-up split and epilogue measurements, by metric name.
        self.measured: Dict[str, float] = {}
        #: Checks that failed outside the operation stream (recovery, routes).
        self.extra_failed = 0
        self.extra_attempted = 0
        self.user_bytes = 0

    # -------------------------------------------------------------- set-up

    def build(self):
        """Generate the dataset; returns ``(Database, Model)``."""
        raise NotImplementedError

    def prime(self) -> Iterator[Op]:
        """Writes a round's deletes need before the first round can run."""
        return iter(())

    def warm(self) -> None:
        """Issue one statement of every class, so caches and accelerators exist."""
        for ops in (self.prime(), self.round(0.0)):
            for op in ops:
                result, rendered = run_op(self.engine, op, None)
                if not self.check(op, result, rendered):
                    raise RuntimeError(f"{self.name}: warm-up {op.cls} failed its check: {op.text}")

    def setup(self) -> None:
        started = time.perf_counter()
        database, self.model = self.build()
        generated = time.perf_counter()
        durability = None
        if self.fsync is not None:
            factory = None
            if self.tracer is not None:
                factory = functools.partial(TimedWAL, tracer=self.tracer)
            durability = DurabilityConfig(
                self.workdir / "db", fsync=self.fsync, group_commit=8, wal_factory=factory
            )
        self.engine = PrimaEngine.from_database(database, durability=durability)
        del database
        loaded = time.perf_counter()
        self.first_statement()
        first = time.perf_counter()
        self.warm()
        self.user_bytes = 0
        self.measured["datasets.generate_s"] = generated - started
        self.measured["storage.engine.load_s"] = loaded - generated
        self.measured["storage.engine.first_query_s"] = first - loaded
        self.measured["setup_s"] = time.perf_counter() - started

    def first_statement(self) -> None:
        """The first statement after the load: builds snapshot, network, statistics."""
        raise NotImplementedError

    # ----------------------------------------------------------- operation

    def round(self, progress: float) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, op: Op, result, rendered) -> bool:
        raise NotImplementedError

    def epilogue(self) -> None:
        """Work after the timed phases (crash recovery, route probes)."""

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()

    # -------------------------------------------------------------- helpers

    def timed(self, key: str, function):
        """Run *function*, keep its wall-clock seconds under *key*, return its value."""
        value, self.measured[key] = timed(function)
        return value

    def acknowledged(self, op: Op) -> None:
        self.user_bytes += len(op.text.encode("utf-8"))


def run_op(engine: PrimaEngine, op: Op, tracer: Optional[Tracer]):
    """Issue *op*; returns ``(result, rendered)``.  Reads render inside the call."""
    if op.call is not None:
        if tracer is None:
            return op.call(engine), None
        layer = "engine.write" if op.kind == "write" else "engine.execute"
        return tracer.call(op.cls, layer, lambda: op.call(engine)), None
    if tracer is not None:
        return tracer.query(engine, op.text, op.cls)
    result = engine.query(op.text)
    return result, (result.to_dicts() if op.kind == "read" else None)


def by_id(rendered: List[dict]) -> List[dict]:
    return sorted(rendered, key=lambda node: node["_id"])


# ------------------------------------------------------------------ mesh100k


class MeshWorkload(Workload):
    """Shared by the two workloads over the ``mesh100k`` dataset."""

    def build(self):
        self.per_type = max(200, round(20_000 * self.scale))
        return build_mesh(self.seed, self.per_type)

    def first_statement(self) -> None:
        self.engine.query("SELECT ALL FROM t0 - t2 - t4 WHERE t0.key = 't0_0';").to_dicts()


class OltpPoint(MeshWorkload):
    """90 % point-molecule reads, 10 % single-object DML, Zipf(1.0) keys."""

    name = "oltp_point"
    fsync = "batch"
    MIX = ["point"] * 58 + ["branch"] * 30 + ["own"] * 2 + ["insert"] * 4 + ["modify"] * 3 + ["delete"] * 3

    def build(self):
        database, model = super().build()
        keys = [f"t0_{index}" for index in range(self.per_type)]
        self.rng.shuffle(keys)
        self.hot_keys = keys
        self.cumulative: List[float] = []
        total = 0.0
        for rank in range(1, len(keys) + 1):
            total += 1.0 / rank
            self.cumulative.append(total)
        #: key -> identifier of every live ``t0`` atom (inserted ones get surrogates).
        self.by_key = {key: key for key in keys}
        self.inserted: List[str] = []
        self.sequence = 0
        return database, model

    def zipf_key(self) -> str:
        point = self.rng.random() * self.cumulative[-1]
        return self.hot_keys[bisect.bisect_left(self.cumulative, point)]

    def prime(self) -> Iterator[Op]:
        # A round deletes 3 of its own inserts; it must never run out of them.
        return (self.op_insert() for _ in range(8))

    def round(self, progress: float) -> Iterator[Op]:
        mix = list(self.MIX)
        self.rng.shuffle(mix)
        for cls in mix:
            yield getattr(self, "op_" + cls)()

    def op_point(self) -> Op:
        key = self.zipf_key()
        text = f"SELECT ALL FROM t0 - t2 - t4 WHERE t0.key = '{key}';"
        return Op("point", "read", text, (T0_T2_T4, key))

    def op_branch(self) -> Op:
        key = self.zipf_key()
        text = f"SELECT ALL FROM t0 - (t1, t2 - t4, t3) WHERE t0.key = '{key}';"
        return Op("branch", "read", text, (T0_BRANCHED, key))

    def op_own(self) -> Op:
        """A point read of a molecule this run inserted (read your writes)."""
        key = self.rng.choice(self.inserted)
        text = f"SELECT ALL FROM t0 - t2 - t4 WHERE t0.key = '{key}';"
        return Op("point", "read", text, (T0_T2_T4, key))

    def op_insert(self) -> Op:
        self.sequence += 1
        root = {"key": f"n{self.sequence}", "value": self.rng.randint(0, 100), "grp": self.rng.choice(GROUPS)}
        child = {"key": f"c{self.sequence}", "value": self.rng.randint(0, 100), "grp": self.rng.choice(GROUPS)}
        shared = f"t2_{self.rng.randrange(self.per_type)}"
        text = (
            f"INSERT t0 - t2 VALUES {{key: '{root['key']}', value: {root['value']}, "
            f"grp: '{root['grp']}', t2: ({{key: '{child['key']}', value: {child['value']}, "
            f"grp: '{child['grp']}'}}, {{_id: '{shared}'}})}};"
        )
        return Op("insert", "write", text, (root, child, shared))

    def op_modify(self) -> Op:
        key, value = self.zipf_key(), self.rng.randint(0, 100)
        text = f"MODIFY t0 FROM t0 SET value = {value} WHERE t0.key = '{key}';"
        return Op("modify", "write", text, (key, value))

    def op_delete(self) -> Op:
        key = self.inserted.pop(self.rng.randrange(len(self.inserted)))
        return Op("delete", "write", f"DELETE FROM t0 WHERE t0.key = '{key}';", key)

    def check(self, op: Op, result, rendered) -> bool:
        if op.kind == "read":
            shape, key = op.expect
            return rendered == [self.model.render(shape, self.by_key[key])]
        self.acknowledged(op)
        summary = result.write_summary
        if op.cls == "insert":
            root, child, shared = op.expect
            node = result.to_dicts()[0]
            fresh = [c["_id"] for c in node.get("t2", ()) if c["key"] == child["key"]]
            if (summary.atoms_inserted, summary.links_inserted, len(fresh)) != (2, 2, 1):
                return False
            self.model.put("t0", node["_id"], root)
            self.model.put("t2", fresh[0], child)
            self.model.connect("l_t0_t2", node["_id"], fresh[0])
            self.model.connect("l_t0_t2", node["_id"], shared)
            self.by_key[root["key"]] = node["_id"]
            self.inserted.append(root["key"])
            return True
        if op.cls == "modify":
            key, value = op.expect
            self.model.atoms["t0"][self.by_key[key]]["value"] = value
        else:
            self.model.delete("t0", self.by_key.pop(op.expect))
        return summary.molecules_affected == 1


class AnalyticScan(MeshWorkload):
    """Conjunctive derivations, projections, aggregates; two classes that scan."""

    name = "analytic_scan"
    MIX = ["derive"] * 10 + ["project"] * 6 + ["aggregate"] * 6 + ["count"] * 2 + ["leaf"]

    def build(self):
        database, model = super().build()
        self.by_value: Dict[int, List[str]] = {}
        for identifier, values in model.atoms["t0"].items():
            self.by_value.setdefault(values["value"], []).append(identifier)
        #: leaf value -> roots with a ``t4`` grandchild of that value.
        self.by_leaf: Dict[int, set] = {}
        for root, seconds in model.children["l_t0_t2"].items():
            for second in seconds:
                for leaf in model.children["l_t2_t4"].get(second, ()):
                    self.by_leaf.setdefault(model.atoms["t4"][leaf]["value"], set()).add(root)
        return database, model

    def round(self, progress: float) -> Iterator[Op]:
        mix = list(self.MIX)
        self.rng.shuffle(mix)
        for cls in mix:
            yield getattr(self, "op_" + cls)()

    def op_derive(self) -> Op:
        value, group = self.rng.randint(0, 100), self.rng.choice(GROUPS)
        text = f"SELECT ALL FROM t0 - t2 - t4 WHERE t0.value = {value} AND t0.grp = '{group}';"
        roots = [r for r in self.by_value.get(value, ()) if self.model.atoms["t0"][r]["grp"] == group]
        return Op("derive", "read", text, (T0_T2_T4, roots))

    def op_project(self) -> Op:
        value = self.rng.randint(0, 100)
        text = f"SELECT t0, t2 FROM t0 - t2 - t4 WHERE t0.value = {value};"
        return Op("project", "read", text, (T0_T2, self.by_value.get(value, ())))

    def op_aggregate(self) -> Op:
        if self.rng.random() < 0.5:
            text = "SELECT t0.grp, COUNT(*), AVG(t0.value), MAX(t0.value) FROM t0 GROUP BY t0.grp;"
            expect = ("grp", (("count", "*"), ("avg", "value"), ("max", "value")), None)
        else:
            group = self.rng.choice(GROUPS)
            text = f"SELECT t0.value, COUNT(*), MIN(t0.value) FROM t0 WHERE t0.grp = '{group}' GROUP BY t0.value;"
            expect = ("value", (("count", "*"), ("min", "value")), ("grp", group))
        return Op("aggregate", "read", text, expect)

    def op_count(self) -> Op:
        child = self.rng.choice(("t1", "t2", "t3"))
        text = f"SELECT t0.grp, COUNT({child}) FROM t0 - {child} GROUP BY t0.grp;"
        return Op("count", "read", text, child)

    def op_leaf(self) -> Op:
        value = self.rng.randint(0, 100)
        text = f"SELECT ALL FROM t0 - t2 - t4 WHERE t4.value = {value};"
        return Op("leaf", "read", text, (T0_T2_T4, self.by_leaf.get(value, ())))

    def check(self, op: Op, result, rendered) -> bool:
        if op.cls == "aggregate":
            group_by, functions, where = op.expect
            return rows_match(rendered, self.model.aggregate("t0", group_by, functions, where))
        if op.cls == "count":
            # COUNT(<component>) counts the distinct component atoms of a group.
            link = self.model.children[f"l_t0_{op.expect}"]
            members: Dict[str, set] = {group: set() for group in GROUPS}
            for root, values in self.model.atoms["t0"].items():
                members[values["grp"]].update(link.get(root, ()))
            expected = [{"t0.grp": g, f"count({op.expect})": len(members[g])} for g in sorted(members)]
            return rows_match(rendered, expected)
        shape, roots = op.expect
        return by_id(rendered) == [self.model.render(shape, root) for root in sorted(roots)]


# -------------------------------------------------------------------- forests


class ForestWorkload(Workload):
    """Shared by the three workloads over ``composition`` chains."""

    base_roots = 1600

    def build(self):
        self.roots = max(4, round(self.base_roots * self.scale))
        self.parts = self.roots * (FOREST_DEPTH + 1)
        return build_forest(self.seed, self.roots)

    def first_statement(self) -> None:
        self.engine.create_structure_index("part", "composition", "down")
        self.engine.query("SELECT ALL FROM part WHERE part.part_no = 'P000001';").to_dicts()
        # The first indexed closure builds the interval encoding, the first
        # aggregate the columnar projection.
        self.timed("storage.structure_index.build_s", lambda: run_op(self.engine, self.op_closure(), None))
        self.timed("storage.columnar.build_s", lambda: run_op(self.engine, self.op_aggregate(), None))

    def random_part(self) -> str:
        return part_id(self.rng.randrange(1, self.parts + 1))

    def op_closure(self, part: Optional[str] = None) -> Op:
        part = part or self.random_part()
        text = f"SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.part_no = '{part}';"
        return Op("closure", "read", text, part)

    def op_aggregate(self) -> Op:
        function = self.rng.choice(("avg", "sum", "min", "max"))
        text = f"SELECT part.level, COUNT(*), {function.upper()}(part.cost) FROM part GROUP BY part.level;"
        return Op("aggregate", "read", text, ("level", (("count", "*"), (function, "cost")), None))

    def op_point(self, part: Optional[str] = None) -> Op:
        part = part or self.random_part()
        return Op("point", "read", f"SELECT ALL FROM part WHERE part.part_no = '{part}';", part)

    def op_equal(self) -> Op:
        level, cost = self.rng.randrange(FOREST_DEPTH + 1), float(self.rng.randint(1, 500))
        text = f"SELECT ALL FROM part WHERE part.level = {level} AND part.cost = {cost};"
        return Op("equal", "read", text, (level, cost))

    def identifier(self, part_no: str) -> Optional[str]:
        """Base parts are identified by their number; grafts by a surrogate."""
        return part_no if part_no in self.model.atoms["part"] else None

    def check_read(self, op: Op, result, rendered) -> bool:
        if op.cls == "aggregate":
            group_by, functions, where = op.expect
            return rows_match(rendered, self.model.aggregate("part", group_by, functions, where))
        if op.cls == "equal":
            matches = [
                identifier
                for identifier, values in self.model.atoms["part"].items()
                if (values["level"], values["cost"]) == op.expect
            ]
            return by_id(rendered) == [self.model.render(PART, m) for m in sorted(matches)]
        identifier = self.identifier(op.expect)
        if op.cls == "point":
            expected = [] if identifier is None else [self.model.render(PART, identifier)]
            return rendered == expected
        closures = {m.root_atom.identifier: set(m.atom_identifiers) for m in result.molecules}
        return closures == self.model.closures_containing("composition", identifier)


class BomClosure(ForestWorkload):
    """Selective closures over 1,600 chains of 65 parts, interval-indexed."""

    name = "bom_closure"
    STRATA = 5

    def round(self, progress: float) -> Iterator[Op]:
        # One part from each band of levels: a closure's result grows with
        # the level of the part it selects, so each round covers the range.
        band = (FOREST_DEPTH + 1) // self.STRATA
        for stratum in self.rng.sample(range(self.STRATA), self.STRATA):
            level = stratum * band + self.rng.randrange(band)
            root = self.rng.randrange(self.roots)
            yield self.op_closure(part_id(root * (FOREST_DEPTH + 1) + level + 1))

    def check(self, op: Op, result, rendered) -> bool:
        return self.check_read(op, result, rendered)


class WriteDurable(ForestWorkload):
    """95 % writes under ``fsync="always"``, reads that must see them, a crash."""

    name = "write_durable"
    fsync = "always"
    MIX = ["graft"] * 20 + ["modify"] * 27 + ["prune"] * 16 + ["txn"] + ["recent"] * 4 + ["aggregate"]
    TORN = b"\x00\x00\x00\xc8\x12\x34\x56\x78" + b"x" * 100

    def build(self):
        database, model = super().build()
        #: part_no -> surrogate identifier of every live graft.
        self.grafts: Dict[str, str] = {}
        self.sequence = 0
        self.previous_graft: Optional[str] = None
        self.recent: List[str] = ["P000001"]
        self.pending: List[tuple] = []
        self.rounds = 0
        self.checkpointed = False
        return database, model

    def identifier(self, part_no: str) -> Optional[str]:
        return self.grafts.get(part_no) or super().identifier(part_no)

    def any_part(self) -> str:
        if self.grafts and self.rng.random() < 0.25:
            return self.rng.choice(list(self.grafts))
        return self.random_part()

    def prime(self) -> Iterator[Op]:
        # A round prunes 16 grafts; it must never run out of them.
        for _ in range(16):
            yield from self.graft()

    def round(self, progress: float) -> Iterator[Op]:
        if progress >= 0.5 and not self.checkpointed:
            self.checkpointed = True
            yield Op("checkpoint", "maintenance", "CHECKPOINT;")
        self.rounds += 1
        mix = list(self.MIX)
        self.rng.shuffle(mix)
        for cls in mix:
            if cls == "graft":
                yield from self.graft()
            elif cls == "txn":
                yield from self.transaction()
            elif cls == "modify":
                yield self.op_modify("modify", "write")
            elif cls == "prune":
                part = self.rng.choice(list(self.grafts))
                yield Op("prune", "write", f"DELETE FROM part WHERE part.part_no = '{part}';", part)
            elif cls == "recent":
                yield self.op_point(self.rng.choice(self.recent[-8:]))
            else:
                yield self.op_aggregate()
        if self.rounds % 10 == 0:
            yield self.op_closure(self.rng.choice(self.recent[-8:]))

    def graft(self) -> Iterator[Op]:
        """INSERT a leaf, then link it; every fifth hangs under the previous graft."""
        self.sequence += 1
        parent_no = self.random_part()
        if self.sequence % 5 == 0 and self.previous_graft in self.grafts:
            parent_no = self.previous_graft
        parent = self.identifier(parent_no)
        values = {
            "part_no": f"G{self.sequence:06d}",
            "description": "graft",
            "level": self.model.atoms["part"][parent]["level"] + 1,
            "cost": float(self.rng.randint(1, 500)),
        }
        text = (
            f"INSERT part VALUES {{part_no: '{values['part_no']}', description: 'graft', "
            f"level: {values['level']}, cost: {values['cost']}}};"
        )
        yield Op("insert", "write", text, values)
        leaf = self.grafts.get(values["part_no"])
        if leaf is not None:  # the INSERT was acknowledged
            yield Op(
                "connect", "write", f"composition {parent} {leaf}", (parent, leaf),
                call=lambda engine: engine.connect("composition", parent, leaf),
            )

    def op_modify(self, cls: str, kind: str) -> Op:
        part, cost = self.any_part(), float(self.rng.randint(1, 500))
        text = f"MODIFY part FROM part SET cost = {cost} WHERE part.part_no = '{part}';"
        return Op(cls, kind, text, (part, cost))

    def transaction(self) -> Iterator[Op]:
        yield Op("begin", "session", "BEGIN WORK;")
        for _ in range(10):
            yield self.op_modify("txn_modify", "session")
        yield Op("commit", "write", "COMMIT WORK;")

    def check(self, op: Op, result, rendered) -> bool:
        if op.kind == "read":
            return self.check_read(op, result, rendered)
        if op.kind == "maintenance" or op.cls == "begin":
            return True
        self.acknowledged(op)
        if op.cls == "insert":
            identifier = result.molecules[0].root_atom.identifier
            self.model.put("part", identifier, op.expect)
            self.grafts[op.expect["part_no"]] = identifier
            self.previous_graft = op.expect["part_no"]
            return result.write_summary.atoms_inserted == 1
        if op.cls == "connect":
            self.model.connect("composition", *op.expect)
            self.recent.append(self.model.atoms["part"][op.expect[1]]["part_no"])
            return True
        if op.cls == "prune":
            self.model.delete("part", self.grafts.pop(op.expect))
            self.recent = [part for part in self.recent if part != op.expect] or ["P000001"]
            return result.write_summary.atoms_removed == 1
        if op.cls == "txn_modify":
            self.pending.append(op.expect)
            return result.write_summary.molecules_affected == 1
        if op.cls == "commit":
            changes, self.pending = self.pending, []
        else:
            changes = [op.expect]
            if result.write_summary.molecules_affected != 1:
                return False
        for part, cost in changes:
            self.model.atoms["part"][self.identifier(part)]["cost"] = cost
            self.recent.append(part)
        return True

    def epilogue(self) -> None:
        """Crash without ``close()``: copy the directory, tear the log's tail, reopen."""
        source = self.workdir / "db"
        crashed = self.workdir / "crashed"
        shutil.copytree(source, crashed)
        with open(crashed / "wal.log", "ab") as log:
            log.write(self.TORN)
        config = DurabilityConfig(crashed, fsync=self.fsync)
        self.measured["storage.recovery.checkpoint_bytes"] = os.path.getsize(config.checkpoint_path)
        if self.tracer is not None:
            self.timed("storage.recovery.load_checkpoint_s", lambda: load_checkpoint(config))
        recovered = self.timed("recovery_s", lambda: PrimaEngine.open(crashed, fsync=self.fsync))
        try:
            outcome = recovered.recovery
            self.measured["storage.recovery.records_replayed"] = outcome.records_replayed
            self.measured["storage.recovery.discarded_bytes"] = outcome.discarded_bytes
            survivors = {atom.identifier: dict(atom.values) for atom in recovered.scan("part")}
            links = recovered.statistics()["links"]["composition"]
        finally:
            recovered.close()
        expected = self.model.atoms["part"]
        missing = sum(1 for identifier, values in expected.items() if survivors.get(identifier) != values)
        missing += len(survivors.keys() - expected.keys())
        missing += links != self.model.link_count("composition")
        missing += outcome.discarded_bytes != len(self.TORN)
        self.extra_attempted += 1
        self.extra_failed += missing


class ReadRoutes(ForestWorkload):
    """One batch of 8 reads through four routes at the same generation."""

    name = "read_routes"
    fsync = "batch"
    base_roots = 100
    sample_rounds = True
    BURST = 100

    def setup(self) -> None:
        self.fanout = min(2, os.cpu_count() or 1)
        self.slowest_ns = 0
        self.dispatch_ns: List[int] = []
        self.followers: list = []
        super().setup()
        del self.dispatch_ns[:]  # the warm-up cycle's sample

    def warm(self) -> None:
        self.engine.checkpoint()
        self.timed("engine.procpool.seed_s", lambda: self.engine.process_pool(self.fanout))
        started = time.perf_counter()
        self.followers = [self.engine.create_follower(f"bench-{i}") for i in range(self.fanout)]
        self.measured["storage.replication.seed_s"] = (time.perf_counter() - started) / self.fanout
        super().warm()

    def batch(self, light: bool = False) -> List[Op]:
        """2 grouped aggregates, 5 point/equality reads and — unless *light* — 1 closure.

        One closure, not two: a pinned or follower closure is ~270 ms of
        pure Python, and two of them in flight on two threads measure the
        GIL hand-over (the batch took 1.2–1.9 s, three rounds a run), not
        the routes.
        """
        ops = [self.op_aggregate(), self.op_aggregate(), self.op_equal()]
        ops += [self.op_point() for _ in range(4)]
        if not light:
            ops.append(self.op_closure())
        self.rng.shuffle(ops)
        return ops

    def route(self, name: str, texts: List[str]) -> Callable:
        """The call that sends *texts* through one route and renders every result."""
        options = {
            "pinned": {"threads": self.fanout},
            "process": {"mode": "process", "workers": self.fanout},
            "replica": {"mode": "replica", "max_lag": 0},
        }.get(name)

        def send(engine):
            begun = time.perf_counter_ns()
            if options is None:
                results, slowest = [], 0
                for text in texts:
                    issued = time.perf_counter_ns()
                    results.append(engine.query(text))
                    slowest = max(slowest, time.perf_counter_ns() - issued)
                self.slowest_ns = slowest
            else:
                results = engine.parallel_query(texts, **options)
            for result in results:
                result.to_dicts()
            if name == "process":
                # What dispatch adds to the batch's slowest statement run alone.
                self.dispatch_ns.append(time.perf_counter_ns() - begun - self.slowest_ns)
            return results

        return send

    def round(self, progress: float, light: bool = False) -> Iterator[Op]:
        batch = self.batch(light)
        texts = [op.text for op in batch]
        for name in ROUTES:
            yield Op(name, "read", " ".join(texts), batch, call=self.route(name, texts), count=len(batch))

    def check(self, op: Op, result, rendered) -> bool:
        """The serial route agrees with the model; every other route with the serial one."""
        prints = [fingerprint(one) for one in result]
        if op.cls != "serial":
            return prints == self.reference
        self.reference = prints
        return all(self.check_read(read, one, one.to_dicts()) for read, one in zip(op.expect, result))

    def epilogue(self) -> None:
        """A write burst, then one closure-free batch per route: catch-up cost.

        Closure-free, because after any write a pinned or follower closure
        falls off the structure index and takes seconds (README, sizing notes).
        """
        self.measured["engine.procpool.dispatch_ms"] = statistics.median(self.dispatch_ns) / 1e6
        if self.tracer is not None:
            self.probes([op.text for op in self.batch()])
        for _ in range(self.BURST):
            part, cost = self.random_part(), float(self.rng.randint(1, 500))
            self.engine.query(f"MODIFY part FROM part SET cost = {cost} WHERE part.part_no = '{part}';")
            self.model.atoms["part"][part]["cost"] = cost
        keys = {"process": "engine.procpool.catchup_ms", "replica": "storage.replication.catchup_ms"}
        for op in self.round(1.0, light=True):
            started = time.perf_counter()
            result = op.call(self.engine)
            if op.cls in keys:
                self.measured[keys[op.cls]] = (time.perf_counter() - started) * 1000.0
            self.extra_attempted += op.count
            if not self.check(op, result, None):
                self.extra_failed += op.count

    def probes(self, batch: List[str]) -> None:
        """Pinned-view overhead and plan-shipping codec cost on one batch."""
        overhead, encode, decode = [], [], []
        with self.engine.snapshot_at() as handle:
            for text in batch:
                started = time.perf_counter_ns()
                self.engine.query(text).to_dicts()
                head = time.perf_counter_ns()
                handle.query(text).to_dicts()
                overhead.append((time.perf_counter_ns() - head) - (head - started))
        for text in batch:
            plan = self.engine.plan(text).best
            started = time.perf_counter_ns()
            shipped = plan_to_json(plan)
            encoded = time.perf_counter_ns()
            plan_from_json(shipped)
            decode.append(time.perf_counter_ns() - encoded)
            encode.append(encoded - started)
        self.measured["core.versions.pinned_overhead_ms"] = statistics.median(overhead) / 1e6
        self.measured["storage.shipping.encode_plan_us"] = statistics.median(encode) / 1e3
        self.measured["storage.shipping.decode_plan_us"] = statistics.median(decode) / 1e3

    def close(self) -> None:
        super().close()
        for follower in self.followers:
            follower.close()


WORKLOADS = {cls.name: cls for cls in (OltpPoint, BomClosure, AnalyticScan, WriteDurable, ReadRoutes)}
