"""Fault injection: crash at every WAL boundary, recover the committed prefix.

The durability contract under test: **a crash at any injected point after a
commit returns loses no committed data** — recovery replays the log into a
state byte-identical to the pre-crash committed head, torn final records are
discarded by checksum, and ``checkpoint()`` truncates the log while
preserving the guarantee.

Two injection mechanisms are exercised:

* **truncation** — a reference run records the WAL byte size and the full
  store state after every commit; copies of the log cut at every record
  boundary (and at mid-record offsets, simulating torn writes) must recover
  to exactly the state of the longest committed prefix;
* **``CrashingWAL``** — a fault-injecting WAL double that dies (with a
  partial, torn append) once a byte budget is exhausted, killing the process
  state mid-workload; recovery from the directory must again yield the
  committed prefix.

A hypothesis sweep drives random commit/crash interleavings through the same
assertion.  Runs are made byte-reproducible by resetting the atom surrogate
counter before each build.
"""

import json
import os
import shutil
from pathlib import Path
from typing import Callable, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.atom import AtomType, reset_surrogate_counter
from repro.core.link import LinkType
from repro.exceptions import SchemaError, TransactionError
from repro.manipulation.transactions import Transaction
from repro.storage import DurabilityConfig, PrimaEngine, WriteAheadLog, read_wal
from repro.storage.wal import FSYNC_ALWAYS


class SimulatedCrash(RuntimeError):
    """Raised by :class:`CrashingWAL` when its byte budget is exhausted."""


class CrashingWAL(WriteAheadLog):
    """A WAL double that dies mid-append after *crash_after_bytes* bytes.

    The bytes up to the budget are written (and flushed + fsynced, so the
    torn record really is on disk) before :class:`SimulatedCrash` is raised —
    the worst-case torn write a power failure can produce.
    """

    def __init__(self, path, fsync=FSYNC_ALWAYS, group_commit=8, crash_after_bytes=None):
        super().__init__(path, fsync=fsync, group_commit=group_commit)
        self._budget = crash_after_bytes

    def _write_bytes(self, blob: bytes) -> None:
        if self._budget is None:
            super()._write_bytes(blob)
            return
        if len(blob) > self._budget:
            torn = blob[: self._budget]
            if torn:
                super()._write_bytes(torn)
            self._file.flush()
            os.fsync(self._file.fileno())
            raise SimulatedCrash(
                f"simulated crash: {len(torn)} of {len(blob)} bytes of the "
                "final record reached disk"
            )
        self._budget -= len(blob)
        super()._write_bytes(blob)

    def _rewind_failed_append(self, size: int) -> None:
        """A dead process runs no cleanup: the torn record stays on disk."""


def crashing_factory(crash_after_bytes: int) -> Callable[..., WriteAheadLog]:
    """A ``DurabilityConfig.wal_factory`` producing a budgeted CrashingWAL."""

    def factory(path, fsync=FSYNC_ALWAYS, group_commit=8):
        return CrashingWAL(
            path, fsync=fsync, group_commit=group_commit, crash_after_bytes=crash_after_bytes
        )

    return factory


# -------------------------------------------------------- scripted workload


def build_engine(directory, wal_factory=None) -> PrimaEngine:
    """A small parts/suppliers engine with a deterministic surrogate space."""
    reset_surrogate_counter()
    config = DurabilityConfig(directory, fsync=FSYNC_ALWAYS, wal_factory=wal_factory)
    engine = PrimaEngine("crashbox", durability=config)
    engine.create_atom_type("part", {"part_no": "string", "cost": "integer"})
    engine.create_atom_type("supplier", {"name": "string"})
    engine.create_link_type("supplies", "supplier", "part")
    return engine


def op_insert_p1(engine):
    engine.query("INSERT part VALUES {part_no: 'P1', cost: 10};")


def op_insert_p2(engine):
    engine.query("INSERT part VALUES {part_no: 'P2', cost: 20};")


def op_store_supplier(engine):
    engine.store_atom("supplier", identifier="s1", name="ACME")


def op_connect(engine):
    engine.connect("supplies", "s1", "part#1")


def op_modify(engine):
    engine.query("MODIFY part FROM part SET cost = 99 WHERE part.part_no = 'P1';")


def op_session_burst(engine):
    engine.query("BEGIN WORK;")
    engine.query("INSERT part VALUES {part_no: 'P3', cost: 30};")
    engine.query("MODIFY part FROM part SET cost = 31 WHERE part.part_no = 'P3';")
    engine.query("COMMIT WORK;")


def op_delete_p2(engine):
    engine.query("DELETE FROM part WHERE part.part_no = 'P2';")


def op_delete_atom(engine):
    engine.delete_atom("part", "part#1")


#: Each workload step produces exactly one commit record (the session burst
#: buffers its three statements into one record at COMMIT WORK).
WORKLOAD: Tuple[Callable, ...] = (
    op_insert_p1,
    op_insert_p2,
    op_store_supplier,
    op_connect,
    op_modify,
    op_session_burst,
    op_delete_p2,
    op_delete_atom,
)


def store_state(engine: PrimaEngine) -> str:
    """A byte-stable fingerprint of the engine's database (the durable truth)."""
    database = engine.to_database()
    atoms = {
        atom_type.name: {atom.identifier: atom.values for atom in atom_type}
        for atom_type in database.atom_types
    }
    links = {
        link_type.name: sorted(sorted(link.given_order) for link in link_type)
        for link_type in database.link_types
    }
    return json.dumps({"atoms": atoms, "links": links}, sort_keys=True, default=str)


def reference_run(directory) -> Tuple[List[int], List[str]]:
    """Run the workload; return (WAL size, state fingerprint) per boundary.

    Boundary 0 is the post-DDL state (before the first commit); boundary i
    (1-based) is the state after workload step i.
    """
    engine = build_engine(directory)
    boundaries = [engine.wal.bytes_written]
    states = [store_state(engine)]
    for step in WORKLOAD:
        step(engine)
        boundaries.append(engine.wal.bytes_written)
        states.append(store_state(engine))
    engine.close()
    return boundaries, states


def recover_truncated(source_dir, target_dir, cut: int) -> PrimaEngine:
    """Copy *source_dir* with the WAL cut at byte *cut* and recover from it."""
    target_dir = Path(target_dir)
    if target_dir.exists():
        shutil.rmtree(target_dir)
    target_dir.mkdir(parents=True)
    checkpoint = Path(source_dir) / "checkpoint.json"
    if checkpoint.exists():
        shutil.copy(checkpoint, target_dir / "checkpoint.json")
    wal_bytes = (Path(source_dir) / "wal.log").read_bytes()
    (target_dir / "wal.log").write_bytes(wal_bytes[:cut])
    reset_surrogate_counter()
    return PrimaEngine("crashbox", durability=DurabilityConfig(target_dir))


def expected_state(boundaries: List[int], states: List[str], cut: int) -> str:
    """The committed-prefix state a recovery from byte *cut* must produce."""
    best = 0
    for index, size in enumerate(boundaries):
        if size <= cut:
            best = index
    return states[best]


def assert_committed_prefix(
    recovered: PrimaEngine, boundaries: List[int], states: List[str], cut: int
) -> None:
    """The core contract: recovery from byte *cut* yields the committed prefix.

    For cuts inside the DDL prologue (before the first commit) no occurrence
    data existed yet — the recovered catalog is a prefix of the DDL and every
    occurrence is empty; from the first commit boundary on, the recovered
    state must be byte-identical to the longest committed prefix.
    """
    if cut < boundaries[0]:
        payload = json.loads(store_state(recovered))
        assert all(not atoms for atoms in payload["atoms"].values()), f"byte cut {cut}"
        assert all(not links for links in payload["links"].values()), f"byte cut {cut}"
    else:
        assert store_state(recovered) == expected_state(boundaries, states, cut), (
            f"byte cut {cut}"
        )


# ------------------------------------------------------------- record-level


def test_crash_at_every_record_boundary_recovers_the_committed_prefix(tmp_path):
    boundaries, states = reference_run(tmp_path / "ref")
    assert len(set(boundaries)) == len(boundaries), "every step must append"
    for index, cut in enumerate(boundaries):
        recovered = recover_truncated(tmp_path / "ref", tmp_path / "rec", cut)
        assert store_state(recovered) == states[index], f"boundary {index}"
        assert recovered.recovery.discarded_bytes == 0
        recovered.close()


def test_torn_final_record_is_discarded(tmp_path):
    boundaries, states = reference_run(tmp_path / "ref")
    # Cut inside every record: just past the previous boundary (torn header),
    # mid-payload, and one byte short of complete.
    for index in range(1, len(boundaries)):
        lo, hi = boundaries[index - 1], boundaries[index]
        for cut in {lo + 1, lo + 4, (lo + hi) // 2, hi - 1}:
            recovered = recover_truncated(tmp_path / "ref", tmp_path / "rec", cut)
            assert store_state(recovered) == states[index - 1], (
                f"mid-record cut {cut} in ({lo}, {hi})"
            )
            assert recovered.recovery.discarded_bytes == cut - lo
            recovered.close()


def test_corrupt_record_discards_it_and_the_tail(tmp_path):
    boundaries, states = reference_run(tmp_path / "ref")
    wal = (tmp_path / "ref" / "wal.log").read_bytes()
    # Flip one payload byte of the fourth commit record: recovery must keep
    # the three records before it and drop it plus everything after.
    offset = boundaries[3] + 12
    corrupted = wal[:offset] + bytes([wal[offset] ^ 0xFF]) + wal[offset + 1 :]
    target = tmp_path / "rec"
    target.mkdir()
    (target / "wal.log").write_bytes(corrupted)
    reset_surrogate_counter()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(target))
    assert store_state(recovered) == states[3]
    assert recovered.recovery.discarded_bytes == len(wal) - boundaries[3]
    recovered.close()


def test_crashing_wal_dies_with_a_torn_append_and_recovery_survives(tmp_path):
    boundaries, states = reference_run(tmp_path / "ref")
    # Budgets that land mid-record for every commit record of the workload.
    for index in range(1, len(boundaries)):
        budget = (boundaries[index - 1] + boundaries[index]) // 2
        crash_dir = tmp_path / f"crash{index}"
        engine = build_engine(crash_dir, wal_factory=crashing_factory(budget))
        with pytest.raises(SimulatedCrash):
            for step in WORKLOAD:
                step(engine)
        # The process is "dead"; only the directory survives.
        del engine
        reset_surrogate_counter()
        recovered = PrimaEngine("crashbox", durability=DurabilityConfig(crash_dir))
        assert store_state(recovered) == expected_state(boundaries, states, budget)
        assert recovered.recovery.discarded_bytes > 0  # the torn append
        recovered.close()


def test_recovered_engine_keeps_logging_and_surrogates_never_collide(tmp_path):
    boundaries, states = reference_run(tmp_path / "ref")
    recovered = recover_truncated(tmp_path / "ref", tmp_path / "rec", boundaries[-1])
    # New inserts on the recovered engine must not collide with replayed
    # surrogate identifiers, and must be durable in turn.
    recovered.query("INSERT part VALUES {part_no: 'P9', cost: 90};")
    recovered.close()
    reset_surrogate_counter()
    second = PrimaEngine("crashbox", durability=DurabilityConfig(tmp_path / "rec"))
    part_nos = sorted(atom.get("part_no") for atom in second.scan("part"))
    assert "P9" in part_nos
    assert len(part_nos) == len(set(part_nos))
    second.close()


# -------------------------------------------------------------- checkpoints


def test_checkpoint_truncates_and_preserves_committed_data(tmp_path):
    engine = build_engine(tmp_path / "dir")
    op_insert_p1(engine)
    op_insert_p2(engine)
    pre_checkpoint = store_state(engine)
    info = engine.checkpoint()
    assert info["checkpoints"] == 1
    assert engine.wal.bytes_written == 0
    # Crash with an empty log: the checkpoint alone carries the state.
    engine.close()
    reset_surrogate_counter()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(tmp_path / "dir"))
    assert store_state(recovered) == pre_checkpoint
    assert recovered.recovery.checkpoint_loaded
    assert recovered.recovery.records_replayed == 0
    recovered.close()


def test_crash_after_checkpoint_replays_only_the_tail(tmp_path):
    directory = tmp_path / "dir"
    engine = build_engine(directory)
    op_insert_p1(engine)
    engine.checkpoint()
    tail_boundaries = [engine.wal.bytes_written]
    tail_states = [store_state(engine)]
    for step in (op_insert_p2, op_modify, op_session_burst, op_delete_p2):
        step(engine)
        tail_boundaries.append(engine.wal.bytes_written)
        tail_states.append(store_state(engine))
    engine.close()
    wal = (directory / "wal.log").read_bytes()
    for index, cut in enumerate(tail_boundaries):
        target = tmp_path / "rec"
        if target.exists():
            shutil.rmtree(target)
        target.mkdir()
        shutil.copy(directory / "checkpoint.json", target / "checkpoint.json")
        (target / "wal.log").write_bytes(wal[:cut])
        reset_surrogate_counter()
        recovered = PrimaEngine("crashbox", durability=DurabilityConfig(target))
        assert store_state(recovered) == tail_states[index], f"tail boundary {index}"
        assert recovered.recovery.checkpoint_loaded
        assert recovered.recovery.records_replayed == index
        recovered.close()


def test_checkpoint_is_refused_while_a_transaction_is_active(tmp_path):
    from repro.exceptions import StorageError

    engine = build_engine(tmp_path / "dir")
    engine.query("BEGIN WORK;")
    engine.query("INSERT part VALUES {part_no: 'PX', cost: 1};")
    with pytest.raises(StorageError):
        engine.checkpoint()
    engine.query("ROLLBACK WORK;")
    engine.checkpoint()  # quiescent again
    engine.close()


# ------------------------------------------------------- rollback exclusion


def test_rolled_back_and_conflicted_transactions_never_reach_the_log(tmp_path):
    engine = build_engine(tmp_path / "dir")
    op_insert_p1(engine)
    records_before = engine.wal.records_written
    engine.query("BEGIN WORK;")
    engine.query("INSERT part VALUES {part_no: 'PR', cost: 1};")
    engine.query("ROLLBACK WORK;")
    assert engine.wal.records_written == records_before
    committed = store_state(engine)
    engine.close()
    reset_surrogate_counter()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(tmp_path / "dir"))
    assert store_state(recovered) == committed
    assert all(
        atom.get("part_no") != "PR" for atom in recovered.scan("part")
    ), "rolled-back insert must not be replayed"
    recovered.close()


# --------------------------------------------------------- hypothesis sweep


RANDOM_OPS = st.lists(
    st.sampled_from(["insert", "modify", "delete", "session", "rollback"]),
    min_size=1,
    max_size=10,
)


def run_random_workload(engine: PrimaEngine, program: List[str]) -> List[Tuple[int, str]]:
    """Apply *program*; return (WAL size, state) after every committed step."""
    trace = [(engine.wal.bytes_written, store_state(engine))]
    for index, op in enumerate(program):
        part_no = f"R{index}"
        if op == "insert":
            engine.query(f"INSERT part VALUES {{part_no: '{part_no}', cost: {index}}};")
        elif op == "modify":
            engine.query(f"MODIFY part FROM part SET cost = {1000 + index} WHERE part.cost >= 0;")
        elif op == "delete":
            engine.query(f"DELETE FROM part WHERE part.cost >= 1000;")
        elif op == "session":
            engine.query("BEGIN WORK;")
            engine.query(f"INSERT part VALUES {{part_no: '{part_no}a', cost: {index}}};")
            engine.query(f"INSERT part VALUES {{part_no: '{part_no}b', cost: {index}}};")
            engine.query("COMMIT WORK;")
        else:  # rollback: must leave no trace in the log
            engine.query("BEGIN WORK;")
            engine.query(f"INSERT part VALUES {{part_no: '{part_no}x', cost: {index}}};")
            engine.query("ROLLBACK WORK;")
        trace.append((engine.wal.bytes_written, store_state(engine)))
    return trace


@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(program=RANDOM_OPS, crash_fraction=st.floats(min_value=0.0, max_value=1.0))
def test_random_commit_crash_interleavings_recover_the_committed_prefix(
    tmp_path_factory, program, crash_fraction
):
    base = tmp_path_factory.mktemp("sweep")
    engine = build_engine(base / "ref")
    trace = run_random_workload(engine, program)
    engine.close()
    total = trace[-1][0]
    cut = int(round(crash_fraction * total))
    recovered = recover_truncated(base / "ref", base / "rec", cut)
    sizes = [size for size, _state in trace]
    states = [state for _size, state in trace]
    assert_committed_prefix(recovered, sizes, states, cut)
    recovered.close()


@pytest.mark.slow
def test_every_single_byte_cut_recovers_a_committed_prefix(tmp_path):
    """Exhaustive torn-write sweep: every byte offset of the reference WAL."""
    boundaries, states = reference_run(tmp_path / "ref")
    for cut in range(boundaries[-1] + 1):
        recovered = recover_truncated(tmp_path / "ref", tmp_path / "rec", cut)
        assert_committed_prefix(recovered, boundaries, states, cut)
        recovered.close()


# ------------------------------------------------------------ WAL mechanics


def test_read_wal_reports_torn_tail_telemetry(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", fsync="off")
    wal.commit_events([{"e": "ai", "t": "part", "id": "p1", "v": {}}])
    wal.commit_events([{"e": "ad", "t": "part", "id": "p1"}])
    wal.close()
    data = (tmp_path / "wal.log").read_bytes()
    torn = tmp_path / "torn.log"
    torn.write_bytes(data[:-3])
    scan = read_wal(torn)
    assert len(scan.records) == 1
    assert scan.torn_tail
    assert scan.valid_bytes + scan.discarded_bytes == len(data) - 3


def test_fsync_policies_sync_accounting(tmp_path):
    always = WriteAheadLog(tmp_path / "a.log", fsync="always")
    batch = WriteAheadLog(tmp_path / "b.log", fsync="batch", group_commit=4)
    off = WriteAheadLog(tmp_path / "c.log", fsync="off")
    for index in range(8):
        record = [{"e": "ai", "t": "part", "id": f"p{index}", "v": {}}]
        always.commit_events(record)
        batch.commit_events(record)
        off.commit_events(record)
    assert always.syncs == 8
    assert batch.syncs == 2  # 8 records / group_commit=4
    assert off.syncs == 0
    # All three logs carry the same records regardless of policy.
    for wal in (always, batch, off):
        wal.close()
    assert (
        len(read_wal(tmp_path / "a.log").records)
        == len(read_wal(tmp_path / "b.log").records)
        == len(read_wal(tmp_path / "c.log").records)
        == 8
    )


# ---------------------------------------------------- review-found regressions


def test_recovered_log_with_torn_tail_accepts_new_commits_durably(tmp_path):
    """Recover → write → recover again: the torn tail must be physically
    truncated at the first recovery, or the new commits land behind invalid
    bytes and are silently lost by the second recovery."""
    boundaries, _states = reference_run(tmp_path / "ref")
    cut = boundaries[1] + 5  # torn inside the second commit record
    survivor = recover_truncated(tmp_path / "ref", tmp_path / "rec", cut)
    assert survivor.recovery.discarded_bytes > 0
    survivor.query("INSERT part VALUES {part_no: 'AFTER', cost: 7};")
    survivor.close()
    reset_surrogate_counter()
    second = PrimaEngine("crashbox", durability=DurabilityConfig(tmp_path / "rec"))
    assert second.recovery.discarded_bytes == 0
    part_nos = sorted(atom.get("part_no") for atom in second.scan("part"))
    assert "AFTER" in part_nos, "post-recovery commits must survive the next recovery"
    assert "P1" in part_nos
    second.close()


def test_crash_between_checkpoint_image_and_wal_truncate_is_recoverable(tmp_path):
    """The checkpoint protocol window: new image on disk, log not yet
    truncated.  Replaying the full log (DDL included) over the image must be
    idempotent, not fatal."""
    from repro.storage.recovery import write_checkpoint

    directory = tmp_path / "dir"
    engine = build_engine(directory)
    op_insert_p1(engine)
    op_insert_p2(engine)
    expected = store_state(engine)
    # Simulate the crash: image written, truncate never happened.
    write_checkpoint(engine, engine.durability)
    engine.close()
    reset_surrogate_counter()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(directory))
    assert store_state(recovered) == expected
    assert recovered.recovery.checkpoint_loaded
    # The full log replayed over the image: both DDL and commits, idempotent.
    assert recovered.recovery.ddl_replayed == 3
    recovered.close()


def test_replay_over_a_newer_image_does_not_recheck_cardinality(tmp_path):
    """The same window with a restricted link type: the log connects a part
    to one supplier, then moves it to another.  Re-applied over the image of
    the *end* state, the first connect passes through a state the 1:n rule
    would refuse — redo must not re-validate what was validated when logged."""
    from repro.core.link import Cardinality
    from repro.storage.recovery import write_checkpoint

    directory = tmp_path / "dir"
    engine = build_engine(directory)
    engine.create_link_type("made-by", "supplier", "part", cardinality=Cardinality.ONE_TO_MANY)
    engine.store_atom("part", identifier="p", part_no="P", cost=1)
    for supplier in ("s1", "s2"):
        engine.store_atom("supplier", identifier=supplier, name=supplier)
    engine.connect("made-by", "s1", "p")
    engine.delete_atom("supplier", "s1")  # disconnects p
    engine.connect("made-by", "s2", "p")
    expected = store_state(engine)
    write_checkpoint(engine, engine.durability)  # crash before the truncate
    engine.close()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(directory))
    assert store_state(recovered) == expected
    assert recovered.neighbours("made-by", "p") == ("s2",)
    recovered.close()


def test_checkpoint_on_a_closed_engine_fails_before_touching_the_image(tmp_path):
    from repro.exceptions import StorageError

    directory = tmp_path / "dir"
    engine = build_engine(directory)
    op_insert_p1(engine)
    engine.checkpoint()
    image_before = (directory / "checkpoint.json").read_bytes()
    op_insert_p2(engine)
    engine.close()
    with pytest.raises(StorageError):
        engine.checkpoint()
    assert (directory / "checkpoint.json").read_bytes() == image_before


def test_value_encoding_sentinel_keys_round_trip(tmp_path):
    """A user dict that uses the encoder's sentinel keys must survive the
    WAL unchanged (escaped, not re-interpreted as a tuple)."""
    from repro.storage.wal import decode_value, encode_value

    tricky = {
        "__tuple__": [1, 2],
        "__dict__": {"nested": (3, 4)},
        "plain": [(5, 6), {"__tuple__": "x"}],
    }
    assert decode_value(encode_value(tricky)) == tricky
    assert decode_value(encode_value((1, "a", (2.5,)))) == (1, "a", (2.5,))
    # End to end: an ANY-typed attribute carrying a sentinel-shaped dict.
    reset_surrogate_counter()
    engine = PrimaEngine(
        "anybox", durability=DurabilityConfig(tmp_path / "dir", fsync=FSYNC_ALWAYS)
    )
    engine.create_atom_type("blob", {"payload": "any"})
    engine.store_atom("blob", identifier="b1", payload={"__tuple__": [9]})
    engine.store_atom("blob", identifier="b2", payload=(1, 2))
    engine.close()
    recovered = PrimaEngine("anybox", durability=DurabilityConfig(tmp_path / "dir"))
    assert recovered.get_atom("blob", "b1").get("payload") == {"__tuple__": [9]}
    assert recovered.get_atom("blob", "b2").get("payload") == (1, 2)
    recovered.close()


class FlakyWAL(WriteAheadLog):
    """A WAL double whose next append fails mid-write — but the process
    survives, so the default rewind cleans the partial bytes up."""

    fail_next = False

    def _write_bytes(self, blob: bytes) -> None:
        if FlakyWAL.fail_next:
            FlakyWAL.fail_next = False
            super()._write_bytes(blob[: len(blob) // 2])
            raise OSError("disk hiccup mid-append")
        super()._write_bytes(blob)


def test_sync_fsyncs_under_every_policy(tmp_path):
    """`sync()` promises an fsync regardless of policy — including 'off'."""
    wal = WriteAheadLog(tmp_path / "wal.log", fsync="off")
    wal.commit_events([{"e": "ai", "t": "part", "id": "p1", "v": {}}])
    assert wal.syncs == 0
    wal.sync()
    assert wal.syncs == 1
    wal.close()


def test_any_typed_values_round_trip_or_fail_loudly():
    from repro.storage.wal import WalError, decode_value, encode_value

    for value in (
        {1, 2, 3},
        frozenset({("a", 1), ("b", 2)}),
        b"\x00\xff raw bytes",
        {1: "a", (2, 3): "b"},
        {"mixed": [{4, 5}, b"x", {6: (7,)}]},
    ):
        assert decode_value(encode_value(value)) == value, value
    with pytest.raises(WalError):
        encode_value(object())


def test_failed_commit_append_is_retryable_and_logs_once(tmp_path):
    """A surviving process whose WAL append fails mid-commit keeps the
    session open (buffer intact) and a retried COMMIT WORK logs the
    transaction exactly once, with no torn bytes left behind."""
    reset_surrogate_counter()
    config = DurabilityConfig(
        tmp_path / "dir", fsync=FSYNC_ALWAYS, wal_factory=FlakyWAL
    )
    engine = PrimaEngine("crashbox", durability=config)
    engine.create_atom_type("part", {"part_no": "string", "cost": "integer"})
    engine.query("BEGIN WORK;")
    engine.query("INSERT part VALUES {part_no: 'RETRY', cost: 1};")
    FlakyWAL.fail_next = True
    with pytest.raises(OSError):
        engine.query("COMMIT WORK;")
    assert engine.interpreter().in_transaction, "session must stay open for a retry"
    engine.query("COMMIT WORK;")  # retry succeeds and flushes the kept buffer
    committed = store_state(engine)
    engine.close()
    reset_surrogate_counter()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(tmp_path / "dir"))
    assert recovered.recovery.discarded_bytes == 0, "failed append must be rewound"
    assert store_state(recovered) == committed
    assert [a.get("part_no") for a in recovered.scan("part")] == ["RETRY"]
    recovered.close()


def test_failed_commit_append_rolls_back_an_autocommitted_statement(tmp_path):
    """Outside a session, a commit-time WAL failure must not leave applied
    but undurable state: the auto-committed DML statement rolls back."""
    reset_surrogate_counter()
    config = DurabilityConfig(
        tmp_path / "dir", fsync=FSYNC_ALWAYS, wal_factory=FlakyWAL
    )
    engine = PrimaEngine("crashbox", durability=config)
    engine.create_atom_type("part", {"part_no": "string", "cost": "integer"})
    engine.query("INSERT part VALUES {part_no: 'OK', cost: 1};")
    FlakyWAL.fail_next = True
    with pytest.raises(OSError):
        engine.query("INSERT part VALUES {part_no: 'LOST', cost: 2};")
    assert [a.get("part_no") for a in engine.scan("part")] == ["OK"]
    committed = store_state(engine)
    engine.close()
    reset_surrogate_counter()
    recovered = PrimaEngine("crashbox", durability=DurabilityConfig(tmp_path / "dir"))
    assert store_state(recovered) == committed
    recovered.close()


# ----------------------------------------- persisted structure-index encodings

RECURSIVE_BOM = "SELECT ALL FROM RECURSIVE part [composition] DOWN;"

BOM_EDGES = [
    ("p0", "p1"),
    ("p0", "p2"),
    ("p1", "p3"),
    ("p2", "p4"),
    ("p3", "p5"),
    ("p5", "p6"),
]


def build_bom_engine(directory) -> PrimaEngine:
    """A small BOM engine with a registered structure index."""
    reset_surrogate_counter()
    config = DurabilityConfig(directory, fsync=FSYNC_ALWAYS)
    engine = PrimaEngine("bombox", durability=config)
    engine.create_atom_type("part", {"part_no": "string", "cost": "integer"})
    engine.create_link_type("composition", "part", "part")
    for i in range(8):
        engine.store_atom("part", identifier=f"p{i}", part_no=f"P{i}", cost=i)
    for parent, child in BOM_EDGES:
        engine.connect("composition", parent, child)
    engine.create_structure_index("part", "composition", "down")
    return engine


def canonical_closures(engine: PrimaEngine):
    """Order-independent form of the recursive BOM result."""
    entries = []
    for molecule in engine.query(RECURSIVE_BOM).molecules:
        names = {atom.identifier: atom.get("part_no") for atom in molecule.atoms}
        entries.append(
            (
                names[molecule.root_atom.identifier],
                frozenset(names.values()),
                tuple(
                    sorted(
                        (names[identifier], level)
                        for identifier, level in molecule.levels.items()
                    )
                ),
            )
        )
    return sorted(entries)


def parent_encoding(engine: PrimaEngine):
    """The ``structure_encodings`` entry the image format once carried for the
    BOM's built index (accelerators have not been persisted since)."""
    index = engine._accelerators._indexes[("part", "composition", "down")]
    return {
        "key": list(index.key),
        "reflexive": True,
        "first_type": "part",
        "second_type": "part",
        "cycle": False,
        "nodes": sorted(index._nodes),
        "edges": sorted(
            [parent, child, list(link.given_order)]
            for parent, bucket in index._children.items()
            for child, link in bucket.items()
        ),
        "pre": dict(index._pre),
        "post": dict(index._post),
        "depth": dict(index._depth),
        "parent_link": {
            child: list(link.given_order) for child, link in index._parent_link.items()
        },
        "max_coord": index._max_coord,
    }


def test_checkpoint_image_carries_no_derived_state(tmp_path):
    """Accelerators are derived: the image of an engine with a built structure
    index and a built projection holds the catalog, the occurrence and the
    registration, nothing else."""
    engine = build_bom_engine(tmp_path / "dir")
    canonical_closures(engine)  # builds the encoding
    engine.query("SELECT COUNT(*), SUM(part.cost) FROM part;")  # builds the projection
    report = engine.maintenance_report()
    assert report["structure_builds"] == report["columnar_builds"] == 1
    engine.checkpoint()
    engine.close()

    path = DurabilityConfig(tmp_path / "dir").checkpoint_path
    image = json.loads(path.read_text(encoding="utf-8"))
    assert set(image) == {
        "format", "name", "generation", "atom_types", "link_types", "structure_indexes",
    }
    assert image["structure_indexes"] == [["part", "composition", "down"]]


def test_image_with_parent_encodings_rebuilds_lazily(tmp_path):
    """An image that still carries a ``structure_encodings`` block opens: the
    block is ignored, the registration survives, and the first closure
    rebuilds the index from the occurrence."""
    engine = build_bom_engine(tmp_path / "dir")
    before = canonical_closures(engine)
    encoding = parent_encoding(engine)
    engine.checkpoint()
    engine.close()

    path = DurabilityConfig(tmp_path / "dir").checkpoint_path
    image = json.loads(path.read_text(encoding="utf-8"))
    image["structure_encodings"] = [encoding]
    path.write_text(json.dumps(image, separators=(",", ":"), sort_keys=True), encoding="utf-8")

    reset_surrogate_counter()
    reopened = PrimaEngine("bombox", durability=DurabilityConfig(tmp_path / "dir"))
    report = reopened.maintenance_report()
    assert report["structure_indexes"] == 1
    assert report["structure_builds"] == 0
    assert canonical_closures(reopened) == before
    assert reopened.maintenance_report()["structure_builds"] == 1
    reopened.close()


def test_restored_encodings_stay_coherent_across_the_wal_tail(tmp_path):
    """Commits after the checkpoint replay through the ordinary event path;
    the index rebuilt on first use answers with them."""
    engine = build_bom_engine(tmp_path / "dir")
    canonical_closures(engine)
    engine.checkpoint()
    engine.store_atom("part", identifier="p9", part_no="P9", cost=9)
    engine.connect("composition", "p6", "p9")  # leaf graft: in-place fold
    before = canonical_closures(engine)
    engine.close()

    reset_surrogate_counter()
    reopened = PrimaEngine("bombox", durability=DurabilityConfig(tmp_path / "dir"))
    assert canonical_closures(reopened) == before
    assert reopened.maintenance_report()["structure_builds"] == 1
    reopened.close()


# ------------------------------------------------- streamed checkpoint images

DATA = Path(__file__).resolve().parent / "data"

#: Every shape ``encode_value`` knows, plus the scalars it passes through.
EXOTIC_PAYLOADS = {
    "tuple": (1, "a", (2.5,)),
    "list": [1, [2, 3], "x"],
    "set": {3, 1, 2},
    "frozenset": frozenset({"b", "a"}),
    "bytes": b"\x00\xff raw",
    "items": {1: "a", (2, 3): "b"},
    "sentinel": {"__tuple__": [9], "plain": 1},
    "nested": {"inner": [{4, 5}, b"x", {6: (7,)}]},
    "negzero": -0.0,
    "nan": float("nan"),
    "unicode": "São Paulo — 東京 \U0001f600",
    "none": None,
    "true": True,
    "false": False,
    "int": 7,
}


def oracle_image(engine: PrimaEngine) -> dict:
    """The checkpoint image built whole as Python objects — the form the
    writer had before it streamed; the streamed file must be its
    ``json.dumps(..., separators=(",", ":"), sort_keys=True)``."""
    from repro.storage.recovery import CHECKPOINT_FORMAT, describe_attributes
    from repro.storage.wal import encode_value

    database = engine.to_database()
    atom_types = [
        {
            "name": atom_type.name,
            "attributes": describe_attributes(atom_type.description),
            "atoms": [
                {"id": atom.identifier, "v": encode_value(atom.values)}
                for atom in sorted(atom_type, key=lambda a: a.identifier)
            ],
            "indexes": sorted(
                name
                for name in atom_type.description.names
                if engine._accelerators.is_declared(atom_type.name, name)
            ),
        }
        for atom_type in database.atom_types
    ]
    link_types = [
        {
            "name": link_type.name,
            "first": link_type.atom_type_names[0],
            "second": link_type.atom_type_names[1],
            "cardinality": link_type.cardinality.value,
            "links": sorted(link.given_order for link in link_type),
        }
        for link_type in database.link_types
    ]
    return {
        "format": CHECKPOINT_FORMAT,
        "name": engine.name,
        "generation": engine.generation,
        "atom_types": atom_types,
        "link_types": link_types,
        "structure_indexes": sorted(engine._accelerators.registered()),
    }


def oracle_bytes(engine: PrimaEngine) -> bytes:
    return json.dumps(oracle_image(engine), separators=(",", ":"), sort_keys=True).encode("utf-8")


def build_exotic_engine(directory) -> PrimaEngine:
    """A durable engine holding every value shape: a checkpoint of the first
    half, a WAL tail with the rest, a modify, a delete and a disconnect."""
    reset_surrogate_counter()
    engine = PrimaEngine("exotic", durability=DurabilityConfig(directory, fsync=FSYNC_ALWAYS))
    engine.create_atom_type("blob", {"payload": "any", "label": "string"})
    engine.create_atom_type("odd", {"__tuple__": "string", "n": "integer"})
    engine.create_atom_type("void", {"x": "real"})
    engine.create_link_type("holds", "odd", "blob")
    engine.create_link_type("nests", "blob", "blob")
    engine.create_link_type("never", "void", "blob")
    engine.create_index("odd", "n")
    engine.create_structure_index("blob", "nests", "down")
    names = sorted(EXOTIC_PAYLOADS)
    half = len(names) // 2
    for position, name in enumerate(names[:half]):
        engine.store_atom("blob", identifier=name, payload=EXOTIC_PAYLOADS[name], label=name)
        engine.store_atom("odd", identifier=f"o{position}", n=position, **{"__tuple__": name})
        engine.connect("holds", f"o{position}", name)
    engine.connect("nests", names[0], names[1])
    engine.connect("nests", names[1], names[2])
    engine.checkpoint()
    for position, name in enumerate(names[half:], start=half):
        engine.store_atom("blob", identifier=name, payload=EXOTIC_PAYLOADS[name], label=name)
        engine.store_atom("odd", identifier=f"o{position}", n=position, **{"__tuple__": name})
        engine.connect("holds", f"o{position}", name)
    engine.connect("nests", names[2], names[half])
    engine.store_atom("blob", identifier=names[0], payload=("modified", -0.0), label="ü")
    engine.delete_atom("odd", "o1")
    engine.query("DELETE FROM blob WHERE blob.label = 'int';")
    return engine


def exotic_reads(engine: PrimaEngine) -> str:
    """What the exotic engine answers, in a form that tells every value
    shape apart (tuple from list, set from frozenset, ``-0.0``, NaN)."""
    from repro.storage.wal import encode_value

    reads = {
        "atoms": {
            name: [
                [atom.identifier, encode_value(atom.values)]
                for atom in sorted(engine.scan(name), key=lambda a: a.identifier)
            ]
            for name in ("blob", "odd", "void")
        },
        "links": {
            name: sorted(link.given_order for link in engine.to_database().ltyp(name))
            for name in ("holds", "nests", "never")
        },
        "lookup": [atom.identifier for atom in engine.lookup("odd", "n", 3)],
        "closure": sorted(
            sorted(molecule.atom_identifiers)
            for molecule in engine.query("SELECT ALL FROM RECURSIVE blob [nests] DOWN;").molecules
        ),
    }
    return json.dumps(reads, sort_keys=True)


def build_counts_engine(directory) -> PrimaEngine:
    """Empty and populated atom and link types side by side (comma placement)."""
    reset_surrogate_counter()
    engine = PrimaEngine("counts", durability=DurabilityConfig(directory))
    for name in ("a0", "a1", "a2", "a3"):
        engine.create_atom_type(name, {"k": "string"})
    for i in range(3):
        engine.store_atom("a1", identifier=f"x{i}", k=str(i))
        engine.store_atom("a3", identifier=f"y{i}", k=None)
    engine.create_link_type("l0", "a0", "a1")
    engine.create_link_type("l1", "a1", "a3")
    engine.create_link_type("l2", "a2", "a3")
    engine.create_link_type("l3", "a1", "a3")
    for i in range(3):
        engine.connect("l1", f"x{i}", f"y{(i + 1) % 3}")
    engine.connect("l3", "x0", "y0")
    return engine


def build_batch_edge_engine(directory) -> PrimaEngine:
    """One type of exactly one batch of atoms and links, one of a batch + 1,
    with a reflexive link type over the larger one; loaded in bulk."""
    from repro import Database
    from repro.storage.recovery import CHECKPOINT_BATCH

    size = {"one": CHECKPOINT_BATCH, "over": CHECKPOINT_BATCH + 1}
    db = Database("batches")
    for name, count in size.items():
        db.define_atom_type(name, {"n": "integer", "tag": "any"})
        for i in range(count):
            db.insert_atom(name, identifier=f"{name}{i:05d}", n=i, tag=(i,) if i % 97 == 0 else i)
    db.define_link_type("pairs", "one", "over")
    db.define_link_type("chain", "over", "over")
    one, over = db.atyp("one"), db.atyp("over")
    for i in range(size["one"]):
        db.connect("pairs", one.get(f"one{i:05d}"), over.get(f"over{(i * 7) % size['over']:05d}"))
    for i in range(size["over"]):
        db.connect("chain", over.get(f"over{(i + 1) % size['over']:05d}"), over.get(f"over{i:05d}"))
    return PrimaEngine.from_database(db, durability=DurabilityConfig(directory))


def build_bom_indexed_engine(directory) -> PrimaEngine:
    engine = build_bom_engine(directory)
    engine.create_index("part", "part_no")
    engine.create_index("part", "cost")
    canonical_closures(engine)  # the built index is derived: it must not show
    return engine


def build_empty_engine(directory) -> PrimaEngine:
    return PrimaEngine("empty", durability=DurabilityConfig(directory))


@pytest.mark.parametrize(
    "build",
    [
        build_bom_indexed_engine,
        build_empty_engine,
        build_counts_engine,
        build_batch_edge_engine,
        build_exotic_engine,
    ],
    ids=lambda build: build.__name__[len("build_"):-len("_engine")],
)
def test_streamed_image_equals_the_dumped_image(tmp_path, build):
    engine = build(tmp_path / "dir")
    engine.checkpoint()
    assert engine.durability.checkpoint_path.read_bytes() == oracle_bytes(engine)
    assert not (tmp_path / "dir" / "checkpoint.json.tmp").exists()
    engine.close()


def test_streamed_image_of_shared_identifiers_equals_the_dumped_image(tmp_path, shared_ids_db):
    engine = PrimaEngine.from_database(shared_ids_db, durability=DurabilityConfig(tmp_path / "dir"))
    assert engine.durability.checkpoint_path.read_bytes() == oracle_bytes(engine)
    engine.close()


def test_directory_written_before_streaming_reopens_and_rewrites_the_same_bytes(tmp_path):
    """``tests/data/exotic_durable`` (checkpoint + WAL tail of
    :func:`build_exotic_engine`) and ``exotic_recheckpoint.json`` (its image
    after a reopen and a checkpoint) were written by the writer that dumped
    a whole image.  The streaming writer reads the same state from them and
    writes the same bytes."""
    committed = DATA / "exotic_durable"
    directory = tmp_path / "copy"
    shutil.copytree(committed, directory)
    reopened = PrimaEngine("exotic", durability=DurabilityConfig(directory))
    assert reopened.recovery.checkpoint_loaded and reopened.recovery.records_replayed > 0
    expected = build_exotic_engine(tmp_path / "fresh")
    # The fixture was logged while a basic write ticked once per mutation;
    # it now ticks for its commit as well, so a fresh build ends later.
    assert (reopened.generation, expected.generation) == (53, 103)
    assert exotic_reads(reopened) == exotic_reads(expected)
    reopened.checkpoint()
    assert (directory / "checkpoint.json").read_bytes() == (
        DATA / "exotic_recheckpoint.json"
    ).read_bytes()
    expected.checkpoint()
    image = expected.durability.checkpoint_path.read_bytes()
    assert image.replace(b'"generation":103', b'"generation":53') == (
        DATA / "exotic_recheckpoint.json"
    ).read_bytes()
    reopened.close()
    expected.close()


# ------------------------------------------------ failed checkpoints fail closed


def checkpointed_engine_with_tail(directory) -> PrimaEngine:
    """An engine with a checkpoint image and two commits in the log after it."""
    engine = build_engine(directory)
    op_insert_p1(engine)
    engine.checkpoint()
    op_insert_p2(engine)
    op_store_supplier(engine)
    return engine


def durable_files(directory) -> Tuple[bytes, bytes]:
    return (directory / "checkpoint.json").read_bytes(), (directory / "wal.log").read_bytes()


def test_checkpoint_failing_to_encode_a_value_leaves_image_and_log(tmp_path):
    """A bulk-loaded ``any`` value with no JSON form fails the checkpoint
    part-way through the image: the tmp file goes, the previous image and
    the log stay, and a reopen reads the committed state."""
    from repro import Database
    from repro.storage.wal import WalError

    directory = tmp_path / "dir"
    engine = checkpointed_engine_with_tail(directory)
    expected = store_state(engine)
    engine.close()
    before = durable_files(directory)
    db = Database("loaded")
    db.define_atom_type("blob", {"payload": "any"})
    db.insert_atom("blob", identifier="b", payload=object())
    with pytest.raises(WalError, match="no faithful JSON"):
        PrimaEngine.from_database(db, name="crashbox", durability=DurabilityConfig(directory))
    assert not (directory / "checkpoint.json.tmp").exists()
    image, log = durable_files(directory)
    assert image == before[0]
    # The load persists only through its checkpoint: it logged nothing.
    assert log == before[1]
    reset_surrogate_counter()
    reopened = PrimaEngine("crashbox", durability=DurabilityConfig(directory))
    assert not reopened.to_database().has_atom_type("blob")
    assert store_state(reopened) == expected
    op_connect(reopened)
    reopened.close()


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_checkpoint_failing_at_fsync_or_replace_leaves_image_and_log(tmp_path, monkeypatch, step):
    directory = tmp_path / "dir"
    engine = checkpointed_engine_with_tail(directory)
    before = durable_files(directory)

    def fail(*args):
        raise OSError(f"injected {step} failure")

    monkeypatch.setattr(f"repro.storage.recovery.os.{step}", fail)
    with pytest.raises(OSError, match="injected"):
        engine.checkpoint()
    monkeypatch.undo()
    assert not (directory / "checkpoint.json.tmp").exists()
    assert durable_files(directory) == before
    op_connect(engine)  # the engine still takes writes, and logs them
    expected = store_state(engine)
    engine.close()
    reset_surrogate_counter()
    reopened = PrimaEngine("crashbox", durability=DurabilityConfig(directory))
    assert store_state(reopened) == expected
    reopened.checkpoint()
    reopened.close()


@pytest.mark.parametrize(
    "content",
    [
        b'{"format":1,"atom_types":[{"name":"pa',
        b"\xff\xfe{}",
        b"[1, 2]",
        b'{"format":1,"atom_types":5}',
        b'{"format":1,"link_types":[3]}',
    ],
    ids=["truncated", "not-utf8", "array", "atom-types-not-a-list", "link-type-not-an-object"],
)
def test_unreadable_checkpoint_image_raises_a_typed_error(tmp_path, content):
    from repro.storage.replication import seed_engine
    from repro.storage.wal import WalError

    directory = tmp_path / "dir"
    directory.mkdir()
    (directory / "checkpoint.json").write_bytes(content)
    with pytest.raises(WalError, match="checkpoint.json"):
        PrimaEngine.open(directory)
    with pytest.raises(WalError, match="checkpoint.json"):
        seed_engine(directory)


def well_formed_image() -> dict:
    """A small image of every section: two atom types, a link, a structure index."""
    attributes = [{"name": "k", "type": "string"}]
    return {
        "format": 1,
        "name": "shapes",
        "generation": 3,
        "atom_types": [
            {"name": "p", "attributes": attributes, "indexes": [], "atoms": [{"id": "p1", "v": {"k": "a"}}]},
            {"name": "c", "attributes": attributes, "indexes": [], "atoms": [{"id": "c1", "v": {"k": "b"}}]},
        ],
        "link_types": [
            {"name": "pc", "first": "p", "second": "c", "cardinality": "n:m", "links": [["p1", "c1"]]}
        ],
        "structure_indexes": [["p", "pc", "down"]],
    }


def drop_attributes(image):
    del image["atom_types"][0]["attributes"]


def drop_atom_id(image):
    del image["atom_types"][0]["atoms"][0]["id"]


def one_element_link(image):
    image["link_types"][0]["links"] = [["p1"]]


def one_element_structure_index(image):
    image["structure_indexes"] = [["p"]]


def text_generation(image):
    image["generation"] = "three"


@pytest.mark.parametrize(
    "damage",
    [drop_attributes, drop_atom_id, one_element_link, one_element_structure_index, text_generation],
)
def test_malformed_checkpoint_entry_raises_a_typed_error(tmp_path, damage):
    from repro.storage.replication import seed_engine
    from repro.storage.wal import WalError

    directory = tmp_path / "dir"
    directory.mkdir()
    image = well_formed_image()
    (directory / "checkpoint.json").write_text(json.dumps(image))
    engine = PrimaEngine.open(directory)  # the undamaged image loads
    assert engine.generation == 3 and len(engine.to_database().ltyp("pc")) == 1
    engine.close()
    damage(image)
    (directory / "checkpoint.json").write_text(json.dumps(image))
    with pytest.raises(WalError, match="checkpoint.json"):
        PrimaEngine.open(directory)
    with pytest.raises(WalError, match="checkpoint.json"):
        seed_engine(directory)


def test_checkpoint_memory_grows_by_a_sorted_list_not_by_the_image(tmp_path, monkeypatch):
    """The writer's traced peak grows by well under 50 B per added atom
    (the whole-image writer took ≈ 480 B per atom)."""
    import tracemalloc

    from repro.storage.recovery import write_checkpoint

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
    from benchmarks.harness.datasets import build_mesh

    peaks = {}
    for per_type in (4000, 8000):
        database, _ = build_mesh(1, per_type)
        engine = PrimaEngine.from_database(database)
        config = DurabilityConfig(tmp_path / str(per_type))
        write_checkpoint(engine, config)
        tracemalloc.start()
        try:
            write_checkpoint(engine, config)
            peaks[database.atom_count()] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    (small, small_peak), (large, large_peak) = sorted(peaks.items())
    assert (large_peak - small_peak) / (large - small) <= 50, peaks


# ----------------------------------------------------- one write surface


def build_surface_engine(directory) -> PrimaEngine:
    """A durable engine holding ``s1`` (hectare 1) linked to ``t1`` of type ``t``."""
    reset_surrogate_counter()
    engine = PrimaEngine("surface", durability=DurabilityConfig(directory, fsync=FSYNC_ALWAYS))
    engine.create_atom_type("s", {"hectare": "integer"})
    engine.create_atom_type("t", {"k": "string"})
    engine.create_link_type("st", "s", "t")
    engine.store_atom("s", identifier="s1", hectare=1)
    engine.store_atom("t", identifier="t1", k="a")
    engine.connect("st", "s1", "t1")
    return engine


def assert_memory_equals_directory(engine: PrimaEngine, directory) -> None:
    expected = store_state(engine)
    engine.close()
    reopened = PrimaEngine.open(directory)
    try:
        assert store_state(reopened) == expected
    finally:
        reopened.close()


def test_a_raw_replace_during_a_transaction_is_refused(tmp_path):
    """A raw replace on the engine's database would be neither claimed nor
    logged: the transaction's rollback then restored memory while the log
    kept the raw value."""
    engine = build_surface_engine(tmp_path / "db")
    database = engine.to_database()
    txn = Transaction(database)
    txn.begin()
    txn.modify_atom("s", "s1", hectare=2)
    with pytest.raises(TransactionError):
        database.atyp("s").replace({"hectare": 999}, identifier="s1")
    txn.rollback()
    assert engine.get_atom("s", "s1")["hectare"] == 1
    assert_memory_equals_directory(engine, tmp_path / "db")


@pytest.mark.parametrize(
    "change",
    [
        lambda db: db.define_atom_type("z", {"k": "integer"}),
        lambda db: db.add_atom_type(AtomType("z", {"k": "integer"})),
        lambda db: db.define_link_type("tt", "t", "t"),
        lambda db: db.add_link_type(LinkType("tt", "t", "t")),
        lambda db: db.drop_atom_type("t"),
        lambda db: db.drop_link_type("st"),
    ],
    ids=["define_atom_type", "add_atom_type", "define_link_type", "add_link_type",
         "drop_atom_type", "drop_link_type"],
)
def test_a_catalog_change_on_the_engines_database_is_refused(tmp_path, change):
    """Catalog changes past the engine's DDL wrote no DDL record: a new type's
    commits later named a type the reopened directory did not know, and a
    dropped type came back on reopen."""
    engine = build_surface_engine(tmp_path / "db")
    with pytest.raises(SchemaError):
        change(engine.to_database())
    assert engine.to_database().atom_type_names == ("s", "t")
    assert engine.to_database().link_type_names == ("st",)
    engine.create_atom_type("z", {"k": "integer"})  # the logged way
    engine.store_atom("z", identifier="z1", k=1)
    assert len(engine.query("SELECT ALL FROM z;")) == 1
    assert_memory_equals_directory(engine, tmp_path / "db")


def test_raw_mutators_on_a_durable_engine_log_nothing(tmp_path):
    engine = build_surface_engine(tmp_path / "db")
    database = engine.to_database()
    records = engine.wal.lifetime_records
    for write in (
        lambda: database.insert_atom("s", identifier="s2", hectare=2),
        lambda: database.atyp("s").remove("s1"),
        lambda: database.connect("st", "s1", "t1x"),
        lambda: database.ltyp("st").remove(database.ltyp("st").link("s1", "t1")),
    ):
        with pytest.raises(TransactionError):
            write()
    assert engine.wal.lifetime_records == records
    assert_memory_equals_directory(engine, tmp_path / "db")


WAL_BYTES_SCRIPT = """
import sys
from pathlib import Path

from repro.datasets.bill_of_materials import build_bill_of_materials
from repro.datasets.geography import load_geography
from repro.storage import DurabilityConfig, PrimaEngine

directory = Path(sys.argv[1])
bom = PrimaEngine.from_database(
    build_bill_of_materials(depth=4, fan_out=3, share_every=3),
    durability=DurabilityConfig(directory / "bom"),
)
for number in (2, 3, 5, 6, 8, 13, 14):
    bom.delete_atom("part", f"P{number:05d}")
bom.close()
geo = PrimaEngine.from_database(load_geography(), durability=DurabilityConfig(directory / "geo"))
geo.query("DELETE FROM area WHERE area.area_id = 'a3';")
geo.query("DELETE CASCADE FROM area - edge WHERE area.area_id = 'a7';")
geo.query("MODIFY point FROM area - edge - point SET x = 1.5 WHERE area.area_id = 'a2';")
geo.close()
"""


def test_durable_files_do_not_depend_on_the_hash_seed(tmp_path):
    """Deletes and modifies log their links and atoms in a fixed order: the
    same workload under two ``PYTHONHASHSEED``s writes the same bytes."""
    import subprocess
    import sys

    script = tmp_path / "workload.py"
    script.write_text(WAL_BYTES_SCRIPT, encoding="utf-8")
    source = str(Path(__file__).resolve().parent.parent / "src")
    files = []
    for seed in ("1", "2"):
        directory = tmp_path / f"seed{seed}"
        environment = dict(os.environ, PYTHONHASHSEED=seed)
        environment["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source, environment.get("PYTHONPATH")))
        )
        subprocess.run([sys.executable, str(script), str(directory)], env=environment, check=True)
        files.append(
            {
                path.relative_to(directory).as_posix(): path.read_bytes()
                for path in sorted(directory.glob("*/*"))
            }
        )
    assert sorted(files[0]) == [
        "bom/checkpoint.json", "bom/wal.log", "geo/checkpoint.json", "geo/wal.log"
    ]
    assert all(len(read_wal(tmp_path / "seed1" / name / "wal.log").records) > 1
               for name in ("bom", "geo"))
    assert files[0] == files[1]
