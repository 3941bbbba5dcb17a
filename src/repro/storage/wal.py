"""Write-ahead logging: durable, checksummed records of the change-event stream.

The engine's change events (:mod:`repro.core.events`) are the single source of
truth about *what changed*; since the MVCC change they also carry generation
stamps, which makes the commit the natural unit of durability: one WAL record
per committed transaction, containing every event the transaction produced, in
mutation order.  Replaying the records of a log against the checkpointed
pre-state reaches exactly the committed head — the redo-only invariant.

**Record format.**  Each record is length-prefixed and checksummed::

    +----------------+----------------+----------------------+
    | length (4B BE) | crc32 (4B BE)  | payload (JSON, UTF-8)|
    +----------------+----------------+----------------------+

A record is valid only when the full payload is present *and* its CRC matches;
recovery therefore discards torn final records (a crash mid-append) and any
uncommitted tail after a corruption point, byte-for-byte.  Because records are
written only at commit (transaction-buffered events) there is nothing to undo
on replay — recovery is pure redo of the committed prefix.

**Fsync policy.**  ``always`` syncs after every record (no committed data is
ever lost, slowest); ``batch`` group-commits — records are flushed to the OS
immediately but fsynced only every *group_commit* records (bounded loss window
on power failure, none on process crash); ``off`` flushes without ever syncing
(fastest; durability against process crash only).  The durability benchmark
(E-PERF6) measures the three against the in-memory baseline.
"""

from __future__ import annotations

import json
import os
import struct
from repro.analysis.runtime import make_rlock
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    LINK_CONNECTED,
    LINK_DISCONNECTED,
    ChangeEvent,
)
from repro.exceptions import StorageError

#: The three fsync policies.
FSYNC_ALWAYS = "always"
FSYNC_BATCH = "batch"
FSYNC_OFF = "off"

FSYNC_POLICIES: Tuple[str, ...] = (FSYNC_ALWAYS, FSYNC_BATCH, FSYNC_OFF)

#: ``(length, crc32)`` header of every WAL record.
_HEADER = struct.Struct(">II")

#: Compact event tags (kind <-> tag, both directions).
_EVENT_TAGS: Dict[str, str] = {
    ATOM_INSERTED: "ai",
    ATOM_MODIFIED: "am",
    ATOM_DELETED: "ad",
    LINK_CONNECTED: "lc",
    LINK_DISCONNECTED: "ld",
}


class WalError(StorageError):
    """A write-ahead-log record could not be produced or interpreted."""


@dataclass(frozen=True)
class DurabilityConfig:
    """Configuration of a durable :class:`~repro.storage.engine.PrimaEngine`.

    *directory* holds the WAL (``wal.log``) and the checkpoint image
    (``checkpoint.json``); it is created on first use.  *fsync* selects the
    sync policy (``always`` / ``batch`` / ``off``), *group_commit* the batch
    size of the ``batch`` policy.  *wal_factory* lets tests substitute a WAL
    double (e.g. the fault-injection ``CrashingWAL``).
    """

    directory: "str | Path"
    fsync: str = FSYNC_BATCH
    group_commit: int = 8
    wal_factory: Optional[Callable[..., "WriteAheadLog"]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.fsync not in FSYNC_POLICIES:
            raise WalError(
                f"unknown fsync policy {self.fsync!r}; use one of {FSYNC_POLICIES}"
            )
        if self.group_commit < 1:
            raise WalError("group_commit must be at least 1")

    @property
    def wal_path(self) -> Path:
        """The log file of this durability directory."""
        return Path(self.directory) / "wal.log"

    @property
    def checkpoint_path(self) -> Path:
        """The checkpoint image of this durability directory."""
        return Path(self.directory) / "checkpoint.json"


# ------------------------------------------------------------- serialization


#: Marker keys of the tagged encodings below; a real user dict using one of
#: them is escaped as ``{"__dict__": …}`` so no value collides with a tag.
_SENTINEL_KEYS = (
    "__tuple__",
    "__dict__",
    "__set__",
    "__frozenset__",
    "__bytes__",
    "__items__",
)


def encode_value(value: object) -> object:
    """JSON-encode one attribute value so recovery restores it *exactly*.

    Byte-identical recovered query results require every Python shape the
    in-memory engine accepts (``DataType.ANY`` is unrestricted) to survive
    the log: tuples become ``{"__tuple__": [...]}``, sets/frozensets and
    bytes get their own tags, dicts with non-string keys are encoded as an
    item list, and a genuine user dict using a sentinel key is escaped as
    ``{"__dict__": {...}}``.  Values with no faithful JSON form raise
    :class:`WalError` rather than silently corrupting the log.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, (set, frozenset)):
        tag = "__set__" if isinstance(value, set) else "__frozenset__"
        return {tag: sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, bytes):
        import base64

        return {"__bytes__": base64.b64encode(value).decode("ascii")}
    if isinstance(value, dict):
        if all(isinstance(key, str) for key in value):
            encoded = {key: encode_value(item) for key, item in value.items()}
            if any(key in value for key in _SENTINEL_KEYS):
                return {"__dict__": encoded}
            return encoded
        return {
            "__items__": [
                [encode_value(key), encode_value(item)] for key, item in value.items()
            ]
        }
    raise WalError(
        f"cannot log attribute value of type {type(value).__name__}: {value!r} "
        "has no faithful JSON representation"
    )


def decode_value(value: object) -> object:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {"__tuple__"}:
            return tuple(decode_value(item) for item in value["__tuple__"])
        if set(value) == {"__dict__"}:
            return {
                key: decode_value(item) for key, item in value["__dict__"].items()
            }
        if set(value) == {"__set__"}:
            return {decode_value(item) for item in value["__set__"]}
        if set(value) == {"__frozenset__"}:
            return frozenset(decode_value(item) for item in value["__frozenset__"])
        if set(value) == {"__bytes__"}:
            import base64

            return base64.b64decode(value["__bytes__"])
        if set(value) == {"__items__"}:
            return {
                decode_value(key): decode_value(item)
                for key, item in value["__items__"]
            }
        return {key: decode_value(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def encode_event(event: ChangeEvent) -> Dict[str, object]:
    """Serialize one change event into its WAL form."""
    tag = _EVENT_TAGS.get(event.kind)
    if tag is None:
        raise WalError(f"cannot log unknown event kind {event.kind!r}")
    record: Dict[str, object] = {"e": tag, "t": event.type_name}
    if event.generation is not None:
        record["g"] = event.generation
    if tag in ("ai", "am", "ad"):
        if event.atom is None:
            raise WalError(f"atom event without an atom: {event!r}")
        record["id"] = event.atom.identifier
        if tag != "ad":
            record["v"] = encode_value(event.atom.values)
    else:
        if event.link is None:
            raise WalError(f"link event without a link: {event!r}")
        first, second = event.link.given_order
        record["f"] = first
        record["s"] = second
    return record


# --------------------------------------------------------------- log writing


class WriteAheadLog:
    """An append-only, length-prefixed, checksummed log of commit records.

    One :meth:`commit_events` call appends one record — the atomicity unit of
    recovery.  DDL statements are logged immediately (they are not
    transactional).  The write path is ``append → flush [→ fsync]`` per the
    configured policy; :meth:`sync` forces an fsync, :meth:`truncate` empties
    the log after a checkpoint.

    **Thread safety.**  Every public operation holds the log's internal
    mutex: concurrent committers (group commit included) append whole
    records one at a time — two racing ``commit_events`` calls can never
    interleave their bytes into a torn record, and the byte/record counters
    and the batch-policy unsynced count stay exact.  **Counters.**
    ``records_written``/``bytes_written`` describe the records and bytes
    *currently in the log* — both are reset by :meth:`truncate`, so a
    post-checkpoint report can never show an empty log that still claims
    records; ``lifetime_records``/``lifetime_bytes`` accumulate over the
    handle's lifetime and survive truncation.
    """

    def __init__(
        self,
        path: "str | Path",
        fsync: str = FSYNC_BATCH,
        group_commit: int = 8,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise WalError(f"unknown fsync policy {fsync!r}")
        self.path = Path(path)
        self.fsync = fsync
        self.group_commit = max(1, int(group_commit))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        #: Serializes appends, syncs, truncation and the counters below.
        self._lock = make_rlock("WriteAheadLog._lock")
        #: Records appended through this handle and still in the log
        #: (reset by :meth:`truncate`, like ``bytes_written``).
        self.records_written = 0
        #: Bytes currently in the log file (pre-existing + appended).
        self.bytes_written = self.path.stat().st_size
        #: Records appended through this handle, ever (survives truncation).
        self.lifetime_records = 0
        #: Bytes appended through this handle plus the pre-existing log
        #: contents, ever (survives truncation).
        self.lifetime_bytes = self.bytes_written
        #: fsync calls issued.
        self.syncs = 0
        #: Commit records appended (subset of ``lifetime_records``).
        self.commits = 0
        self._unsynced = 0
        self._closed = False
        #: Record taps (see :meth:`add_observer`), in registration order.
        self._observers: List[Callable[[Dict[str, object]], None]] = []  # guarded-by: WriteAheadLog._lock

    def add_observer(self, observer) -> None:
        """Register a callable invoked with every appended record payload.

        Observers fire inside the log's mutex *after* the record's bytes are
        flushed to the OS, so observation order equals log order and an
        observed record is always readable from the file — the invariant
        both the process-pool's and the replication hub's catch-up feeds
        rely on (a subscriber seeded from the files has at least every
        record observed so far).  Any number of observers may be live at
        once — a process pool and a replication tail never clobber each
        other's tap — each removes only its own via :meth:`remove_observer`.
        An observer must not call back into the log.
        """
        with self._lock:
            if observer not in self._observers:
                self._observers.append(observer)

    def remove_observer(self, observer) -> None:
        """Remove one registered tap (idempotent); other taps keep firing."""
        with self._lock:
            try:
                self._observers.remove(observer)
            except ValueError:
                pass

    # ------------------------------------------------------------- appending

    def append(self, payload: Dict[str, object]) -> int:
        """Append one record; returns the record's size in bytes.

        A failed append is all-or-nothing for a *surviving* process: the
        partial bytes are truncated away before the error propagates, so the
        caller can retry the append cleanly.  (A crashed process leaves the
        torn record instead — recovery discards it by checksum.)
        """
        data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
        blob = _HEADER.pack(len(data), zlib.crc32(data) & 0xFFFFFFFF) + data
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            try:
                self._write_bytes(blob)
            except BaseException:
                self._rewind_failed_append(self.bytes_written)
                raise
            self.records_written += 1
            self.bytes_written += len(blob)
            self.lifetime_records += 1
            self.lifetime_bytes += len(blob)
            self._after_record()
            for observer in self._observers:
                observer(payload)
        return len(blob)

    def commit_events(self, events: Sequence[Dict[str, object]]) -> int:
        """Append one commit record covering *events* (the atomicity unit)."""
        if not events:
            return 0
        generations = [e["g"] for e in events if "g" in e]
        record: Dict[str, object] = {"r": "commit", "events": list(events)}
        if generations:
            record["gen"] = max(generations)
        with self._lock:
            size = self.append(record)
            self.commits += 1
        return size

    def append_ddl(self, payload: Dict[str, object]) -> int:
        """Append one DDL record (non-transactional; synced like a commit)."""
        record = dict(payload)
        record["r"] = "ddl"
        return self.append(record)

    def _write_bytes(self, blob: bytes) -> None:
        """Raw byte append — the override point of fault-injection doubles."""
        self._file.write(blob)

    def _rewind_failed_append(self, size: int) -> None:
        """Best-effort: drop the partial bytes of a failed append.

        Fault-injection doubles that simulate *process death* override this
        with a no-op — a dead process runs no cleanup, its torn record stays.
        """
        try:
            self._file.truncate(size)
            self._file.flush()
        except OSError:  # pragma: no cover - the disk is already failing
            pass

    def _after_record(self) -> None:
        """Apply the fsync policy after one appended record."""
        self._file.flush()
        if self.fsync == FSYNC_ALWAYS:
            self._fsync()
        elif self.fsync == FSYNC_BATCH:
            self._unsynced += 1
            if self._unsynced >= self.group_commit:
                self._fsync()

    def _fsync(self) -> None:
        os.fsync(self._file.fileno())
        self.syncs += 1
        self._unsynced = 0

    # ------------------------------------------------------------ lifecycle

    def sync(self) -> None:
        """Flush and fsync any buffered records (regardless of policy)."""
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            self._fsync()

    def truncate(self) -> None:
        """Empty the log (checkpoint protocol: image first, then truncate).

        Resets the *current-log* counters together — ``bytes_written``,
        ``records_written`` and the unsynced batch count all describe the
        now-empty log — while the ``lifetime_*`` totals keep accumulating.
        """
        with self._lock:
            if self._closed:
                raise WalError("write-ahead log is closed")
            self._file.truncate(0)
            self._file.seek(0)
            self._file.flush()
            os.fsync(self._file.fileno())
            self.bytes_written = 0
            self.records_written = 0
            self._unsynced = 0

    def close(self) -> None:
        """Flush, sync and close the log handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._file.flush()
            os.fsync(self._file.fileno())
            self._file.close()
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WriteAheadLog({str(self.path)!r}, fsync={self.fsync!r}, "
            f"records={self.records_written}, bytes={self.bytes_written})"
        )


# --------------------------------------------------------------- log reading


@dataclass
class WalScan:
    """The outcome of scanning a log file: valid records plus tail telemetry.

    ``valid_bytes`` is the *absolute* file offset one past the last valid
    record — an incremental poller resumes its next :func:`read_wal` call
    from exactly there, regardless of the ``from_offset`` it scanned from.
    """

    records: List[Dict[str, object]]
    valid_bytes: int
    discarded_bytes: int

    @property
    def torn_tail(self) -> bool:
        """``True`` when bytes past the last valid record were discarded."""
        return self.discarded_bytes > 0


def read_wal(path: "str | Path", from_offset: int = 0) -> WalScan:
    """Scan a WAL file from *from_offset*, returning valid records in order.

    Scanning stops at the first incomplete or checksum-failing record; the
    remaining bytes are reported as discarded.  This is what makes recovery
    redo-only: a torn final record (crash mid-append) can never contribute a
    partial transaction.

    A follower polling a **live** primary must treat a non-zero
    ``discarded_bytes`` as *not yet*, never as corruption: appends are
    sequential, so bytes past the last valid record are simply an in-flight
    record whose remainder has not reached the file — the poller re-polls
    from ``valid_bytes`` (the last good offset) and the same scan succeeds
    once the append completes.  Only crash recovery — which knows no append
    is in flight — may truncate the tail away.
    """
    path = Path(path)
    if not path.exists():
        return WalScan([], from_offset, 0)
    with open(path, "rb") as handle:
        handle.seek(from_offset)
        data = handle.read()
    records: List[Dict[str, object]] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:
            break  # torn final record
        payload = data[start:end]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break  # corrupt record: discard it and everything after
        try:
            record = json.loads(payload.decode("utf-8"))
        except ValueError:
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return WalScan(records, from_offset + offset, total - offset)
