"""Crash recovery: checkpoint images and redo-only WAL replay.

Recovery rebuilds a :class:`~repro.storage.engine.PrimaEngine` from its
durability directory in two phases:

1. **Checkpoint load** — ``checkpoint.json`` is a compact catalog + occurrence
   image (atom types with their attribute descriptions and atoms, link types
   with cardinalities and links, secondary indexes, structure-index
   registrations, the write generation).  Nothing derived is written: the
   indexes and accelerators are rebuilt from the occurrence on first use.
   Checkpoints are written atomically: the image goes to a temporary file,
   is fsynced, and replaces the previous image via :func:`os.replace` — a
   crash mid-checkpoint leaves the old image intact, and a failed one
   removes its temporary file.  The image is streamed: it is never held
   in memory whole, only one batch of atoms or links at a time, each
   batch encoded by one ``json.dumps`` call (the C encoder).  The bytes
   are those of ``json.dumps(image, separators=(",", ":"),
   sort_keys=True)`` — the format is unchanged.  The image is still read
   back whole (:func:`load_checkpoint`).
2. **WAL replay** — every valid record after the checkpoint is applied in
   append order: DDL records re-create types and indexes, commit records
   replay their change events against the engine's database — whose
   ordinary event path keeps every derived structure coherent.  Only committed
   transactions ever reach the log (events are buffered per transaction and
   written as one record at commit), and :func:`repro.storage.wal.read_wal`
   discards torn final records by checksum — so replay is pure redo and the
   recovered state is exactly the pre-crash committed head.

After replay the engine's write generation continues from the highest stamp
seen, and the atom surrogate counter is bumped past every replayed surrogate
identifier so new inserts cannot collide with recovered atoms.

:class:`Durability`, at the end of the module, is a durable engine's one
owner of all this: it recovers the directory, then keeps the log, the
per-writer buffers and the checkpoints.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.atom import Atom, AtomType, ensure_surrogate_counter
from repro.core.attributes import AtomTypeDescription, AttributeDescription
from repro.core.events import ChangeEvent
from repro.core.link import Cardinality, LinkType
from repro.exceptions import StorageError
from repro.storage.wal import (
    _SENTINEL_KEYS,
    DurabilityConfig,
    WalError,
    WalScan,
    WriteAheadLog,
    decode_value,
    encode_event,
    encode_value,
    read_wal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.engine import PrimaEngine

#: Checkpoint image format version (bumped on incompatible layout changes).
CHECKPOINT_FORMAT = 1

#: Surrogate identifiers have the form ``<type>#<n>`` (see repro.core.atom).
_SURROGATE = re.compile(r"#(\d+)$")


@dataclass
class RecoveryResult:
    """What one recovery pass did (reported via ``maintenance_report()``)."""

    checkpoint_loaded: bool = False
    records_replayed: int = 0
    events_replayed: int = 0
    ddl_replayed: int = 0
    discarded_bytes: int = 0
    generation: int = 0


# -------------------------------------------------------------- descriptions


def describe_attributes(description: AtomTypeDescription) -> List[Dict[str, object]]:
    """Serialize an atom-type description for a checkpoint or DDL record."""
    serialized = []
    for attribute in description:
        entry: Dict[str, object] = {"name": attribute.name, "type": attribute.data_type.value}
        if attribute.allowed_values is not None:
            entry["allowed"] = sorted(
                (encode_value(value) for value in attribute.allowed_values),
                key=repr,
            )
        if attribute.required:
            entry["required"] = True
        if attribute.doc:
            entry["doc"] = attribute.doc
        serialized.append(entry)
    return serialized


def restore_attributes(serialized: Iterable[Dict[str, object]]) -> AtomTypeDescription:
    """Invert :func:`describe_attributes`."""
    return AtomTypeDescription(
        [
            AttributeDescription(
                entry["name"],
                entry.get("type", "any"),
                allowed_values=(
                    [decode_value(value) for value in entry["allowed"]]
                    if "allowed" in entry
                    else None
                ),
                required=bool(entry.get("required", False)),
                doc=str(entry.get("doc", "")),
            )
            for entry in serialized
        ]
    )


# --------------------------------------------------------------- checkpoints


#: Atoms, or links, encoded per ``json.dumps`` call while an image is
#: streamed (:func:`write_checkpoint`).
CHECKPOINT_BATCH = 1024

#: Value types :func:`~repro.storage.wal.encode_value` returns unchanged.
_SCALARS = frozenset((type(None), bool, int, float, str))

_IDENTIFIER = attrgetter("identifier")
_FIRST = attrgetter("first")
_SECOND = attrgetter("second")


def _dumps(value: object) -> str:
    """The image's JSON form of *value* (compact, sorted keys, C encoder)."""
    return json.dumps(value, separators=(",", ":"), sort_keys=True)


def write_checkpoint(engine: "PrimaEngine", config: DurabilityConfig) -> Path:
    """Write the checkpoint image atomically (tmp file + fsync + rename).

    The image is streamed into the tmp file: the text is byte for byte what
    ``json.dumps(image, separators=(",", ":"), sort_keys=True)`` gives for
    the whole image (format :data:`CHECKPOINT_FORMAT`, unchanged), but no
    whole image is ever built.  Beyond the occurrence, the writer holds one
    batch of :data:`CHECKPOINT_BATCH` records with its text, and a sorted
    list of references to one type's atoms or links; each batch goes
    through the C encoder.  On any failure (a value with no JSON form, a
    failed write, fsync or rename) the tmp file is removed and the error
    re-raised: the previous image stays in place, and the caller has not
    truncated the log.
    """
    path = config.checkpoint_path
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            _stream_image(engine, handle.write)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise
    _fsync_directory(path.parent)
    return path


def _stream_image(engine: "PrimaEngine", write: Callable[[str], object]) -> None:
    """Write the image of the engine's database as JSON text to *write*.

    The image is a catalog + occurrence: atom types with their attribute
    descriptions, atoms and declared indexes, link types with cardinalities
    and links, the structure-index registrations and the write generation.
    Objects of a fixed shape are written by hand, their keys in sorted order;
    atoms (sorted by identifier) and links (sorted pairs) go batch by batch.
    """
    database = engine.to_database()
    accelerators = engine._accelerators
    write('{"atom_types":[')
    for position, atom_type in enumerate(database.atom_types):
        description = atom_type.description
        indexes = sorted(
            name for name in description.names if accelerators.is_declared(atom_type.name, name)
        )
        write(',{"atoms":' if position else '{"atoms":')
        _stream_array(write, _atom_batches(atom_type))
        write(
            f',"attributes":{_dumps(describe_attributes(description))}'
            f',"indexes":{_dumps(indexes)},"name":{_dumps(atom_type.name)}}}'
        )
    write(
        f'],"format":{_dumps(CHECKPOINT_FORMAT)},"generation":{_dumps(engine.generation)}'
        ',"link_types":['
    )
    for position, link_type in enumerate(database.link_types):
        first_type, second_type = link_type.atom_type_names
        write(
            (',{"cardinality":' if position else '{"cardinality":')
            + f'{_dumps(link_type.cardinality.value)},"first":{_dumps(first_type)},"links":'
        )
        _stream_array(write, _link_batches(link_type))
        write(f',"name":{_dumps(link_type.name)},"second":{_dumps(second_type)}}}')
    write(
        f'],"name":{_dumps(engine.name)}'
        f',"structure_indexes":{_dumps(sorted(accelerators.registered()))}}}'
    )


def _stream_array(write: Callable[[str], object], batches: Iterable[list]) -> None:
    """Write one JSON array whose elements come in non-empty *batches*."""
    write("[")
    separator = ""
    for batch in batches:
        write(separator)
        write(_dumps(batch)[1:-1])
        separator = ","
    write("]")


def _atom_batches(atom_type: AtomType) -> Iterator[List[Dict[str, object]]]:
    """The type's ``{"id", "v"}`` atom records, sorted by identifier.

    A row of JSON scalars is its own encoding, unless an attribute name is
    one of the encoder's sentinel keys (the dict is then escaped); every
    other row goes through :func:`encode_value`.
    """
    escaped = any(name in _SENTINEL_KEYS for name in atom_type.description.names)
    atoms = sorted(atom_type, key=_IDENTIFIER)
    for start in range(0, len(atoms), CHECKPOINT_BATCH):
        batch = []
        for atom in atoms[start : start + CHECKPOINT_BATCH]:
            values = atom.values
            if escaped or not _SCALARS.issuperset(map(type, values.values())):
                values = encode_value(values)
            batch.append({"id": atom.identifier, "v": values})
        yield batch


def _link_batches(link_type: LinkType) -> Iterator[List[Tuple[str, str]]]:
    """The type's links as sorted ``(first, second)`` pairs.

    Two stable sorts give the pairs' order without a key tuple per link.
    """
    links = sorted(link_type, key=_SECOND)
    links.sort(key=_FIRST)
    for start in range(0, len(links), CHECKPOINT_BATCH):
        yield [(link.first, link.second) for link in links[start : start + CHECKPOINT_BATCH]]


def load_checkpoint(config: DurabilityConfig) -> Optional[Dict[str, object]]:
    """Read the checkpoint image, or ``None`` when none has been written.

    An image that is not UTF-8 JSON, or whose top level is not an object of
    the image's shape, raises :class:`WalError` naming the file.
    """
    path = config.checkpoint_path
    if not path.exists():
        return None
    try:
        image = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as error:  # UnicodeDecodeError and JSONDecodeError
        raise WalError(f"unreadable checkpoint image {path}: {error}") from error
    if not isinstance(image, dict):
        raise WalError(f"checkpoint image {path} is not a JSON object")
    if image.get("format") != CHECKPOINT_FORMAT:
        raise WalError(
            f"unsupported checkpoint format {image.get('format')!r} in {path}"
        )
    for key in ("atom_types", "link_types", "structure_indexes"):
        section = image.get(key, [])
        if not isinstance(section, list) or (
            key != "structure_indexes" and not all(isinstance(entry, dict) for entry in section)
        ):
            raise WalError(f"checkpoint image {path} has a malformed {key!r} section")
    return image


def _fsync_directory(directory: Path) -> None:
    """Persist a rename by fsyncing its directory (best effort off-POSIX)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - non-POSIX platforms
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# -------------------------------------------------------------------- replay


def apply_checkpoint(engine: "PrimaEngine", config: DurabilityConfig) -> Optional[int]:
    """Recreate catalog and occurrences from the directory's checkpoint image;
    returns the highest surrogate ordinal seen, or ``None`` without an image.

    Every type is built whole and then registered — one validation pass, no
    per-atom change event, no log record — and the engine resumes at the
    image's generation.  An entry of the wrong shape (a missing key, a pair
    of one element, a generation that is no integer) raises
    :class:`WalError` naming the file.
    """
    image = load_checkpoint(config)
    if image is None:
        return None
    highest = 0
    try:
        for entry in image.get("atom_types", ()):
            name = entry["name"]
            records = entry.get("atoms", ())
            highest = max([highest, *(_surrogate_ordinal(record["id"]) for record in records)])
            engine._add_type(
                AtomType(
                    name,
                    restore_attributes(entry["attributes"]),
                    (
                        Atom(name, decode_value(record["v"]), identifier=record["id"])
                        for record in records
                    ),
                )
            )
            for attribute in entry.get("indexes", ()):
                engine.create_index(name, attribute)
        database = engine.to_database()
        for entry in image.get("link_types", ()):
            link_type = LinkType(
                entry["name"],
                entry["first"],
                entry["second"],
                cardinality=Cardinality(entry.get("cardinality", Cardinality.MANY_TO_MANY.value)),
            )
            for first, second in entry.get("links", ()):  # (first, second) identifier pairs
                link_type.add(_placed(database, link_type, first, second))
            engine._add_type(link_type)
        for atom_type, link_type, direction in image.get("structure_indexes", ()):
            engine.create_structure_index(atom_type, link_type, direction)
        engine._advance_generation(int(image.get("generation", 0)))
    except (KeyError, TypeError, ValueError) as error:
        raise WalError(
            f"malformed checkpoint image {config.checkpoint_path}: {error!r}"
        ) from error
    return highest


def apply_ddl_record(engine: "PrimaEngine", record: Dict[str, object]) -> None:
    """Replay one DDL record (atom type / link type / index creation).

    Replay is create-if-absent: after a crash *between* the checkpoint image
    write and the WAL truncate, the next recovery loads an image that
    already contains the types the un-truncated log re-creates — like event
    replay, DDL replay must be idempotent for that window to be safe.
    """
    op = record.get("op")
    database = engine.to_database()
    if op == "atom_type":
        if not database.has_atom_type(record["name"]):
            engine.create_atom_type(record["name"], restore_attributes(record["attributes"]))
    elif op == "link_type":
        if not database.has_link_type(record["name"]):
            engine.create_link_type(
                record["name"],
                record["first"],
                record["second"],
                cardinality=Cardinality(
                    record.get("cardinality", Cardinality.MANY_TO_MANY.value)
                ),
            )
    elif op == "index":
        engine.create_index(record["type"], record["attribute"])
    elif op == "structure_index":
        engine.create_structure_index(
            record["type"], record["link"], record.get("direction", "down")
        )
    else:
        raise WalError(f"unknown DDL operation {op!r} in WAL record")


def apply_event_record(engine: "PrimaEngine", event: Dict[str, object]) -> int:
    """Replay one serialized change event against the engine's database;
    returns the highest surrogate ordinal it introduced.

    The mutation travels the engine's ordinary event path, so the index
    pool and the accelerators stay coherent across the WAL tail exactly
    as they do across live writes.  Replay is idempotent: an insert of a
    present atom replaces it, a delete or disconnect of an absent one is a
    no-op.
    """
    tag = event.get("e")
    type_name = event["t"]
    database = engine.to_database()
    if tag in ("ai", "am"):
        atom_type = database.atyp(type_name)
        atom = Atom(type_name, decode_value(event["v"]), identifier=event["id"])
        if atom_type.get(atom.identifier) is None:
            atom_type.add(atom)
        else:
            atom_type.replace(atom)
        return _surrogate_ordinal(atom.identifier)
    if tag == "ad":
        atom_type = database.atyp(type_name)
        if atom_type.get(event["id"]) is not None:
            atom_type.remove(event["id"])
        return 0
    if tag == "lc":
        link_type = database.ltyp(type_name)
        link_type.redo_connect(*_placed(database, link_type, event["f"], event["s"]))
        return 0
    if tag == "ld":
        link_type = database.ltyp(type_name)
        link_type.remove(link_type.link(event["f"], event["s"]))
        return 0
    raise WalError(f"unknown event tag {tag!r} in commit record")


def _placed(database, link_type: LinkType, first: str, second: str) -> Tuple[str, str]:
    """A logged identifier pair in definition order (:meth:`LinkType.placed`).

    Links are logged in definition order, but older logs and images may
    hold a pair the other way round.  A pair stored neither way keeps its
    logged order: its atoms are gone, and the log removes the link later.
    """
    atoms = (database.atyp(name) for name in link_type.atom_type_names)
    return link_type.placed(first, second, *atoms) or (first, second)


def _surrogate_ordinal(identifier: object) -> int:
    """The numeric suffix of a ``<type>#<n>`` surrogate identifier, or 0."""
    if not isinstance(identifier, str):
        return 0
    match = _SURROGATE.search(identifier)
    return int(match.group(1)) if match else 0


def replay_records(
    engine: "PrimaEngine", records: Iterable[Dict[str, object]], result: RecoveryResult
) -> int:
    """Replay WAL (or commit-feed) records on *engine* in log order, counted
    into *result*, whose ``generation`` ends at the highest commit's; returns
    the highest surrogate ordinal the events introduced.

    The one replay routine of recovery, replica seeding and follower
    catch-up — always the primitives above, always idempotent.
    """
    highest = 0
    for record in records:
        kind = record.get("r")
        if kind == "ddl":
            apply_ddl_record(engine, record)
            result.ddl_replayed += 1
        elif kind == "commit":
            for event in record.get("events", ()):
                highest = max(highest, apply_event_record(engine, event))
                result.events_replayed += 1
            result.generation = max(result.generation, int(record.get("gen", 0)))
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")
        result.records_replayed += 1
    return highest


def recover(engine: "PrimaEngine", config: DurabilityConfig) -> RecoveryResult:
    """Rebuild *engine* from its durability directory (checkpoint + WAL).

    Called by :class:`~repro.storage.engine.PrimaEngine` during construction,
    before the WAL is opened for appending — nothing replayed here is ever
    re-logged.  Returns the telemetry ``maintenance_report()`` exposes.
    """
    Path(config.directory).mkdir(parents=True, exist_ok=True)
    result = RecoveryResult()
    highest = apply_checkpoint(engine, config)
    result.checkpoint_loaded = highest is not None
    result.generation = engine.generation
    scan: WalScan = read_wal(config.wal_path)
    result.discarded_bytes = scan.discarded_bytes
    if scan.discarded_bytes:
        # The torn/corrupt tail is dead bytes: physically truncate it now,
        # before the engine reopens the log in append mode — otherwise the
        # records committed after this recovery would sit *behind* the
        # invalid bytes and be discarded by the next recovery.
        with open(config.wal_path, "r+b") as handle:
            handle.truncate(scan.valid_bytes)
            handle.flush()
            os.fsync(handle.fileno())
    ensure_surrogate_counter(max(highest or 0, replay_records(engine, scan.records, result)))
    engine._advance_generation(result.generation)
    return result


# ---------------------------------------------------------------- the owner


#: ``maintenance_report()``'s durability keys, in report order:
#: ``wal_bytes`` / ``wal_records`` — bytes and records currently in the log
#: (both reset by a checkpoint's truncate, so they always agree),
#: ``wal_syncs`` — fsyncs issued, ``wal_lifetime_bytes`` /
#: ``wal_lifetime_records`` — totals over the log handle's lifetime,
#: ``checkpoints`` — images written, ``recovery_replayed`` — records replayed
#: at construction.
REPORT_KEYS = (
    "wal_bytes",
    "wal_records",
    "wal_syncs",
    "wal_lifetime_bytes",
    "wal_lifetime_records",
    "checkpoints",
    "recovery_replayed",
)


class Durability:
    """A durable engine's log and images: everything that outlives the process.

    Construction recovers the directory into *engine* (:func:`recover`),
    then opens the write-ahead log for appending and starts logging — in
    that order, so nothing replayed is ever logged again.  From then on it
    buffers the engine's change events per transaction (a basic-interface
    write is one too) and appends them as one checksummed commit record
    when the transaction commits, atomically with the MVCC commit-log entry
    (the versioning state's transaction hook), or drops them when it rolls
    back; an event outside any transaction commits on its own.  DDL is
    logged as it happens (:meth:`log_ddl`, replayed by
    :func:`apply_ddl_record`).  :meth:`checkpoint` writes an image and
    truncates the log.
    """

    def __init__(self, engine: "PrimaEngine", config: DurabilityConfig) -> None:
        self._engine = engine
        self.config = config
        #: Change events buffered per active writer (keyed by ``id``); each
        #: entry is appended and flushed by the one thread driving that writer.
        self._pending: Dict[int, List[Dict[str, object]]] = {}
        self.checkpoints = 0
        #: What construction-time recovery replayed.
        self.recovery = recover(engine, config)
        factory = config.wal_factory or WriteAheadLog
        self.wal = factory(config.wal_path, fsync=config.fsync, group_commit=config.group_commit)
        database = engine.to_database()
        self._state = database.versioning
        self._state.transaction_hooks.append(self.finish)
        database.subscribe(self.capture)

    def capture(self, event: ChangeEvent) -> None:
        """Route one change event: buffered under this thread's writer, or
        committed at once when no writer is tracking (a direct database
        mutation outside any transaction).  Writer attribution is
        thread-local, so concurrent writers never share a record."""
        writer = self._state.current_writer
        record = encode_event(event)
        if writer is not None:
            self._pending.setdefault(id(writer), []).append(record)
        else:
            self.wal.commit_events([record])

    def finish(self, writer: object, committed: bool) -> None:
        """Transaction hook: log the writer's buffered events on commit,
        drop them on rollback — the log only carries committed writers."""
        events = self._pending.get(id(writer))
        if committed and events:
            # May raise (closed log, full disk): the buffer is kept so a
            # retried commit logs the events after all — the pop below is
            # only reached once the record is safely appended.
            self.wal.commit_events(events)
        self._pending.pop(id(writer), None)

    def log_ddl(self, op: str, *subject) -> None:
        """Append the record of one DDL statement.

        *subject* is the new :class:`AtomType` or :class:`LinkType`, an
        index's ``(atom type, attribute)`` names, or a structure index's
        ``(atom type, link type, direction)``.
        """
        if op == "atom_type":
            (atom_type,) = subject
            record = {
                "op": op,
                "name": atom_type.name,
                "attributes": describe_attributes(atom_type.description),
            }
        elif op == "link_type":
            (link_type,) = subject
            first_type, second_type = link_type.atom_type_names
            record = {
                "op": op,
                "name": link_type.name,
                "first": first_type,
                "second": second_type,
                "cardinality": link_type.cardinality.value,
            }
        elif op == "index":
            atom_type_name, attribute = subject
            record = {"op": op, "type": atom_type_name, "attribute": attribute}
        else:
            atom_type_name, link_type_name, direction = subject
            record = {
                "op": op,
                "type": atom_type_name,
                "link": link_type_name,
                "direction": direction,
            }
        self.wal.append_ddl(record)

    def checkpoint(self) -> Dict[str, object]:
        """Write a snapshot image and truncate the log (quiescent points only).

        The protocol is: image to a temporary file, fsync, atomic rename
        over the previous image, fsync the directory, *then* truncate the
        log — a crash between any two steps leaves old image + full log or
        new image + full log, both of which replay to the committed head
        because replay is idempotent.  Refused while any transaction is
        active: the head then carries uncommitted writes that must not
        enter an image.

        The engine's write lock and the versioning lock are held for the
        whole image write, so the call stops the world: about 1.0 s on a
        durable 100k-atom mesh and 1.2–1.3 s on a 104k-part forest
        (Python 3.11, 2 cores; 3.5–4.9 s while the image was built whole
        and written by ``json.dump``).  The image is streamed in batches
        (:func:`write_checkpoint`); a failed write leaves the previous image
        and the log as they were.
        """
        engine = self._engine
        with engine._write_lock:
            if self.wal.closed:
                # Fail before the image write: replacing the image and then
                # failing to truncate would leave a half-finished checkpoint
                # behind a closed engine.
                raise StorageError("cannot checkpoint a closed engine; reopen the directory")
            # The quiescence check, the image and the truncate form one
            # critical section of the versioning lock: a transaction
            # beginning (or any mutation ticking) after the check would
            # otherwise put uncommitted state into the head mid-image.
            with self._state.lock:
                if self._state.active_transactions or self._pending:
                    raise StorageError(
                        "cannot checkpoint while transactions are active; "
                        "COMMIT WORK or ROLLBACK WORK first"
                    )
                path = write_checkpoint(engine, self.config)
                self.wal.truncate()
            self.checkpoints += 1
        database = engine.to_database()
        return {
            "path": str(path),
            "checkpoints": self.checkpoints,
            "generation": engine.generation,
            "atoms": database.atom_count(),
            "links": database.link_count(),
        }

    def report(self) -> Dict[str, int]:
        """The :data:`REPORT_KEYS` of ``maintenance_report()``."""
        wal = self.wal
        return dict(
            zip(
                REPORT_KEYS,
                (
                    wal.bytes_written,
                    wal.records_written,
                    wal.syncs,
                    wal.lifetime_bytes,
                    wal.lifetime_records,
                    self.checkpoints,
                    self.recovery.records_replayed,
                ),
            )
        )

    def close(self) -> None:
        """Flush and close the log (idempotent)."""
        self.wal.close()
