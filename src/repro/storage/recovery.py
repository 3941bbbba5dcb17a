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
from repro.core.link import Cardinality, LinkType
from repro.storage.wal import (
    _SENTINEL_KEYS,
    DurabilityConfig,
    WalError,
    WalScan,
    decode_value,
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


def apply_checkpoint(engine: "PrimaEngine", image: Dict[str, object]) -> int:
    """Recreate catalog and occurrences from a checkpoint image; returns the
    highest surrogate ordinal seen.

    Every type is built whole and then registered — one validation pass, no
    per-atom change event — and the engine resumes at the image's generation.
    """
    highest = 0
    for entry in image.get("atom_types", ()):
        name = entry["name"]
        records = entry.get("atoms", ())
        highest = max([highest, *(_surrogate_ordinal(record["id"]) for record in records)])
        engine._add_atom_type(
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
        engine._add_link_type(link_type)
    for atom_type, link_type, direction in image.get("structure_indexes", ()):
        engine.create_structure_index(atom_type, link_type, direction)
    engine._advance_generation(int(image.get("generation", 0)))
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


def recover(engine: "PrimaEngine", config: DurabilityConfig) -> RecoveryResult:
    """Rebuild *engine* from its durability directory (checkpoint + WAL).

    Called by :class:`~repro.storage.engine.PrimaEngine` during construction,
    before the WAL is opened for appending — nothing replayed here is ever
    re-logged.  Returns the telemetry ``maintenance_report()`` exposes.
    """
    Path(config.directory).mkdir(parents=True, exist_ok=True)
    result = RecoveryResult()
    highest_surrogate = 0
    image = load_checkpoint(config)
    if image is not None:
        highest_surrogate = apply_checkpoint(engine, image)
        result.checkpoint_loaded = True
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
    for record in scan.records:
        kind = record.get("r")
        if kind == "ddl":
            apply_ddl_record(engine, record)
            result.ddl_replayed += 1
        elif kind == "commit":
            for event in record.get("events", ()):
                highest_surrogate = max(
                    highest_surrogate, apply_event_record(engine, event)
                )
                result.events_replayed += 1
            result.generation = max(result.generation, int(record.get("gen", 0)))
        else:
            raise WalError(f"unknown WAL record kind {kind!r}")
        result.records_replayed += 1
    ensure_surrogate_counter(highest_surrogate)
    engine._advance_generation(result.generation)
    return result
