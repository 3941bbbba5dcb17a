"""Crash recovery: checkpoint images and redo-only WAL replay.

Recovery rebuilds a :class:`~repro.storage.engine.PrimaEngine` from its
durability directory in two phases:

1. **Checkpoint load** — ``checkpoint.json`` is a compact catalog + occurrence
   image (atom types with their attribute descriptions and atoms, link types
   with cardinalities and links, secondary indexes, the write generation).
   Checkpoints are written atomically: the image goes to a temporary file,
   is fsynced, and replaces the previous image via :func:`os.replace` — a
   crash mid-checkpoint leaves the old image intact.
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

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.core.atom import Atom, AtomType, ensure_surrogate_counter
from repro.core.attributes import AtomTypeDescription, AttributeDescription
from repro.core.link import Cardinality, Link, LinkType
from repro.storage.wal import (
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


def checkpoint_image(engine: "PrimaEngine") -> Dict[str, object]:
    """A compact catalog + occurrence image of the engine's database."""
    database = engine.to_database()
    atom_types = []
    for atom_type in database.atom_types:
        atom_types.append(
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
                    if (atom_type.name, name) in engine._indexed
                ),
            }
        )
    link_types = []
    for link_type in database.link_types:
        first_type, second_type = link_type.atom_type_names
        link_types.append(
            {
                "name": link_type.name,
                "first": first_type,
                "second": second_type,
                "cardinality": link_type.cardinality.value,
                "links": sorted(link.given_order for link in link_type),
            }
        )
    return {
        "format": CHECKPOINT_FORMAT,
        "name": engine.name,
        "generation": engine.generation,
        "atom_types": atom_types,
        "link_types": link_types,
        "structure_indexes": sorted(engine._structure_indexes.registered()),
        # Built, non-stale interval encodings travel with the image so
        # recovery restores them directly instead of re-deriving each from a
        # full occurrence pass on first use (absent in older images — those
        # simply keep the lazy-rebuild behaviour).
        "structure_encodings": engine._structure_indexes.encoded_states(),
    }


def write_checkpoint(engine: "PrimaEngine", config: DurabilityConfig) -> Path:
    """Write the checkpoint image atomically (tmp file + fsync + rename)."""
    path = config.checkpoint_path
    path.parent.mkdir(parents=True, exist_ok=True)
    image = checkpoint_image(engine)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(image, handle, separators=(",", ":"), sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)
    return path


def load_checkpoint(config: DurabilityConfig) -> Optional[Dict[str, object]]:
    """Read the checkpoint image, or ``None`` when none has been written."""
    path = config.checkpoint_path
    if not path.exists():
        return None
    image = json.loads(path.read_text(encoding="utf-8"))
    if image.get("format") != CHECKPOINT_FORMAT:
        raise WalError(
            f"unsupported checkpoint format {image.get('format')!r} in {path}"
        )
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
    engine._structure_indexes.restore_states(image.get("structure_encodings", ()))
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
    pool and the structure encodings restored from the checkpoint
    image stay coherent across the WAL tail exactly as they do across live
    writes.  Replay is idempotent: an insert of a present atom replaces it,
    a delete or disconnect of an absent one is a no-op.
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
        link_type.remove(Link(type_name, event["f"], event["s"], *link_type.atom_type_names))
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
