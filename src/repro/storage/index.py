"""Secondary indexes over atom attributes.

A :class:`HashIndex` maps attribute values to atom identifiers within one atom
type; it accelerates the atom-oriented interface's value lookups (the
selective restrictions the optimizer pushes down).  A :class:`GridIndex` does
the same for a conjunction over several attributes.  The engine's
:class:`~repro.storage.accelerators.AcceleratorStore` owns them: it builds
them on first use and folds every change event into them.

Attribute values of the ``any`` domain may be unhashable (lists, sets,
dicts); :func:`hashable` maps every value to a hashable key such that equal
values get equal keys.  Different values may share a key, so an index answer
is a superset of the exact one — callers test every candidate again.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.core.atom import Atom
from repro.exceptions import StorageError


def hashable(value: object) -> object:
    """A hashable key for *value*; equal values always get equal keys.

    Lists and tuples become tuples, sets frozensets and dicts frozensets of
    their items (equal whatever the insertion order), all recursively; any
    other unhashable value falls back to its ``repr``.
    """
    if isinstance(value, (list, tuple)):  # a tuple may hold lists
        return tuple(map(hashable, value))
    if type(value).__hash__ is not None:
        return value
    if isinstance(value, set):
        return frozenset(map(hashable, value))
    if isinstance(value, dict):
        return frozenset((hashable(key), hashable(item)) for key, item in value.items())
    return repr(value)


class HashIndex:
    """An equality index ``value -> {atom identifiers}`` for one attribute."""

    __slots__ = ("atom_type_name", "attribute", "_buckets", "_entries")

    def __init__(self, atom_type_name: str, attribute: str) -> None:
        self.atom_type_name = atom_type_name
        self.attribute = attribute
        self._buckets: Dict[object, Set[str]] = {}
        self._entries: Dict[str, object] = {}

    def insert(self, atom: Atom) -> None:
        """Index *atom* (replacing any previous entry for its identifier)."""
        if atom.identifier in self._entries:
            self.remove(atom.identifier)
        value = hashable(atom.get(self.attribute))
        self._buckets.setdefault(value, set()).add(atom.identifier)
        self._entries[atom.identifier] = value

    def remove(self, identifier: str) -> None:
        """Drop the entry for *identifier* (no error when absent)."""
        value = self._entries.pop(identifier, _MISSING)
        if value is _MISSING:
            return
        bucket = self._buckets.get(value)
        if bucket is not None:
            bucket.discard(identifier)
            if not bucket:
                del self._buckets[value]

    def lookup(self, value: object) -> FrozenSet[str]:
        """Return the identifiers whose indexed attribute equals *value*."""
        return frozenset(self._buckets.get(hashable(value), ()))

    def distinct_values(self) -> int:
        """Number of distinct indexed values (used by the optimizer's statistics)."""
        return len(self._buckets)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: object) -> bool:
        return identifier in self._entries

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.atom_type_name}.{self.attribute}, entries={len(self._entries)}, "
            f"values={len(self._buckets)})"
        )


class GridIndex:
    """A grid-file style composite index over several attributes of one type.

    The value space is partitioned per dimension by hashing each attribute
    value into one of ``partitions`` cells; an entry lands in the directory
    cell addressed by its coordinate tuple.  Exact conjunctive lookups read
    one cell; partial-match lookups (a subset of the dimensions bound) scan
    the matching directory slice — both then filter on the stored value
    tuples, so hash collisions never produce false positives.
    """

    __slots__ = ("atom_type_name", "attributes", "partitions", "_cells", "_entries")

    def __init__(
        self,
        atom_type_name: str,
        attributes: Iterable[str],
        partitions: int = 16,
    ) -> None:
        self.atom_type_name = atom_type_name
        self.attributes: Tuple[str, ...] = tuple(attributes)
        if len(self.attributes) < 2:
            raise StorageError("a grid index needs at least two attributes")
        if len(set(self.attributes)) != len(self.attributes):
            raise StorageError("grid index attributes must be distinct")
        self.partitions = max(2, int(partitions))
        self._cells: Dict[Tuple[int, ...], Dict[str, Tuple[object, ...]]] = {}
        self._entries: Dict[str, Tuple[int, ...]] = {}

    def insert(self, atom: Atom) -> None:
        """Index *atom* (replacing any previous entry for its identifier)."""
        if atom.identifier in self._entries:
            self.remove(atom.identifier)
        values = tuple(hashable(atom.get(attribute)) for attribute in self.attributes)
        coordinate = tuple(self._coordinate(value) for value in values)
        self._cells.setdefault(coordinate, {})[atom.identifier] = values
        self._entries[atom.identifier] = coordinate

    def remove(self, identifier: str) -> None:
        """Drop the entry for *identifier* (no error when absent)."""
        coordinate = self._entries.pop(identifier, None)
        if coordinate is None:
            return
        cell = self._cells.get(coordinate)
        if cell is not None:
            cell.pop(identifier, None)
            if not cell:
                del self._cells[coordinate]

    def lookup(self, values: Dict[str, object]) -> FrozenSet[str]:
        """Identifiers matching every bound attribute in *values*.

        Binding all dimensions is an exact (single-cell) lookup; binding a
        subset is a partial-match query over the compatible cells.  Unknown
        attribute names raise :class:`StorageError`.
        """
        unknown = set(values) - set(self.attributes)
        if unknown:
            raise StorageError(
                f"grid index over {self.attributes!r} cannot bind {sorted(unknown)!r}"
            )
        bound = {name: hashable(value) for name, value in values.items()}
        wanted = tuple(
            (position, bound[name], self._coordinate(bound[name]))
            for position, name in enumerate(self.attributes)
            if name in bound
        )
        matches = set()
        if len(wanted) == len(self.attributes):
            exact = tuple(cell_coord for _, _, cell_coord in wanted)
            cells: Iterable[Tuple[Tuple[int, ...], Dict[str, Tuple[object, ...]]]] = (
                ((exact, self._cells[exact]),) if exact in self._cells else ()
            )
        else:
            cells = self._cells.items()
        for coordinate, cell in cells:
            if any(coordinate[position] != cell_coord for position, _, cell_coord in wanted):
                continue
            for identifier, entry in cell.items():
                if all(entry[position] == value for position, value, _ in wanted):
                    matches.add(identifier)
        return frozenset(matches)

    def _coordinate(self, hashable_value: object) -> int:
        return hash(hashable_value) % self.partitions

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, identifier: object) -> bool:
        return identifier in self._entries

    def __repr__(self) -> str:
        return (
            f"GridIndex({self.atom_type_name}{list(self.attributes)}, "
            f"entries={len(self._entries)}, cells={len(self._cells)})"
        )


class _Missing:
    """Sentinel distinguishing 'no entry' from an indexed ``None`` value."""

    __slots__ = ()


_MISSING = _Missing()
