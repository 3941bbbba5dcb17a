"""Value identity for grouping: which attribute values collapse, and how the
collapsed values render.

Γ groups, DISTINCT sets and the columnar projection's value postings all key
values by :func:`distinct_key`: ``==``-equal hashable values share a key (the
usual SQL reading), and an unhashable value is keyed by its type and ``repr``
instead of raising.  ``==`` joins values that print differently (``1``,
``1.0`` and ``True``; ``-0.0`` and ``0.0``), so a group's rendered key is
chosen by an order-independent rule that :func:`renders_alike` lets the folds
skip in the common case where every member prints the same.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Sequence

#: Types whose ``==``-equal values always print alike.
_PLAIN_TYPES = frozenset((str, int, bool, bytes, type(None)))


def distinct_key(value: object) -> object:
    """The key one value is grouped, deduplicated and posted under.

    Hashable values stand for themselves (``==``-equal values collapse);
    unhashable values fall back to a canonical ``(type name, repr)`` tag so a
    list- or dict-valued attribute still groups deterministically instead of
    raising.
    """
    try:
        hash(value)
    except TypeError:
        return ("__unhashable__", type(value).__name__, repr(value))
    return value


def renders_alike(values: Sequence[object], sample: object) -> bool:
    """Whether every value of *values* that is ``==`` *sample* has
    *sample*'s type name and text.

    One pass over the types settles the usual cases (one plain type; nonzero
    floats of one type); anything else compares the equal values one by one.
    """
    kinds = set(map(type, values))
    if kinds == {type(sample)} and (
        kinds <= _PLAIN_TYPES or (float in kinds and sample != 0)
    ):
        return True
    text = (type(sample).__name__, str(sample))
    return all(
        (type(value).__name__, str(value)) == text for value in values if value == sample
    )


def group_rows(rows: Iterable[int], keys: Iterable[Hashable]) -> Dict[Hashable, List[int]]:
    """*rows* partitioned by their *keys* (parallel iterables), each bucket in
    row order; raises ``TypeError`` on an unhashable key."""
    groups: Dict[Hashable, List[int]] = {}
    for row, key in zip(rows, keys):
        bucket = groups.get(key)
        if bucket is None:
            groups[key] = [row]
        else:
            bucket.append(row)
    return groups
