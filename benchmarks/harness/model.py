"""The plain-Python reference model every benchmark result is checked against.

A dict-of-dicts copy of the atoms and the link adjacency.  The generators fill
it next to the engine, the workloads apply every *acknowledged* write to it,
and every read is compared with what the model renders — outside the timed
span.  Nothing here imports ``repro``: the model must not share a bug with the
code it checks.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Set, Tuple

#: A molecule structure: ``(atom type, ((link type, child shape), ...))``.
Shape = Tuple[str, tuple]


class Model:
    """Atoms by type and identifier; links as forward and backward adjacency."""

    def __init__(self) -> None:
        self.atoms: Dict[str, Dict[str, Dict[str, object]]] = {}
        self.ends: Dict[str, Tuple[str, str]] = {}
        self.children: Dict[str, Dict[str, Set[str]]] = {}
        self.parents: Dict[str, Dict[str, Set[str]]] = {}

    def add_type(self, name: str) -> None:
        self.atoms[name] = {}

    def add_link_type(self, name: str, first: str, second: str) -> None:
        self.ends[name] = (first, second)
        self.children[name] = {}
        self.parents[name] = {}

    # ---------------------------------------------------------------- writes

    def put(self, type_name: str, identifier: str, values: Dict[str, object]) -> None:
        self.atoms[type_name][identifier] = dict(values)

    def connect(self, link: str, first: str, second: str) -> None:
        self.children[link].setdefault(first, set()).add(second)
        self.parents[link].setdefault(second, set()).add(first)

    def delete(self, type_name: str, identifier: str) -> None:
        """Remove one atom and every link that touches it."""
        del self.atoms[type_name][identifier]
        for link, (first, second) in self.ends.items():
            if first == type_name:
                for child in self.children[link].pop(identifier, ()):
                    self.parents[link][child].discard(identifier)
            if second == type_name:
                for parent in self.parents[link].pop(identifier, ()):
                    self.children[link][parent].discard(identifier)

    # ----------------------------------------------------------------- reads

    def link_count(self, link: str) -> int:
        return sum(len(seconds) for seconds in self.children[link].values())

    def render(self, shape: Shape, identifier: str) -> Dict[str, object]:
        """The molecule rooted at *identifier*, as ``QueryResult.to_dicts`` nests it."""
        type_name, branches = shape
        node: Dict[str, object] = dict(self.atoms[type_name][identifier])
        node["_id"] = identifier
        for link, child_shape in branches:
            children = self.children[link].get(identifier)
            if children:
                node[child_shape[0]] = [
                    self.render(child_shape, child) for child in sorted(children)
                ]
        return node

    def reachable(self, adjacency: Dict[str, Set[str]], start: str) -> Set[str]:
        """*start* plus everything reachable from it through *adjacency*."""
        seen = {start}
        frontier = [start]
        while frontier:
            for nxt in adjacency.get(frontier.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def closures_containing(self, link: str, member: str) -> Dict[str, Set[str]]:
        """Every downward closure that contains *member*, keyed by its root."""
        return {
            root: self.reachable(self.children[link], root)
            for root in self.reachable(self.parents[link], member)
        }

    def aggregate(
        self,
        type_name: str,
        group_by: str,
        functions: Iterable[Tuple[str, str]],
        where: "Tuple[str, object] | None" = None,
    ) -> List[Dict[str, object]]:
        """Grouped aggregate rows keyed like MQL names them (``count(*)``, ``avg(t.a)``)."""
        groups: Dict[object, List[Dict[str, object]]] = {}
        for values in self.atoms[type_name].values():
            if where is None or values[where[0]] == where[1]:
                groups.setdefault(values[group_by], []).append(values)
        rows = []
        for key in sorted(groups):
            row: Dict[str, object] = {f"{type_name}.{group_by}": key}
            for function, attribute in functions:
                if attribute == "*":
                    row["count(*)"] = len(groups[key])
                    continue
                column = [values[attribute] for values in groups[key]]
                row[f"{function}({type_name}.{attribute})"] = _FOLDS[function](column)
            rows.append(row)
        return rows


_FOLDS = {
    "count": len,
    "sum": lambda column: math.fsum(column) if isinstance(column[0], float) else sum(column),
    "avg": lambda column: math.fsum(column) / len(column),
    "min": min,
    "max": max,
}


def rows_match(actual: List[Dict[str, object]], expected: List[Dict[str, object]]) -> bool:
    """Aggregate rows agree: same groups, same columns, floats to the last few ulps.

    *expected* is sorted by its group key (the first column); the engine's
    canonical row order is textual, so *actual* is re-sorted the same way.
    """
    if len(actual) != len(expected):
        return False
    if not expected:
        return True
    group_key = next(iter(expected[0]))
    if any(group_key not in row for row in actual):
        return False
    for got, want in zip(sorted(actual, key=lambda row: row[group_key]), expected):
        if got.keys() != want.keys():
            return False
        for column, value in want.items():
            if isinstance(value, float):
                if not math.isclose(got[column], value, rel_tol=1e-12, abs_tol=1e-12):
                    return False
            elif got[column] != value:
                return False
    return True
