"""Atom networks: the graph view over a whole database.

"In the database all atoms connected by links form meshed structures, called
atom networks."  :class:`AtomNetwork` draws that view for analysis and
reporting: per-atom degree, connected components, reachability, and the
link-degree statistics reported by the Fig. 1 benchmark.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.database import Database

#: A node of the network: ``(atom type, identifier)`` — identifiers are
#: unique only within an atom type.
Node = Tuple[str, str]


class AtomNetwork:
    """An undirected adjacency view over all atoms and links of a database.

    Built on demand from the database's occurrences: one node per atom and
    one edge per link, read from the link's typed endpoints.  The view is a
    report, not an access path — it is not maintained across later writes
    (build a new one), and molecule derivation never reads it: it walks the
    link types' own incidence.
    """

    def __init__(self, database: Database) -> None:
        adjacency: Dict[Node, Set[Node]] = {}
        for atom_type in database.atom_types:
            for atom in atom_type:
                adjacency[(atom_type.name, atom.identifier)] = set()
        for link_type in database.link_types:
            first_type, second_type = link_type.atom_type_names
            for link in link_type:
                first, second = (first_type, link.first), (second_type, link.second)
                adjacency.setdefault(first, set()).add(second)
                adjacency.setdefault(second, set()).add(first)
        self._adjacency = adjacency

    # ------------------------------------------------------------- structure

    def neighbours(self, node: Node) -> FrozenSet[Node]:
        """Atoms directly connected to *node* through any link type."""
        return frozenset(self._adjacency.get(node, ()))

    def degree(self, node: Node) -> int:
        """Number of distinct atoms linked to *node*."""
        return len(self._adjacency.get(node, ()))

    def reachable_from(self, node: Node, max_hops: Optional[int] = None) -> FrozenSet[Node]:
        """Atoms reachable from *node* within *max_hops* links (all hops when None)."""
        seen = {node}
        frontier = [node]
        hops = 0
        while frontier and (max_hops is None or hops < max_hops):
            hops += 1
            next_frontier: List[Node] = []
            for current in frontier:
                for neighbour in self._adjacency.get(current, ()):
                    if neighbour not in seen:
                        seen.add(neighbour)
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return frozenset(seen)

    def connected_components(self) -> Tuple[FrozenSet[Node], ...]:
        """The connected components of the atom network (largest first)."""
        remaining = set(self._adjacency)
        components: List[FrozenSet[Node]] = []
        while remaining:
            start = next(iter(remaining))
            component = self.reachable_from(start)
            components.append(component)
            remaining -= component
        return tuple(sorted(components, key=len, reverse=True))

    # ------------------------------------------------------------ statistics

    def degree_statistics(self) -> Dict[str, Dict[str, float]]:
        """Per atom type: min / max / mean link degree (the Fig. 1 report)."""
        per_type: Dict[str, List[int]] = {}
        for (type_name, _identifier), neighbours in self._adjacency.items():
            per_type.setdefault(type_name, []).append(len(neighbours))
        statistics: Dict[str, Dict[str, float]] = {}
        for type_name, degrees in per_type.items():
            statistics[type_name] = {
                "min": float(min(degrees)),
                "max": float(max(degrees)),
                "mean": sum(degrees) / len(degrees),
                "atoms": float(len(degrees)),
            }
        return statistics

    def shared_atom_count(self, left_type: str, right_type: str) -> int:
        """Atoms linked to atoms of both *left_type* and *right_type*.

        Quantifies subobject sharing potential: e.g. edges linked to both an
        area and a net are shared between state borders and river courses.
        """
        count = 0
        for neighbours in self._adjacency.values():
            neighbour_types = {type_name for type_name, _identifier in neighbours}
            if left_type in neighbour_types and right_type in neighbour_types:
                count += 1
        return count

    def __len__(self) -> int:
        return len(self._adjacency)
