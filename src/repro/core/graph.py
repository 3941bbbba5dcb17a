"""Type-graph utilities: the ``md_graph`` predicate and graph helpers (Definition 5).

A molecule-type description is a graph whose nodes are atom types and whose
edges are *directed uses* of (nondirectional) link types.  The predicate
``md_graph`` demands that this graph is **directed, acyclic, coherent**
(weakly connected) **and has exactly one root** (a single node without
incoming edges, from which every node is reachable).  The same predicate is
applied — at the occurrence level — to every molecule (``mv_graph``), so these
helpers are shared by the description layer and the derivation engine.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.exceptions import MoleculeGraphError


class DirectedLink:
    """A directed use ``dl = <lname, from, to>`` of a nondirectional link type.

    The function ``ltyp`` maps the directed use back to its underlying
    symmetric link type; the direction only matters for molecule derivation
    (parent → child traversal order), which is what enables the symmetric use
    of the same link type in different molecule types (Fig. 2).
    """

    __slots__ = ("link_type_name", "source", "target")

    def __init__(self, link_type_name: str, source: str, target: str) -> None:
        self.link_type_name = link_type_name
        self.source = source
        self.target = target

    def reversed(self) -> "DirectedLink":
        """Return the same link-type use traversed in the opposite direction."""
        return DirectedLink(self.link_type_name, self.target, self.source)

    def as_tuple(self) -> Tuple[str, str, str]:
        """Return the ``(lname, source, target)`` triple of Definition 5."""
        return (self.link_type_name, self.source, self.target)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DirectedLink):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        return hash(self.as_tuple())

    def __repr__(self) -> str:
        return f"<{self.link_type_name}: {self.source} -> {self.target}>"


class TypeGraph:
    """A directed graph over atom-type names used by molecule-type descriptions."""

    def __init__(self, nodes: Iterable[str], edges: Iterable[DirectedLink]) -> None:
        self.nodes: Tuple[str, ...] = tuple(dict.fromkeys(nodes))
        self.edges: Tuple[DirectedLink, ...] = tuple(edges)
        self._children: Dict[str, List[DirectedLink]] = {node: [] for node in self.nodes}
        self._parents: Dict[str, List[DirectedLink]] = {node: [] for node in self.nodes}
        for edge in self.edges:
            if edge.source not in self._children or edge.target not in self._children:
                raise MoleculeGraphError(
                    f"edge {edge!r} references a node outside the graph's node set"
                )
            self._children[edge.source].append(edge)
            self._parents[edge.target].append(edge)
        # The graph is immutable from here on; derivation asks for the roots
        # and the traversal order once per molecule, so both are fixed now.
        self._roots: Tuple[str, ...] = tuple(
            node for node in self.nodes if not self._parents[node]
        )
        self._order: Optional[Tuple[str, ...]] = self._kahn_order()

    # ------------------------------------------------------------ structure

    def children_edges(self, node: str) -> Tuple[DirectedLink, ...]:
        """Outgoing edges of *node*."""
        return tuple(self._children.get(node, ()))

    def parent_edges(self, node: str) -> Tuple[DirectedLink, ...]:
        """Incoming edges of *node*."""
        return tuple(self._parents.get(node, ()))

    def roots(self) -> Tuple[str, ...]:
        """Nodes without incoming edges."""
        return self._roots

    def leaves(self) -> Tuple[str, ...]:
        """Nodes without outgoing edges."""
        return tuple(node for node in self.nodes if not self._children[node])

    def is_acyclic(self) -> bool:
        """Return ``True`` when the directed graph has no cycle (Kahn's algorithm)."""
        return self._order is not None

    def is_coherent(self) -> bool:
        """Return ``True`` when the underlying undirected graph is connected."""
        if not self.nodes:
            return False
        if len(self.nodes) == 1:
            return True
        neighbours: Dict[str, Set[str]] = {node: set() for node in self.nodes}
        for edge in self.edges:
            neighbours[edge.source].add(edge.target)
            neighbours[edge.target].add(edge.source)
        seen = {self.nodes[0]}
        frontier = [self.nodes[0]]
        while frontier:
            node = frontier.pop()
            for neighbour in neighbours[node]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.nodes)

    def topological_order(self) -> Tuple[str, ...]:
        """Return a topological ordering of the nodes (root first).

        Raises :class:`MoleculeGraphError` when the graph is cyclic.
        """
        if self._order is None:
            raise MoleculeGraphError("type graph contains a cycle; no topological order exists")
        return self._order

    def _kahn_order(self) -> Optional[Tuple[str, ...]]:
        """Kahn's algorithm, breadth first from the roots; ``None`` on a cycle."""
        indegree = {node: len(self._parents[node]) for node in self.nodes}
        order: List[str] = list(self._roots)
        for node in order:  # grows while iterating: the list is the queue
            for edge in self._children[node]:
                indegree[edge.target] -= 1
                if indegree[edge.target] == 0:
                    order.append(edge.target)
        return tuple(order) if len(order) == len(self.nodes) else None

    def reachable_from(self, node: str) -> FrozenSet[str]:
        """Return all nodes reachable from *node* along directed edges (incl. itself)."""
        seen = {node}
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for edge in self._children.get(current, ()):
                if edge.target not in seen:
                    seen.add(edge.target)
                    frontier.append(edge.target)
        return frozenset(seen)

    def subgraph(self, nodes: Iterable[str]) -> "TypeGraph":
        """Return the induced subgraph over *nodes*."""
        keep = set(nodes)
        return TypeGraph(
            [node for node in self.nodes if node in keep],
            [edge for edge in self.edges if edge.source in keep and edge.target in keep],
        )

    def __repr__(self) -> str:
        return f"TypeGraph(nodes={list(self.nodes)!r}, edges={len(self.edges)})"


def md_graph(nodes: Sequence[str], edges: Sequence[DirectedLink]) -> Tuple[bool, str]:
    """The ``md_graph`` predicate of Definition 5, with a diagnostic message.

    Returns ``(True, "")`` when the graph over *nodes*/*edges* is directed,
    acyclic, coherent and has exactly one root; otherwise ``(False, reason)``.
    A single node without edges is a valid (degenerate) molecule structure.
    """
    if not nodes:
        return False, "a molecule-type description needs at least one atom type"
    if len(set(nodes)) != len(list(nodes)):
        return False, "duplicate atom types in the molecule-type description"
    try:
        graph = TypeGraph(nodes, edges)
    except MoleculeGraphError as exc:
        return False, str(exc)
    if not graph.is_acyclic():
        return False, "the molecule-type graph contains a cycle"
    if not graph.is_coherent():
        return False, "the molecule-type graph is not coherent (connected)"
    roots = graph.roots()
    if len(roots) != 1:
        return False, f"the molecule-type graph must have exactly one root, found {list(roots)!r}"
    root = roots[0]
    if graph.reachable_from(root) != frozenset(nodes):
        return False, "not every atom type is reachable from the root"
    return True, ""


def require_md_graph(nodes: Sequence[str], edges: Sequence[DirectedLink]) -> TypeGraph:
    """Validate ``md_graph`` and return the :class:`TypeGraph`; raise on failure."""
    valid, reason = md_graph(nodes, edges)
    if not valid:
        raise MoleculeGraphError(reason)
    return TypeGraph(nodes, edges)


def root_of(nodes: Sequence[str], edges: Sequence[DirectedLink]) -> str:
    """Return the unique root of a valid molecule-type graph (the ``root`` predicate)."""
    return require_md_graph(nodes, edges).roots()[0]
