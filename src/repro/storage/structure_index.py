"""Interval-encoded structure indexes over recursive link traversals.

Recursive molecule types (the parts-explosion queries of the paper's §5)
expand hop by hop: a fixpoint loop that touches every incident link of every
frontier atom.  The classic accelerator from the XPath-index line of work
replaces the traversal with *pre/post-order interval encodings*: number every
node of the traversal forest with a ``pre`` value on entry and a ``post``
value on exit, and "all descendants of X" becomes the nodes whose ``pre``
falls strictly inside ``(pre(X), post(X))`` — one binary search plus one
contiguous slice of a pre-sorted array.

A :class:`StructureIndex` accelerates one *(atom type, link type, direction)*
recursive description:

* It always maintains an **exact compact adjacency** (parent → children with
  the connecting :class:`~repro.core.link.Link`), folded incrementally from
  the change-event stream.  On shapes that are not forests (shared
  subobjects, convergent part usage, cycles) closures are answered by a
  breadth-first sweep over that adjacency — still far cheaper than the
  fixpoint loop's per-hop incidence scans, and exact on any shape.
* When the traversal graph **is** a forest it additionally keeps the
  pre/post/depth encoding plus the pre-sorted interval array, and closures
  become range scans.  Single-edge mutations are folded in place: new atoms
  get fresh top-level intervals, a leaf linked under a parent is re-encoded
  into the parent's tail gap by float midpoint subdivision, a detached leaf
  moves back to top level.  Mutations the in-place scheme cannot express
  (subtree grafts, gap exhaustion, shape transitions) set the ``stale`` flag
  and bump ``gap_events`` — the next head use rebuilds (``builds``).

Selective restrictions are answered by *root enumeration*: the encoding
knows every node's parent link, so the roots whose closure can satisfy an
equality conjunct are the ancestor-or-self chains of the atoms matching it
(:meth:`StructureIndex.qualifying_roots`) — the executor materializes those
and nothing else.

Indexes live in the engine's :class:`~repro.storage.accelerators.AcceleratorStore`,
which registers them, builds them on first use, folds every change event into
them, stamps them with the engine's write generation and admits them to
pinned-snapshot readers (its module docstring); an index is derived from the
occurrence and never persisted.  A pinned reader shares the head's index
(:meth:`StructureIndex.for_pin`), so every call it makes is re-checked by the
store against the pin.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.events import (
    ATOM_DELETED,
    ATOM_INSERTED,
    ATOM_MODIFIED,
    LINK_CONNECTED,
    LINK_DISCONNECTED,
    ChangeEvent,
)
from repro.core.link import Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.core.recursion import RecursiveDescription

#: ``(atom type, link type, direction)`` — the unit of acceleration.
StructureKey = Tuple[str, str, str]

#: One closure member: ``(identifier, level, parent link or None for the root)``.
ClosureMember = Tuple[str, int, Optional[Link]]

#: Tail gaps narrower than this cannot be midpoint-subdivided reliably.
_MIN_GAP = 1e-7


def structure_key(description: "RecursiveDescription") -> StructureKey:
    """The index key of a recursive description (``max_depth`` is per-query)."""
    return (
        description.atom_type_name,
        description.link_type_name,
        description.direction,
    )


class StructureIndex:
    """Pre/post interval encoding + compact adjacency for one structure key.

    Not internally synchronized — the owning
    :class:`~repro.storage.accelerators.AcceleratorStore` wraps every entry
    point in its lock.  Methods never touch atom or link
    type occurrences (no lock-order hazard against the per-type head locks);
    callers resolve identifiers to atoms outside the store lock.
    """

    def __init__(self, key: StructureKey) -> None:
        self.key = key
        self.atom_type_name, self.link_type_name, self.direction = key
        #: Write generation the encoding is coherent with (stamped by the store).
        self.generation = 0
        #: ``True`` when the encoding can no longer be trusted; the adjacency
        #: is also suspect (events may have been missed) — rebuild before use.
        self.stale = True
        #: Full rebuilds performed (the rebuild-on-gap fallback shows up here).
        self.builds = 0
        #: Incremental maintenance gave up (graft/gap/shape transition).
        self.gap_events = 0
        # The link type's endpoint types, captured at build time.
        self._first_type = self.atom_type_name
        self._second_type = self.atom_type_name
        # Exact adjacency: parent -> {child -> connecting link}.
        self._children: Dict[str, Dict[str, Link]] = {}
        self._indegree: Dict[str, int] = {}
        self._nodes: Set[str] = set()
        self._multi_parent = 0
        self._self_loops = 0
        self._cycle = False
        # Forest encoding (valid only when ``tree`` and not ``stale``).
        self._pre: Dict[str, float] = {}
        self._post: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}
        self._parent_link: Dict[str, Link] = {}
        self._order: List[Tuple[float, str]] = []
        self._max_coord = 0.0

    # ------------------------------------------------------------ properties

    @property
    def tree(self) -> bool:
        """``True`` when the traversal graph is a forest (range scans apply)."""
        return not self._cycle and self._multi_parent == 0 and self._self_loops == 0

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        mode = "tree" if self.tree else "graph"
        flag = ", stale" if self.stale else ""
        return (
            f"StructureIndex({self.atom_type_name} via {self.link_type_name} "
            f"{self.direction}, {len(self._nodes)} nodes, {mode}{flag})"
        )

    # --------------------------------------------------------------- rebuild

    def refresh(self, database: "Database") -> None:
        """Rebuild adjacency and encoding from the current database state."""
        link_type = database.ltyp(self.link_type_name)
        self._first_type, self._second_type = link_type.atom_type_names
        atom_type = database.atyp(self.atom_type_name)
        other_name = self._other_type_name()
        other_type = (
            database.atyp(other_name)
            if other_name != self.atom_type_name and database.has_atom_type(other_name)
            else None
        )

        self._children = {}
        self._indegree = {}
        self._nodes = {atom.identifier for atom in atom_type}
        self._multi_parent = 0
        self._self_loops = 0
        self._cycle = False
        for link in link_type:
            parent, child = self._orient(link)
            # Mirror expand_recursive: an edge exists only when its child
            # endpoint resolves to a live atom.
            if atom_type.get(child) is None and (
                other_type is None or other_type.get(child) is None
            ):
                continue
            bucket = self._children.setdefault(parent, {})
            if child in bucket:
                continue
            bucket[child] = link
            self._nodes.add(parent)
            self._nodes.add(child)
            if parent == child:
                self._self_loops += 1
                continue
            degree = self._indegree.get(child, 0) + 1
            self._indegree[child] = degree
            if degree == 2:
                self._multi_parent += 1

        self._encode_forest()
        self.stale = False
        self.builds += 1

    def _encode_forest(self) -> None:
        """Assign pre/post/depth by iterative DFS from the in-degree-0 roots."""
        self._pre = {}
        self._post = {}
        self._depth = {}
        self._parent_link = {}
        self._order = []
        counter = 0.0
        visited: Set[str] = set()
        roots = sorted(
            node for node in self._nodes if self._indegree.get(node, 0) == 0
        )
        for root in roots:
            counter = self._dfs(root, 0, counter, visited)
        leftover = self._nodes - visited
        if leftover:
            # Unreachable from any in-degree-0 node — at least one cycle.
            self._cycle = True
            for node in sorted(leftover):
                if node not in visited:
                    counter = self._dfs(node, 0, counter, visited)
        self._max_coord = counter

    def _dfs(self, root: str, depth: int, counter: float, visited: Set[str]) -> float:
        if root in visited:
            return counter
        counter += 1.0
        visited.add(root)
        self._pre[root] = counter
        self._depth[root] = depth
        self._order.append((counter, root))
        stack: List[Tuple[str, Iterable[str]]] = [
            (root, iter(sorted(self._children.get(root, ()))))
        ]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                if child in visited:
                    continue
                counter += 1.0
                visited.add(child)
                self._pre[child] = counter
                self._depth[child] = self._depth[node] + 1
                self._parent_link[child] = self._children[node][child]
                self._order.append((counter, child))
                stack.append((child, iter(sorted(self._children.get(child, ())))))
                advanced = True
                break
            if not advanced:
                counter += 1.0
                self._post[node] = counter
                stack.pop()
        return counter

    # ----------------------------------------------- incremental maintenance

    def apply_event(self, event: ChangeEvent) -> None:
        """Fold one change event in; adjacency stays exact, the encoding is
        patched in place when possible and marked stale otherwise."""
        kind = event.kind
        if kind == ATOM_MODIFIED:
            return
        if kind == ATOM_INSERTED:
            if event.type_name == self.atom_type_name:
                self._ensure_node(event.atom.identifier)
            return
        if kind == ATOM_DELETED:
            identifier = event.atom.identifier
            if identifier in self._nodes:
                self._drop_node(identifier)
            return
        if event.type_name != self.link_type_name or event.link is None:
            return
        if kind == LINK_CONNECTED:
            self._connect(event.link)
        elif kind == LINK_DISCONNECTED:
            self._disconnect(event.link)

    def _ensure_node(self, identifier: str) -> None:
        if identifier in self._nodes:
            return
        self._nodes.add(identifier)
        if self.stale:
            return
        # Fresh atoms are isolated: a brand-new top-level interval past every
        # allocated coordinate keeps the sorted order append-only.
        pre = self._max_coord + 1.0
        post = self._max_coord + 2.0
        self._max_coord = post
        self._pre[identifier] = pre
        self._post[identifier] = post
        self._depth[identifier] = 0
        self._order.append((pre, identifier))

    def _drop_node(self, identifier: str) -> None:
        if self._children.get(identifier) or self._indegree.get(identifier, 0) > 0:
            # Atoms are unlinked before deletion on every write path; a
            # deletion with live edges means we missed events — resync.
            self._mark_stale()
            self._children.pop(identifier, None)
        self._nodes.discard(identifier)
        self._indegree.pop(identifier, None)
        if not self.stale:
            self._remove_encoding(identifier)

    def _connect(self, link: Link) -> None:
        parent, child = self._orient(link)
        self._ensure_node(parent)
        self._ensure_node(child)
        bucket = self._children.setdefault(parent, {})
        if child in bucket:
            return
        bucket[child] = link
        if parent == child:
            self._self_loops += 1
            return
        degree = self._indegree.get(child, 0) + 1
        self._indegree[child] = degree
        if degree >= 2:
            if degree == 2:
                self._multi_parent += 1
            return
        if self.stale or not self.tree:
            return
        # The child was a top-level root of the encoded forest.  If the new
        # parent sits inside the child's own subtree the edge closes a cycle.
        child_pre = self._pre.get(child)
        parent_pre = self._pre.get(parent)
        if child_pre is None or parent_pre is None:
            self._mark_stale()
            return
        if child_pre < parent_pre < self._post[child]:
            self._cycle = True
            return
        if self._children.get(child):
            # Grafting a whole subtree needs a renumbering pass.
            self._mark_stale()
            return
        self._relocate_under(parent, child, link)

    def _relocate_under(self, parent: str, child: str, link: Link) -> None:
        """Move leaf *child* into *parent*'s tail gap by midpoint subdivision."""
        parent_post = self._post[parent]
        lo = self._pre[parent]
        for other in self._children.get(parent, ()):
            if other == child:
                continue
            other_post = self._post.get(other)
            if other_post is not None and other_post > lo:
                lo = other_post
        span = parent_post - lo
        if span < _MIN_GAP:
            self._mark_stale()
            return
        self._remove_encoding(child)
        pre = lo + span / 3.0
        post = lo + 2.0 * span / 3.0
        self._pre[child] = pre
        self._post[child] = post
        self._depth[child] = self._depth[parent] + 1
        self._parent_link[child] = link
        insort(self._order, (pre, child))

    def _disconnect(self, link: Link) -> None:
        parent, child = self._orient(link)
        bucket = self._children.get(parent)
        if bucket is None or child not in bucket:
            return
        del bucket[child]
        if not bucket:
            del self._children[parent]
        if parent == child:
            self._self_loops -= 1
            if self.tree:
                self._mark_stale()  # shape may be a forest again — renumber
            return
        degree = self._indegree.get(child, 1) - 1
        if degree <= 0:
            self._indegree.pop(child, None)
        else:
            self._indegree[child] = degree
        if degree == 1:
            self._multi_parent -= 1
            if self.tree:
                self._mark_stale()
            return
        if self._cycle:
            # Edge removals can break the cycle; only a rebuild can tell.
            self._mark_stale()
            return
        if self.stale or not self.tree or degree > 0:
            return
        # A tree edge went away: the child becomes a detached root.
        if self._children.get(child):
            self._mark_stale()  # detaching a whole subtree needs renumbering
            return
        self._remove_encoding(child)
        pre = self._max_coord + 1.0
        post = self._max_coord + 2.0
        self._max_coord = post
        self._pre[child] = pre
        self._post[child] = post
        self._depth[child] = 0
        self._order.append((pre, child))

    def _remove_encoding(self, identifier: str) -> None:
        pre = self._pre.pop(identifier, None)
        if pre is None:
            return
        index = bisect_left(self._order, (pre, identifier))
        if index < len(self._order) and self._order[index] == (pre, identifier):
            del self._order[index]
        self._post.pop(identifier, None)
        self._depth.pop(identifier, None)
        self._parent_link.pop(identifier, None)

    def _mark_stale(self) -> None:
        if not self.stale:
            self.stale = True
            self.gap_events += 1

    # -------------------------------------------------------------- closures

    def closure(
        self, root: str, max_depth: Optional[int] = None
    ) -> Optional[Tuple[List[ClosureMember], List[Link]]]:
        """The closure of *root* as ``(members, links)``, or ``None`` when the
        index cannot answer (unknown root / stale encoding) and the caller
        must fall back to the fixpoint loop.

        ``members`` lists ``(identifier, level, parent link)`` in traversal
        order starting at the root; ``links`` replicates the link set the
        fixpoint loop accumulates (every out-edge of every expanded member).
        """
        if self.stale:
            return None
        if self.tree:
            return self._closure_tree(root, max_depth)
        return self._closure_graph(root, max_depth)

    def _closure_tree(
        self, root: str, max_depth: Optional[int]
    ) -> Optional[Tuple[List[ClosureMember], List[Link]]]:
        root_pre = self._pre.get(root)
        if root_pre is None:
            return None
        root_post = self._post[root]
        root_depth = self._depth[root]
        members: List[ClosureMember] = [(root, 0, None)]
        links: List[Link] = []
        lo = bisect_right(self._order, (root_pre, root))
        hi = bisect_left(self._order, (root_post,))
        for _, identifier in self._order[lo:hi]:
            level = self._depth[identifier] - root_depth
            if max_depth is not None and level > max_depth:
                continue
            link = self._parent_link.get(identifier)
            if link is None:
                return None  # encoding hole — resync via fallback
            members.append((identifier, level, link))
            links.append(link)
        return members, links

    def _closure_graph(
        self, root: str, max_depth: Optional[int]
    ) -> Optional[Tuple[List[ClosureMember], List[Link]]]:
        if root not in self._nodes:
            return None
        members: List[ClosureMember] = [(root, 0, None)]
        seen: Set[str] = {root}
        links: List[Link] = []
        link_seen: Set[Link] = set()
        frontier = [root]
        level = 0
        # Mirrors expand_recursive exactly: every out-edge of an expanded
        # member is collected (including edges back into visited nodes), and
        # members at the depth bound are not expanded.
        while frontier and (max_depth is None or level < max_depth):
            level += 1
            next_frontier: List[str] = []
            for identifier in frontier:
                for child, link in self._children.get(identifier, {}).items():
                    if link not in link_seen:
                        link_seen.add(link)
                        links.append(link)
                    if child not in seen:
                        seen.add(child)
                        members.append((child, level, link))
                        next_frontier.append(child)
            frontier = next_frontier
        return members, links

    # ------------------------------------------------------ root enumeration

    def qualifying_roots(
        self,
        candidate_sets: Sequence[Iterable[str]],
        max_depth: Optional[int] = None,
    ) -> Optional[Set[str]]:
        """The exact set ``{r : closure(r) meets every candidate set}``, or
        ``None`` when the index cannot enumerate it (graph mode, stale
        encoding, an encoding hole) and the caller must test every root.

        The closure of a forest node contains a candidate exactly when the
        node is an ancestor-or-self of it within *max_depth* hops, so each
        conjunct's roots are the union of its candidates' ``_parent_link``
        chains and the answer is the intersection across conjuncts — work
        proportional to the chains walked, never to the size of the type.
        A candidate the encoding does not know contributes itself only.
        """
        if self.stale or not self.tree or not candidate_sets:
            return None
        roots: Optional[Set[str]] = None
        for candidates in candidate_sets:
            reached: Set[str] = set()
            for node in candidates:
                hops = 0
                # Unbounded chains that merge share their tail: stop at the
                # first node an earlier candidate already walked through.
                while max_depth is not None or node not in reached:
                    reached.add(node)
                    if hops == max_depth:
                        break
                    link = self._parent_link.get(node)
                    if link is None:
                        if self._depth.get(node, 0) > 0:
                            return None  # encoding hole — resync via fallback
                        break
                    node = self._orient(link)[0]
                    hops += 1
            roots = reached if roots is None else roots & reached
            if not roots:
                break
        return roots

    def for_pin(self) -> "StructureIndex":
        """What a pinned reader is handed: the shared index itself — the
        store re-checks on every call that nothing newer than the pin has
        been folded in."""
        return self

    # ------------------------------------------------------------- reporting

    def describe(self, samples: int = 3) -> List[str]:
        """Human-readable state lines for EXPLAIN output."""
        mode = "tree/range-scan" if self.tree else "graph/adjacency-BFS"
        lines = [
            f"interval index {self.atom_type_name} via {self.link_type_name} "
            f"{self.direction}: {len(self._nodes)} nodes, mode={mode}, "
            f"generation={self.generation}"
            + (", stale (rebuild on next use)" if self.stale else "")
        ]
        if not self.stale and self.tree and self._order:
            shown = []
            for pre, identifier in self._order[:samples]:
                shown.append(f"{identifier}→({pre:g}, {self._post[identifier]:g})")
            lines.append("  sample intervals: " + ", ".join(shown))
        return lines

    # --------------------------------------------------------------- helpers

    def _orient(self, link: Link) -> Tuple[str, str]:
        """Order the link endpoints as (parent, child) for this direction."""
        # A stored link is in definition order (a reflexive one as given).
        if self.direction == "down":
            return link.first, link.second
        return link.second, link.first

    def _other_type_name(self) -> str:
        if self.atom_type_name == self._first_type:
            return self._second_type
        return self._first_type

