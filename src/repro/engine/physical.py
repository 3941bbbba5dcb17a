"""Pull-based (Volcano-style) physical operators over molecule streams.

Every operator is a generator source: :meth:`PhysicalOperator.execute` yields
result molecules one at a time, pulling from its children on demand.  Nothing
is propagated or re-derived between operators — intermediate molecule sets are
never materialized, which is what makes plan pipelines cheap compared to the
literal algebra evaluation (each molecule-algebra operation materializes its
result set into an enlarged database, see
:mod:`repro.core.molecule_algebra`).

Operators:

* :class:`MoleculeScan` — the molecule-type definition α as an access path:
  iterates the root occurrence (through a :class:`~repro.storage.index.HashIndex`
  equality lookup when the pushed-down root filter permits, or upward from
  the component atoms an equality conjunct of the Σ above it names) and
  performs the hierarchical join by walking each link type's incidence;
* :class:`RecursiveScan` — recursive molecule expansion (§5 outlook);
* :class:`MoleculeSource` — adapter yielding an already-derived molecule type
  (used by the thin molecule-algebra wrappers);
* :class:`Restrict` / :class:`Project` — streaming Σ and Π;
* :class:`Union` / :class:`Difference` / :class:`Intersection` — streaming set
  operations with value-based molecule identity.

Work is accounted in :class:`ExecutionCounters`, which the optimizer
benchmarks compare across plan variants.
"""

from __future__ import annotations

import math
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom
from repro.core.database import Database
from repro.core.derivation import StructureWalk, resolve_description, resolve_directed_link
from repro.core.graph import DirectedLink
from repro.core.molecule import Molecule, MoleculeType, MoleculeTypeDescription
from repro.core.predicates import (
    AttributeRef,
    Comparison,
    Formula,
    _compare,
    equality_conjuncts,
    split_conjunction,
)
from repro.core.recursion import RecursiveDescription, RecursiveMolecule, expand_recursive
from repro.engine.logical import (
    canonical_structure,
    columnar_description,
    resolve_projection_names,
)
from repro.exceptions import UnionCompatibilityError


@dataclass
class ExecutionCounters:
    """Work counters collected while executing a plan."""

    molecules_derived: int = 0
    atoms_touched: int = 0
    restrictions_evaluated: int = 0
    links_followed: int = 0
    index_lookups: int = 0
    atoms_indexed: int = 0
    groups_aggregated: int = 0
    columnar_rows_scanned: int = 0


def molecule_value_key(molecule: Molecule) -> Tuple:
    """Value-based identity of a molecule: root identity plus component identities."""
    return (
        molecule.root_atom.identifier,
        frozenset(molecule.atom_identifiers),
    )


class IndexPool:
    """Secondary-index access for the executor, lazily built over a database.

    The pool answers equality lookups ``(atom type, attribute, value) -> atom
    identifiers``.  When *build_transient* is set, missing indexes are built
    on first use from the database occurrence and **cached for the pool's
    lifetime** — which is only sound when the database cannot change under
    the pool, or when every change is folded in through :meth:`apply_event`
    (the storage engine does the latter: it subscribes to its database's
    change events and keeps the pool's :attr:`generation` in lock-step with
    its own, so a coherent pool never needs rebuilding on writes).  Ephemeral
    executors over a live, unobserved :class:`~repro.core.database.Database`
    must leave *build_transient* off, falling back to filtered scans.

    *lock* is the lock the owner holds while it calls :meth:`apply_event`
    (the storage engine's event lock).  Every lookup and lazy build runs
    under it, so readers on any thread — the head, pinned handles, sessions
    — share one pool with the writers folding into it; a pool nobody folds
    into needs none.
    """

    def __init__(self, database: Database, build_transient: bool = True, lock=None) -> None:
        self.database = database
        self.build_transient = build_transient
        # Named after the lock it is in an engine: the lock-order analysis
        # resolves ``with self._event_lock`` by that name.
        self._event_lock = lock if lock is not None else nullcontext()
        self._indexes: Dict[Tuple[str, str], object] = {}
        self._grids: Dict[Tuple[str, Tuple[str, ...]], object] = {}
        #: Write generation this pool is coherent with (stamped by the owner).
        self.generation = 0
        #: Number of full index builds performed (a full occurrence pass each).
        self.builds = 0

    def lookup(
        self,
        atom_type_name: str,
        attribute: str,
        value: object,
        counters: Optional[ExecutionCounters] = None,
    ) -> Optional[FrozenSet[str]]:
        """Return matching atom identifiers, or ``None`` when no index is usable.

        Building a transient index is a full pass over the type's occurrence;
        it is charged to ``counters.atoms_indexed`` so moved work stays
        visible in plan comparisons.
        """
        from repro.storage.index import HashIndex  # deferred: avoids a package cycle

        key = (atom_type_name, attribute)
        with self._event_lock:
            index = self._indexes.get(key)
            if index is None:
                index = self._build(HashIndex, self._indexes, key, counters)
            return index.lookup(value) if index is not None else None

    def grid_lookup(
        self,
        atom_type_name: str,
        attributes: Tuple[str, ...],
        values: Dict[str, object],
        counters: Optional[ExecutionCounters] = None,
    ) -> Optional[FrozenSet[str]]:
        """The atoms matching every bound attribute of *values* in the
        composite :class:`~repro.storage.index.GridIndex` over *attributes*
        (all of them bound: one cell; a subset: a partial-match scan), or
        ``None`` when no grid is usable.

        Like :meth:`lookup`, a missing grid is built transiently (one full
        occurrence pass, charged to ``counters.atoms_indexed``) and then
        maintained through :meth:`apply_event`.
        """
        from repro.storage.index import GridIndex  # deferred: avoids a package cycle

        key = (atom_type_name, tuple(attributes))
        with self._event_lock:
            grid = self._grids.get(key)
            if grid is None:
                grid = self._build(GridIndex, self._grids, key, counters)
            return grid.lookup(values) if grid is not None else None

    def _build(self, kind, registry, key, counters: Optional[ExecutionCounters]):
        """Build the *kind* index for *key* from the head and register it, or
        ``None`` when this pool does not build.  Runs under the event lock: no
        change event is folded half-way through the pass, and one whose
        mutation the copied occurrence already shows is folded again
        afterwards, harmlessly."""
        atom_type_name = key[0]
        if not self.build_transient or not self.database.has_atom_type(atom_type_name):
            return None
        index = kind(*key)
        atoms = self.database.atyp(atom_type_name).occurrence
        for atom in atoms:
            index.insert(atom)
        if counters is not None:
            counters.atoms_indexed += len(atoms)
        registry[key] = index
        self.builds += 1
        return index

    def apply_event(self, event, generation: Optional[int] = None) -> None:
        """Fold one atom-level change event into every matching cached index.

        ``HashIndex.insert`` replaces a previous entry for the same
        identifier, so insertions and modifications share one path.  Link
        events carry no indexed values and are ignored.  When *generation* is
        given the pool is stamped coherent with that write generation.
        """
        if event.atom is not None:
            for (type_name, _attribute), index in self._indexes.items():
                if type_name.split("@", 1)[0] != event.type_name:
                    continue
                if event.kind == "atom_deleted":
                    index.remove(event.atom.identifier)
                else:  # atom_inserted / atom_modified
                    index.insert(event.atom)
            for (type_name, _attributes), grid in self._grids.items():
                if type_name.split("@", 1)[0] != event.type_name:
                    continue
                if event.kind == "atom_deleted":
                    grid.remove(event.atom.identifier)
                else:  # atom_inserted / atom_modified
                    grid.insert(event.atom)
        if generation is not None:
            self.generation = generation


class ExecutionContext:
    """Per-execution state: the database, work counters and access structures.

    *indexes* is the :class:`IndexPool` equality conjuncts are answered from
    (:meth:`lookup`, :meth:`grid_lookup`) — without one the context carries a
    pool that builds nothing and answers ``None``.  Neighbour traversal needs
    no structure of its own: it reads the ``incident`` links of *database*'s
    link types, the live buckets at the head and the visible links in a
    snapshot view.

    With *snapshot* the *database* is that snapshot's view and *indexes* the
    pool kept at the head of the same database.  A lookup is then the head
    answer united with the identifiers of the type that carry a version
    chain (:meth:`~repro.core.atom.AtomType.settled`): a superset of the
    atoms matching at the pin, whoever wrote since — the head, this reader's
    own transaction or an uncommitted peer.  Callers read every candidate
    back through the view and test it again, so the superset is exact.
    """

    def __init__(
        self,
        database: Database,
        counters: Optional[ExecutionCounters] = None,
        indexes: Optional[IndexPool] = None,
        snapshot=None,
        structure=None,
        columnar=None,
    ) -> None:
        self.database = database
        self.counters = counters or ExecutionCounters()
        self.indexes = (
            indexes if indexes is not None else IndexPool(database, build_transient=False)
        )
        #: The pinned :class:`~repro.core.versions.Snapshot` when *database*
        #: is a generation-stamped view, ``None`` for head execution.
        self.snapshot = snapshot
        #: Optional :class:`~repro.storage.structure_index.StructureIndexStore`
        #: — the interval-encoded accelerator for recursive definitions.
        self.structure = structure
        #: Optional :class:`~repro.storage.columnar.ColumnarStore` — the
        #: read-optimized per-type attribute arrays for aggregate scans.
        self.columnar = columnar

    def lookup(
        self, atom_type_name: str, attribute: str, value: object
    ) -> Optional[FrozenSet[str]]:
        """The atoms of *atom_type_name* that can have ``attribute = value``
        in this context's database, or ``None`` when no index is usable."""
        return self._candidates(
            atom_type_name,
            lambda: self.indexes.lookup(atom_type_name, attribute, value, self.counters),
        )

    def grid_lookup(
        self, atom_type_name: str, attributes: Tuple[str, ...], values: Dict[str, object]
    ) -> Optional[FrozenSet[str]]:
        """:meth:`lookup` through the composite grid over *attributes*, with
        any subset of them bound in *values*."""
        return self._candidates(
            atom_type_name,
            lambda: self.indexes.grid_lookup(atom_type_name, attributes, values, self.counters),
        )

    def _candidates(self, atom_type_name: str, read) -> Optional[FrozenSet[str]]:
        """``read()`` at the head; for a pinned reader widened by the chained
        identifiers, both taken while the type's head lock holds it still."""
        if self.snapshot is None:
            return read()
        head = self.indexes.database
        if not head.has_atom_type(atom_type_name):
            return None
        with head.atyp(atom_type_name).settled() as chained:
            identifiers = read()
        if identifiers is None or not chained:
            return identifiers
        return identifiers | chained


class PhysicalOperator:
    """Base class of the pull-based operators."""

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        """The (resolved) description of the molecules this operator yields."""
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        """Yield the result molecules, pulling from children on demand."""
        raise NotImplementedError


#: Equality conjuncts matching more atoms than this are not enumerated from:
#: walking up from that many atoms costs more than testing the roots saves.
MAX_ENUMERATION_CANDIDATES = 1024


class MoleculeScan(PhysicalOperator):
    """α as an access path: derive one molecule per qualifying root atom.

    When a root filter is present, its equality conjuncts are answered through
    the context's index pool where possible, so only the matching root atoms
    are visited; the remaining conjuncts are evaluated per candidate.  When
    the Σ directly above hands down its formula, an equality conjunct on a
    *component* atom type seeds the roots instead: the matching component
    atoms come from the index pool and the links are walked upward to the
    roots whose molecules contain them.  The hierarchical join follows the
    molecule structure root-first, through each link type's incidence, on a
    walk compiled once per scan.
    """

    def __init__(
        self,
        name: str,
        description: MoleculeTypeDescription,
        root_filter: Optional[Formula] = None,
        root_access: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.root_filter = root_filter
        #: The planner's costed access-path choice: ``None`` (default
        #: preference), ``("grid", attr, ...)`` or ``("hash", attr, ...)``.
        self.root_access = root_access
        self._resolved: Optional[MoleculeTypeDescription] = None
        self._resolved_for: Optional[Database] = None

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        # Resolution is memoized per database: execute(), Executor.run() and
        # set-operator compatibility checks all describe the same scan.
        if self._resolved is None or self._resolved_for is not ctx.database:
            self._resolved = resolve_description(ctx.database, self.description)
            self._resolved_for = ctx.database
        return self._resolved

    def execute(
        self, ctx: ExecutionContext, restriction: Optional[Formula] = None
    ) -> Iterator[Molecule]:
        """Yield the molecules; *restriction* is the qualification the caller
        tests every one of them against (it only ever narrows the roots)."""
        walk = StructureWalk(ctx.database, self.describe(ctx))
        counters = ctx.counters
        try:
            for root_atom in self._root_atoms(ctx, walk, restriction):
                molecule = walk.molecule(root_atom)
                counters.molecules_derived += 1
                counters.atoms_touched += len(molecule)
                yield molecule
        finally:
            counters.links_followed += walk.links_followed

    def components(
        self, ctx: ExecutionContext
    ) -> "Optional[Iterator[Tuple[Atom, Dict[str, Dict[str, Atom]]]]]":
        """Per qualifying root, the root atom and the ``{atom type:
        {identifier: atom}}`` map of its molecule's components — the
        hierarchical join of :meth:`execute` without assembling molecules.

        ``None`` when the structure files component atoms under other names
        than its own (renamed or reflexive uses); callers fold the molecule
        stream then.
        """
        walk = StructureWalk(ctx.database, self.describe(ctx))
        return self._component_rows(ctx, walk) if walk.plain else None

    def _component_rows(self, ctx: ExecutionContext, walk: StructureWalk):
        counters = ctx.counters
        try:
            for root_atom in self._root_atoms(ctx, walk):
                per_type = walk.components(root_atom)
                counters.molecules_derived += 1
                counters.atoms_touched += sum(map(len, per_type.values()))
                yield root_atom, per_type
        finally:
            counters.links_followed += walk.links_followed

    # ------------------------------------------------------------ root access

    def _root_atoms(
        self, ctx: ExecutionContext, walk: StructureWalk, restriction: Optional[Formula] = None
    ):
        """The root atoms to derive from, the root filter already applied.

        Candidates come from the root filter's index or from the upward walk
        off *restriction*'s rarest component conjunct — whichever starts from
        fewer atoms — and from the whole root occurrence when neither applies.
        """
        root_type = ctx.database.atyp(walk.root)
        candidates = (
            self._indexed_candidates(ctx, walk.description, root_type)
            if self.root_filter is not None
            else None
        )
        seed = self._component_seed(ctx, walk, restriction)
        if seed is not None and (candidates is None or len(seed[1]) < len(candidates)):
            atoms = [root_type.get(identifier) for identifier in sorted(walk.roots_above(*seed))]
            candidates = [atom for atom in atoms if atom is not None]
        if self.root_filter is None:
            yield from candidates if candidates is not None else root_type
            return
        for atom in candidates if candidates is not None else root_type:
            ctx.counters.restrictions_evaluated += 1
            if self.root_filter.evaluate_atom(atom):
                yield atom

    def _component_seed(
        self, ctx: ExecutionContext, walk: StructureWalk, restriction: Optional[Formula]
    ) -> "Optional[Tuple[str, FrozenSet[str]]]":
        """The component atom type and the atoms of it to seed the roots from.

        Every top-level conjunct ``component.attr = constant`` of *restriction*
        must hold for some component atom of a qualifying molecule, so the
        roots above the atoms matching any one of them are a superset of the
        qualifying roots; the rarest conjunct gives the smallest.  ``None``
        without an index to name those atoms, without such a conjunct, when
        even the rarest matches more than :data:`MAX_ENUMERATION_CANDIDATES`
        atoms, or on a structure whose links cannot be told apart walking
        upward.
        """
        if restriction is None or not walk.plain:
            return None
        best: Optional[Tuple[str, FrozenSet[str]]] = None
        for type_name in walk.description.atom_type_names:
            if type_name == walk.root:
                continue
            for conjunct in equality_conjuncts(restriction, type_name):
                identifiers = ctx.lookup(type_name, conjunct.lhs.attribute, conjunct.rhs)
                if identifiers is None:
                    continue
                ctx.counters.index_lookups += 1
                if best is None or len(identifiers) < len(best[1]):
                    best = (type_name, identifiers)
        if best is None or len(best[1]) > MAX_ENUMERATION_CANDIDATES:
            return None
        return best

    def _indexed_candidates(
        self, ctx: ExecutionContext, description: MoleculeTypeDescription, root_type
    ) -> Optional[List[Atom]]:
        """Root atoms matching indexable equality conjuncts, or ``None``.

        Two or more equality conjuncts on distinct root attributes are
        answered as one composite (grid) lookup — the conjunctive cell read
        prunes far more than any single hash bucket; a single conjunct keeps
        the hash-index path.  Every candidate still passes through the full
        root filter afterwards, so index choice never affects results.
        """
        root_bare = description.root.split("@", 1)[0]
        equalities: Dict[str, object] = {}
        for conjunct in split_conjunction(self.root_filter):
            if not isinstance(conjunct, Comparison) or conjunct.op not in ("=", "=="):
                continue
            if isinstance(conjunct.rhs, AttributeRef):
                continue
            lhs_type = conjunct.lhs.atom_type
            if lhs_type is not None and lhs_type.split("@", 1)[0] != root_bare:
                continue
            equalities.setdefault(conjunct.lhs.attribute, conjunct.rhs)
        if not equalities:
            return None
        use_grid = len(equalities) >= 2 and (
            self.root_access is None or self.root_access[0] == "grid"
        )
        if use_grid:
            attributes = tuple(sorted(equalities))
            identifiers = ctx.grid_lookup(description.root, attributes, equalities)
            if identifiers is None:
                identifiers = ctx.grid_lookup(root_bare, attributes, equalities)
            if identifiers is not None:
                ctx.counters.index_lookups += 1
                atoms = [root_type.get(identifier) for identifier in sorted(identifiers)]
                return [atom for atom in atoms if atom is not None]
        if self.root_access is not None and self.root_access[0] == "hash":
            # The planner named the most selective attribute(s) first; try
            # them before the arbitrary dict order of the remaining conjuncts.
            ordered = [a for a in self.root_access[1:] if a in equalities]
            ordered += [a for a in equalities if a not in ordered]
            equalities = {attribute: equalities[attribute] for attribute in ordered}
        for attribute, value in equalities.items():
            identifiers = ctx.lookup(description.root, attribute, value)
            if identifiers is None:
                identifiers = ctx.lookup(root_bare, attribute, value)
            if identifiers is None:
                continue
            ctx.counters.index_lookups += 1
            atoms = [root_type.get(identifier) for identifier in sorted(identifiers)]
            return [atom for atom in atoms if atom is not None]
        return None


class RecursiveScan(PhysicalOperator):
    """Recursive molecule expansion over a (typically reflexive) link type."""

    def __init__(
        self,
        name: str,
        description: RecursiveDescription,
        formula: Optional[Formula] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.formula = formula
        #: Optional ``(index, count)`` root partition — a worker executing
        #: one slice of a fanned-out scan expands only its own roots.
        self.partition: Optional[Tuple[int, int]] = None

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return MoleculeTypeDescription([self.description.atom_type_name], [])

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        base_description = self.describe(ctx)
        for root_atom in ctx.database.atyp(self.description.atom_type_name):
            if not partition_member(root_atom.identifier, self.partition):
                continue
            molecule = expand_recursive(ctx.database, self.description, root_atom)
            molecule.description = base_description
            ctx.counters.molecules_derived += 1
            ctx.counters.atoms_touched += len(molecule)
            if self.formula is not None:
                ctx.counters.restrictions_evaluated += 1
                if not self.formula.evaluate_molecule(molecule):
                    continue
            yield molecule


class IntervalScan(PhysicalOperator):
    """Recursive molecule expansion answered by the structure index.

    Result-equivalent to :class:`RecursiveScan`: one recursively expanded
    molecule per root atom, restricted by the optional formula.  The closure
    of each root comes from the context's
    :class:`~repro.storage.structure_index.StructureIndexStore` — a pre/post
    interval range scan on forest-shaped data, a compact-adjacency BFS
    otherwise — and the fixpoint loop remains the per-root fallback whenever
    the index cannot answer coherently (pinned snapshot ahead/behind the
    encoding, stale encoding mid-rebuild, unknown root).

    On forest-shaped data with an equality-restricted formula the roots are
    *enumerated*, not tested: the store walks the parent links upward from
    the atoms matching each equality conjunct and returns exactly the roots
    whose closure meets every conjunct, so work is proportional to the answer
    rather than to the atom type.  Every other root's existential restriction
    is provably false; every emitted molecule still passes the full formula
    and is byte-identical to the fixpoint path's.
    """

    def __init__(
        self,
        name: str,
        description: RecursiveDescription,
        formula: Optional[Formula] = None,
    ) -> None:
        self.name = name
        self.description = description
        self.formula = formula
        #: Optional ``(index, count)`` root partition — a worker executing
        #: one slice of a fanned-out scan expands only its own roots.
        self.partition: Optional[Tuple[int, int]] = None

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return MoleculeTypeDescription([self.description.atom_type_name], [])

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        base_description = self.describe(ctx)
        store = getattr(ctx, "structure", None)
        index = store.for_execution(self.description, ctx) if store is not None else None
        # A pinned reader names its generation on every store call: the head
        # may fold a write into the shared encoding between two of them.
        generation = ctx.snapshot.generation if ctx.snapshot is not None else None
        for root_atom in self._root_atoms(ctx, store, index, generation):
            if not partition_member(root_atom.identifier, self.partition):
                continue
            molecule = None
            if index is not None:
                molecule = self._materialize(ctx, store, index, root_atom, generation)
            if molecule is None:
                molecule = expand_recursive(ctx.database, self.description, root_atom)
            molecule.description = base_description
            ctx.counters.molecules_derived += 1
            ctx.counters.atoms_touched += len(molecule)
            if self.formula is not None:
                ctx.counters.restrictions_evaluated += 1
                if not self.formula.evaluate_molecule(molecule):
                    continue
            yield molecule

    def _root_atoms(self, ctx, store, index, generation) -> Iterable[Atom]:
        """The roots to expand: the enumerated qualifying roots in identifier
        order when the index can name them, every atom of the type otherwise
        (graph mode, stale or incoherent index, no usable equality conjunct).
        """
        atom_type = ctx.database.atyp(self.description.atom_type_name)
        if index is None or not store.supports_pruning(index):
            return atom_type
        candidate_sets = self._candidate_sets(ctx)
        if candidate_sets is None:
            return atom_type
        roots = store.qualifying_roots(
            index, candidate_sets, self.description.max_depth, generation
        )
        if roots is None:
            return atom_type
        atoms = [atom_type.get(identifier) for identifier in sorted(roots)]
        return [atom for atom in atoms if atom is not None]

    def _materialize(
        self, ctx, store, index, root_atom, generation
    ) -> Optional[RecursiveMolecule]:
        """Build the closure molecule from the index, or ``None`` to fall back."""
        pair = store.closure(
            index, root_atom.identifier, self.description.max_depth, generation
        )
        if pair is None:
            return None
        ctx.counters.index_lookups += 1
        members, links = pair
        database = ctx.database
        atom_type = database.atyp(self.description.atom_type_name)
        link_type = database.ltyp(self.description.link_type_name)
        other_name = link_type.other_type(self.description.atom_type_name)
        other_type = (
            database.atyp(other_name)
            if other_name != self.description.atom_type_name
            and database.has_atom_type(other_name)
            else None
        )
        atoms: List[Atom] = []
        levels: Dict[str, int] = {}
        for identifier, level, _parent_link in members:
            if level == 0 and identifier == root_atom.identifier:
                atom = root_atom
            else:
                # Same resolution order as expand_recursive: the recursion
                # atom type first, then the link's other endpoint type.
                atom = atom_type.get(identifier)
                if atom is None and other_type is not None:
                    atom = other_type.get(identifier)
                if atom is None:
                    return None  # member vanished under the index — fall back
            atoms.append(atom)
            levels[identifier] = level
        return RecursiveMolecule(root_atom, atoms, links, levels)

    def _candidate_sets(self, ctx) -> Optional[List[FrozenSet[str]]]:
        """Per-conjunct candidate-atom sets for root enumeration, or ``None``.

        Each usable equality conjunct ``root_type.attr = const`` contributes
        the set of atoms satisfying it (via hash or grid index).
        Enumeration is sound per conjunct only: the restriction is
        existential, so different closure members may satisfy different
        conjuncts — the closure must merely *intersect* every set.  Oversized
        sets are dropped (walking them costs more than it saves); dropping
        only admits more roots.
        """
        wanted = [
            (conjunct.lhs.attribute, conjunct.rhs)
            for conjunct in equality_conjuncts(self.formula, self.description.atom_type_name)
        ]
        if not wanted:
            return None
        type_name = self.description.atom_type_name
        attributes = tuple(sorted({attribute for attribute, _ in wanted}))
        sets: List[FrozenSet[str]] = []
        for attribute, value in wanted:
            identifiers = (
                ctx.grid_lookup(type_name, attributes, {attribute: value})
                if len(attributes) >= 2
                else None
            )
            if identifiers is None:
                identifiers = ctx.lookup(type_name, attribute, value)
                if identifiers is None:
                    return None
            ctx.counters.index_lookups += 1
            if len(identifiers) <= MAX_ENUMERATION_CANDIDATES:
                sets.append(identifiers)
        return sets or None


class MoleculeSource(PhysicalOperator):
    """Adapter streaming an already-derived molecule type into a pipeline."""

    def __init__(self, molecule_type: MoleculeType) -> None:
        self.molecule_type = molecule_type

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return self.molecule_type.description

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        return iter(self.molecule_type)


class Restrict(PhysicalOperator):
    """Streaming Σ: forward the molecules satisfying the qualification."""

    def __init__(self, child: PhysicalOperator, formula: Formula) -> None:
        self.child = child
        self.formula = formula

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return self.child.describe(ctx)

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        child = self.child
        # A scan directly below learns the qualification: it may seed its
        # roots from a component conjunct instead of visiting all of them.
        molecules = (
            child.execute(ctx, self.formula)
            if isinstance(child, MoleculeScan)
            else child.execute(ctx)
        )
        for molecule in molecules:
            ctx.counters.restrictions_evaluated += 1
            if self.formula.evaluate_molecule(molecule):
                yield molecule


class Project(PhysicalOperator):
    """Streaming Π: cut each molecule down to the retained atom types.

    *owner* names the projected molecule type in validation errors.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        atom_type_names: Sequence[str],
        owner: Optional[str] = None,
    ) -> None:
        self.child = child
        self.atom_type_names = tuple(atom_type_names)
        self.owner = owner

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        child_description = self.child.describe(ctx)
        resolved = resolve_projection_names(
            child_description, self.atom_type_names, self.owner
        )
        return child_description.projected(resolved)

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        projected_description = self.describe(ctx)
        for molecule in self.child.execute(ctx):
            yield molecule.projected(projected_description)


class _BinarySetOperator(PhysicalOperator):
    """Common shape of the streaming set operations.

    :meth:`execute` checks union compatibility eagerly — before the caller
    first pulls — then delegates to the subclass's :meth:`_stream` generator.
    """

    operation = "set operation"

    def __init__(self, left: PhysicalOperator, right: PhysicalOperator) -> None:
        self.left = left
        self.right = right

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return self.left.describe(ctx)

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        if canonical_structure(self.left.describe(ctx)) != canonical_structure(
            self.right.describe(ctx)
        ):
            raise UnionCompatibilityError(
                f"molecule-type {self.operation} requires structurally identical "
                "descriptions; the operand structures differ"
            )
        return self._stream(ctx)

    def _stream(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        raise NotImplementedError


class Union(_BinarySetOperator):
    """Streaming Ω: left molecules first, then unseen right molecules."""

    operation = "union"

    def _stream(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        seen: Set[Tuple] = set()
        for molecule in self.left.execute(ctx):
            key = molecule_value_key(molecule)
            if key not in seen:
                seen.add(key)
                yield molecule
        for molecule in self.right.execute(ctx):
            key = molecule_value_key(molecule)
            if key not in seen:
                seen.add(key)
                yield molecule


class Difference(_BinarySetOperator):
    """Streaming Δ: left molecules whose value is absent from the right side."""

    operation = "difference"

    def _stream(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        removed = {molecule_value_key(m) for m in self.right.execute(ctx)}
        for molecule in self.left.execute(ctx):
            if molecule_value_key(molecule) not in removed:
                yield molecule


class Intersection(_BinarySetOperator):
    """Streaming Ψ — by the paper's identity Ψ(mt1,mt2) = Δ(mt1, Δ(mt1,mt2))."""

    operation = "intersection"

    def _stream(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        kept = {molecule_value_key(m) for m in self.right.execute(ctx)}
        seen: Set[Tuple] = set()
        for molecule in self.left.execute(ctx):
            key = molecule_value_key(molecule)
            if key in kept and key not in seen:
                seen.add(key)
                yield molecule


# --------------------------------------------------------------- aggregation


def _canonical_key(values: Tuple) -> Tuple:
    """Total order over group-key tuples: NULLs last, then textual order."""
    return tuple((value is None, str(value)) for value in values)


def partition_member(identifier: str, partition: "Optional[Tuple[int, int]]") -> bool:
    """Whether *identifier* belongs to partition ``(index, count)``.

    Membership hashes the identifier with :func:`zlib.crc32`, not the builtin
    ``hash`` — the builtin is salted per process, and partitioned execution
    splits one scan across worker *processes* whose partitions must tile the
    occurrence exactly (every root in exactly one partition).
    """
    if partition is None:
        return True
    index, count = partition
    return zlib.crc32(identifier.encode("utf-8")) % count == index


def _distinct_key(value: object) -> object:
    """The set member recorded for one DISTINCT value.

    Hashable values stand for themselves (``==``-equal values collapse, the
    usual SQL reading of DISTINCT); unhashable values fall back to a
    canonical ``(type name, repr)`` tag so a list- or dict-valued attribute
    still counts deterministically instead of raising.
    """
    try:
        hash(value)
    except TypeError:
        return ("__unhashable__", type(value).__name__, repr(value))
    return value


def _robust_extreme(values: List[object], pick) -> object:
    """MIN/MAX tolerant of mixed value types (falls back to a textual order).

    ``==``-equal extremes can carry distinct renderings (``-0.0`` vs ``0.0``,
    ``1`` vs ``1.0``) and which one a fold meets first depends on scan order,
    so ties are re-picked textually — the row and columnar paths then return
    the same bytes no matter how they ordered the values.
    """
    textual = lambda v: (type(v).__name__, str(v))  # noqa: E731
    try:
        result = pick(values)
    except TypeError:
        return pick(values, key=textual)
    ties = [value for value in values if value == result]
    return pick(ties, key=textual) if len(ties) > 1 else result


class _GroupAccumulator:
    """Running state of one group: molecule count plus one target per spec.

    Attribute targets are ``{atom identifier: value}`` maps — an atom shared
    by several molecules of the group contributes exactly once; component
    targets are identifier sets (distinct component atoms); DISTINCT targets
    are sets of observed values (see :func:`_distinct_key`); ``COUNT(*)``
    needs only the molecule counter.
    """

    __slots__ = ("count", "targets")

    def __init__(self, specs) -> None:
        self.count = 0
        self.targets: List[object] = [
            set()
            if spec.component is not None or spec.distinct
            else ({} if spec.attribute is not None else None)
            for spec in specs
        ]

    def fold_components(self, specs, atoms_of_type) -> None:
        """Fold one molecule, given as ``atoms_of_type(type name) -> atoms``
        (:meth:`Molecule.atoms_of_type`, or a lookup in the per-type map of a
        component walk)."""
        self.count += 1
        for spec, target in zip(specs, self.targets):
            if spec.component is not None:
                for atom in atoms_of_type(spec.component):
                    target.add(atom.identifier)
            elif spec.distinct:
                for atom in atoms_of_type(spec.attribute.atom_type):
                    value = atom.get(spec.attribute.attribute)
                    if value is not None:
                        target.add(_distinct_key(value))
            elif spec.attribute is not None:
                for atom in atoms_of_type(spec.attribute.atom_type):
                    target.setdefault(atom.identifier, atom.get(spec.attribute.attribute))

    def finalize(self, spec, target) -> object:
        if spec.component is not None or spec.distinct:
            return len(target)
        if spec.attribute is None:
            return self.count  # COUNT(*)
        values = [value for value in target.values() if value is not None]
        if spec.func == "COUNT":
            return len(values)
        if not values:
            return None
        if spec.func in ("SUM", "AVG"):
            try:
                # math.fsum keeps float sums order-independent (byte parity
                # between row and columnar folds); all-int sums stay exact.
                total = (
                    math.fsum(values)
                    if any(isinstance(v, float) for v in values)
                    else sum(values)
                )
            except TypeError:
                return None  # non-numeric values — NULL, on both paths
            return total if spec.func == "SUM" else total / len(values)
        if spec.func == "MIN":
            return _robust_extreme(values, min)
        return _robust_extreme(values, max)


def finalize_groups(
    group_by: Tuple[AttributeRef, ...],
    specs,
    groups: "Dict[Tuple, _GroupAccumulator]",
) -> List[Tuple]:
    """Turn accumulated groups into canonically ordered result rows.

    Shared by every Γ operator — the row, sorted and columnar folds all
    finalize through this one function, which is what makes their outputs
    byte-identical.  A global aggregate (no GROUP BY) over empty input yields
    its one row with zero counts and NULL value aggregates; a grouped
    aggregate over empty input yields no rows.
    """
    if not group_by and not groups:
        groups = {(): _GroupAccumulator(specs)}
    rows: List[Tuple] = []
    for key in sorted(groups, key=_canonical_key):
        accumulator = groups[key]
        rows.append(
            key
            + tuple(
                accumulator.finalize(spec, target)
                for spec, target in zip(specs, accumulator.targets)
            )
        )
    return rows


def merge_group_accumulators(
    specs,
    groups: "Dict[Tuple, _GroupAccumulator]",
    partial: "Dict[Tuple, _GroupAccumulator]",
) -> None:
    """Merge one partition's partial groups into *groups* (in place).

    The inverse of splitting a fold across disjoint root partitions: counts
    add, identifier/value sets (components, DISTINCT) union, and per-atom
    value maps merge with first-writer-wins ``setdefault`` — exactly what a
    single fold over the union of the partitions would have produced,
    because partitions never share a root atom.  Finalizing the merged
    groups through :func:`finalize_groups` therefore yields byte-identical
    rows to the serial fold.
    """
    for key, accumulator in partial.items():
        into = groups.get(key)
        if into is None:
            groups[key] = accumulator
            continue
        into.count += accumulator.count
        for index, spec in enumerate(specs):
            if spec.component is not None or spec.distinct:
                into.targets[index] |= accumulator.targets[index]
            elif spec.attribute is not None:
                target = into.targets[index]
                for identifier, value in accumulator.targets[index].items():
                    target.setdefault(identifier, value)


def aggregate_columns(group_by: Tuple[AttributeRef, ...], specs) -> Tuple[str, ...]:
    """Result column names: the group keys first, then the aggregates."""
    keys = tuple(
        f"{ref.atom_type}.{ref.attribute}" if ref.atom_type else ref.attribute
        for ref in group_by
    )
    return keys + tuple(spec.output for spec in specs)


class AggregationOperator(PhysicalOperator):
    """Base of the Γ operators: produces rows, not molecules."""

    group_by: Tuple[AttributeRef, ...] = ()
    aggregates = ()

    def columns(self) -> Tuple[str, ...]:
        return aggregate_columns(self.group_by, self.aggregates)

    def rows(self, ctx: ExecutionContext) -> List[Tuple]:
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        raise TypeError(
            "aggregation operators produce rows, not molecules; "
            "run them through Executor.run_aggregate"
        )


def _component_lookup(per_type: "Dict[str, Dict[str, Atom]]"):
    """:meth:`Molecule.atoms_of_type` over a component walk's per-type map."""

    def atoms_of_type(type_name: Optional[str]) -> Iterable[Atom]:
        if type_name is None:
            return [atom for bucket in per_type.values() for atom in bucket.values()]
        return per_type.get(type_name, {}).values()

    return atoms_of_type


class _MoleculeAggregate(AggregationOperator):
    """Γ over a child operator's molecules, one fold per molecule.

    A bare α is folded component-wise: the group key comes from the root
    atom and the aggregate targets from :meth:`MoleculeScan.components`, so no
    molecule is assembled for a row that only needs identifiers and values
    (which branches of the structure that walk enters is the optimizer's
    ``prune_structure`` decision, not the operator's).  Any other input (Σ,
    set operations, recursion) streams its molecules into the same fold.
    """

    def __init__(self, child: PhysicalOperator, group_by, aggregates) -> None:
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return self.child.describe(ctx)

    def _keyed_inputs(self, ctx: ExecutionContext):
        """``(group key, atoms_of_type)`` per input molecule."""
        child = self.child
        group_by = self.group_by
        rows = child.components(ctx) if isinstance(child, MoleculeScan) else None
        if rows is not None:
            for root_atom, per_type in rows:
                key = tuple(ref.value_from_atom(root_atom) for ref in group_by)
                yield key, _component_lookup(per_type)
            return
        for molecule in child.execute(ctx):
            key = tuple(ref.value_from_atom(molecule.root_atom) for ref in group_by)
            yield key, molecule.atoms_of_type


class HashAggregate(_MoleculeAggregate):
    """Streaming Γ: fold the child's molecules into a group hash table."""

    def rows(self, ctx: ExecutionContext) -> List[Tuple]:
        groups: Dict[Tuple, _GroupAccumulator] = {}
        for key, atoms_of_type in self._keyed_inputs(ctx):
            accumulator = groups.get(key)
            if accumulator is None:
                accumulator = groups[key] = _GroupAccumulator(self.aggregates)
            accumulator.fold_components(self.aggregates, atoms_of_type)
        ctx.counters.groups_aggregated += len(groups)
        return finalize_groups(self.group_by, self.aggregates, groups)


class SortedGroupAggregate(_MoleculeAggregate):
    """Γ by sorting: materialize keyed molecules, sort, fold adjacent runs.

    Result-identical to :class:`HashAggregate` (the planner's cost model
    picks between them): equal keys are adjacent after the canonical sort, so
    one accumulator is live at a time; a final merge pass guards the
    pathological case of ``==``-equal keys with distinct canonical forms
    (e.g. ``1`` vs ``1.0``).
    """

    def rows(self, ctx: ExecutionContext) -> List[Tuple]:
        keyed = list(self._keyed_inputs(ctx))
        keyed.sort(key=lambda pair: _canonical_key(pair[0]))
        groups: Dict[Tuple, _GroupAccumulator] = {}
        run_key: Optional[Tuple] = None
        accumulator: Optional[_GroupAccumulator] = None
        for key, atoms_of_type in keyed:
            if accumulator is None or key != run_key:
                run_key = key
                previous = groups.get(key)
                if previous is None:
                    accumulator = groups[key] = _GroupAccumulator(self.aggregates)
                else:  # an ==-equal key seen under another canonical form
                    accumulator = previous
            accumulator.fold_components(self.aggregates, atoms_of_type)
        ctx.counters.groups_aggregated += len(groups)
        return finalize_groups(self.group_by, self.aggregates, groups)


class ColumnarAggregate(AggregationOperator):
    """Γ over the columnar projection of the root type, and over one hop.

    The group keys and root targets are read straight out of per-type
    attribute arrays; the optional root filter (a conjunction of simple
    comparisons, guaranteed by the optimizer rule) is evaluated column-wise
    with the exact :func:`~repro.core.predicates._compare` semantics of the
    row path.  With a *hop* ``(link type, component type)`` the component
    counts come from one pass over the link type's occurrence: every link
    adds its component endpoint to the group of its root endpoint — the side
    chosen by endpoint type, never by identifier, because identifiers are
    unique only within a type.  No molecule is derived.

    When the context's columnar store refuses to serve the executing
    snapshot (stale arrays, private transaction writes) the qualifying root
    atoms come from the (pinned) occurrence instead and go through the same
    fold and link pass — same accumulators, same finalize, byte-identical
    rows.  The links come from the context's database either way: the live
    occurrence at the head, the pinned view (which resolves visibility
    itself) in a snapshot context.
    """

    def __init__(
        self,
        name: str,
        atom_type_name: str,
        group_by,
        aggregates,
        root_filter: Optional[Formula] = None,
        hop: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.name = name
        self.atom_type_name = atom_type_name
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        self.root_filter = root_filter
        self.hop = hop
        #: Optional ``(index, count)`` root partition — a worker folding one
        #: slice of a fanned-out Γ accumulates only its own root atoms; the
        #: partial groups are merged via :func:`merge_group_accumulators`.
        self.partition: Optional[Tuple[int, int]] = None

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return resolve_description(
            ctx.database, columnar_description(self.atom_type_name, self.hop)
        )

    def _filter_conjuncts(self) -> Optional[List[Comparison]]:
        """The root filter as simple literal comparisons, or ``None``."""
        if self.root_filter is None:
            return []
        conjuncts: List[Comparison] = []
        for conjunct in split_conjunction(self.root_filter):
            if not isinstance(conjunct, Comparison) or isinstance(
                conjunct.rhs, AttributeRef
            ):
                return None
            conjuncts.append(conjunct)
        return conjuncts

    def rows(self, ctx: ExecutionContext) -> List[Tuple]:
        groups = self.partial_groups(ctx)
        ctx.counters.groups_aggregated += len(groups)
        return finalize_groups(self.group_by, self.aggregates, groups)

    def partial_groups(self, ctx: ExecutionContext) -> "Dict[Tuple, _GroupAccumulator]":
        """The (possibly partition-restricted) accumulated groups, unfinalized.

        Partitioned workers return these raw states for the primary to merge
        through :func:`merge_group_accumulators` before one shared
        :func:`finalize_groups` pass.
        """
        store = getattr(ctx, "columnar", None)
        projection = (
            store.for_execution(self.atom_type_name, ctx) if store is not None else None
        )
        conjuncts = self._filter_conjuncts()
        if projection is not None and conjuncts is not None:
            roots = self._projected_roots(ctx, projection, conjuncts)
        else:
            if store is not None:
                store.count_fallback()
            roots = self._occurrence_roots(ctx)
        return self._fold(ctx, *roots)

    def _projected_roots(self, ctx: ExecutionContext, projection, conjuncts: List[Comparison]):
        """``(identifiers, column, rows)``: the projection's identifier array,
        its column accessor and the qualifying row numbers."""
        identifiers = projection.identifiers
        total = len(identifiers)
        ctx.counters.columnar_rows_scanned += total
        filter_columns = [
            (projection.column(c.lhs.attribute), c.op, c.rhs) for c in conjuncts
        ]
        if filter_columns:
            rows: "range | List[int]" = [
                row
                for row in range(total)
                if all(
                    _compare(op, column[row], rhs)
                    for column, op, rhs in filter_columns
                )
            ]
        else:
            rows = range(total)
        if self.partition is not None:
            rows = [
                row for row in rows if partition_member(identifiers[row], self.partition)
            ]
        return identifiers, projection.column, rows

    def _occurrence_roots(self, ctx: ExecutionContext):
        """:meth:`_projected_roots` read from the (pinned) occurrence: the
        qualifying root atoms, filtered atom by atom, as transient columns."""
        atoms: List[Atom] = []
        for atom in ctx.database.atyp(self.atom_type_name):
            if not partition_member(atom.identifier, self.partition):
                continue
            ctx.counters.atoms_touched += 1
            if self.root_filter is not None:
                ctx.counters.restrictions_evaluated += 1
                if not self.root_filter.evaluate_atom(atom):
                    continue
            atoms.append(atom)
        columns: Dict[str, List[object]] = {}

        def column(attribute: str) -> List[object]:
            values = columns.get(attribute)
            if values is None:
                values = columns[attribute] = [atom.get(attribute) for atom in atoms]
            return values

        return [atom.identifier for atom in atoms], column, range(len(atoms))

    def _fold(
        self, ctx: ExecutionContext, identifiers: List[str], column, rows
    ) -> Dict[Tuple, _GroupAccumulator]:
        # Partition the qualifying rows by group key — the only per-row loop;
        # everything after runs column-wise over each partition's index list.
        key_columns = [column(ref.attribute) for ref in self.group_by]
        partitions: Dict[Tuple, List[int]] = {}
        if len(key_columns) == 1:
            values = key_columns[0]
            for row in rows:
                key = (values[row],)
                bucket = partitions.get(key)
                if bucket is None:
                    bucket = partitions[key] = []
                bucket.append(row)
        elif key_columns:
            for row in rows:
                key = tuple(values[row] for values in key_columns)
                bucket = partitions.get(key)
                if bucket is None:
                    bucket = partitions[key] = []
                bucket.append(row)
        else:
            bucket = list(rows)
            if bucket:
                partitions[()] = bucket
        # Every row is one distinct root atom, so the bulk fills below land
        # exactly where a per-molecule fold's setdefault/add would.  Counts
        # of the hop's component are left to the link pass.
        partner = self.hop[1] if self.hop is not None else None
        groups: Dict[Tuple, _GroupAccumulator] = {}
        for key, bucket in partitions.items():
            accumulator = groups[key] = _GroupAccumulator(self.aggregates)
            accumulator.count = len(bucket)
            for index, spec in enumerate(self.aggregates):
                if spec.component is not None:
                    if spec.component != partner:
                        accumulator.targets[index] = {identifiers[row] for row in bucket}
                elif spec.distinct:
                    values = column(spec.attribute.attribute)
                    accumulator.targets[index] = {
                        _distinct_key(values[row])
                        for row in bucket
                        if values[row] is not None
                    }
                elif spec.attribute is not None:
                    values = column(spec.attribute.attribute)
                    accumulator.targets[index] = {
                        identifiers[row]: values[row] for row in bucket
                    }
        if self.hop is not None:
            self._fold_links(ctx, identifiers, partitions, groups)
        return groups

    def _fold_links(
        self,
        ctx: ExecutionContext,
        identifiers: List[str],
        partitions: Dict[Tuple, List[int]],
        groups: Dict[Tuple, _GroupAccumulator],
    ) -> None:
        """One pass over the hop's link type: each link whose root endpoint
        is a qualifying root adds its component endpoint to that root's
        group.  The endpoint names an atom — deletions take an atom's links
        with it, and a database with a dangling link is not in ``DB*``."""
        link_type_name, component = self.hop
        root = self.atom_type_name
        # Resolved even when nothing counts the component: a link type that
        # does not connect the two types raises here as in the row walk.
        link_type = resolve_directed_link(
            ctx.database, DirectedLink(link_type_name, root, component)
        )
        counted = [
            index for index, spec in enumerate(self.aggregates) if spec.component == component
        ]
        if not counted:
            return
        members: Dict[str, Set[str]] = {}
        for key, bucket in partitions.items():
            target = groups[key].targets[counted[0]]
            for row in bucket:
                members[identifiers[row]] = target
        member = members.get
        # A head context reads the live occurrence: one copy, which no
        # writer can interrupt half-way; a pinned view yields its links.
        links = tuple(link_type)
        for link in links:
            (first_type, first), (second_type, second) = link.endpoints
            if first_type == root:
                target = member(first)
                if target is not None:
                    target.add(second)
            elif second_type == root:
                target = member(second)
                if target is not None:
                    target.add(first)
        ctx.counters.links_followed += len(links)
        for accumulator in groups.values():
            for index in counted[1:]:
                accumulator.targets[index] = set(accumulator.targets[counted[0]])
