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
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.atom import Atom
from repro.core.database import Database
from repro.core.derivation import StructureWalk, resolve_description, resolve_directed_link
from repro.core.graph import DirectedLink
from repro.core.molecule import Molecule, MoleculeType, MoleculeTypeDescription
from repro.core.predicates import (
    _OPERATORS,
    AttributeRef,
    Comparison,
    Formula,
    _compare,
    equality_conjuncts,
    split_conjunction,
)
from repro.core.recursion import RecursiveDescription, RecursiveMolecule, expand_recursive
from repro.core.values import distinct_key, group_rows, renders_alike
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


class ExecutionContext:
    """Per-execution state: the database, work counters and access structures.

    *accelerators* is the
    :class:`~repro.storage.accelerators.AcceleratorStore` equality conjuncts
    (:meth:`lookup`), recursive definitions and aggregate scans are answered
    from; without one every lookup answers ``None`` and operators scan.
    Neighbour traversal needs no structure of its own: it reads the
    ``incident`` links of *database*'s link types, the live buckets at the
    head and the visible links in a snapshot view.

    With *snapshot* the *database* is that snapshot's view, and an equality
    lookup reads the store's head index.  It is then the head answer united
    with the identifiers of the type that carry a version chain
    (:meth:`~repro.core.atom.AtomType.settled`): a superset of the atoms
    matching at the pin, whoever wrote since — the head, this reader's own
    transaction or an uncommitted peer.  Callers read every candidate back
    through the view and test it again, so the superset is exact.
    """

    def __init__(
        self,
        database: Database,
        counters: Optional[ExecutionCounters] = None,
        snapshot=None,
        accelerators=None,
    ) -> None:
        self.database = database
        self.counters = counters or ExecutionCounters()
        #: The pinned :class:`~repro.core.versions.Snapshot` when *database*
        #: is a generation-stamped view, ``None`` for head execution.
        self.snapshot = snapshot
        #: Optional :class:`~repro.storage.accelerators.AcceleratorStore` —
        #: the equality indexes, the structure indexes for recursive
        #: definitions and the columnar projections for aggregate scans.
        self.accelerators = accelerators

    def lookup(
        self, atom_type_name: str, attributes: "str | Tuple[str, ...]", value: object
    ) -> Optional[FrozenSet[str]]:
        """The atoms of *atom_type_name* that can have ``attributes = value``
        in this context's database, or ``None`` when no index is usable.  A
        tuple of *attributes* reads their composite grid, *value* binding
        any subset of them in a dict.

        A pinned reader gets the store's head answer widened by the chained
        identifiers, both taken while the type's head lock holds it still."""
        store = self.accelerators
        if store is None:
            return None
        if self.snapshot is None:
            return store.lookup(self.database, atom_type_name, attributes, value, self.counters)
        head = self.database.head
        bare = atom_type_name.split("@", 1)[0]
        if not head.has_atom_type(bare):
            return None
        with head.atyp(bare).settled() as chained:
            identifiers = store.lookup(head, bare, attributes, value, self.counters)
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
    the context's equality indexes where possible, so only the matching root
    atoms are visited; the remaining conjuncts are evaluated per candidate.
    When the Σ directly above hands down its formula, an equality conjunct on
    a *component* atom type seeds the roots instead: the matching component
    atoms come from an equality index and the links are walked upward to the
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
            identifiers = ctx.lookup(description.root, attributes, equalities)
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

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return MoleculeTypeDescription([self.description.atom_type_name], [])

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        base_description = self.describe(ctx)
        for root_atom in ctx.database.atyp(self.description.atom_type_name):
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
    :class:`~repro.storage.accelerators.AcceleratorStore` — a pre/post
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

    def describe(self, ctx: ExecutionContext) -> MoleculeTypeDescription:
        return MoleculeTypeDescription([self.description.atom_type_name], [])

    def execute(self, ctx: ExecutionContext) -> Iterator[Molecule]:
        base_description = self.describe(ctx)
        store = getattr(ctx, "accelerators", None)
        index = store.index_for(self.description, ctx) if store is not None else None
        # A pinned reader names its generation on every store call: the head
        # may fold a write into the shared encoding between two of them.
        generation = ctx.snapshot.generation if ctx.snapshot is not None else None
        for root_atom in self._root_atoms(ctx, store, index, generation):
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
                ctx.lookup(type_name, attributes, {attribute: value})
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
    """Total order over rendered group keys: NULLs last, then textual order
    (type names break ties between equal texts such as ``1`` and ``'1'``)."""
    return tuple((value is None, str(value), type(value).__name__) for value in values)


def _textual(value: object) -> Tuple[str, str]:
    """The order that picks among values ``==``-equal but rendered apart."""
    return (type(value).__name__, str(value))


def _first_rendered(kept: object, seen: object) -> object:
    """Of two ``==``-equal key values, the first in :func:`_textual` order."""
    if type(kept) is type(seen) and type(kept) in (str, int):
        return kept
    return min(kept, seen, key=_textual)


def _rendered(values: List[object]) -> object:
    """What a group renders for its ``==``-equal key *values*: the first in
    :func:`_textual` order, whatever order a fold met them in."""
    if renders_alike(values, values[0]):
        return values[0]
    return min(values, key=_textual)


def _robust_extreme(values: List[object], pick) -> object:
    """MIN/MAX over *values*, NULLs skipped, tolerant of mixed value types
    (falls back to a textual order).

    ``==``-equal extremes can carry distinct renderings (``-0.0`` vs ``0.0``,
    ``1`` vs ``1.0``) and which one a fold meets first depends on scan order,
    so ties are re-picked textually — the row and columnar paths then return
    the same bytes no matter how they ordered the values.
    """
    try:
        result = pick(values)  # raises on a NULL beside other values
    except (TypeError, ValueError):
        values = [value for value in values if value is not None]
        if not values:
            return None
        try:
            result = pick(values)
        except TypeError:
            return pick(values, key=_textual)
    if values.count(result) < 2 or renders_alike(values, result):
        return result
    return pick((value for value in values if value == result), key=_textual)


def _sum(values: List[object]) -> Tuple[object, int]:
    """``(SUM, count)`` over the non-NULL *values*; the sum is ``None`` for
    non-numeric values.

    :func:`math.fsum` keeps float sums order-independent (byte parity
    between row and columnar folds); all-int sums stay exact.  The plain
    ``sum`` tried first decides which: it raises on a NULL, and its total
    is a float exactly when a float took part.
    """
    try:
        total = sum(values)
        if type(total) is int:
            return total, len(values)
        if type(total) is float:
            return math.fsum(values), len(values)
    except TypeError:
        pass
    values = [value for value in values if value is not None]
    try:
        if any(isinstance(value, float) for value in values):
            return math.fsum(values), len(values)
        return sum(values), len(values)
    except TypeError:
        return None, len(values)  # non-numeric values — NULL, on both paths


def _distinct_values(values: Iterable[object]) -> Set[object]:
    """The distinct keys of the non-NULL *values* (a DISTINCT target)."""
    values = list(values)
    try:
        seen = set(values)  # hashable values are their own distinct keys
    except TypeError:
        seen = set(map(distinct_key, values))
    seen.discard(None)
    return seen


def _satisfying(rows: "Iterable[int]", values: List[object], op: str, rhs: object) -> List[int]:
    """The *rows* whose value in *values* satisfies ``_compare(op, value,
    rhs)``: one pass through the comparison operator, or row by row through
    ``_compare`` when a value's type refuses it."""
    if rhs is not None:
        try:
            if op not in ("=", "==", "!=", "<>"):
                # A NULL fails every ordering comparison.
                rows = list(compress(rows, map(is_not, map(values.__getitem__, rows), repeat(None))))
            return list(compress(rows, map(_OPERATORS[op], map(values.__getitem__, rows), repeat(rhs))))
        except TypeError:
            pass
    return [row for row in rows if _compare(op, values[row], rhs)]


class _GroupAccumulator:
    """Running state of one group: its rendered key, the molecule count and
    one target per spec.

    Attribute targets are ``{atom identifier: value}`` maps on the row fold
    (an atom shared by several molecules of the group contributes exactly
    once) and plain value lists on the columnar fold (every row is a distinct
    root); component targets are identifier sets (distinct component atoms);
    DISTINCT targets are sets of observed values (see
    :func:`~repro.core.values.distinct_key`); ``COUNT(*)`` needs only the
    molecule counter.
    """

    __slots__ = ("key", "count", "targets")

    def __init__(self, specs, key: Tuple = ()) -> None:
        self.key = key
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
                        target.add(distinct_key(value))
            elif spec.attribute is not None:
                for atom in atoms_of_type(spec.attribute.atom_type):
                    target.setdefault(atom.identifier, atom.get(spec.attribute.attribute))

    def finalize(self, spec, target) -> object:
        if spec.component is not None or spec.distinct:
            return len(target)
        if spec.attribute is None:
            return self.count  # COUNT(*)
        values = list(target.values()) if isinstance(target, dict) else target
        if spec.func == "COUNT":
            return len(values) - values.count(None)
        if spec.func == "MIN":
            return _robust_extreme(values, min)
        if spec.func == "MAX":
            return _robust_extreme(values, max)
        total, count = _sum(values)
        if not count or total is None:
            return None
        return total if spec.func == "SUM" else total / count


def finalize_groups(
    group_by: Tuple[AttributeRef, ...],
    specs,
    groups: "Dict[object, _GroupAccumulator]",
) -> List[Tuple]:
    """Turn accumulated groups into canonically ordered result rows.

    Shared by every Γ operator — the row and columnar folds both
    finalize through this one function, which is what makes their outputs
    byte-identical.  *groups* maps each group's
    :func:`~repro.core.values.distinct_key` tuple to its accumulator, which
    carries the key as rendered.  A global aggregate (no GROUP BY) over empty
    input yields its one row with zero counts and NULL value aggregates; a
    grouped aggregate over empty input yields no rows.
    """
    accumulators = list(groups.values())
    if not group_by and not accumulators:
        accumulators = [_GroupAccumulator(specs)]
    rows: List[Tuple] = []
    for accumulator in sorted(accumulators, key=lambda acc: _canonical_key(acc.key)):
        rows.append(
            accumulator.key
            + tuple(
                accumulator.finalize(spec, target)
                for spec, target in zip(specs, accumulator.targets)
            )
        )
    return rows


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


class HashAggregate(AggregationOperator):
    """Streaming Γ: fold the child's molecules into a group hash table, one
    fold per molecule.

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

    def rows(self, ctx: ExecutionContext) -> List[Tuple]:
        groups: Dict[Tuple, _GroupAccumulator] = {}
        for shown, atoms_of_type in self._keyed_inputs(ctx):
            try:
                key = shown
                accumulator = groups.get(key)
            except TypeError:
                key = tuple(map(distinct_key, shown))
                accumulator = groups.get(key)
            if accumulator is None:
                accumulator = groups[key] = _GroupAccumulator(self.aggregates, shown)
            else:
                accumulator.key = tuple(map(_first_rendered, accumulator.key, shown))
            accumulator.fold_components(self.aggregates, atoms_of_type)
        ctx.counters.groups_aggregated += len(groups)
        return finalize_groups(self.group_by, self.aggregates, groups)


class ColumnarAggregate(AggregationOperator):
    """Γ over the columnar projection of the root type, and over one hop.

    The group keys and root targets are read straight out of per-type
    attribute arrays and their value postings: a single-key GROUP BY takes
    its groups from the key's postings, an equality conjunct of the optional
    root filter (a conjunction of simple comparisons, guaranteed by the
    optimizer rule) its rows, and every other conjunct is evaluated
    column-wise with the exact :func:`~repro.core.predicates._compare`
    semantics of the row path.  A group key renders as its members' first
    value in textual order, as on the row path.  With a *hop* ``(link type,
    component type)`` the component counts come from one pass over the link
    type's occurrence: every link adds its component endpoint to the group
    of its root endpoint — the side chosen by endpoint type, never by
    identifier, because identifiers are unique only within a type.  No
    molecule is derived.

    When the context's accelerator store refuses to serve the executing
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
        store = getattr(ctx, "accelerators", None)
        projection = (
            store.projection_for(self.atom_type_name, ctx) if store is not None else None
        )
        conjuncts = self._filter_conjuncts()
        if projection is not None and conjuncts is not None:
            roots = self._projected_roots(ctx, store, projection, conjuncts)
        else:
            if store is not None:
                store.count_fallback()
            roots = self._occurrence_roots(ctx)
        groups = self._fold(ctx, *roots)
        ctx.counters.groups_aggregated += len(groups)
        return finalize_groups(self.group_by, self.aggregates, groups)

    def _projected_roots(
        self, ctx: ExecutionContext, store, projection, conjuncts: List[Comparison]
    ):
        """``(identifiers, column, partitions, mixed)`` read from the
        projection: its identifier array, its column accessor, the
        qualifying rows by group key, and per group key the posting keys
        whose values may render apart.

        An equality conjunct is seeded from its attribute's posting; every
        other conjunct runs as one pass over the rows left.  A single-key
        GROUP BY without a filter takes its partitions straight from the
        postings; any other grouping partitions the qualifying rows."""
        identifiers = projection.identifiers
        ctx.counters.columnar_rows_scanned += len(identifiers)
        column = projection.column
        rows: "Iterable[int]" = range(len(identifiers))
        seed = next(
            (
                c
                for c in conjuncts
                if c.op in ("=", "==") and distinct_key(c.rhs) is c.rhs
            ),
            None,
        )
        if seed is not None:
            buckets, _ = store.postings(projection, seed.lhs.attribute)
            rows = buckets.get(seed.rhs, ())
        for conjunct in conjuncts:
            if conjunct is not seed:
                rows = _satisfying(rows, column(conjunct.lhs.attribute), conjunct.op, conjunct.rhs)
        postings = [store.postings(projection, ref.attribute) for ref in self.group_by]
        if len(postings) == 1 and not conjuncts:
            partitions = {(key,): bucket for key, bucket in postings[0][0].items()}
        else:
            partitions = self._partition(column, rows)
        return identifiers, column, partitions, [mixed for _, mixed in postings]

    def _occurrence_roots(self, ctx: ExecutionContext):
        """:meth:`_projected_roots` read from the (pinned) occurrence: the
        qualifying root atoms, filtered atom by atom, as transient columns
        (no postings: every group key is rendered from all its values)."""
        atoms: List[Atom] = []
        for atom in ctx.database.atyp(self.atom_type_name):
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

        partitions = self._partition(column, range(len(atoms)))
        return [atom.identifier for atom in atoms], column, partitions, [None] * len(self.group_by)

    def _partition(self, column, rows: "Iterable[int]") -> Dict[Tuple, "Iterable[int]"]:
        """*rows* by the :func:`~repro.core.values.distinct_key` tuple of
        their group-key values — the one per-row loop left."""
        if not self.group_by:
            rows = list(rows)
            return {(): rows} if rows else {}
        key_columns = [column(ref.attribute) for ref in self.group_by]
        try:
            # Hashable values are their own distinct keys.
            return group_rows(rows, zip(*(map(values.__getitem__, rows) for values in key_columns)))
        except TypeError:
            keys = (map(distinct_key, map(values.__getitem__, rows)) for values in key_columns)
            return group_rows(rows, zip(*keys))

    def _fold(
        self,
        ctx: ExecutionContext,
        identifiers: List[str],
        column,
        partitions: Dict[Tuple, "Iterable[int]"],
        mixed: List[Optional[Set[object]]],
    ) -> Dict[Tuple, _GroupAccumulator]:
        # Every row is one distinct root atom, so a group's targets are its
        # rows' values, gathered column-wise; counts of the hop's component
        # are left to the link pass.
        key_columns = [column(ref.attribute) for ref in self.group_by]
        partner = self.hop[1] if self.hop is not None else None
        groups: Dict[Tuple, _GroupAccumulator] = {}
        for key, rows in partitions.items():
            shown = tuple(
                values[next(iter(rows))]
                if apart is not None and part not in apart
                else _rendered(list(map(values.__getitem__, rows)))
                for values, part, apart in zip(key_columns, key, mixed)
            )
            accumulator = groups[key] = _GroupAccumulator(self.aggregates, shown)
            accumulator.count = len(rows)
            for index, spec in enumerate(self.aggregates):
                if spec.component is not None:
                    if spec.component != partner:
                        accumulator.targets[index] = set(map(identifiers.__getitem__, rows))
                elif spec.attribute is not None:
                    values = map(column(spec.attribute.attribute).__getitem__, rows)
                    accumulator.targets[index] = (
                        _distinct_values(values) if spec.distinct else list(values)
                    )
        if self.hop is not None:
            self._fold_links(ctx, identifiers, partitions, groups)
        return groups

    def _fold_links(
        self,
        ctx: ExecutionContext,
        identifiers: List[str],
        partitions: Dict[Tuple, "Iterable[int]"],
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
        for key, rows in partitions.items():
            target = groups[key].targets[counted[0]]
            members.update(zip(map(identifiers.__getitem__, rows), repeat(target)))
        member = members.get
        # A head context reads the live occurrence: one copy, which no
        # writer can interrupt half-way; a pinned view yields its links.
        links = tuple(link_type)
        # Every stored link carries its link type's (first, second) type
        # pair and, unless reflexive, is in that order: the root's side is
        # one position for the whole pass.
        first_type, second_type = links[0].types if links else (None, None)
        if first_type == root and second_type != root:
            for link in links:
                target = member(link.first)
                if target is not None:
                    target.add(link.second)
        elif second_type == root and first_type != root:
            for link in links:
                target = member(link.second)
                if target is not None:
                    target.add(link.first)
        elif first_type == root:
            # Reflexive (never planned — a hop joins two distinct types):
            # the smaller identifier is the root's side.
            for link in links:
                first, second = link.first, link.second
                if second < first:
                    first, second = second, first
                target = member(first)
                if target is not None:
                    target.add(second)
        ctx.counters.links_followed += len(links)
        for accumulator in groups.values():
            for index in counted[1:]:
                accumulator.targets[index] = set(accumulator.targets[counted[0]])
