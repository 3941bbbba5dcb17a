"""Statistics and a simple cost model for molecule-query plans.

The cost model estimates the number of atoms a plan touches: molecule
derivation visits, per root atom, the expected number of component atoms
(computed from average link degrees along the structure); restrictions cost
one evaluation per molecule; pushed-down root filters scale the number of
derivations by the filter's estimated selectivity.  The absolute values are
crude, but they rank plan variants correctly on the workloads the E-PERF3
benchmark runs — which is all a rule-driven planner needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, NamedTuple, Optional, Sequence, Tuple

from repro.core.database import Database
from repro.core.molecule import MoleculeTypeDescription
from repro.core.predicates import Comparison, Formula, equality_conjuncts
from repro.engine.logical import (
    AggregatePlan,
    ColumnarAggregatePlan,
    DefinePlan,
    IntervalScanPlan,
    PlanNode,
    ProjectPlan,
    RecursivePlan,
    RestrictPlan,
    SetOpPlan,
    plan_description,
)
from repro.engine.physical import MAX_ENUMERATION_CANDIDATES

#: Default selectivity assumed for a predicate whose selectivity cannot be estimated.
DEFAULT_SELECTIVITY = 0.25

#: Cost units per closure member reached by the fixpoint loop: every member
#: is found by scanning its parent's incident links (copy + orient + filter),
#: several times the cost of an indexed touch.
FIXPOINT_HOP_COST = 4.0

#: Cost units per closure member emitted by an interval range scan (one
#: sorted-array slot plus one atom fetch).
INTERVAL_TOUCH_COST = 1.0

#: Cost units per row visited by a columnar aggregate scan: a list index into
#: the attribute array instead of a per-atom dict traversal plus molecule
#: assembly — a fraction of a row-path touch.  A one-hop component count
#: pays it once more per link of the hop's link type.
COLUMNAR_TOUCH_COST = 0.25

#: Fixed cost units per dimension of a composite grid-file probe (locating
#: and intersecting the matching grid regions).
GRID_PROBE_COST = 8.0

#: Fixed cost units for one hash-index bucket lookup.
HASH_PROBE_COST = 1.0


class UpwardWalk(NamedTuple):
    """The cost model's picture of a scan seeding its roots from a component."""

    #: The component atom type whose equality conjunct seeds the walk.
    atom_type: str
    #: Expected atoms matching the rarest usable conjunct.
    candidates: float
    #: Number of usable equality conjuncts (the rarest one is walked from).
    conjuncts: int
    #: Expected root atoms the walk reaches.
    roots: float
    #: Expected links looked at on the way up.
    links: float


def recursion_profile_key(description) -> Tuple[str, str, str]:
    """The profile key of a recursive description (``max_depth`` is per-query)."""
    return (
        description.atom_type_name,
        description.link_type_name,
        description.direction,
    )


@dataclass
class DatabaseStatistics:
    """Occurrence sizes and average link degrees collected from a database."""

    atom_counts: Dict[str, int] = field(default_factory=dict)
    link_counts: Dict[str, int] = field(default_factory=dict)
    #: The one link type between each pair of atom types — what an anonymous
    #: directed use (MQL's ``a - b``) resolves to; ambiguous pairs are absent.
    link_between: Dict[FrozenSet[str], Optional[str]] = field(default_factory=dict)
    distinct_values: Dict[Tuple[str, str], int] = field(default_factory=dict)
    #: Observed fixpoint behaviour per recursive description — running
    #: averages of closure size and traversal depth, fed back by the
    #: interpreter after each recursive execution.  Keys are
    #: ``(atom type, link type, direction)``.
    recursion_profiles: Dict[Tuple[str, str, str], Dict[str, float]] = field(
        default_factory=dict
    )
    #: Advances when an estimate a plan may depend on moves by about a
    #: factor of two — a folded occurrence count changes its
    #: ``bit_length()`` — or a recursive description is observed for the
    #: first time.  The interpreter's statement cache re-plans a statement
    #: planned under an older epoch; drift inside one epoch only shapes
    #: rankings, never results.
    epoch: int = 0

    @classmethod
    def collect(cls, database: Database) -> "DatabaseStatistics":
        """Gather statistics from *database* (single pass over the occurrences).

        Each occurrence is materialized atomically (``.occurrence`` is a
        single C-level copy) before Python-level iteration, so collection
        can run while writer threads mutate the head — the counts are then
        a consistent point-in-time estimate rather than a crash.
        """
        statistics = cls()
        for atom_type in database.atom_types:
            atoms = atom_type.occurrence
            statistics.atom_counts[atom_type.name] = len(atoms)
            for attribute in atom_type.description.names:
                values = {atom.get(attribute) for atom in atoms}
                statistics.distinct_values[(atom_type.name, attribute)] = max(1, len(values))
        for link_type in database.link_types:
            statistics.link_counts[link_type.name] = len(link_type)
            pair = link_type.description
            statistics.link_between[pair] = None if pair in statistics.link_between else link_type.name
        return statistics

    def apply_event(self, event) -> None:
        """Fold one change event into the occurrence counts.

        Atom/link counts (the inputs of the fan-out and cardinality
        estimates) stay exact; per-attribute distinct-value counts are left
        as collected — they only shape selectivity guesses, and drifting
        there changes rankings, never results.  This is what lets a planner
        survive writes without re-scanning the database.  A count whose
        ``bit_length()`` changes advances :attr:`epoch`.
        """
        kind = event.kind
        if kind in ("atom_inserted", "atom_deleted"):
            counts = self.atom_counts
        elif kind in ("link_connected", "link_disconnected"):
            counts = self.link_counts
        else:
            return
        before = counts.get(event.type_name, 0)
        after = before + 1 if kind in ("atom_inserted", "link_connected") else max(0, before - 1)
        counts[event.type_name] = after
        if after.bit_length() != before.bit_length():
            self.epoch += 1

    def observe_recursion(
        self,
        key: Tuple[str, str, str],
        roots: int,
        avg_closure: float,
        avg_depth: float,
    ) -> None:
        """Fold one observed recursive execution into the running profile.

        *roots* is the number of molecules expanded, *avg_closure* their mean
        closure size (atoms per molecule), *avg_depth* the mean number of
        fixpoint iterations (maximum recursion level reached).  This replaces
        the flat ``atoms + links`` recursion heuristic with measured data, so
        the rewrite-vs-fixpoint choice (and EXPLAIN's depth/closure report)
        tracks the actual workload.
        """
        if roots <= 0:
            return
        profile = self.recursion_profiles.get(key)
        if profile is None:
            self.epoch += 1
            self.recursion_profiles[key] = {
                "runs": 1.0,
                "roots": float(roots),
                "avg_closure": float(avg_closure),
                "avg_depth": float(avg_depth),
            }
            return
        runs = profile["runs"] + 1.0
        weight = 1.0 / runs
        profile["runs"] = runs
        profile["roots"] = profile["roots"] + (roots - profile["roots"]) * weight
        profile["avg_closure"] = (
            profile["avg_closure"] + (avg_closure - profile["avg_closure"]) * weight
        )
        profile["avg_depth"] = (
            profile["avg_depth"] + (avg_depth - profile["avg_depth"]) * weight
        )

    def recursion_profile(
        self, key: Tuple[str, str, str]
    ) -> "Dict[str, float] | None":
        """The observed profile for *key*, or ``None`` before any execution."""
        return self.recursion_profiles.get(key)

    def fanout(self, directed, per_type: str) -> float:
        """Average number of links of the directed use per atom of *per_type*
        (its source for the fan-out, its target for the fan-in)."""
        name = directed.link_type_name
        if not name or name == "-":
            pair = frozenset(
                (directed.source.split("@", 1)[0], directed.target.split("@", 1)[0])
            )
            name = self.link_between.get(pair) or "-"
        return self.average_fanout(name, per_type)

    def average_fanout(self, link_type_name: str, source_type: str) -> float:
        """Average number of links per source atom for *link_type_name*."""
        links = self.link_counts.get(link_type_name.split("~", 1)[0], self.link_counts.get(link_type_name, 0))
        atoms = self.atom_counts.get(source_type.split("@", 1)[0], self.atom_counts.get(source_type, 1))
        if atoms == 0:
            return 0.0
        return links / atoms

    def selectivity(self, formula: Formula) -> float:
        """Estimate the fraction of candidates satisfying *formula*."""
        if isinstance(formula, Comparison):
            atom_type = formula.lhs.atom_type
            attribute = formula.lhs.attribute
            if atom_type is not None:
                distinct = self.distinct_values.get(
                    (atom_type.split("@", 1)[0], attribute)
                ) or self.distinct_values.get((atom_type, attribute))
                if distinct:
                    if formula.op in ("=", "=="):
                        return 1.0 / distinct
                    if formula.op in ("!=", "<>"):
                        return 1.0 - 1.0 / distinct
                    return 1.0 / 3.0  # range predicates
        return DEFAULT_SELECTIVITY


@dataclass
class CostModel:
    """Cost estimation for molecule-query plans based on :class:`DatabaseStatistics`."""

    statistics: DatabaseStatistics

    def derivation_cost(self, description: MoleculeTypeDescription, root_count: float) -> float:
        """Expected atoms touched to derive *root_count* molecules of *description*."""
        expected_per_type: Dict[str, float] = {description.root: 1.0}
        total_per_molecule = 1.0
        for type_name in description.traversal_order():
            parent_expected = expected_per_type.get(type_name, 0.0)
            if parent_expected == 0.0:
                continue
            for directed in description.children_of(type_name):
                fanout = self.statistics.fanout(directed, directed.source)
                expected = parent_expected * fanout
                expected_per_type[directed.target] = expected_per_type.get(directed.target, 0.0) + expected
                total_per_molecule += expected
        return root_count * total_per_molecule

    def estimate(self, plan: PlanNode) -> float:
        """Estimate the total cost (atoms touched + predicate evaluations) of *plan*."""
        cost, _cardinality = self._estimate(plan)
        return cost

    def _estimate(self, plan: PlanNode) -> Tuple[float, float]:
        if isinstance(plan, DefinePlan):
            root_count = self._atom_count(plan.description.root)
            filter_cost = 0.0
            if plan.root_filter is not None:
                # One predicate evaluation per candidate root atom: those the
                # index names for the equality conjuncts, else all of them.
                filter_cost = self._root_candidates(plan)
                root_count = min(
                    filter_cost, root_count * self.statistics.selectivity(plan.root_filter)
                )
            return filter_cost + self.derivation_cost(plan.description, root_count), root_count
        if isinstance(plan, RestrictPlan):
            child_cost, child_cardinality = self._estimate(plan.child)
            # One molecule-level evaluation per child molecule, plus the
            # propagation of the qualifying molecules.
            selectivity = self.statistics.selectivity(plan.formula)
            out_cardinality = child_cardinality * selectivity
            walk = self.upward_walk(plan)
            if walk is not None:
                child_cost, child_cardinality = self._seeded_scan(plan.child, walk)
                out_cardinality = min(out_cardinality, child_cardinality)
            description = _description_of(plan.child)
            propagation = self.derivation_cost(description, out_cardinality)
            return child_cost + child_cardinality + propagation, out_cardinality
        if isinstance(plan, ProjectPlan):
            child_cost, child_cardinality = self._estimate(plan.child)
            description = _description_of(plan.child)
            kept = len(plan.atom_type_names) / max(1, len(description.atom_type_names))
            return child_cost + child_cardinality * kept, child_cardinality
        if isinstance(plan, (RecursivePlan, IntervalScanPlan)):
            return self._estimate_recursive(plan)
        if isinstance(plan, AggregatePlan):
            child_cost, child_cardinality = self._estimate(plan.child)
            groups = self._group_cardinality(plan.group_by, child_cardinality)
            # One fold per input molecule, plus the grouping structure: hash
            # probes are linear, sorted grouping pays the comparison sort.
            if plan.strategy == "sort":
                grouping = child_cardinality * max(1.0, math.log2(child_cardinality + 1.0))
            else:
                grouping = child_cardinality
            return child_cost + child_cardinality + grouping, groups
        if isinstance(plan, ColumnarAggregatePlan):
            atoms = self._atom_count(plan.atom_type_name)
            cardinality = atoms
            if plan.root_filter is not None:
                cardinality *= self.statistics.selectivity(plan.root_filter)
            groups = self._group_cardinality(plan.group_by, cardinality)
            # One array slot per root, plus one pass over the hop's links.
            touched = atoms
            if plan.hop is not None:
                touched += self.statistics.link_counts.get(plan.hop[0], 0)
            return touched * COLUMNAR_TOUCH_COST + groups, groups
        if isinstance(plan, SetOpPlan):
            left_cost, left_cardinality = self._estimate(plan.left)
            right_cost, right_cardinality = self._estimate(plan.right)
            # Value-key hashing: one pass over each operand stream.
            cost = left_cost + right_cost + left_cardinality + right_cardinality
            if plan.operator == "UNION":
                return cost, left_cardinality + right_cardinality
            if plan.operator == "DIFFERENCE":
                return cost, left_cardinality
            return cost, min(left_cardinality, right_cardinality)
        raise TypeError(f"unknown plan node: {plan!r}")

    def _atom_count(self, type_name: str) -> float:
        """Occurrence size of *type_name* (a renamed type counts as its base)."""
        return float(
            self.statistics.atom_counts.get(type_name.split("@", 1)[0])
            or self.statistics.atom_counts.get(type_name, 0)
        )

    def _root_candidates(self, define: DefinePlan) -> float:
        """Expected root atoms the root filter's literal equality conjuncts
        leave to evaluate (hash bucket or grid cell); all of them without one."""
        candidates = self._atom_count(define.description.root)
        for conjunct in equality_conjuncts(define.root_filter, define.description.root):
            candidates *= self.statistics.selectivity(conjunct)
        return candidates

    def upward_walk(self, plan: PlanNode) -> Optional[UpwardWalk]:
        """How the Σ *plan* directly above an α seeds the scan's roots, or
        ``None`` when the scan visits all roots or goes through a root index.

        Mirrors ``MoleculeScan._component_seed`` on estimates: every literal
        equality conjunct on a component atom type contributes ``atoms ×
        selectivity`` candidates, the rarest is walked from unless it exceeds
        :data:`MAX_ENUMERATION_CANDIDATES` or an equality-indexed root filter
        names fewer roots.  Going up, every use ``<lt, P, C>`` on the path
        multiplies by its fan-in ``link_count(lt) / atom_count(C)``; parent
        uses add up (DAG-shaped structures).
        """
        if not isinstance(plan, RestrictPlan) or not isinstance(plan.child, DefinePlan):
            return None
        define = plan.child
        description = define.description
        if any("@" in name for name in description.atom_type_names):
            return None
        rarest: Optional[Tuple[str, float]] = None
        conjuncts = 0
        for type_name in description.atom_type_names:
            if type_name == description.root:
                continue
            atoms = self._atom_count(type_name)
            for conjunct in equality_conjuncts(plan.formula, type_name):
                conjuncts += 1
                candidates = atoms * self.statistics.selectivity(conjunct)
                if rarest is None or candidates < rarest[1]:
                    rarest = (type_name, candidates)
        if rarest is None or rarest[1] > MAX_ENUMERATION_CANDIDATES:
            return None
        root_count = self._atom_count(description.root)
        if self._root_candidates(define) <= rarest[1]:
            return None
        reached: Dict[str, float] = {rarest[0]: rarest[1]}
        links = 0.0
        for type_name in reversed(description.traversal_order()):
            children = reached.get(type_name, 0.0)
            if children == 0.0:
                continue
            for directed in description.parents_of(type_name):
                fan_in = self.statistics.fanout(directed, type_name)
                links += children * fan_in
                reached[directed.source] = reached.get(directed.source, 0.0) + children * fan_in
        roots = min(root_count, reached.get(description.root, 0.0))
        return UpwardWalk(rarest[0], rarest[1], conjuncts, roots, links)

    def _seeded_scan(self, define: DefinePlan, walk: UpwardWalk) -> Tuple[float, float]:
        """Cost and cardinality of an α whose roots come from *walk*: the links
        walked, one root-filter evaluation per root reached, one derivation
        per root that passes."""
        emitted = walk.roots
        filter_cost = 0.0
        if define.root_filter is not None:
            filter_cost = walk.roots
            emitted *= self.statistics.selectivity(define.root_filter)
        return walk.links + filter_cost + self.derivation_cost(define.description, emitted), emitted

    def _group_cardinality(self, group_by, cardinality: float) -> float:
        """Expected number of groups a Γ over *cardinality* inputs produces."""
        if not group_by:
            return 1.0
        groups = 1.0
        for reference in group_by:
            bare = (reference.atom_type or "").split("@", 1)[0]
            distinct = self.statistics.distinct_values.get(
                (bare, reference.attribute)
            ) or self.statistics.distinct_values.get(
                (reference.atom_type, reference.attribute)
            )
            groups *= float(distinct) if distinct else max(1.0, cardinality**0.5)
        return min(groups, max(1.0, cardinality))

    def root_access_choice(
        self, root_type: str, attributes: Sequence[str]
    ) -> "Tuple[Tuple[str, ...], float, float] | None":
        """Cost a composite grid probe against the best single hash bucket.

        For *attributes* (two or more equality-constrained root attributes)
        returns ``(access, chosen_cost, alternative_cost)`` where *access* is
        ``("grid", attrs...)`` or ``("hash", best_attribute)``.  The grid
        probe pays a fixed region-intersection overhead per dimension but
        reads only the conjunctive cell; the hash probe is nearly free but
        must post-filter its whole bucket through the residual predicates.
        A near-unique attribute therefore makes the hash index win; pairs of
        low-cardinality attributes keep the grid.  Returns ``None`` when the
        occurrence is empty (nothing to rank).
        """
        bare = root_type.split("@", 1)[0]
        atoms = self._atom_count(root_type)
        if atoms <= 0 or len(attributes) < 2:
            return None

        def distinct(attribute: str) -> float:
            return float(
                self.statistics.distinct_values.get((bare, attribute))
                or self.statistics.distinct_values.get((root_type, attribute))
                or 1.0
            )

        best = max(attributes, key=distinct)
        bucket = atoms / distinct(best)
        residual = len(attributes) - 1
        hash_cost = HASH_PROBE_COST + bucket * (1.0 + residual)
        cell = atoms
        for attribute in attributes:
            cell /= distinct(attribute)
        grid_cost = GRID_PROBE_COST * len(attributes) + cell
        if hash_cost < grid_cost:
            return ("hash", best), hash_cost, grid_cost
        return ("grid",) + tuple(sorted(attributes)), grid_cost, hash_cost

    def enumeration_candidates(self, plan) -> "Tuple[float, ...]":
        """Expected candidate atoms per equality conjunct an interval scan
        enumerates its roots from; empty when it has to visit all roots.

        Mirrors ``IntervalScan._candidate_sets``: every conjunct
        ``root_type.attr = const`` contributes the atoms matching it, unless
        they outnumber :data:`MAX_ENUMERATION_CANDIDATES`.  Tree-mode
        encodings are assumed — in graph mode the executor visits every root
        whatever the formula says.
        """
        if not isinstance(plan, IntervalScanPlan):
            return ()
        atoms = float(self.statistics.atom_counts.get(plan.description.atom_type_name, 0))
        estimates = []
        for conjunct in equality_conjuncts(plan.formula, plan.description.atom_type_name):
            candidates = atoms * self.statistics.selectivity(conjunct)
            if candidates <= MAX_ENUMERATION_CANDIDATES:
                estimates.append(candidates)
        return tuple(estimates)

    def _estimate_recursive(self, plan) -> Tuple[float, float]:
        """Cost a recursive node — fixpoint or interval-accelerated.

        With an observed profile the true work is estimated directly: the
        fixpoint loop pays :data:`FIXPOINT_HOP_COST` per closure member plus
        one frontier pass per iteration, the interval scan
        :data:`INTERVAL_TOUCH_COST` per member.  Without observations the
        old occurrence-pass proxy remains (scaled down for the interval
        variant, which touches each closure member once instead of scanning
        every incident link).

        An interval scan whose formula carries a selective equality conjunct
        enumerates its roots instead of visiting all of them: it pays one
        ancestor walk of the observed depth per candidate atom, and closures
        only for the ancestor-or-self chain of the rarest conjunct's
        candidates.
        """
        atoms = float(self.statistics.atom_counts.get(plan.description.atom_type_name, 0))
        links = float(self.statistics.link_counts.get(plan.description.link_type_name, 0))
        accelerated = isinstance(plan, IntervalScanPlan)
        cardinality = atoms
        if plan.formula is not None:
            cardinality *= self.statistics.selectivity(plan.formula)
        candidates = self.enumeration_candidates(plan)
        profile = self.statistics.recursion_profile(recursion_profile_key(plan.description))
        if profile is not None:
            roots = atoms if atoms > 0 else profile["roots"]
            closure = profile["avg_closure"]
            depth = profile["avg_depth"]
            if candidates:
                enumerated = min(roots, min(candidates) * (1.0 + depth))
                cost = enumerated * closure * INTERVAL_TOUCH_COST + sum(candidates) * depth
            elif accelerated:
                cost = roots * closure * INTERVAL_TOUCH_COST
            else:
                cost = roots * (closure * FIXPOINT_HOP_COST + depth)
            return cost, cardinality
        if accelerated:
            proxy = (atoms + links) * (INTERVAL_TOUCH_COST / FIXPOINT_HOP_COST)
            if candidates and atoms > 0:
                proxy = proxy * min(1.0, min(candidates) / atoms) + sum(candidates)
            return proxy, cardinality
        return atoms + links, cardinality


def _description_of(plan: PlanNode) -> MoleculeTypeDescription:
    return plan_description(plan)
