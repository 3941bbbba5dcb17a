"""Algebraic rewrite rules over molecule-query plans.

Six rules, all of which preserve the result molecules (their correctness is
checked by the optimizer tests, the executor/algebra parity tests and the
ablation benchmark):

* :func:`merge_restrictions` — ``Σ[f2](Σ[f1](x)) → Σ[f1 AND f2](x)``; avoids
  one full pass over the intermediate molecule stream.
* :func:`push_down_restriction` — the conjuncts of a restriction that only
  reference the *root* atom type of the defining α are evaluated on root atoms
  before derivation (``Σ[f AND g](α(...)) → Σ[g](α[root filter f](...))``, the
  Σ disappearing when nothing is left for it); molecules that would be
  filtered out are never derived, the scan can answer equality filters
  through a secondary index, and the conjuncts that stay in Σ can still seed
  the scan's roots from a component atom type.
* :func:`choose_root_access` — cost composite grid-file probes against the
  best single hash-bucket lookup for multi-equality root filters and pin the
  winner on the α as its ``root_access`` (the scan previously always
  preferred the grid).
* :func:`prune_structure` — under a projection or an aggregation, drop atom
  types that neither the projection (the group keys and aggregate targets)
  nor any restriction references (and that are not needed to keep the
  structure coherent); the hierarchical join then has fewer branches to
  follow.
* :func:`accelerate_recursion` — swap a fixpoint :class:`RecursivePlan` for an
  :class:`IntervalScanPlan` when a registered structure index covers its
  recursive description; closures are then answered by interval range scans
  (or compact-adjacency sweeps) instead of hop-by-hop link chasing.
* :func:`columnarize_aggregate` — route a Γ over a single-type α, or over a
  one-hop α ``root - component`` whose targets count components (with a
  literal root filter, or none), onto the columnar projection scan; the
  physical operator still falls back to the row path whenever the
  projection cannot serve the read coherently, so firing the rule never
  changes results.

All rules recurse through set operations (each side of Ω/Δ/Ψ is rewritten
independently) and through Γ inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.core.molecule import MoleculeTypeDescription
from repro.core.predicates import (
    And,
    AttributeRef,
    Comparison,
    Formula,
    conjoin,
    split_conjunction,
)
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
)


@dataclass
class RewriteResult:
    """A rewritten plan plus the names of the rules that fired."""

    plan: PlanNode
    applied_rules: Tuple[str, ...] = ()


def merge_restrictions(plan: PlanNode) -> RewriteResult:
    """Collapse directly nested restrictions into a single conjunction."""
    applied: List[str] = []

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, RestrictPlan):
            child = walk(node.child)
            if isinstance(child, RestrictPlan):
                applied.append("merge_restrictions")
                return RestrictPlan(child.child, And(child.formula, node.formula))
            return RestrictPlan(child, node.formula)
        if isinstance(node, ProjectPlan):
            return ProjectPlan(walk(node.child), node.atom_type_names)
        if isinstance(node, AggregatePlan):
            return AggregatePlan(walk(node.child), node.group_by, node.aggregates)
        if isinstance(node, SetOpPlan):
            return SetOpPlan(node.operator, walk(node.left), walk(node.right), node.name)
        return node

    return RewriteResult(walk(plan), tuple(applied))


def push_down_restriction(plan: PlanNode) -> RewriteResult:
    """Move the root-only conjuncts of a restriction into the defining α as a
    root filter; whatever references other atom types stays in Σ."""
    applied: List[str] = []

    def references_only_root(formula: Formula, description: MoleculeTypeDescription) -> bool:
        referenced = formula.referenced_atom_types()
        if not referenced:
            return False  # unqualified or opaque predicates stay where they are
        root_bare = description.root.split("@", 1)[0]
        return all(name.split("@", 1)[0] == root_bare for name in referenced)

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, RestrictPlan):
            child = walk(node.child)
            if not isinstance(child, DefinePlan):
                return RestrictPlan(child, node.formula)
            pushed: List[Formula] = []
            kept: List[Formula] = []
            for conjunct in split_conjunction(node.formula):
                side = pushed if references_only_root(conjunct, child.description) else kept
                side.append(conjunct)
            if not pushed:
                return RestrictPlan(child, node.formula)
            applied.append("push_down_restriction")
            if child.root_filter is not None:
                pushed.insert(0, child.root_filter)
            define = DefinePlan(child.name, child.description, conjoin(pushed), child.root_access)
            return RestrictPlan(define, conjoin(kept)) if kept else define
        if isinstance(node, ProjectPlan):
            return ProjectPlan(walk(node.child), node.atom_type_names)
        if isinstance(node, AggregatePlan):
            return AggregatePlan(walk(node.child), node.group_by, node.aggregates)
        if isinstance(node, SetOpPlan):
            return SetOpPlan(node.operator, walk(node.left), walk(node.right), node.name)
        return node

    return RewriteResult(walk(plan), tuple(applied))


def prune_structure(plan: PlanNode) -> RewriteResult:
    """Remove atom types no projection, aggregate or restriction needs from the
    α structure.

    Only applies when the outermost operation of a query block is a projection
    or an aggregation (otherwise the full structure is part of the result and
    nothing may be dropped); under Γ the needed types are those of the group
    keys and the aggregate targets.  Set operations are pruned side by side —
    pruning never changes the post-projection structure, so union
    compatibility is preserved.  The pruned structure keeps every atom type
    on a root-to-needed-type path so it stays coherent.
    """
    if isinstance(plan, SetOpPlan):
        left = prune_structure(plan.left)
        right = prune_structure(plan.right)
        return RewriteResult(
            SetOpPlan(plan.operator, left.plan, right.plan, plan.name),
            left.applied_rules + right.applied_rules,
        )
    if isinstance(plan, ProjectPlan):
        needed: Set[str] = set(plan.atom_type_names)
    elif isinstance(plan, AggregatePlan):
        needed = {ref.atom_type for ref in plan.group_by if ref.atom_type}
        for spec in plan.aggregates:
            if spec.component is not None:
                needed.add(spec.component)
            elif spec.attribute is not None and spec.attribute.atom_type:
                needed.add(spec.attribute.atom_type)
    else:
        return RewriteResult(plan, ())

    def collect_restrictions(node: PlanNode) -> None:
        if isinstance(node, RestrictPlan):
            needed.update(node.formula.referenced_atom_types())
            collect_restrictions(node.child)
        elif isinstance(node, (ProjectPlan, AggregatePlan)):
            collect_restrictions(node.child)
        elif isinstance(node, DefinePlan) and node.root_filter is not None:
            needed.update(node.root_filter.referenced_atom_types())

    collect_restrictions(plan)
    applied: List[str] = []

    def prune_description(description: MoleculeTypeDescription) -> MoleculeTypeDescription:
        keep: Set[str] = {description.root}
        for target in needed:
            keep.update(description.paths_to(target))
        if keep >= set(description.atom_type_names):
            return description
        ordered = [name for name in description.atom_type_names if name in keep]
        applied.append("prune_structure")
        return description.projected(ordered)

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, DefinePlan):
            return DefinePlan(
                node.name, prune_description(node.description), node.root_filter, node.root_access
            )
        if isinstance(node, RestrictPlan):
            return RestrictPlan(walk(node.child), node.formula)
        if isinstance(node, ProjectPlan):
            return ProjectPlan(walk(node.child), node.atom_type_names)
        if isinstance(node, AggregatePlan):
            return AggregatePlan(walk(node.child), node.group_by, node.aggregates)
        return node

    return RewriteResult(walk(plan), tuple(applied))


def accelerate_recursion(plan: PlanNode, accelerators) -> RewriteResult:
    """Replace fixpoint recursion with an interval scan where an index exists.

    *accelerators* is the engine's
    :class:`~repro.storage.accelerators.AcceleratorStore` (or ``None``
    outside an engine).  The rule fires only for descriptions whose
    ``(atom type, link type, direction)`` key has been registered via
    ``CREATE STRUCTURE INDEX`` — the physical operator still falls back to
    the fixpoint loop per root when the index cannot answer coherently, so
    firing the rule never changes results.
    """
    applied: List[str] = []
    if accelerators is None:
        return RewriteResult(plan, ())

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, RecursivePlan) and accelerators.is_registered(node.description):
            applied.append("accelerate_recursion")
            return IntervalScanPlan(node.name, node.description, node.formula)
        if isinstance(node, RestrictPlan):
            return RestrictPlan(walk(node.child), node.formula)
        if isinstance(node, ProjectPlan):
            return ProjectPlan(walk(node.child), node.atom_type_names)
        if isinstance(node, AggregatePlan):
            return AggregatePlan(walk(node.child), node.group_by, node.aggregates)
        if isinstance(node, SetOpPlan):
            return SetOpPlan(node.operator, walk(node.left), walk(node.right), node.name)
        return node

    return RewriteResult(walk(plan), tuple(applied))


def _equality_attributes(formula: Formula, root_type: str) -> List[str]:
    """Root attributes bound by literal equality conjuncts of *formula*.

    Mirrors the scan's own conjunct extraction
    (:meth:`~repro.engine.physical.MoleculeScan._indexed_candidates`) so the
    access choice is costed on exactly the attributes the probe would use.
    """
    root_bare = root_type.split("@", 1)[0]
    attributes: List[str] = []
    for conjunct in split_conjunction(formula):
        if not isinstance(conjunct, Comparison) or conjunct.op not in ("=", "=="):
            continue
        if isinstance(conjunct.rhs, AttributeRef):
            continue
        lhs_type = conjunct.lhs.atom_type
        if lhs_type is not None and lhs_type.split("@", 1)[0] != root_bare:
            continue
        if conjunct.lhs.attribute not in attributes:
            attributes.append(conjunct.lhs.attribute)
    return attributes


def _lazy_cost_model(statistics):
    """A zero-argument callable returning a cost model over *statistics* (a
    :class:`~repro.optimizer.statistics.DatabaseStatistics` or a callable
    returning one), built on the first call: a rule that finds no candidate
    leaves the planner's statistics uncollected."""
    state: dict = {}

    def cost_model():
        if "model" not in state:
            from repro.optimizer.statistics import CostModel  # deferred: keeps import cost off the rule path

            stats = statistics() if callable(statistics) else statistics
            state["model"] = CostModel(stats)
        return state["model"]

    return cost_model


def choose_root_access(plan: PlanNode, statistics=None) -> RewriteResult:
    """Pin the costed grid-vs-hash access method on multi-equality α scans.

    *statistics* is a :class:`~repro.optimizer.statistics.DatabaseStatistics`
    or a zero-argument callable returning one (evaluated only when a
    candidate scan exists, preserving the planner's lazy collection).  The
    scan's built-in default is the composite grid probe, so the rule only
    reports firing when the cost model overturns it in favour of a hash
    bucket on the most selective attribute — either way the full root filter
    still post-checks every candidate, so the choice never affects results.
    """
    applied: List[str] = []
    if statistics is None:
        return RewriteResult(plan, ())
    cost_model = _lazy_cost_model(statistics)

    def decide(node: DefinePlan) -> DefinePlan:
        if node.root_access is not None or node.root_filter is None:
            return node
        attributes = _equality_attributes(node.root_filter, node.description.root)
        if len(attributes) < 2:
            return node  # single-attribute probes already use the hash index
        choice = cost_model().root_access_choice(node.description.root, attributes)
        if choice is None or choice[0][0] != "hash":
            return node  # the grid remains the scan's default
        applied.append("choose_root_access")
        return DefinePlan(node.name, node.description, node.root_filter, choice[0])

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, DefinePlan):
            return decide(node)
        if isinstance(node, RestrictPlan):
            return RestrictPlan(walk(node.child), node.formula)
        if isinstance(node, ProjectPlan):
            return ProjectPlan(walk(node.child), node.atom_type_names)
        if isinstance(node, AggregatePlan):
            return AggregatePlan(walk(node.child), node.group_by, node.aggregates)
        if isinstance(node, SetOpPlan):
            return SetOpPlan(node.operator, walk(node.left), walk(node.right), node.name)
        return node

    return RewriteResult(walk(plan), tuple(applied))


def _literal_conjunction(formula: Formula) -> "Optional[Tuple[Comparison, ...]]":
    """*formula* as simple literal comparisons, or ``None`` when ineligible."""
    conjuncts: List[Comparison] = []
    for conjunct in split_conjunction(formula):
        if not isinstance(conjunct, Comparison) or isinstance(conjunct.rhs, AttributeRef):
            return None
        conjuncts.append(conjunct)
    return tuple(conjuncts)


def _one_hop(node: AggregatePlan, statistics) -> Optional[Tuple[str, str]]:
    """``(link type, component type)`` when *node* is a Γ the columnar
    operator can fold over the one-hop α ``root - component`` below it.

    That is: one use from the root to a second, distinct type, neither
    renamed (a plain walk — its link type cannot be reflexive); group keys
    and attribute targets on the root, so every other target is ``COUNT(*)``
    or a component count.  An anonymous use names the one link type the
    statistics (*statistics()*, collected only then) know between the two
    types.
    """
    description = node.child.description
    root = description.root
    if len(description.atom_type_names) != 2 or len(description.directed_links) != 1:
        return None
    (use,) = description.directed_links
    component = use.target
    if use.source != root or component == root or "@" in root + component:
        return None
    attributes = [spec.attribute for spec in node.aggregates if spec.attribute is not None]
    if any(ref.atom_type != root for ref in (*node.group_by, *attributes)):
        return None
    link_type_name = use.link_type_name
    if not link_type_name or link_type_name == "-":
        link_type_name = statistics().link_between.get(frozenset((root, component)))
    return (link_type_name, component) if link_type_name else None


def columnarize_aggregate(plan: PlanNode, accelerators, statistics=None) -> RewriteResult:
    """Route an eligible Γ onto the columnar projection scan.

    *accelerators* is the engine's
    :class:`~repro.storage.accelerators.AcceleratorStore` (or ``None``
    outside an engine).  Eligible means: the Γ input is a bare α whose root filter is
    absent or a conjunction of literal comparisons — exactly what the
    columnar operator can evaluate column-wise — over either the root type
    alone or one hop to a component type (:func:`_one_hop`).  The hop needs
    *statistics* (as for :func:`choose_root_access`): the route is taken
    only when the cost model prices its pass over the link type below the
    row fold, which a selective root filter answered by an index beats.
    The operator re-checks coherence at execution time and falls back to
    the row path over the same (possibly pinned) view, so the rewrite is
    always result-preserving.
    """
    applied: List[str] = []
    if accelerators is None:
        return RewriteResult(plan, ())
    cost_model = _lazy_cost_model(statistics)

    def columnar_plan(node: AggregatePlan) -> Optional[ColumnarAggregatePlan]:
        child = node.child
        if not isinstance(child, DefinePlan):
            return None
        if child.root_filter is not None and _literal_conjunction(child.root_filter) is None:
            return None
        description = child.description
        hop = None
        if len(description.atom_type_names) != 1 or description.directed_links:
            if statistics is None:
                return None
            hop = _one_hop(node, lambda: cost_model().statistics)
            if hop is None:
                return None
        columnar_node = ColumnarAggregatePlan(
            description.root,
            node.group_by,
            node.aggregates,
            root_filter=child.root_filter,
            name=child.name,
            hop=hop,
        )
        if hop is not None and cost_model().estimate(columnar_node) > cost_model().estimate(node):
            return None
        return columnar_node

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, AggregatePlan):
            columnar_node = columnar_plan(node)
            if columnar_node is not None:
                applied.append("columnarize_aggregate")
                return columnar_node
            return AggregatePlan(walk(node.child), node.group_by, node.aggregates)
        if isinstance(node, RestrictPlan):
            return RestrictPlan(walk(node.child), node.formula)
        if isinstance(node, ProjectPlan):
            return ProjectPlan(walk(node.child), node.atom_type_names)
        if isinstance(node, SetOpPlan):
            return SetOpPlan(node.operator, walk(node.left), walk(node.right), node.name)
        return node

    return RewriteResult(walk(plan), tuple(applied))


def rewrite(plan: PlanNode, accelerators=None, statistics=None) -> RewriteResult:
    """Apply all rules in their canonical order: merge, push down, choose the
    root access method, prune, accelerate recursion, columnarize aggregates.

    A rule firing in several places (e.g. on both sides of a union) is
    reported once.
    """
    merged = merge_restrictions(plan)
    pushed = push_down_restriction(merged.plan)
    access = choose_root_access(pushed.plan, statistics)
    pruned = prune_structure(access.plan)
    accelerated = accelerate_recursion(pruned.plan, accelerators)
    columnarized = columnarize_aggregate(accelerated.plan, accelerators, statistics)
    applied = (
        merged.applied_rules
        + pushed.applied_rules
        + access.applied_rules
        + pruned.applied_rules
        + accelerated.applied_rules
        + columnarized.applied_rules
    )
    return RewriteResult(columnarized.plan, tuple(dict.fromkeys(applied)))
