"""The logical plan IR shared by MQL translation and the optimizer.

A logical plan is a small tree of algebra operations — the "sound basis to
express the semantics" of MQL made explicit.  The same node types serve three
consumers:

* :class:`~repro.mql.translator.QueryTranslator` produces a literal plan from
  an MQL statement (α for the FROM clause, Σ for WHERE, Π for SELECT, Ω/Δ/Ψ
  for set operations between query blocks);
* :mod:`repro.optimizer.rules` rewrites plans (restriction push-down,
  structure pruning, restriction merging) and
  :mod:`repro.optimizer.statistics` costs them;
* :mod:`repro.engine.executor` compiles plans into the pull-based physical
  operators of :mod:`repro.engine.physical`.

Node types:

* :class:`DefinePlan` — the molecule-type definition α, optionally with a
  *root filter*: a qualification evaluated on root atoms **before** molecule
  derivation (the result of restriction push-down);
* :class:`RestrictPlan` — the molecule-type restriction Σ;
* :class:`ProjectPlan` — the molecule-type projection Π;
* :class:`RecursivePlan` — a recursive molecule-type definition (§5 outlook),
  optionally restricted;
* :class:`SetOpPlan` — Ω (UNION), Δ (DIFFERENCE) or the derived Ψ (INTERSECT)
  between two sub-plans.

DML statements compile to **write plans** — a write node on top of an
ordinary read plan, so the planner optimizes the qualifying read exactly like
a query:

* :class:`InsertMolecule` — ι: insert one complex object (nested data)
  following a molecule-type description;
* :class:`DeleteMolecules` — δ: delete every molecule streamed by the
  *source* read plan (shared subobjects survive unless *cascade*);
* :class:`ModifyAtoms` — μ: update the attributes of the target atom type's
  atoms within every molecule streamed by the *source* read plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.molecule import MoleculeTypeDescription
from repro.core.predicates import AttributeRef, Formula
from repro.core.recursion import RecursiveDescription
from repro.exceptions import MoleculeGraphError


@dataclass(frozen=True)
class DefinePlan:
    """α — molecule-type definition, optionally pre-filtering the root atoms.

    *root_access* is the planner's costed choice of access path for the root
    filter's equality conjuncts: ``None`` leaves the scan operator to its
    default (grid preferred when the attribute pair matches),
    ``("grid", attr, ...)`` forces the grid file, ``("hash", attr, ...)``
    forces per-attribute hash lookups over the named attributes.
    """

    name: str
    description: MoleculeTypeDescription
    root_filter: Optional[Formula] = None
    root_access: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class RestrictPlan:
    """Σ — molecule-type restriction applied to a child plan's result."""

    child: "PlanNode"
    formula: Formula


@dataclass(frozen=True)
class ProjectPlan:
    """Π — molecule-type projection applied to a child plan's result."""

    child: "PlanNode"
    atom_type_names: Tuple[str, ...]


@dataclass(frozen=True)
class RecursivePlan:
    """α_rec — recursive molecule-type definition, optionally restricted."""

    name: str
    description: RecursiveDescription
    formula: Optional[Formula] = None


@dataclass(frozen=True)
class IntervalScanPlan:
    """α_rec accelerated — a recursive definition answered by the structure
    index (interval range scans / compact-adjacency sweeps) instead of the
    fixpoint loop.  Result-equivalent to the :class:`RecursivePlan` it
    replaces; produced only by the optimizer's ``accelerate_recursion`` rule.
    """

    name: str
    description: RecursiveDescription
    formula: Optional[Formula] = None


@dataclass(frozen=True)
class SetOpPlan:
    """Ω / Δ / Ψ between two sub-plans (operator: UNION | DIFFERENCE | INTERSECT)."""

    operator: str
    left: "PlanNode"
    right: "PlanNode"
    name: Optional[str] = None


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a Γ node: ``func`` over an attribute or a component.

    Exactly one of the targets is set: *attribute* (a resolved atom-attribute
    reference — SUM/MIN/MAX/AVG/COUNT over its non-NULL values), *component*
    (a molecule component type — COUNT of its distinct atoms per group), or
    neither (``COUNT(*)`` — molecules per group).  *distinct* marks
    ``COUNT(DISTINCT attr)``: the accumulator then keeps a set of observed
    values instead of a per-atom value map.  *output* is the column name in
    the result rows.
    """

    func: str
    attribute: Optional[AttributeRef] = None
    component: Optional[str] = None
    output: str = ""
    distinct: bool = False


@dataclass(frozen=True)
class AggregatePlan:
    """Γ — grouped aggregation over a child plan's molecule stream.

    *group_by* keys always reference the root atom type (one molecule = one
    root atom, so root attributes partition the stream unambiguously).
    """

    child: "PlanNode"
    group_by: Tuple[AttributeRef, ...]
    aggregates: Tuple[AggregateSpec, ...]


@dataclass(frozen=True)
class ColumnarAggregatePlan:
    """Γ_col — aggregation answered from the columnar projection.

    Result-equivalent to the :class:`AggregatePlan` it replaces; produced
    only by the optimizer's ``columnarize_aggregate`` rule.  The Γ input is
    the root type alone or, with *hop* ``(link type, component type)``, the
    one-hop α ``root - component``: component counts then come from one pass
    over the link type's occurrence.  The physical operator falls back to
    the row path when the MVCC gate refuses the columnar arrays for the
    executing snapshot.
    """

    atom_type_name: str
    group_by: Tuple[AttributeRef, ...]
    aggregates: Tuple[AggregateSpec, ...]
    root_filter: Optional[Formula] = None
    name: str = ""
    hop: Optional[Tuple[str, str]] = None


def columnar_description(
    atom_type_name: str, hop: Optional[Tuple[str, str]]
) -> MoleculeTypeDescription:
    """The molecule structure of a columnar Γ over *atom_type_name* and *hop*."""
    if hop is None:
        return MoleculeTypeDescription([atom_type_name], [])
    link_type_name, component = hop
    return MoleculeTypeDescription(
        [atom_type_name, component], [(link_type_name, atom_type_name, component)]
    )


PlanNode = Union[
    DefinePlan,
    RestrictPlan,
    ProjectPlan,
    RecursivePlan,
    IntervalScanPlan,
    SetOpPlan,
    AggregatePlan,
    ColumnarAggregatePlan,
]


@dataclass(frozen=True, eq=False)
class InsertMolecule:
    """ι — insert one complex object following a molecule-type description.

    *data* is the nested-dictionary form also accepted by the manipulation
    facilities: top-level keys are root attributes, child atom-type names map
    to nested objects (or lists of them), ``"_id"`` references an existing
    atom to create a shared subobject.
    """

    name: str
    description: MoleculeTypeDescription
    data: Mapping[str, object]


@dataclass(frozen=True, eq=False)
class DeleteMolecules:
    """δ — delete every molecule produced by the qualifying read *source*.

    Without *cascade* only atoms exclusive to a deleted molecule are removed
    (shared subobjects survive); with *cascade* every component atom goes.
    """

    source: PlanNode
    cascade: bool = False


@dataclass(frozen=True, eq=False)
class ModifyAtoms:
    """μ — update attributes of *atom_type_name* atoms in qualifying molecules.

    *updates* is an ordered tuple of ``(attribute, value)`` pairs applied to
    every atom of the target type occurring in a molecule streamed by
    *source*; atom identity (and hence every link) is preserved.
    """

    source: PlanNode
    atom_type_name: str
    updates: Tuple[Tuple[str, object], ...]


WritePlanNode = Union[InsertMolecule, DeleteMolecules, ModifyAtoms]

SET_OPERATION_SYMBOLS = {"UNION": "Ω", "DIFFERENCE": "Δ", "INTERSECT": "Ψ"}


def describe_plan(plan: PlanNode, indent: str = "") -> str:
    """Render a plan as an indented, human-readable algebra expression."""
    if isinstance(plan, DefinePlan):
        suffix = f" [root filter: {plan.root_filter!r}]" if plan.root_filter is not None else ""
        if plan.root_access is not None:
            suffix += f" [access: {plan.root_access[0]}({', '.join(plan.root_access[1:])})]"
        return f"{indent}α {plan.name}({', '.join(plan.description.atom_type_names)}){suffix}"
    if isinstance(plan, RestrictPlan):
        return f"{indent}Σ [{plan.formula!r}]\n" + describe_plan(plan.child, indent + "  ")
    if isinstance(plan, ProjectPlan):
        return (
            f"{indent}Π [{', '.join(plan.atom_type_names)}]\n"
            + describe_plan(plan.child, indent + "  ")
        )
    if isinstance(plan, RecursivePlan):
        suffix = f" [restr: {plan.formula!r}]" if plan.formula is not None else ""
        return (
            f"{indent}α_rec {plan.name}[{plan.description.atom_type_name} via "
            f"{plan.description.link_type_name} {plan.description.direction}]{suffix}"
        )
    if isinstance(plan, IntervalScanPlan):
        suffix = f" [restr: {plan.formula!r}]" if plan.formula is not None else ""
        return (
            f"{indent}α_rec {plan.name}[{plan.description.atom_type_name} via "
            f"{plan.description.link_type_name} {plan.description.direction}, "
            f"interval scan]{suffix}"
        )
    if isinstance(plan, SetOpPlan):
        symbol = SET_OPERATION_SYMBOLS[plan.operator]
        return (
            f"{indent}{symbol} ({plan.operator.lower()})\n"
            + describe_plan(plan.left, indent + "  ")
            + "\n"
            + describe_plan(plan.right, indent + "  ")
        )
    if isinstance(plan, AggregatePlan):
        keys = ", ".join(repr(key) for key in plan.group_by)
        aggs = ", ".join(spec.output for spec in plan.aggregates)
        header = f"{indent}Γ [{aggs}]"
        if keys:
            header += f" group by [{keys}]"
        return header + "\n" + describe_plan(plan.child, indent + "  ")
    if isinstance(plan, ColumnarAggregatePlan):
        keys = ", ".join(repr(key) for key in plan.group_by)
        aggs = ", ".join(spec.output for spec in plan.aggregates)
        header = f"{indent}Γ_col [{aggs}]"
        if keys:
            header += f" group by [{keys}]"
        header += f" over {plan.atom_type_name}"
        if plan.hop is not None:
            header += f" + links {plan.hop[0]}"
        if plan.root_filter is not None:
            header += f" [root filter: {plan.root_filter!r}]"
        return header
    if isinstance(plan, InsertMolecule):
        return (
            f"{indent}ι insert {plan.name}"
            f"({', '.join(plan.description.atom_type_names)})"
        )
    if isinstance(plan, DeleteMolecules):
        suffix = " [cascade]" if plan.cascade else ""
        return f"{indent}δ delete{suffix}\n" + describe_plan(plan.source, indent + "  ")
    if isinstance(plan, ModifyAtoms):
        assignments = ", ".join(f"{attr} = {value!r}" for attr, value in plan.updates)
        return (
            f"{indent}μ modify {plan.atom_type_name} [{assignments}]\n"
            + describe_plan(plan.source, indent + "  ")
        )
    raise TypeError(f"unknown plan node: {plan!r}")


def plan_description(plan: PlanNode) -> MoleculeTypeDescription:
    """Return the molecule-type description a plan ultimately derives from.

    For Σ/Π chains this descends to the defining α; for set operations the
    left operand is representative (union compatibility makes both sides
    structurally identical).
    """
    if isinstance(plan, DefinePlan):
        return plan.description
    if isinstance(plan, (RecursivePlan, IntervalScanPlan)):
        return MoleculeTypeDescription([plan.description.atom_type_name], [])
    if isinstance(plan, ColumnarAggregatePlan):
        return columnar_description(plan.atom_type_name, plan.hop)
    if isinstance(plan, SetOpPlan):
        return plan_description(plan.left)
    return plan_description(plan.child)


def plan_name(plan: PlanNode) -> str:
    """The name of a plan's result molecule type (inherited through Σ and Π)."""
    if isinstance(plan, (DefinePlan, RecursivePlan, IntervalScanPlan)):
        return plan.name
    if isinstance(plan, ColumnarAggregatePlan):
        return plan.name
    if isinstance(plan, SetOpPlan):
        if plan.name is not None:
            return plan.name
        return f"{plan.operator.lower()}({plan_name(plan.left)},{plan_name(plan.right)})"
    return plan_name(plan.child)


def resolve_projection_names(
    description: MoleculeTypeDescription,
    atom_type_names: Sequence[str],
    owner: Optional[str] = None,
) -> Tuple[str, ...]:
    """Resolve projection names against *description*, accepting bare names.

    Propagated atom types carry decorated names ("state@mt$3"); a projection
    may reference them by the original bare name.  Unknown names raise
    :class:`MoleculeGraphError` exactly like molecule-type projection does;
    *owner* (the projected type's name) is included in the message when known.
    """
    resolved: List[str] = []
    for requested in atom_type_names:
        match = None
        for present in description.atom_type_names:
            if present == requested or present.split("@", 1)[0] == requested:
                match = present
                break
        if match is None:
            subject = (
                f"molecule type {owner!r}" if owner else "the plan's molecule structure"
            )
            raise MoleculeGraphError(f"atom type {requested!r} is not part of {subject}")
        resolved.append(match)
    return tuple(resolved)


def _same(value):
    return value


def map_plan(
    plan: PlanNode,
    formula: Callable[[Formula], Formula] = _same,
    description: Callable[[MoleculeTypeDescription], MoleculeTypeDescription] = _same,
) -> PlanNode:
    """*plan* rebuilt with *formula* applied to every formula it carries
    (root filters, restrictions, recursive restrictions) and *description*
    to the molecule-type description of every α; every other field is
    shared with *plan*, and a node nothing changed in is *plan*'s own."""
    if isinstance(plan, DefinePlan):
        root_filter = plan.root_filter
        mapped = description(plan.description)
        if root_filter is None and mapped is plan.description:
            return plan
        return DefinePlan(
            plan.name,
            mapped,
            formula(root_filter) if root_filter is not None else None,
            plan.root_access,
        )
    if isinstance(plan, RestrictPlan):
        return RestrictPlan(map_plan(plan.child, formula, description), formula(plan.formula))
    if isinstance(plan, ProjectPlan):
        return ProjectPlan(map_plan(plan.child, formula, description), plan.atom_type_names)
    if isinstance(plan, (RecursivePlan, IntervalScanPlan)):
        if plan.formula is None:
            return plan
        return type(plan)(plan.name, plan.description, formula(plan.formula))
    if isinstance(plan, SetOpPlan):
        return SetOpPlan(
            plan.operator,
            map_plan(plan.left, formula, description),
            map_plan(plan.right, formula, description),
            plan.name,
        )
    if isinstance(plan, AggregatePlan):
        return AggregatePlan(
            map_plan(plan.child, formula, description),
            plan.group_by,
            plan.aggregates,
        )
    if isinstance(plan, ColumnarAggregatePlan):
        if plan.root_filter is None:
            return plan
        return ColumnarAggregatePlan(
            plan.atom_type_name,
            plan.group_by,
            plan.aggregates,
            formula(plan.root_filter),
            plan.name,
            plan.hop,
        )
    raise TypeError(f"unknown plan node: {plan!r}")


def recursive_nodes(
    plan: "PlanNode | WritePlanNode",
) -> Tuple[Union[RecursivePlan, IntervalScanPlan], ...]:
    """Every recursive node (fixpoint or accelerated) in *plan*, pre-order."""
    found: List[Union[RecursivePlan, IntervalScanPlan]] = []

    def walk(node) -> None:
        if isinstance(node, (RecursivePlan, IntervalScanPlan)):
            found.append(node)
        elif isinstance(node, (RestrictPlan, ProjectPlan, AggregatePlan)):
            walk(node.child)
        elif isinstance(node, SetOpPlan):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, (DeleteMolecules, ModifyAtoms)):
            walk(node.source)

    walk(plan)
    return tuple(found)


def canonical_structure(description: MoleculeTypeDescription) -> Tuple[FrozenSet, FrozenSet]:
    """Structure signature modulo propagation renaming (union compatibility)."""
    strip = lambda name: name.split("@", 1)[0]  # noqa: E731 - tiny local helper
    nodes = frozenset(strip(name) for name in description.atom_type_names)
    edges = frozenset(
        (dl.link_type_name.split("~", 1)[0], strip(dl.source), strip(dl.target))
        for dl in description.directed_links
    )
    return (nodes, edges)
