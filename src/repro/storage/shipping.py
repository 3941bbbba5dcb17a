"""Deterministic wire codec for shipping compiled plans between processes.

The process-pool executor (:mod:`repro.engine.procpool`) runs compiled
logical plans in worker processes seeded from the primary's checkpoint image
and WAL tail.  Everything that crosses the pipe goes through this module:

* **plans** — the read-only logical plan IR (α/Σ/Π/Ω/Δ/Ψ, recursive and
  columnar variants) with its predicate trees, descriptions and aggregate
  specs;
* **results** — molecule result sets (as their canonical
  ``to_nested_dict()`` renderings) and aggregate row sets.

Determinism is a contract, not an accident: every payload serializes via
``json.dumps(sort_keys=True, separators=(",", ":"))`` on top of the WAL's
:func:`~repro.storage.wal.encode_value` value codec (which already renders
sets in sorted-repr order), so encode → decode → encode is byte-identical.
That is what lets tests fingerprint shipped results against serial
execution, and what keeps a re-shipped plan hitting the same worker-side
bytes every time.

Opaque predicates (:class:`~repro.core.predicates.PredicateFormula` wraps an
arbitrary Python callable) cannot be shipped; the codec raises
:class:`ShippingError` and the router falls back to primary-side execution.
Write plans are refused for the same reason workers are read-only replicas.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.core.molecule import MoleculeTypeDescription
from repro.core.predicates import (
    And,
    AttributeRef,
    Comparison,
    FalseFormula,
    Formula,
    Not,
    Or,
    PredicateFormula,
    TrueFormula,
)
from repro.core.recursion import RecursiveDescription
from repro.engine.logical import (
    AggregatePlan,
    AggregateSpec,
    ColumnarAggregatePlan,
    DefinePlan,
    IntervalScanPlan,
    PlanNode,
    ProjectPlan,
    RecursivePlan,
    RestrictPlan,
    SetOpPlan,
)
from repro.exceptions import StorageError
from repro.storage.wal import decode_value, encode_value


class ShippingError(StorageError):
    """A plan or value cannot cross the process boundary deterministically."""


# ------------------------------------------------------------------ formulas


def encode_formula(formula: Optional[Formula]) -> Optional[Dict[str, object]]:
    """Encode a predicate tree as tagged JSON-safe dicts."""
    if formula is None:
        return None
    if isinstance(formula, TrueFormula):
        return {"k": "true"}
    if isinstance(formula, FalseFormula):
        return {"k": "false"}
    if isinstance(formula, Comparison):
        rhs: Dict[str, object]
        if isinstance(formula.rhs, AttributeRef):
            rhs = _encode_ref(formula.rhs)
        else:
            rhs = {"k": "const", "v": encode_value(formula.rhs)}
        return {"k": "cmp", "l": _encode_ref(formula.lhs), "op": formula.op, "r": rhs}
    if isinstance(formula, And):
        return {"k": "and", "ops": [encode_formula(op) for op in formula.operands]}
    if isinstance(formula, Or):
        return {"k": "or", "ops": [encode_formula(op) for op in formula.operands]}
    if isinstance(formula, Not):
        return {"k": "not", "op": encode_formula(formula.operand)}
    if isinstance(formula, PredicateFormula):
        raise ShippingError(
            f"cannot ship opaque predicate {formula!r}: PredicateFormula wraps "
            "an arbitrary callable — execute on the primary instead"
        )
    raise ShippingError(f"cannot ship unknown formula type {type(formula).__name__}")


def decode_formula(payload: Optional[Dict[str, object]]) -> Optional[Formula]:
    if payload is None:
        return None
    kind = payload["k"]
    if kind == "true":
        return TrueFormula()
    if kind == "false":
        return FalseFormula()
    if kind == "cmp":
        rhs_payload = payload["r"]
        if rhs_payload["k"] == "ref":
            rhs: object = _decode_ref(rhs_payload)
        else:
            rhs = decode_value(rhs_payload["v"])
        return Comparison(_decode_ref(payload["l"]), payload["op"], rhs)
    if kind == "and":
        return And(*[decode_formula(op) for op in payload["ops"]])
    if kind == "or":
        return Or(*[decode_formula(op) for op in payload["ops"]])
    if kind == "not":
        return Not(decode_formula(payload["op"]))
    raise ShippingError(f"cannot decode unknown formula tag {kind!r}")


def _encode_ref(ref: AttributeRef) -> Dict[str, object]:
    return {"k": "ref", "a": ref.attribute, "t": ref.atom_type}


def _decode_ref(payload: Dict[str, object]) -> AttributeRef:
    return AttributeRef(payload["a"], payload["t"])


# -------------------------------------------------------------- descriptions


def _encode_description(description: MoleculeTypeDescription) -> Dict[str, object]:
    return {
        "names": list(description.atom_type_names),
        "links": [
            [dl.link_type_name, dl.source, dl.target]
            for dl in description.directed_links
        ],
    }


def _decode_description(payload: Dict[str, object]) -> MoleculeTypeDescription:
    return MoleculeTypeDescription(
        payload["names"], [tuple(entry) for entry in payload["links"]]
    )


def _encode_recursive(description: RecursiveDescription) -> Dict[str, object]:
    return {
        "atom": description.atom_type_name,
        "link": description.link_type_name,
        "dir": description.direction,
        "depth": description.max_depth,
    }


def _decode_recursive(payload: Dict[str, object]) -> RecursiveDescription:
    return RecursiveDescription(
        payload["atom"], payload["link"], payload["dir"], payload["depth"]
    )


def _encode_spec(spec: AggregateSpec) -> Dict[str, object]:
    return {
        "func": spec.func,
        "attr": _encode_ref(spec.attribute) if spec.attribute is not None else None,
        "component": spec.component,
        "output": spec.output,
        "distinct": spec.distinct,
    }


def _decode_spec(payload: Dict[str, object]) -> AggregateSpec:
    attr = payload["attr"]
    return AggregateSpec(
        payload["func"],
        attribute=_decode_ref(attr) if attr is not None else None,
        component=payload["component"],
        output=payload["output"],
        distinct=payload["distinct"],
    )


# -------------------------------------------------------------------- plans


def encode_plan(plan: PlanNode) -> Dict[str, object]:
    """Encode a read-only logical plan as tagged JSON-safe dicts.

    Raises :class:`ShippingError` on write nodes and on plans carrying
    opaque predicates.
    """
    if isinstance(plan, DefinePlan):
        return {
            "k": "define",
            "name": plan.name,
            "d": _encode_description(plan.description),
            "f": encode_formula(plan.root_filter),
            "access": list(plan.root_access) if plan.root_access is not None else None,
        }
    if isinstance(plan, RestrictPlan):
        return {"k": "restrict", "c": encode_plan(plan.child), "f": encode_formula(plan.formula)}
    if isinstance(plan, ProjectPlan):
        return {
            "k": "project",
            "c": encode_plan(plan.child),
            "names": list(plan.atom_type_names),
        }
    if isinstance(plan, (RecursivePlan, IntervalScanPlan)):
        return {
            "k": "interval" if isinstance(plan, IntervalScanPlan) else "recursive",
            "name": plan.name,
            "d": _encode_recursive(plan.description),
            "f": encode_formula(plan.formula),
        }
    if isinstance(plan, SetOpPlan):
        return {
            "k": "setop",
            "op": plan.operator,
            "l": encode_plan(plan.left),
            "r": encode_plan(plan.right),
            "name": plan.name,
        }
    if isinstance(plan, AggregatePlan):
        return {
            "k": "aggregate",
            "c": encode_plan(plan.child),
            "by": [_encode_ref(ref) for ref in plan.group_by],
            "specs": [_encode_spec(spec) for spec in plan.aggregates],
        }
    if isinstance(plan, ColumnarAggregatePlan):
        return {
            "k": "columnar",
            "atom": plan.atom_type_name,
            "by": [_encode_ref(ref) for ref in plan.group_by],
            "specs": [_encode_spec(spec) for spec in plan.aggregates],
            "f": encode_formula(plan.root_filter),
            "name": plan.name,
            "hop": list(plan.hop) if plan.hop is not None else None,
        }
    raise ShippingError(
        f"cannot ship plan node {type(plan).__name__}: only read-only plans "
        "travel to worker processes"
    )


def decode_plan(payload: Dict[str, object]) -> PlanNode:
    kind = payload["k"]
    if kind == "define":
        access = payload["access"]
        return DefinePlan(
            payload["name"],
            _decode_description(payload["d"]),
            root_filter=decode_formula(payload["f"]),
            root_access=tuple(access) if access is not None else None,
        )
    if kind == "restrict":
        return RestrictPlan(decode_plan(payload["c"]), decode_formula(payload["f"]))
    if kind == "project":
        return ProjectPlan(decode_plan(payload["c"]), tuple(payload["names"]))
    if kind in ("recursive", "interval"):
        node = RecursivePlan if kind == "recursive" else IntervalScanPlan
        return node(
            payload["name"],
            _decode_recursive(payload["d"]),
            formula=decode_formula(payload["f"]),
        )
    if kind == "setop":
        return SetOpPlan(
            payload["op"],
            decode_plan(payload["l"]),
            decode_plan(payload["r"]),
            name=payload["name"],
        )
    if kind == "aggregate":
        return AggregatePlan(
            decode_plan(payload["c"]),
            tuple(_decode_ref(ref) for ref in payload["by"]),
            tuple(_decode_spec(spec) for spec in payload["specs"]),
        )
    if kind == "columnar":
        hop = payload["hop"]
        return ColumnarAggregatePlan(
            payload["atom"],
            tuple(_decode_ref(ref) for ref in payload["by"]),
            tuple(_decode_spec(spec) for spec in payload["specs"]),
            root_filter=decode_formula(payload["f"]),
            name=payload["name"],
            hop=tuple(hop) if hop is not None else None,
        )
    raise ShippingError(f"cannot decode unknown plan tag {kind!r}")


def plan_to_json(plan: PlanNode) -> str:
    """The canonical wire form: sorted keys, no whitespace — byte-stable."""
    return json.dumps(encode_plan(plan), sort_keys=True, separators=(",", ":"))


def plan_from_json(payload: str) -> PlanNode:
    return decode_plan(json.loads(payload))


# ------------------------------------------------------------------- results


def encode_molecule_result(molecules) -> Dict[str, object]:
    """Encode a molecule result set as canonical nested-dict renderings.

    ``to_nested_dict`` already orders siblings by identifier, so the per-
    molecule rendering is canonical; list order is the worker's scan order.
    """
    return {
        "kind": "molecules",
        "dicts": [encode_value(molecule.to_nested_dict()) for molecule in molecules],
    }


def encode_row_result(columns: Tuple[str, ...], rows) -> Dict[str, object]:
    return {
        "kind": "rows",
        "columns": list(columns),
        "rows": [[encode_value(value) for value in row] for row in rows],
    }


class ShippedQueryResult:
    """A query result that crossed the process boundary.

    Quacks like :class:`repro.mql.interpreter.QueryResult` for read-side
    consumers: ``to_dicts()``, ``columns``/``rows``, ``len()`` and iteration
    over the nested-dict molecule renderings.  (There is no live database
    behind it — molecule objects stay in the worker; what travels is their
    canonical rendering, which is also what byte-parity is defined over.)
    """

    def __init__(
        self,
        statement: str,
        dicts: Optional[List[dict]] = None,
        columns: Optional[Tuple[str, ...]] = None,
        rows: Optional[Tuple[Tuple, ...]] = None,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.statement = statement
        self._dicts = dicts
        self.columns = columns
        self.rows = rows
        self.counters = dict(counters or {})

    @classmethod
    def from_payload(cls, statement: str, payload: Dict[str, object]) -> "ShippedQueryResult":
        counters = payload.get("counters")
        if payload["kind"] == "rows":
            return cls(
                statement,
                columns=tuple(payload["columns"]),
                rows=tuple(
                    tuple(decode_value(value) for value in row)
                    for row in payload["rows"]
                ),
                counters=counters,
            )
        return cls(
            statement,
            dicts=[decode_value(entry) for entry in payload["dicts"]],
            counters=counters,
        )

    def to_dicts(self) -> List[dict]:
        if self.rows is not None:
            return [dict(zip(self.columns or (), row)) for row in self.rows]
        return list(self._dicts or [])

    def __len__(self) -> int:
        if self.rows is not None:
            return len(self.rows)
        return len(self._dicts or [])

    def __iter__(self):
        return iter(self.to_dicts())

    def __repr__(self) -> str:
        shape = (
            f"{len(self.rows)} rows" if self.rows is not None else f"{len(self)} molecules"
        )
        return f"ShippedQueryResult({self.statement!r}, {shape})"
