"""The streaming plan pipeline: logical plan IR → physical operators → executor.

This package is the shared spine between the MQL front-end, the optimizer and
the storage layer (the ROADMAP's "one cost-planned, iterator-style pipeline"):

* :mod:`repro.engine.logical` — the plan IR produced by the MQL translator
  and rewritten/costed by the optimizer;
* :mod:`repro.engine.physical` — pull-based, generator-backed operators with
  work counters, secondary-index root access and link-incidence traversal;
* :mod:`repro.engine.executor` — compilation of logical plans onto physical
  operators, plus the :class:`Executor` that binds a database and its access
  structures.

The molecule-algebra functions of :mod:`repro.core.molecule_algebra` are thin
wrappers over single-node plans from this package, so the closure theorems
(Thms. 2–3) hold verbatim for the materializing algebra while MQL statements
run through the streaming pipeline.
"""

from repro.engine.executor import (
    ExecutionResult,
    Executor,
    WriteExecutionResult,
    compile_plan,
    compile_write_plan,
    run_plan,
)
from repro.engine.logical import (
    DefinePlan,
    DeleteMolecules,
    InsertMolecule,
    ModifyAtoms,
    PlanNode,
    ProjectPlan,
    RecursivePlan,
    RestrictPlan,
    SetOpPlan,
    WritePlanNode,
    canonical_structure,
    describe_plan,
    plan_description,
    plan_name,
)
from repro.engine.physical import (
    Difference,
    ExecutionContext,
    ExecutionCounters,
    IndexPool,
    Intersection,
    MoleculeScan,
    MoleculeSource,
    PhysicalOperator,
    Project,
    RecursiveScan,
    Restrict,
    Union,
    molecule_value_key,
)
from repro.engine.write import (
    DeleteMoleculesOp,
    InsertMoleculeOp,
    ModifyAtomsOp,
    WriteOperator,
    WriteSummary,
)

__all__ = [
    "DefinePlan",
    "DeleteMolecules",
    "DeleteMoleculesOp",
    "Difference",
    "InsertMolecule",
    "InsertMoleculeOp",
    "ModifyAtoms",
    "ModifyAtomsOp",
    "ExecutionContext",
    "ExecutionCounters",
    "ExecutionResult",
    "Executor",
    "IndexPool",
    "Intersection",
    "MoleculeScan",
    "MoleculeSource",
    "PhysicalOperator",
    "PlanNode",
    "Project",
    "ProjectPlan",
    "RecursivePlan",
    "RecursiveScan",
    "Restrict",
    "RestrictPlan",
    "SetOpPlan",
    "Union",
    "WriteExecutionResult",
    "WriteOperator",
    "WritePlanNode",
    "WriteSummary",
    "canonical_structure",
    "compile_plan",
    "compile_write_plan",
    "describe_plan",
    "molecule_value_key",
    "plan_description",
    "plan_name",
    "run_plan",
]
