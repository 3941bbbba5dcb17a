"""Executor/algebra parity: the planned streaming pipeline must return the
molecule sets of the literal α → Σ → Π algebra (``reference.literal``).

The streaming executor never materializes intermediate results, while the
literal algebra propagates every operation's result set into an enlarged
database (Definitions 8–10).  Propagation renames atom types, so molecules
are compared by *value*: root-atom identifier plus the set of component atom
identifiers — exactly the molecule identity the set operations use.

Covers the geography database (restrictions on root and leaf types,
projections, set operations) and the bill-of-materials database (recursive
queries, with and without WHERE and depth bounds), plus property-style sweeps
over restriction thresholds.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets.bill_of_materials import build_bill_of_materials
from repro.datasets.geography import load_geography
from repro.mql import execute

from reference import literal

GEOGRAPHY_STATEMENTS = [
    "SELECT ALL FROM mt_state(state-area-edge-point);",
    "SELECT ALL FROM state-area WHERE state.hectare > 800;",
    "SELECT ALL FROM state-area WHERE hectare > 700 AND state.code != 'BA';",
    "SELECT state, area FROM mt_state(state-area-edge-point);",
    "SELECT state, area FROM mt_state(state-area-edge-point) WHERE state.hectare > 700;",
    "SELECT ALL FROM point-edge-(area-state,net-river) WHERE point.name = 'pn';",
    "SELECT ALL FROM river-net-edge WHERE river.length > 2000;",
    "SELECT ALL FROM state-area WHERE state.hectare > 800 "
    "UNION SELECT ALL FROM state-area WHERE state.code = 'SP';",
    "SELECT ALL FROM state-area DIFFERENCE SELECT ALL FROM state-area WHERE state.hectare > 800;",
    "SELECT ALL FROM state-area WHERE state.hectare > 800 "
    "INTERSECT SELECT ALL FROM state-area WHERE state.code = 'MG';",
]

BOM_STATEMENTS = [
    "SELECT ALL FROM RECURSIVE part [composition] DOWN;",
    "SELECT ALL FROM RECURSIVE part [composition] DOWN WHERE part.level = 0;",
    "SELECT ALL FROM RECURSIVE part [composition] UP;",
    "SELECT ALL FROM RECURSIVE part [composition] DOWN 2;",
    "SELECT ALL FROM RECURSIVE part DOWN;",
]


def molecule_set(result):
    """Value-based identity of a result: root id plus component ids per molecule."""
    return {(m.root_atom.identifier, frozenset(m.atom_identifiers)) for m in result}


@pytest.fixture(scope="module")
def geo_db_module():
    return load_geography()


@pytest.fixture(scope="module")
def bom_db():
    return build_bill_of_materials(depth=4, fan_out=3, share_every=3, n_roots=2)


@pytest.mark.parametrize("statement", GEOGRAPHY_STATEMENTS)
def test_geography_parity(geo_db_module, statement):
    planned = execute(geo_db_module, statement)
    reference = literal(geo_db_module, statement)
    assert molecule_set(planned) == molecule_set(reference)


@pytest.mark.parametrize("statement", BOM_STATEMENTS)
def test_bom_recursive_parity(bom_db, statement):
    planned = execute(bom_db, statement)
    reference = literal(bom_db, statement)
    assert molecule_set(planned) == molecule_set(reference)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(threshold=st.integers(min_value=0, max_value=1200))
def test_root_restriction_parity_for_all_thresholds(geo_db_module, threshold):
    statement = f"SELECT ALL FROM state-area-edge-point WHERE state.hectare > {threshold};"
    planned = execute(geo_db_module, statement)
    reference = literal(geo_db_module, statement)
    assert molecule_set(planned) == molecule_set(reference)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(threshold=st.integers(min_value=0, max_value=12), direction=st.sampled_from(["DOWN", "UP"]))
def test_recursive_level_restriction_parity(bom_db, threshold, direction):
    statement = (
        f"SELECT ALL FROM RECURSIVE part [composition] {direction} "
        f"WHERE part.level < {threshold};"
    )
    planned = execute(bom_db, statement)
    reference = literal(bom_db, statement)
    assert molecule_set(planned) == molecule_set(reference)


def test_projection_parity_projects_identically(geo_db_module):
    statement = "SELECT state, area FROM mt_state(state-area-edge-point) WHERE state.hectare > 700;"
    planned = execute(geo_db_module, statement)
    reference = literal(geo_db_module, statement)
    # Besides identical molecule sets, both must cut molecules to the same
    # per-molecule size (one state plus one area).
    assert sorted(len(m) for m in planned) == sorted(len(m) for m in reference)
    assert all(len(m) == 2 for m in planned)


def test_planned_path_reports_work_and_plan(geo_db_module):
    result = execute(geo_db_module, "SELECT ALL FROM state-area WHERE state.hectare > 800;")
    assert result.counters is not None
    assert result.counters.molecules_derived >= len(result)
    assert result.plan_choice is not None
