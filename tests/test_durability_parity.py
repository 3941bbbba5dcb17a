"""Durability parity: every E-MQL example query survives a WAL round trip.

Mirrors ``test_snapshot_stability.py``: the same benchmark statements, but the
second engine is *recovered from the first one's durability directory* instead
of pinned — a live engine and its crash-recovered twin must answer every
query byte-identically, on the geography dataset and on the recursive
bill-of-materials dataset, before and after a ``CHECKPOINT``.
"""

import json

import pytest

from repro.core.atom import reset_surrogate_counter
from repro.datasets.bill_of_materials import build_bill_of_materials
from repro.datasets.geography import load_geography
from repro.storage import DurabilityConfig, PrimaEngine

#: The statements of bench_mql_examples.py (see test_snapshot_stability.py,
#: whose structural asserts keep the list honest against the benchmark).
BENCH_MQL_STATEMENTS = (
    "SELECT ALL FROM mt_state (state - area - edge - point);",
    "SELECT ALL FROM point - edge - (area - state, net - river) WHERE point.name = 'pn';",
    "SELECT ALL FROM mt_state (state - area - edge - point) WHERE state.hectare > 800 "
    "UNION "
    "SELECT ALL FROM mt_state (state - area - edge - point) WHERE state.code = 'SP';",
    "SELECT ALL FROM mt_state (state-area-edge-point) "
    "DIFFERENCE "
    "SELECT ALL FROM mt_state (state-area-edge-point) WHERE state.hectare > 800;",
    "SELECT ALL FROM mt_state (state-area-edge-point) WHERE state.hectare > 800 "
    "INTERSECT "
    "SELECT ALL FROM mt_state (state-area-edge-point) WHERE state.code = 'MG';",
)

#: Committed DML fired through the live engine before the parity check.
DML_BURST = (
    "INSERT state - area VALUES {name: 'Tocantins', code: 'TO', hectare: 850, "
    "area: {area_id: 'a_to', kind: 'state-border'}};",
    "MODIFY state FROM state - area SET hectare = 1 WHERE state.code = 'MG';",
    "MODIFY point FROM point - edge SET name = 'renamed' WHERE point.name = 'p2';",
    "DELETE FROM state - area - edge - point WHERE state.code = 'RJ';",
)

RECURSIVE_BOM_STATEMENT = "SELECT ALL FROM RECURSIVE part [composition] DOWN;"


def fingerprint(result) -> str:
    return json.dumps(
        sorted(json.dumps(d, sort_keys=True, default=str) for d in result.to_dicts())
    )


def reopened(directory) -> PrimaEngine:
    """A fresh engine recovered from *directory* (the crash-survivor twin)."""
    return PrimaEngine("prima", durability=DurabilityConfig(directory))


@pytest.fixture()
def geo_engine(tmp_path) -> PrimaEngine:
    reset_surrogate_counter()
    engine = PrimaEngine.from_database(
        load_geography(), durability=DurabilityConfig(tmp_path / "geo", fsync="always")
    )
    engine.query(BENCH_MQL_STATEMENTS[0])  # warm snapshot / network / interpreter
    return engine


def assert_parity(live: PrimaEngine, directory, statements) -> None:
    live_prints = [fingerprint(live.query(stmt)) for stmt in statements]
    live.close()
    twin = reopened(directory)
    twin_prints = [fingerprint(twin.query(stmt)) for stmt in statements]
    twin.close()
    assert live_prints == twin_prints, "recovered engine must answer byte-identically"


def test_geography_queries_identical_after_recovery(geo_engine, tmp_path):
    for statement in DML_BURST:
        geo_engine.query(statement)
    assert_parity(geo_engine, tmp_path / "geo", BENCH_MQL_STATEMENTS)


def test_geography_parity_survives_a_checkpoint(geo_engine, tmp_path):
    # Half the burst before the checkpoint (recovered from the image), half
    # after (recovered from the truncated log's tail).
    for statement in DML_BURST[:2]:
        geo_engine.query(statement)
    geo_engine.query("CHECKPOINT;")
    for statement in DML_BURST[2:]:
        geo_engine.query(statement)
    report = geo_engine.maintenance_report()
    # Two images: the from_database bulk load persists as checkpoint #1,
    # the explicit MQL CHECKPOINT is #2.
    assert report["checkpoints"] == 2
    assert report["wal_records"] > 0
    assert_parity(geo_engine, tmp_path / "geo", BENCH_MQL_STATEMENTS)


def test_geography_parity_through_a_session_transaction(geo_engine, tmp_path):
    geo_engine.query("BEGIN WORK;")
    for statement in DML_BURST[:2]:
        geo_engine.query(statement)
    geo_engine.query("COMMIT WORK;")
    geo_engine.query("BEGIN WORK;")
    geo_engine.query(
        "INSERT state - area VALUES {name: 'Ghost', code: 'GH', hectare: 1, "
        "area: {area_id: 'a_gh', kind: 'state-border'}};"
    )
    geo_engine.query("ROLLBACK WORK;")  # must not be replayed by the twin
    assert_parity(geo_engine, tmp_path / "geo", BENCH_MQL_STATEMENTS)


def test_recursive_bom_explosion_identical_after_recovery(tmp_path):
    reset_surrogate_counter()
    database = build_bill_of_materials(depth=4, fan_out=2, share_every=3)
    engine = PrimaEngine.from_database(
        database, durability=DurabilityConfig(tmp_path / "bom", fsync="batch")
    )
    engine.query(RECURSIVE_BOM_STATEMENT)  # warm caches
    for index in range(4):
        code = f"W{index:03d}"
        engine.query(
            f"INSERT part VALUES {{part_no: '{code}', description: 'writer part', "
            f"level: 9, cost: {100 + index}}};"
        )
        engine.query(
            f"MODIFY part FROM part SET cost = {200 + index} "
            f"WHERE part.part_no = '{code}';"
        )
    engine.query("DELETE FROM part WHERE part.part_no = 'W000';")
    assert_parity(
        engine,
        tmp_path / "bom",
        (RECURSIVE_BOM_STATEMENT, "SELECT ALL FROM part WHERE part.cost > 150;"),
    )


def test_interpreter_reopens_from_directory(geo_engine, tmp_path):
    geo_engine.query(DML_BURST[0])
    expected = fingerprint(geo_engine.query(BENCH_MQL_STATEMENTS[0]))
    geo_engine.close()
    interpreter = PrimaEngine.open(tmp_path / "geo").interpreter()
    assert fingerprint(interpreter.execute(BENCH_MQL_STATEMENTS[0])) == expected
    # The reopened interpreter serves CHECKPOINT (it is bound to a durable
    # engine) and keeps the session machinery intact.
    result = interpreter.execute("CHECKPOINT;")
    assert "WAL truncated" in result.explanation


def test_checkpoint_requires_a_durable_engine():
    from repro.exceptions import MQLSemanticError

    engine = PrimaEngine.from_database(load_geography())
    with pytest.raises(MQLSemanticError):
        engine.query("CHECKPOINT;")
    with pytest.raises(MQLSemanticError):
        engine.query("EXPLAIN CHECKPOINT;")


def test_snapshot_handles_reject_checkpoint(geo_engine):
    from repro.exceptions import StorageError

    with geo_engine.snapshot_at() as handle:
        with pytest.raises(StorageError):
            handle.query("CHECKPOINT;")
    geo_engine.close()
