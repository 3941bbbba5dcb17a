"""The static concurrency lint: analyzer fixtures + the self-test.

Two halves:

* **Fixture modules** (inline sources against a tiny fixture registry)
  prove each rule fires: a seeded inversion (direct and through the call
  graph), an undeclared raw lock construction, an unknown/kind-mismatched
  factory name, a stale registry entry, an unguarded write, honored and
  malformed suppressions, and cycle detection.

* **The self-test**: ``src/repro`` itself must analyze clean — and stay
  *detectably* clean: seeding a deliberate inversion into a scratch copy
  of ``repro.storage.engine`` must flip the analyzer to a finding that
  names both locks, which proves the clean result is sensitivity, not
  blindness.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.guards import check_guards
from repro.analysis.lockorder import (
    Analysis,
    Registry,
    analyze,
    collect_sources,
)
from repro.analysis.registry import LOCKS, LockSpec, design_table
from repro.analysis.__main__ import check_design, main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")

#: A two-lock fixture registry: Low must always be taken before High.
FIXTURE_REGISTRY = Registry(
    (
        LockSpec(
            name="Store._low",
            level=10,
            kind="RLock",
            module="fixture.store",
            guards="the store registry",
        ),
        LockSpec(
            name="Store._high",
            level=20,
            kind="Lock",
            module="fixture.store",
            guards="the store feed",
        ),
    )
)

FIXTURE_HEADER = """\
from repro.analysis.runtime import make_lock, make_rlock


class Store:
    def __init__(self):
        self._low = make_rlock("Store._low")
        self._high = make_lock("Store._high")
"""


def fixture_findings(body: str, rule: str = None):
    sources = {"fixture.store": FIXTURE_HEADER + body}
    findings = analyze(sources, FIXTURE_REGISTRY)
    if rule is None:
        return findings
    return [finding for finding in findings if finding.rule == rule]


class TestInversionRule:
    def test_direct_inversion_is_reported_with_both_locks(self):
        findings = fixture_findings(
            """
    def bad(self):
        with self._high:
            with self._low:
                pass
""",
            "inversion",
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "Store._low" in message and "Store._high" in message
        assert "level 10" in message and "level 20" in message

    def test_ascending_orders_are_clean(self):
        assert not fixture_findings(
            """
    def good(self):
        with self._low:
            with self._high:
                pass
"""
        )

    def test_interprocedural_inversion_names_the_path(self):
        findings = fixture_findings(
            """
    def outer(self):
        with self._high:
            self.helper()

    def helper(self):
        with self._low:
            pass
""",
            "inversion",
        )
        assert len(findings) == 1
        assert "path" in findings[0].message
        assert "Store.outer" in findings[0].message
        assert "Store.helper" in findings[0].message

    def test_rlock_reentry_is_legal(self):
        assert not fixture_findings(
            """
    def reenter(self):
        with self._low:
            with self._low:
                pass
"""
        )

    def test_acquire_call_sites_are_checked(self):
        findings = fixture_findings(
            """
    def bad(self):
        with self._high:
            self._low.acquire()
""",
            "inversion",
        )
        assert len(findings) == 1

    def test_equal_level_pair_is_an_inversion(self):
        # Same-level (per-instance family) nesting is still non-ascending.
        registry = Registry(
            (
                LockSpec("Store._low", 10, "RLock", "fixture.store", "a"),
                LockSpec("Store._high", 10, "Lock", "fixture.store", "b"),
            )
        )
        sources = {
            "fixture.store": FIXTURE_HEADER
            + """
    def bad(self):
        with self._low:
            with self._high:
                pass
"""
        }
        findings = [
            finding
            for finding in analyze(sources, registry)
            if finding.rule == "inversion"
        ]
        assert len(findings) == 1


class TestConstructionRules:
    def test_undeclared_raw_lock_is_reported(self):
        findings = fixture_findings(
            """
    def sneak(self):
        import threading
        extra = threading.Lock()
        return extra
""",
            "undeclared-lock",
        )
        assert len(findings) == 1

    def test_unknown_factory_name_is_reported(self):
        sources = {
            "fixture.store": """\
from repro.analysis.runtime import make_lock

class Store:
    def __init__(self):
        self._low = make_lock("Store._nope")
"""
        }
        findings = [
            finding
            for finding in analyze(sources, FIXTURE_REGISTRY)
            if finding.rule == "unknown-lock-name"
        ]
        assert len(findings) == 1
        assert "Store._nope" in findings[0].message

    def test_kind_mismatch_is_reported(self):
        sources = {
            "fixture.store": """\
from repro.analysis.runtime import make_lock

class Store:
    def __init__(self):
        self._low = make_lock("Store._low")
"""
        }
        findings = [
            finding
            for finding in analyze(sources, FIXTURE_REGISTRY)
            if finding.rule == "unknown-lock-name"
        ]
        assert len(findings) == 1
        assert "RLock" in findings[0].message

    def test_stale_registry_entry_is_reported(self):
        sources = {
            "fixture.store": """\
from repro.analysis.runtime import make_rlock

class Store:
    def __init__(self):
        self._low = make_rlock("Store._low")
"""
        }
        findings = [
            finding
            for finding in analyze(sources, FIXTURE_REGISTRY)
            if finding.rule == "stale-registry"
        ]
        assert len(findings) == 1
        assert "Store._high" in findings[0].message


class TestSuppressions:
    def test_suppression_with_reason_is_honored(self):
        assert not fixture_findings(
            """
    def bad(self):
        with self._high:
            with self._low:  # lock-lint: ignore[inversion] — fixture proves the suppression path
                pass
"""
        )

    def test_suppression_without_reason_is_a_finding(self):
        findings = fixture_findings(
            """
    def bad(self):
        with self._high:
            with self._low:  # lock-lint: ignore[inversion]
                pass
"""
        )
        rules = {finding.rule for finding in findings}
        # The malformed directive is reported AND does not suppress.
        assert "bad-suppression" in rules
        assert "inversion" in rules

    def test_unknown_rule_in_directive_is_a_finding(self):
        findings = fixture_findings(
            """
    def ok(self):
        with self._low:  # lock-lint: ignore[made-up-rule] — nope
            pass
""",
            "bad-suppression",
        )
        assert len(findings) == 1


class TestCycleRule:
    def test_suppressed_inversions_still_surface_as_a_cycle(self):
        findings = fixture_findings(
            """
    def forward(self):
        with self._low:
            with self._high:
                pass

    def backward(self):
        with self._high:
            with self._low:  # lock-lint: ignore[inversion] — seeded to prove cycle detection
                pass
""",
            "cycle",
        )
        assert len(findings) == 1
        assert "Store._low" in findings[0].message
        assert "Store._high" in findings[0].message


class TestGuardedWrites:
    def test_unguarded_write_is_reported(self):
        sources = {
            "fixture.store": FIXTURE_HEADER
            + """\
        self._items = {}  # guarded-by: Store._low

    def bad(self, key, value):
        self._items[key] = value
"""
        }
        findings = [
            finding
            for finding in check_guards(sources, FIXTURE_REGISTRY)
            if finding.rule == "unguarded-write"
        ]
        assert len(findings) == 1
        assert "_items" in findings[0].message
        assert "Store._low" in findings[0].message

    def test_write_under_the_lock_is_clean(self):
        sources = {
            "fixture.store": FIXTURE_HEADER
            + """\
        self._items = {}  # guarded-by: Store._low

    def good(self, key, value):
        with self._low:
            self._items[key] = value
"""
        }
        assert not check_guards(sources, FIXTURE_REGISTRY)

    def test_requires_annotation_is_honored(self):
        sources = {
            "fixture.store": FIXTURE_HEADER
            + """\
        self._items = {}  # guarded-by: Store._low

    # requires: Store._low
    def locked_helper(self, key, value):
        self._items[key] = value
"""
        }
        assert not check_guards(sources, FIXTURE_REGISTRY)

    def test_mutator_calls_are_writes(self):
        sources = {
            "fixture.store": FIXTURE_HEADER
            + """\
        self._names = []  # guarded-by: Store._low

    def bad(self, name):
        self._names.append(name)
"""
        }
        findings = [
            finding
            for finding in check_guards(sources, FIXTURE_REGISTRY)
            if finding.rule == "unguarded-write"
        ]
        assert len(findings) == 1

    def test_guard_naming_unknown_lock_is_reported(self):
        sources = {
            "fixture.store": FIXTURE_HEADER
            + """\
        self._items = {}  # guarded-by: Store._nothing
"""
        }
        findings = [
            finding
            for finding in check_guards(sources, FIXTURE_REGISTRY)
            if finding.rule == "bad-guard"
        ]
        assert len(findings) == 1


class TestSelfTest:
    """src/repro analyzes clean — and detectably so."""

    def test_package_is_clean(self):
        sources = collect_sources(SRC_REPRO)
        assert len(sources) > 50  # the whole package, not a subset
        findings = analyze(sources) + check_guards(sources)
        assert findings == [], "\n".join(
            finding.render() for finding in findings
        )

    def test_every_registered_lock_is_constructed(self):
        sources = collect_sources(SRC_REPRO)
        analysis = Analysis(sources)
        analysis.run()
        constructed = {
            literal
            for facts in analysis.modules.values()
            for _line, _kind, literal in facts.factory_calls
            if literal is not None
        }
        assert constructed == {spec.name for spec in LOCKS}

    def test_registry_holds_at_most_sixteen_locks(self):
        """The hierarchy stays small: a new lock has to replace one."""
        assert len(LOCKS) <= 16

    def test_seeded_inversion_in_engine_copy_is_caught(self):
        """Append an event-lock→write-lock nesting to a scratch copy of
        ``repro.storage.engine``: the analyzer must name both locks and
        the acquisition site."""
        sources = collect_sources(SRC_REPRO)
        sources["repro.storage.engine"] += (
            "\n\n"
            "def _lint_seeded_inversion(engine: \"PrimaEngine\"):\n"
            "    with engine._event_lock:\n"
            "        with engine._write_lock:\n"
            "            pass\n"
        )
        findings = [
            finding for finding in analyze(sources) if finding.rule == "inversion"
        ]
        assert len(findings) == 1
        finding = findings[0]
        assert finding.module == "repro.storage.engine"
        assert "PrimaEngine._write_lock" in finding.message
        assert "PrimaEngine._event_lock" in finding.message

    def test_seeded_interprocedural_inversion_is_caught(self):
        """The held set must propagate through the call graph: a helper
        that legitimately takes the write lock becomes an inversion when
        called under the event lock."""
        sources = collect_sources(SRC_REPRO)
        sources["repro.storage.engine"] += (
            "\n\n"
            "def _lint_takes_write(engine: \"PrimaEngine\"):\n"
            "    with engine._write_lock:\n"
            "        pass\n"
            "\n\n"
            "def _lint_calls_under_event(engine: \"PrimaEngine\"):\n"
            "    with engine._event_lock:\n"
            "        _lint_takes_write(engine)\n"
            "\n"
        )
        findings = [
            finding for finding in analyze(sources) if finding.rule == "inversion"
        ]
        assert len(findings) == 1
        assert "_lint_takes_write" in findings[0].message
        assert "_lint_calls_under_event" in findings[0].message

    def test_seeded_raw_lock_in_engine_copy_is_caught(self):
        sources = collect_sources(SRC_REPRO)
        sources["repro.storage.engine"] += (
            "\n\nimport threading\n"
            "\n\ndef _lint_rogue_lock():\n"
            "    return threading.Lock()\n"
        )
        findings = [
            finding
            for finding in analyze(sources)
            if finding.rule == "undeclared-lock"
        ]
        assert len(findings) == 1
        assert findings[0].module == "repro.storage.engine"


class TestDesignTable:
    def test_design_table_lists_every_lock_in_level_order(self):
        table = design_table()
        levels = [spec.level for spec in LOCKS]
        assert levels == sorted(levels)
        for spec in LOCKS:
            assert f"`{spec.name}`" in table

    def test_repo_design_md_is_current(self):
        path = os.path.join(REPO_ROOT, "DESIGN.md")
        assert check_design(path) == []

    def test_drifted_table_is_reported_and_fixable(self, tmp_path):
        design = tmp_path / "DESIGN.md"
        design.write_text(
            "# x\n<!-- lock-table:begin -->\nstale\n<!-- lock-table:end -->\n"
        )
        findings = check_design(str(design))
        assert len(findings) == 1 and findings[0].rule == "design-drift"
        assert check_design(str(design), fix=True) == []
        assert design_table() in design.read_text()
        assert check_design(str(design)) == []

    def test_missing_markers_are_reported(self, tmp_path):
        design = tmp_path / "DESIGN.md"
        design.write_text("# no markers here\n")
        findings = check_design(str(design))
        assert len(findings) == 1
        assert "markers" in findings[0].message


class TestCLI:
    def test_cli_clean_on_the_repo(self, capsys):
        assert main([SRC_REPRO, "--design", os.path.join(REPO_ROOT, "DESIGN.md")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_cli_exits_nonzero_on_findings(self, tmp_path, capsys):
        package = tmp_path / "badpkg"
        package.mkdir()
        (package / "__init__.py").write_text("")
        (package / "mod.py").write_text(
            "import threading\nGUARD = threading.Lock()\n"
        )
        assert main([str(package), "--no-design"]) == 1
        out = capsys.readouterr().out
        assert "undeclared-lock" in out

    def test_cli_emit_design_table(self, capsys):
        assert main(["--emit-design-table"]) == 0
        assert design_table() in capsys.readouterr().out

    def test_cli_rejects_missing_root(self, capsys):
        assert main([os.path.join(REPO_ROOT, "no-such-dir")]) == 2
