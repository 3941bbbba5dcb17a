"""Consistency checks between the documentation and the repository contents.

DESIGN.md promises a module for every system and a benchmark target for every
experiment; EXPERIMENTS.md promises one row per experiment id.  These tests
keep the documentation honest as the code evolves.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text(encoding="utf-8")


class TestDesignDocument:
    def test_design_exists_and_confirms_paper(self):
        text = read("DESIGN.md")
        assert "Extending the Relational Algebra to Capture Complex Objects" in text
        assert "VLDB" in text and "1989" in text

    def test_every_inventory_module_imports(self):
        text = read("DESIGN.md")
        modules = set(re.findall(r"`(repro(?:\.[a-z_]+)+)`", text))
        assert modules, "DESIGN.md must name the implementing modules"
        for module in sorted(modules):
            importlib.import_module(module)

    def test_every_bench_target_exists(self):
        text = read("DESIGN.md")
        targets = set(re.findall(r"`benchmarks/(bench_[a-z0-9_]+\.py)`", text))
        assert len(targets) >= 11, "one bench target per experiment id"
        for target in sorted(targets):
            assert (ROOT / "benchmarks" / target).exists(), f"missing {target}"

    def test_every_experiment_id_in_experiments_md(self):
        design = read("DESIGN.md")
        experiments = read("EXPERIMENTS.md")
        ids = set(re.findall(r"\bE-(?:FIG\d|THM\d|MQL|PERF\d)\b", design))
        assert ids
        for experiment_id in sorted(ids):
            assert experiment_id in experiments, f"{experiment_id} missing from EXPERIMENTS.md"


class TestReadme:
    def test_readme_quickstart_code_runs(self):
        """The first fenced Python block of the README must execute as written."""
        text = read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
        assert blocks, "README must contain a quickstart code block"
        namespace: dict = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)  # noqa: S102

    def test_readme_structure_index_explain_matches_engine(self):
        """The EXPLAIN report under "Query tuning: structure indexes" is what
        the engine prints for that statement on the 15-part BOM, run once."""
        from repro.datasets.bill_of_materials import build_bill_of_materials
        from repro.storage.engine import PrimaEngine

        text = read("README.md")
        statement = re.search(
            r'"EXPLAIN (SELECT ALL FROM RECURSIVE part[^"]*)"\s*"([^"]*)"', text
        )
        printed = re.search(r"```\n(original plan [^`]*?sample intervals[^\n]*)\n```", text)
        assert statement and printed
        query = statement.group(1) + statement.group(2)
        engine = PrimaEngine.from_database(build_bill_of_materials(depth=3, fan_out=2))
        engine.create_structure_index("part", "composition", "down")
        engine.query(query)
        explanation = engine.query("EXPLAIN " + query).explanation

        def unnumbered(report: str) -> str:
            # Anonymous result names count up process-wide.
            return re.sub(r"mql_result\d+", "mql_result", report)

        assert unnumbered(explanation) == unnumbered(printed.group(1))

    def test_readme_root_access_explain_matches_engine(self):
        """The EXPLAIN report under "how a statement finds its molecules" is
        what the engine prints for that statement on the Brazil geography."""
        from repro import load_geography
        from repro.storage.engine import PrimaEngine

        text = read("README.md")
        statement = re.search(r'"EXPLAIN (SELECT ALL FROM state - [^"]*)"\s*"([^"]*)"', text)
        printed = re.search(r"```\n(original plan [^`]*?root access: upward walk[^\n]*)\n```", text)
        assert statement and printed
        engine = PrimaEngine.from_database(load_geography())
        explanation = engine.query("EXPLAIN " + statement.group(1) + statement.group(2)).explanation
        unnumbered = lambda report: re.sub(r"mql_result\d+", "mql_result", report)  # noqa: E731
        assert unnumbered(explanation) == unnumbered(printed.group(1))

    def test_readme_examples_table_matches_directory(self):
        text = read("README.md")
        referenced = set(re.findall(r"`examples/([a-z_]+\.py)`", text))
        on_disk = {path.name for path in (ROOT / "examples").glob("*.py")}
        assert referenced == on_disk

    def test_examples_directory_has_quickstart_and_scenarios(self):
        on_disk = {path.name for path in (ROOT / "examples").glob("*.py")}
        assert "quickstart.py" in on_disk
        assert len(on_disk) >= 3


class TestPublicApi:
    def test_dunder_all_resolves(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ names missing attribute {name}"

    def test_core_dunder_all_resolves(self):
        core = importlib.import_module("repro.core")
        for name in core.__all__:
            assert hasattr(core, name)

    def test_version_is_declared(self):
        import repro

        assert re.match(r"^\d+\.\d+\.\d+$", repro.__version__)
