"""Unit tests for the atom-type algebra π, σ, ×, ω, δ with link inheritance (Definition 4, Theorem 1)."""

import pytest

from repro.core.atom_algebra import (
    AtomAlgebra,
    difference,
    intersection,
    product,
    project,
    restrict,
    union,
)
from repro.core.predicates import attr
from repro.exceptions import ProjectionError, RestrictionError, UnionCompatibilityError


class TestProjection:
    def test_projects_attributes_and_keeps_identity(self, tiny_db):
        result = project(tiny_db, "book", ["title"])
        assert result.atom_type.description.names == ("title",)
        assert len(result.atom_type) == 3
        assert set(result.atom_type.identifiers()) == {"b1", "b2", "b3"}

    def test_unknown_attribute_rejected(self, tiny_db):
        with pytest.raises(ProjectionError):
            project(tiny_db, "book", ["isbn"])

    def test_inherits_link_types(self, tiny_db):
        result = project(tiny_db, "book", ["title"])
        assert len(result.inherited_link_types) == 1
        inherited = result.inherited_link_types[0]
        assert inherited.name.startswith("wrote~")
        assert len(inherited) == 4

    def test_enlarges_database_without_mutation(self, tiny_db):
        result = project(tiny_db, "book", ["title"], name="titles")
        assert result.database.has_atom_type("titles")
        assert not tiny_db.has_atom_type("titles")
        assert len(tiny_db.atom_types) == 2

    def test_explicit_name_used(self, tiny_db):
        result = project(tiny_db, "book", ["title"], name="titles")
        assert result.atom_type.name == "titles"


class TestRestriction:
    def test_keeps_qualifying_atoms(self, tiny_db):
        result = restrict(tiny_db, "book", attr("year") > 1975)
        assert {a["title"] for a in result.atom_type} == {"Principles", "Survey"}

    def test_same_description(self, tiny_db):
        result = restrict(tiny_db, "book", attr("year") > 1975)
        assert result.atom_type.description == tiny_db.atyp("book").description

    def test_plain_callable_accepted(self, tiny_db):
        result = restrict(tiny_db, "book", lambda atom: atom["year"] == 1970)
        assert len(result.atom_type) == 1

    def test_inherited_reflexive_links_keep_their_roles(self):
        from repro import Database

        db = Database("chain")
        db.define_atom_type("part", {"n": "integer"})
        db.define_link_type("comp", "part", "part")
        for i in range(30):
            db.insert_atom("part", identifier=f"q{i}", n=i)
        for i in range(29):
            db.connect("comp", f"q{i}", f"q{i + 1}")  # super-part first
        (inherited,) = restrict(db, "part", lambda atom: True).inherited_link_types
        assert {link.given_order for link in inherited} == {
            (f"q{i}", f"q{i + 1}") for i in range(29)
        }

    def test_non_formula_rejected(self, tiny_db):
        with pytest.raises(RestrictionError):
            restrict(tiny_db, "book", "year > 1975")

    def test_inherited_links_only_reference_surviving_atoms(self, tiny_db):
        result = restrict(tiny_db, "book", attr("year") > 1975)
        inherited = result.inherited_link_types[0]
        surviving = set(result.atom_type.identifiers())
        for link in inherited:
            assert link.identifiers & surviving

    def test_empty_result_is_valid(self, tiny_db):
        result = restrict(tiny_db, "book", attr("year") > 3000)
        assert len(result.atom_type) == 0
        assert len(result.inherited_link_types[0]) == 0
        assert result.database.is_valid()


class TestCartesianProduct:
    def test_size_and_description(self, tiny_db):
        result = product(tiny_db, "author", "book")
        assert len(result.atom_type) == 2 * 3
        assert set(result.atom_type.description.names) >= {"name", "country", "title", "year"}

    def test_composite_identity_and_provenance(self, tiny_db):
        result = product(tiny_db, "author", "book")
        for atom in result.atom_type:
            assert "&" in atom.identifier
            assert result.provenance[atom.identifier] == tuple(atom.identifier.split("&"))

    def test_clashing_attributes_prefixed(self, tiny_db):
        tiny_db.define_atom_type("publisher", {"name": "string"})
        tiny_db.insert_atom("publisher", identifier="p1", name="ACM")
        result = product(tiny_db, "author", "publisher")
        names = result.atom_type.description.names
        assert "name" in names and any("." in name for name in names)

    def test_inherits_links_from_both_operands(self, tiny_db):
        result = product(tiny_db, "author", "book")
        assert len(result.inherited_link_types) == 1  # both inherit 'wrote', deduplicated by name
        # The paper's border example: every link incident to either operand is
        # re-targeted at the composite atoms.
        inherited = result.inherited_link_types[0]
        assert len(inherited) > 0


class TestUnionAndDifference:
    def test_union_requires_identical_descriptions(self, tiny_db):
        with pytest.raises(UnionCompatibilityError):
            union(tiny_db, "author", "book")

    def test_union_of_restrictions(self, tiny_db):
        early = restrict(tiny_db, "book", attr("year") < 1980, name="early")
        late = restrict(early.database, "book", attr("year") >= 1980, name="late")
        combined = union(late.database, early.atom_type, late.atom_type)
        assert len(combined.atom_type) == 3

    def test_union_deduplicates_identifiers(self, tiny_db):
        result = union(tiny_db, "book", "book")
        assert len(result.atom_type) == 3

    def test_difference_by_identity(self, tiny_db):
        early = restrict(tiny_db, "book", attr("year") < 1980, name="early")
        result = difference(early.database, "book", early.atom_type)
        assert {a["title"] for a in result.atom_type} == {"Principles", "Survey"}

    def test_difference_requires_identical_descriptions(self, tiny_db):
        with pytest.raises(UnionCompatibilityError):
            difference(tiny_db, "author", "book")

    def test_difference_by_value_across_independent_types(self, tiny_db):
        tiny_db.define_atom_type("book2", {"title": "string", "year": "integer"})
        tiny_db.insert_atom("book2", identifier="other1", title="Survey", year=1985)
        result = difference(tiny_db, "book", "book2")
        assert {a["title"] for a in result.atom_type} == {"Relational Model", "Principles"}

    def test_intersection_is_double_difference(self, tiny_db):
        early = restrict(tiny_db, "book", attr("year") <= 1980, name="early")
        result = intersection(early.database, "book", early.atom_type)
        assert {a["title"] for a in result.atom_type} == {"Relational Model", "Principles"}


class TestFacade:
    def test_chained_operations_thread_the_database(self, tiny_db):
        algebra = AtomAlgebra(tiny_db)
        step1 = algebra.restrict("book", attr("year") > 1975, name="recent")
        step2 = algebra.project(step1.atom_type, ["title"], name="recent_titles")
        step3 = algebra.product("author", step2.atom_type)
        assert algebra.database.has_atom_type("recent")
        assert algebra.database.has_atom_type("recent_titles")
        assert len(step3.atom_type) == 2 * 2
        assert algebra.database.is_valid()

    def test_result_supports_tuple_unpacking(self, tiny_db):
        atom_type, links, database = project(tiny_db, "book", ["title"])
        assert atom_type.description.names == ("title",)
        assert database.has_atom_type(atom_type.name)

    def test_reflexive_link_inheritance(self):
        from repro.datasets.bill_of_materials import build_bill_of_materials

        bom = build_bill_of_materials(depth=2, fan_out=2)
        result = restrict(bom, "part", attr("level") <= 1)
        inherited = result.inherited_link_types[0]
        assert inherited.is_reflexive
        # Only links between surviving parts remain.
        surviving = set(result.atom_type.identifiers())
        for link in inherited:
            assert link.identifiers <= surviving
