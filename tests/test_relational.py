"""Unit tests for the relational baseline: relations, algebra, mapping, join assembly."""

import pytest

from repro.core.molecule import MoleculeTypeDescription
from repro.exceptions import AlgebraError, DuplicateNameError, SchemaError, UnionCompatibilityError
from repro.relational import (
    Relation,
    RelationSchema,
    RelationalAlgebra,
    assemble_complex_objects,
    cartesian_product,
    difference,
    equijoin,
    map_database,
    natural_join,
    project,
    rename,
    select,
    union,
)
from repro.relational.algebra import WorkCounter, intersection
from repro.relational.mapping import concept_comparison_rows
from repro.relational.query import JoinPlan, relational_transitive_closure


@pytest.fixture()
def books():
    return Relation(
        "book",
        RelationSchema(("_id", "title", "year"), primary_key=("_id",)),
        [
            {"_id": "b1", "title": "Relational Model", "year": 1970},
            {"_id": "b2", "title": "Principles", "year": 1980},
            {"_id": "b3", "title": "Survey", "year": 1985},
        ],
    )


@pytest.fixture()
def authors():
    return Relation(
        "author",
        ("_id", "name"),
        [{"_id": "a1", "name": "Codd"}, {"_id": "a2", "name": "Ullman"}],
    )


@pytest.fixture()
def wrote():
    return Relation(
        "wrote",
        ("author_id", "book_id"),
        [
            {"author_id": "a1", "book_id": "b1"},
            {"author_id": "a2", "book_id": "b2"},
            {"author_id": "a1", "book_id": "b3"},
            {"author_id": "a2", "book_id": "b3"},
        ],
    )


class TestRelation:
    def test_schema_validation(self):
        with pytest.raises(SchemaError):
            RelationSchema(("a", "a"))
        with pytest.raises(SchemaError):
            RelationSchema(("a",), primary_key=("b",))

    def test_set_semantics(self, books):
        assert len(books) == 3
        added = books.insert({"_id": "b1", "title": "Relational Model", "year": 1970})
        assert not added and len(books) == 3

    def test_insert_unknown_attribute_rejected(self, books):
        with pytest.raises(AlgebraError):
            books.insert({"_id": "b4", "isbn": "123"})

    def test_contains_and_values(self, books):
        assert {"_id": "b1", "title": "Relational Model", "year": 1970} in books
        assert set(books.values_of("year")) == {1970, 1980, 1985}

    def test_delete(self, books):
        removed = books.delete(lambda row: row["year"] < 1980)
        assert removed == 1 and len(books) == 2

    def test_index_lookup(self, books):
        books.build_index("year")
        assert len(books.lookup("year", 1980)) == 1
        assert books.lookup("year", 2000) == ()
        with pytest.raises(AlgebraError):
            books.build_index("missing")

    def test_lookup_without_index_scans(self, books):
        assert len(books.lookup("title", "Survey")) == 1

    def test_equality_order_insensitive(self, books):
        other = Relation("b2", books.schema, reversed(books.rows))
        assert books == other


class TestRelationalAlgebra:
    def test_select(self, books):
        recent = select(books, lambda row: row["year"] >= 1980)
        assert len(recent) == 2

    def test_project_removes_duplicates(self, authors):
        authors.insert({"_id": "a3", "name": "Codd"})
        names = project(authors, ["name"])
        assert len(names) == 2

    def test_project_unknown_attribute(self, books):
        with pytest.raises(AlgebraError):
            project(books, ["isbn"])

    def test_rename(self, books):
        renamed = rename(books, {"year": "published"})
        assert "published" in renamed.schema.attributes
        assert "year" not in renamed.schema.attributes

    def test_cartesian_product(self, authors, books):
        result = cartesian_product(authors, books)
        assert len(result) == 6
        # _id clashes are prefixed.
        assert any("." in attribute for attribute in result.schema.attributes)

    def test_union_and_difference(self, books):
        early = select(books, lambda row: row["year"] < 1980, name="early")
        late = select(books, lambda row: row["year"] >= 1980, name="late")
        assert len(union(early, late)) == 3
        assert len(difference(books, early)) == 2
        assert len(intersection(books, early)) == 1

    def test_union_incompatible(self, books, authors):
        with pytest.raises(UnionCompatibilityError):
            union(books, authors)

    def test_equijoin(self, authors, wrote):
        result = equijoin(authors, wrote, "_id", "author_id")
        assert len(result) == 4
        assert all("book_id" in row for row in result)

    def test_equijoin_unknown_attributes(self, authors, wrote):
        with pytest.raises(AlgebraError):
            equijoin(authors, wrote, "missing", "author_id")
        with pytest.raises(AlgebraError):
            equijoin(authors, wrote, "_id", "missing")

    def test_natural_join(self, wrote, books):
        renamed = rename(books, {"_id": "book_id"})
        result = natural_join(wrote, renamed)
        assert len(result) == 4
        assert all("title" in row for row in result)

    def test_natural_join_without_shared_attributes_is_product(self, authors):
        other = Relation("r", ("x",), [{"x": 1}, {"x": 2}])
        assert len(natural_join(authors, other)) == 4

    def test_work_counter(self, authors, wrote):
        algebra = RelationalAlgebra()
        algebra.equijoin(authors, wrote, "_id", "author_id")
        algebra.select(authors, lambda row: True)
        assert algebra.counter.operations == 2
        assert algebra.counter.tuples_produced == 4 + 2


class TestMapping:
    def test_entity_and_auxiliary_relations(self, tiny_db):
        mapping = map_database(tiny_db)
        assert set(mapping.entity_relations) == {"author", "book"}
        assert set(mapping.auxiliary_relations) == {"wrote"}
        assert len(mapping.relation("author")) == 2
        assert len(mapping.relation("wrote")) == 4

    def test_total_tuples_exceeds_atom_count(self, tiny_db):
        mapping = map_database(tiny_db)
        assert mapping.total_tuples() == tiny_db.atom_count() + tiny_db.link_count()

    def test_junction_columns_named_after_types(self, tiny_db):
        mapping = map_database(tiny_db)
        assert mapping.relation("wrote").schema.attributes == ("author_id", "book_id")

    def test_junction_rows_oriented_by_position(self, shared_ids_db):
        """Both endpoint types hold ``x0..x39``: a row is oriented by the
        link's definition order, not by looking an identifier up."""
        rows = {(row["p_id"], row["c_id"]) for row in map_database(shared_ids_db).relation("pc")}
        assert rows == {(f"x{i}", f"x{i + 1}") for i in range(39)}

    def test_reflexive_junction_columns(self):
        from repro.datasets.bill_of_materials import build_bill_of_materials

        mapping = map_database(build_bill_of_materials(depth=2, fan_out=2))
        columns = mapping.relation("composition").schema.attributes
        assert columns == ("part_super_id", "part_sub_id")

    def test_concept_rows_cover_figure(self):
        rows = concept_comparison_rows()
        assert ("tuple", "atom") in rows
        assert ("relation", "atom type") in rows
        assert ("-", "link type") in rows
        assert len(rows) == 13


class TestJoinAssembly:
    def test_plan_from_description(self, mt_state_desc):
        plan = JoinPlan.from_description(mt_state_desc)
        assert plan.root == "state"
        assert len(plan.steps) == 3
        assert plan.join_count() == 6

    def test_assembles_one_object_per_root(self, geo_db, mt_state_desc):
        mapping = map_database(geo_db)
        result = assemble_complex_objects(mapping, mt_state_desc)
        assert len(result.objects) == 10
        assert result.intermediate_tuples() > 0

    def test_objects_match_molecules(self, geo_db, mt_state_desc):
        from repro.core import molecule_type_definition

        mapping = map_database(geo_db)
        result = assemble_complex_objects(mapping, mt_state_desc)
        molecule_type = molecule_type_definition(geo_db, "mt_state", mt_state_desc)
        by_root = {m.root_atom.identifier: m for m in molecule_type}
        for nested in result.objects:
            molecule = by_root[nested["_id"]]
            # Same number of edge atoms collected by both strategies.
            edges_relational = {
                edge["_id"] for area in nested.get("area", []) for edge in area.get("edge", [])
            }
            edges_mad = {a.identifier for a in molecule.atoms_of_type("edge")}
            assert edges_relational == edges_mad

    def test_root_predicate(self, geo_db, mt_state_desc):
        mapping = map_database(geo_db)
        result = assemble_complex_objects(
            mapping, mt_state_desc, root_predicate=lambda row: row["hectare"] > 800
        )
        assert len(result.objects) == 4

    def test_transitive_closure(self):
        from repro.datasets.bill_of_materials import build_bill_of_materials, root_parts

        bom = build_bill_of_materials(depth=3, fan_out=2)
        mapping = map_database(bom)
        root = root_parts(bom)[0]
        closures = relational_transitive_closure(mapping, "composition", [root.identifier])
        assert len(closures[root.identifier]) == 14
