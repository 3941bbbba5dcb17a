"""Unit tests for the ER front-end, the schema layer, and the storage substrate."""

import pytest

from repro.core.link import Cardinality
from repro.er import ERSchema, EntityType, RelationshipType, er_to_mad, er_to_relational_schemas
from repro.er.model import geographic_er_schema
from repro.er.to_mad import er_to_mad_report
from repro.er.to_relational import auxiliary_relation_count
from repro.exceptions import (
    CardinalityError,
    DuplicateNameError,
    SchemaError,
    StorageError,
    UnknownNameError,
)
from repro.schema import Catalog, SchemaBuilder, validate_database
from repro.storage import AtomNetwork, HashIndex, PrimaEngine


class TestERModel:
    def test_entity_definition(self):
        entity = EntityType.define("state", name="string", hectare="integer")
        assert entity.attribute_names == ("name", "hectare")

    def test_relationship_cardinality_validation(self):
        with pytest.raises(SchemaError):
            RelationshipType("r", "a", "b", "3:4")

    def test_schema_construction(self):
        schema = ERSchema("s")
        schema.add_entity("a", x="integer")
        schema.add_entity("b", y="integer")
        schema.add_relationship("r", "a", "b", "n:m")
        assert schema.entity("a").name == "a"
        assert schema.relationship("r").is_many_to_many
        with pytest.raises(DuplicateNameError):
            schema.add_entity("a")
        with pytest.raises(UnknownNameError):
            schema.add_relationship("r2", "a", "missing")
        with pytest.raises(UnknownNameError):
            schema.entity("missing")

    def test_geographic_schema_matches_fig1(self):
        schema = geographic_er_schema()
        assert len(schema.entity_types) == 7
        assert len(schema.relationship_types) == 6
        assert len(schema.many_to_many_relationships()) == 3

    def test_er_to_mad_one_to_one(self):
        schema = geographic_er_schema()
        mad = er_to_mad(schema)
        assert set(mad.atom_type_names) == {e.name for e in schema.entity_types}
        assert set(mad.link_type_names) == {r.name for r in schema.relationship_types}
        report = er_to_mad_report(schema, mad)
        assert all("MISSING" not in kind for kind, _ in report.values())

    def test_er_to_mad_cardinalities(self):
        schema = geographic_er_schema()
        mad = er_to_mad(schema, enforce_cardinalities=True)
        assert mad.ltyp("state-area").cardinality is Cardinality.ONE_TO_MANY
        assert mad.ltyp("area-edge").cardinality is Cardinality.MANY_TO_MANY

    def test_er_to_relational_junctions(self):
        schema = geographic_er_schema()
        relational = er_to_relational_schemas(schema)
        assert auxiliary_relation_count(schema) == 3
        assert "area-edge" in relational
        # 1:n relationships fold into a foreign key on the dependent side.
        assert any(a.startswith("state-area") for a in relational["area"].attributes)

    def test_reflexive_relationship_to_relational(self):
        schema = ERSchema("bom")
        schema.add_entity("part", part_no="string")
        schema.add_relationship("composition", "part", "part", "n:m")
        relational = er_to_relational_schemas(schema)
        assert relational["composition"].attributes == ("part_super_id", "part_sub_id")


class TestSchemaLayer:
    def test_builder_builds_database(self):
        db = (
            SchemaBuilder("geo")
            .atom_type("state", name="string", hectare="integer")
            .atom_type("area", area_id="string")
            .link_type("state-area", "state", "area", cardinality="1:n")
            .build()
        )
        assert db.has_atom_type("state")
        assert db.ltyp("state-area").cardinality is Cardinality.ONE_TO_MANY

    def test_builder_reflexive_and_docs(self):
        builder = SchemaBuilder("bom").atom_type("part", part_no="string", _doc="a part")
        builder.reflexive_link_type("composition", "part", _doc="assembly structure")
        db = builder.build()
        assert db.ltyp("composition").is_reflexive
        assert builder.documentation["part"] == "a part"

    def test_builder_unknown_cardinality(self):
        with pytest.raises(SchemaError):
            SchemaBuilder("x").atom_type("a", x="integer").link_type("l", "a", "a", "many")

    def test_catalog_entries(self, geo_db):
        catalog = Catalog(geo_db)
        assert len(catalog) == 13
        assert catalog.entry("state").kind == "atom_type"
        assert catalog.entry("state-area").connects == ("state", "area")
        assert "hectare" in catalog.entry("state").attributes
        assert catalog.attribute_owner("hectare") == ("state",)
        assert catalog.link_types_between("area", "edge")[0].name == "area-edge"
        with pytest.raises(UnknownNameError):
            catalog.entry("missing")
        assert len(catalog.to_rows()) == 13

    def test_catalog_refresh(self, geo_db):
        catalog = Catalog(geo_db)
        geo_db.define_atom_type("extra", {"x": "integer"})
        assert "extra" not in catalog
        catalog.refresh()
        assert "extra" in catalog

    def test_validation_detects_cardinality_violation(self):
        db = (
            SchemaBuilder("x")
            .atom_type("a", k="string")
            .atom_type("b", k="string")
            .link_type("l", "a", "b")
            .build()
        )
        db.insert_atom("a", identifier="a1", k="x")
        db.insert_atom("b", identifier="b1", k="x")
        db.insert_atom("b", identifier="b2", k="y")
        db.connect("l", "a1", "b1")
        db.connect("l", "a1", "b2")
        # Tighten the cardinality after the fact and re-validate.
        db.ltyp("l").cardinality = Cardinality.ONE_TO_ONE
        report = validate_database(db)
        assert not report.is_valid
        assert any("cardinality" in violation for violation in report.violations)

    def test_validation_ok_for_geo(self, geo_db):
        report = validate_database(geo_db)
        assert report.is_valid
        assert report.checked_atoms == geo_db.atom_count()
        assert report.checked_links == geo_db.link_count()


class TestStorage:
    def test_hash_index(self):
        from repro.core.atom import Atom

        index = HashIndex("state", "code")
        index.insert(Atom("state", {"code": "SP"}, identifier="SP"))
        index.insert(Atom("state", {"code": "MG"}, identifier="MG"))
        assert index.lookup("SP") == frozenset({"SP"})
        assert index.distinct_values() == 2
        index.insert(Atom("state", {"code": "RJ"}, identifier="SP"))  # re-index same atom
        assert index.lookup("SP") == frozenset()
        assert index.lookup("RJ") == frozenset({"SP"})
        index.remove("SP")
        assert len(index) == 1

    def test_atom_store_crud_and_indexes(self):
        """The atom-oriented interface: CRUD, a declared index, error types."""
        engine = PrimaEngine("e")
        engine.create_atom_type("state", {"code": "string", "hectare": "integer"})
        engine.store_atom("state", identifier="SP", code="SP", hectare=750)
        engine.store_atom("state", identifier="MG", code="MG", hectare=900)
        assert engine.get_atom("state", "SP")["hectare"] == 750
        engine.create_index("state", "code")
        assert len(engine.lookup("state", "code", "MG")) == 1
        assert engine.maintenance_statistics()["index_builds"] == 1  # served by the pool
        assert len(engine.lookup("state", "hectare", 750)) == 1  # unindexed scan path
        assert engine.maintenance_statistics()["index_builds"] == 1
        engine.store_atom("state", identifier="MG", code="GM", hectare=900)  # replace
        assert engine.lookup("state", "code", "MG") == ()
        assert len(engine.lookup("state", "code", "GM")) == 1
        engine.delete_atom("state", "SP")
        assert engine.get_atom("state", "SP") is None
        with pytest.raises(StorageError):
            engine.delete_atom("state", "SP")
        with pytest.raises(StorageError):
            engine.create_index("state", "missing")

    def test_link_store_adjacency(self):
        """The atom-oriented interface: links, neighbours, cascading delete."""
        engine = PrimaEngine("e")
        engine.create_atom_type("author", {"name": "string"})
        engine.create_atom_type("book", {"title": "string"})
        engine.create_link_type("wrote", "author", "book")
        engine.store_atom("author", identifier="a1", name="Codd")
        for identifier in ("b1", "b2"):
            engine.store_atom("book", identifier=identifier, title=identifier)
            engine.connect("wrote", "a1", identifier)
        engine.connect("wrote", "a1", "b2")  # idempotent
        assert set(engine.neighbours("wrote", "a1")) == {"b1", "b2"}
        assert engine.neighbours("wrote", "b1") == ("a1",)
        assert engine.delete_atom("author", "a1") == 2
        assert engine.statistics()["links"]["wrote"] == 0

    def test_engine_two_layers(self, geo_db):
        engine = PrimaEngine.from_database(geo_db)
        # Atom-oriented interface.
        assert engine.get_atom("state", "SP")["name"] == "Sao Paulo"
        assert len(engine.lookup("state", "code", "MG")) == 1
        assert "a7" in engine.neighbours("state-area", "SP") or engine.neighbours("state-area", "SP")
        # Molecule-processing interface.
        result = engine.query("SELECT ALL FROM state-area WHERE state.hectare > 800;")
        assert len(result) == 4
        molecule_type = engine.define_molecule_type(
            "mt", ["state", "area"], [("state-area", "state", "area")]
        )
        assert len(molecule_type) == 10

    def test_engine_snapshot_maintained_incrementally(self):
        engine = PrimaEngine("e")
        engine.create_atom_type("a", {"x": "integer"})
        first = engine.to_database()
        assert engine.to_database() is first  # cached
        engine.store_atom("a", x=1)
        # Incremental maintenance keeps the same snapshot object, updated in
        # place — no re-export on writes.
        assert engine.to_database() is first
        assert len(first.atyp("a")) == 1

    def test_engine_ddl_errors(self):
        engine = PrimaEngine("e")
        engine.create_atom_type("a", {"x": "integer"})
        with pytest.raises(StorageError):
            engine.create_atom_type("a", {"x": "integer"})
        with pytest.raises(UnknownNameError):
            engine.create_link_type("l", "a", "missing")
        with pytest.raises(UnknownNameError):
            engine.scan("missing")

    def test_engine_delete_atom_removes_links(self, geo_db):
        engine = PrimaEngine.from_database(geo_db)
        removed = engine.delete_atom("state", "SP")
        assert removed >= 1
        assert engine.get_atom("state", "SP") is None

    def test_engine_statistics(self, geo_db):
        engine = PrimaEngine.from_database(geo_db)
        engine.scan("state")
        stats = engine.statistics()
        assert stats["atoms"]["state"] == 10
        assert stats["reads"]["state"] >= 10

    def test_atom_network_views(self, geo_db):
        network = AtomNetwork(geo_db)
        sao_paulo = ("state", "SP")
        assert network.degree(sao_paulo) >= 1
        assert ("area", "a7") in network.neighbours(sao_paulo)
        assert len(network.reachable_from(sao_paulo, max_hops=1)) >= 2
        assert len(network.connected_components()) >= 1
        assert network.shared_atom_count("area", "net") >= 5
        assert len(network) == geo_db.atom_count()

    def test_atom_network_keeps_atoms_of_different_types_apart(self):
        # Identifiers are unique only within an atom type: p:x and c:x are
        # two atoms, and the link p:x — c:y does not touch c:x.
        engine = PrimaEngine()
        engine.create_atom_type("p", ["name"])
        engine.create_atom_type("c", ["name"])
        engine.create_link_type("pc", "p", "c")
        for type_name in ("p", "c"):
            for identifier in ("x", "y"):
                engine.store_atom(type_name, identifier, name=identifier)
        engine.connect("pc", "x", "y")
        network = AtomNetwork(engine.to_database())
        assert len(network) == 4
        assert network.neighbours(("p", "x")) == {("c", "y")}
        assert network.degree(("c", "x")) == 0
        statistics = network.degree_statistics()
        assert set(statistics) == {"p", "c"}
        assert statistics["p"]["atoms"] == statistics["c"]["atoms"] == 2
        assert statistics["p"]["max"] == statistics["c"]["max"] == 1
