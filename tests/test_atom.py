"""Unit tests for atoms and atom types (Definition 1)."""

import tracemalloc

import pytest

from repro.core.atom import Atom, AtomType, reset_surrogate_counter
from repro.exceptions import DomainError, IntegrityError, SchemaError


class TestAtom:
    def test_surrogate_identifier_generated(self):
        reset_surrogate_counter()
        atom = Atom("state", {"name": "SP"})
        assert atom.identifier.startswith("state#")

    def test_explicit_identifier_kept(self):
        atom = Atom("state", {"name": "SP"}, identifier="SP")
        assert atom.identifier == "SP"

    def test_values_returns_copy(self):
        atom = Atom("state", {"name": "SP"})
        values = atom.values
        values["name"] = "changed"
        assert atom["name"] == "SP"

    def test_getitem_and_get(self):
        atom = Atom("state", {"name": "SP"})
        assert atom["name"] == "SP"
        assert atom["missing"] is None
        assert atom.get("missing", "x") == "x"

    def test_with_values_preserves_identity(self):
        atom = Atom("state", {"name": "SP", "hectare": 10}, identifier="SP")
        updated = atom.with_values(hectare=20)
        assert updated.identifier == "SP"
        assert updated["hectare"] == 20
        assert atom["hectare"] == 10

    def test_projected_keeps_identity(self):
        atom = Atom("state", {"name": "SP", "hectare": 10}, identifier="SP")
        projected = atom.projected(["name"])
        assert projected.identifier == "SP"
        assert projected.values == {"name": "SP"}

    def test_concatenated_composite_identity(self):
        left = Atom("a", {"x": 1}, identifier="a1")
        right = Atom("b", {"y": 2}, identifier="b1")
        combined = left.concatenated(right, "ab", ["x", "y"])
        assert combined.identifier == "a1&b1"
        assert combined.values == {"x": 1, "y": 2}
        assert combined.provenance() == ("a1", "b1")

    def test_concatenated_prefixed_names(self):
        left = Atom("a", {"x": 1}, identifier="a1")
        right = Atom("b", {"x": 2}, identifier="b1")
        combined = left.concatenated(right, "ab", ["x", "b.x"])
        assert combined.values == {"x": 1, "b.x": 2}

    def test_equality_by_identity_and_type(self):
        assert Atom("a", {"x": 1}, identifier="i") == Atom("a", {"x": 2}, identifier="i")
        assert Atom("a", {}, identifier="i") != Atom("b", {}, identifier="i")

    def test_hashable(self):
        atoms = {Atom("a", {}, identifier="i"), Atom("a", {}, identifier="i")}
        assert len(atoms) == 1


class TestAtomType:
    def test_accessor_functions(self):
        atom_type = AtomType("state", {"name": "string"})
        assert atom_type.name == "state"
        assert atom_type.description.names == ("name",)
        assert atom_type.occurrence == ()

    def test_invalid_name_rejected(self):
        with pytest.raises(SchemaError):
            AtomType("", {"x": "integer"})

    def test_add_mapping_creates_atom(self):
        atom_type = AtomType("state", {"name": "string"})
        atom = atom_type.add({"name": "SP"})
        assert atom in atom_type
        assert len(atom_type) == 1

    def test_insert_keyword_convenience(self):
        atom_type = AtomType("state", {"name": "string"})
        atom = atom_type.insert(name="SP", identifier="SP")
        assert atom.identifier == "SP"

    def test_add_validates_domain(self):
        atom_type = AtomType("state", {"hectare": "integer"})
        with pytest.raises(DomainError):
            atom_type.add({"hectare": "not a number"})

    def test_add_rejects_duplicate_identifier(self):
        atom_type = AtomType("state", {"name": "string"})
        atom_type.add({"name": "SP"}, identifier="SP")
        with pytest.raises(IntegrityError):
            atom_type.add({"name": "other"}, identifier="SP")

    def test_add_retypes_foreign_atom(self):
        atom_type = AtomType("state", {"name": "string"})
        foreign = Atom("other", {"name": "SP"}, identifier="x")
        stored = atom_type.add(foreign)
        assert stored.type_name == "state"
        assert stored.identifier == "x"

    def test_remove_by_identifier_and_object(self):
        atom_type = AtomType("state", {"name": "string"})
        atom = atom_type.add({"name": "SP"}, identifier="SP")
        atom_type.remove("SP")
        assert len(atom_type) == 0
        with pytest.raises(IntegrityError):
            atom_type.remove(atom)

    def test_get_and_contains(self):
        atom_type = AtomType("state", {"name": "string"})
        atom = atom_type.add({"name": "SP"}, identifier="SP")
        assert atom_type.get("SP") == atom
        assert atom_type.get("missing") is None
        assert "SP" in atom_type
        assert atom in atom_type

    def test_iteration_and_identifiers(self):
        atom_type = AtomType("state", {"name": "string"})
        atom_type.add({"name": "SP"}, identifier="SP")
        atom_type.add({"name": "MG"}, identifier="MG")
        assert {a["name"] for a in atom_type} == {"SP", "MG"}
        assert set(atom_type.identifiers()) == {"SP", "MG"}

    def test_empty_copy_and_copy(self):
        atom_type = AtomType("state", {"name": "string"})
        atom_type.add({"name": "SP"}, identifier="SP")
        empty = atom_type.empty_copy("other")
        assert empty.name == "other" and len(empty) == 0
        clone = atom_type.copy()
        assert len(clone) == 1
        clone.remove("SP")
        assert len(atom_type) == 1  # original untouched

    def test_equality(self):
        a = AtomType("state", {"name": "string"})
        b = AtomType("state", {"name": "string"})
        a.add({"name": "SP"}, identifier="SP")
        b.add({"name": "SP"}, identifier="SP")
        assert a == b
        b.add({"name": "MG"}, identifier="MG")
        assert a != b


class TestStoredAtoms:
    """A stored atom holds one row in definition order and shares its
    description's name → position map."""

    def test_stored_row_follows_the_description(self):
        atom_type = AtomType("state", {"name": "string", "hectare": "real"})
        stored = atom_type.add({"hectare": 5, "name": "SP"}, identifier="SP")
        assert stored.values == {"name": "SP", "hectare": 5.0}
        assert list(stored.values) == ["name", "hectare"]
        assert stored["hectare"] == 5.0 and stored["missing"] is None
        assert stored.get("missing", 7) == 7
        assert stored._positions is atom_type.description.positions
        given = Atom("state", {"hectare": 5.0, "name": "SP"}, identifier="SP")
        assert list(given.values) == ["hectare", "name"]  # as given until stored

    def test_an_atom_of_this_type_is_stored_itself(self):
        atom_type = AtomType("state", {"name": "string", "hectare": "real"})
        stored = atom_type.add({"name": "SP", "hectare": 1.5}, identifier="SP")
        clone = atom_type.empty_copy()
        assert clone.add(stored) is stored
        renamed = atom_type.empty_copy("province")
        retyped = renamed.add(stored)
        assert retyped is not stored and retyped.type_name == "province"
        assert retyped._values is stored._values  # validation kept every value

    def test_a_value_validation_changes_is_rebuilt(self):
        atom_type = AtomType("state", {"name": "string", "hectare": "real"})
        raw = Atom._stored("state", "SP", ("SP", 5), atom_type.description.positions)
        stored = atom_type.add(raw)
        assert stored is not raw
        assert stored.values == {"name": "SP", "hectare": 5.0}
        assert isinstance(stored["hectare"], float)
        in_order = atom_type.add(Atom("state", {"name": "MG", "hectare": 7}, identifier="MG"))
        assert isinstance(in_order["hectare"], float)
        assert in_order._positions is atom_type.description.positions

    def test_replace_keeps_identity_and_rolls_back_to_the_same_object(self):
        atom_type = AtomType("state", {"name": "string", "hectare": "integer"})
        old = atom_type.add({"name": "SP", "hectare": 1}, identifier="SP")
        new = atom_type.replace(old.with_values(hectare=2))
        assert new["hectare"] == 2 and new._positions is old._positions
        assert atom_type.replace(old) is old


class TestAtomMemory:
    def test_atom_has_no_instance_dict(self):
        atom_type = AtomType("state", {"name": "string"})
        assert not hasattr(atom_type.add({"name": "SP"}), "__dict__")
        assert not hasattr(Atom("state", {"name": "SP"}), "__dict__")

    def test_bytes_per_stored_atom(self):
        """20k atoms of three attributes added from mappings built
        beforehand: the atoms, their rows and the occurrence dict stay
        within 190 B an atom (≈ 149 B on CPython 3.11 and 3.12, ≈ 158 B
        on 3.9)."""
        count = 20_000
        atom_type = AtomType("part", {"key": "string", "value": "integer", "grp": "string"})
        identifiers = [f"p{i}" for i in range(count)]
        rows = [
            {"key": identifier, "value": i % 101, "grp": ("alpha", "beta", "gamma")[i % 3]}
            for i, identifier in enumerate(identifiers)
        ]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for identifier, values in zip(identifiers, rows):
                atom_type.add(values, identifier=identifier)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(atom_type) == count
        assert grown / count <= 190
