"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import Database, load_geography
from repro.core.molecule import MoleculeTypeDescription
from repro.datasets.geography import mt_state_description, point_neighborhood_description


@pytest.fixture()
def geo_db() -> Database:
    """A fresh copy of the Brazil geographic database for every test."""
    return load_geography()


@pytest.fixture(scope="session")
def geo_db_session() -> Database:
    """A session-wide (read-only) Brazil database for derivation-only tests."""
    return load_geography()


@pytest.fixture()
def mt_state_desc() -> MoleculeTypeDescription:
    atom_types, directed_links = mt_state_description()
    return MoleculeTypeDescription(atom_types, directed_links)


@pytest.fixture()
def point_neighborhood_desc() -> MoleculeTypeDescription:
    atom_types, directed_links = point_neighborhood_description()
    return MoleculeTypeDescription(atom_types, directed_links)


@pytest.fixture()
def tiny_db() -> Database:
    """A tiny two-type database used by the unit tests: authors and books."""
    db = Database("tiny")
    db.define_atom_type("author", {"name": "string", "country": "string"})
    db.define_atom_type("book", {"title": "string", "year": "integer"})
    db.define_link_type("wrote", "author", "book")
    a1 = db.insert_atom("author", identifier="a1", name="Codd", country="UK")
    a2 = db.insert_atom("author", identifier="a2", name="Ullman", country="US")
    b1 = db.insert_atom("book", identifier="b1", title="Relational Model", year=1970)
    b2 = db.insert_atom("book", identifier="b2", title="Principles", year=1980)
    b3 = db.insert_atom("book", identifier="b3", title="Survey", year=1985)
    db.connect("wrote", a1, b1)
    db.connect("wrote", a2, b2)
    db.connect("wrote", a1, b3)
    db.connect("wrote", a2, b3)  # shared subobject
    return db


@pytest.fixture()
def shared_ids_db() -> Database:
    """A valid 1:n database whose two atom types share identifiers: ``p``
    and ``c`` both hold ``x0..x39``, and ``pc`` links ``p:xi`` to
    ``c:x(i+1)`` — only a link's position tells its two sides apart."""
    from repro.core.link import Cardinality

    db = Database("shared_ids")
    db.define_atom_type("p", {"n": "integer"})
    db.define_atom_type("c", {"n": "integer"})
    db.define_link_type("pc", "p", "c", cardinality=Cardinality.ONE_TO_MANY)
    for i in range(40):
        db.insert_atom("p", identifier=f"x{i}", n=i)
        db.insert_atom("c", identifier=f"x{i}", n=i)
    for i in range(39):
        db.connect("pc", db.atyp("p").get(f"x{i}"), db.atyp("c").get(f"x{i + 1}"))
    return db
