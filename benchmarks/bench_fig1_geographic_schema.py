"""E-FIG1 — Figure 1: the sample geographic application.

Regenerates the figure's three layers as executable artifacts:

* the ER diagram (entity and relationship types),
* the MAD diagram obtained by the one-to-one mapping (atom and link types),
* the atom networks (the database occurrence) with link-degree statistics.

Shape checks: the ER→MAD mapping is one-to-one on type names and needs zero
auxiliary structures, whereas the ER→relational mapping needs one junction
relation per n:m relationship type.
"""

from __future__ import annotations

from conftest import report

from repro import load_geography
from repro.er import er_to_mad, er_to_relational_schemas
from repro.er.model import geographic_er_schema
from repro.er.to_mad import er_to_mad_report
from repro.er.to_relational import auxiliary_relation_count, mad_auxiliary_structure_count
from repro.storage import AtomNetwork


def test_fig1_er_to_mad_mapping(benchmark):
    """The ER schema of Fig. 1 maps one-to-one onto the MAD schema."""
    er = geographic_er_schema()

    mad = benchmark(er_to_mad, er)

    assert len(mad.atom_types) == len(er.entity_types)
    assert len(mad.link_types) == len(er.relationship_types)
    mapping = er_to_mad_report(er, mad)
    assert all("MISSING" not in kind for kind, _ in mapping.values())
    # Identity on names — the operational meaning of "one-to-one".
    assert {entity.name for entity in er.entity_types} == set(mad.atom_type_names)
    assert {rel.name for rel in er.relationship_types} == set(mad.link_type_names)

    relational = er_to_relational_schemas(er)
    junctions = auxiliary_relation_count(er)
    report(
        "Figure 1: auxiliary structures needed per model",
        [
            ("model", "types", "auxiliary structures"),
            ("MAD", len(mad.atom_types) + len(mad.link_types), mad_auxiliary_structure_count(er)),
            ("relational", len(relational), junctions),
        ],
    )
    assert junctions == 3  # area-edge, net-edge, edge-point are n:m
    assert mad_auxiliary_structure_count(er) == 0


def test_fig1_load_occurrence(benchmark):
    """Loading the Brazil occurrence produces the atom networks of Fig. 1."""
    db = benchmark(load_geography)

    assert db.is_valid()
    assert len(db.atyp("state")) == 10
    assert len(db.atyp("river")) == 3
    assert len(db.atyp("city")) == 10
    # Every state has exactly one area and every river exactly one net.
    assert len(db.ltyp("state-area")) == 10
    assert len(db.ltyp("river-net")) == 3
    report(
        "Figure 1: occurrence sizes",
        [("atom type", "atoms")] + sorted(db.statistics()["atom_types"].items()),
    )


def test_fig1_network_statistics(geo_db, benchmark):
    """The atom networks form meshed structures: edges are linked to areas, nets and points."""
    network = benchmark(lambda: AtomNetwork(geo_db))

    stats = network.degree_statistics()
    report(
        "Figure 1: link-degree statistics per atom type",
        [("atom type", "atoms", "mean degree", "max degree")]
        + [
            (name, int(s["atoms"]), f"{s['mean']:.1f}", int(s["max"]))
            for name, s in sorted(stats.items())
        ],
    )
    # Edges are the meeting point of the geographic model: they connect to
    # points and to areas and/or nets, so their mean degree is the largest.
    assert stats["edge"]["mean"] >= stats["state"]["mean"]
    assert network.shared_atom_count("area", "net") >= 5  # Parana border edges
    # The largest meshed structure spans several application objects: it
    # contains states, rivers and the whole shared geographic model between them.
    components = network.connected_components()
    largest_types = {type_name for type_name, _identifier in components[0]}
    assert {"state", "river", "area", "net", "edge", "point"} <= largest_types
    assert len(components[0]) >= geo_db.atom_count() / 3
