"""Mapping a MAD database onto the relational model (the paper's strawman).

"It is easy to imagine that a transformation to the relational model becomes
quite cumbersome, since all n:m relationship types have to be modeled by some
auxiliary relations."  :func:`map_database` performs exactly that
transformation:

* each atom type becomes a relation with a surrogate-key attribute ``_id``
  plus one attribute per attribute description;
* each link type becomes an **auxiliary (junction) relation** with two
  foreign-key attributes referencing the surrogate keys of the two endpoint
  relations — this is required for n:m link types and, for uniformity (and
  because the MAD link is symmetric), we map every link type this way.

The resulting :class:`RelationalMapping` is the baseline database for the
E-PERF1 benchmark and for the Fig. 3 concept-comparison table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.database import Database
from repro.relational.relation import Relation, RelationSchema


@dataclass
class RelationalMapping:
    """The relational image of a MAD database.

    Attributes
    ----------
    entity_relations:
        One relation per atom type (keyed by atom-type name).
    auxiliary_relations:
        One junction relation per link type (keyed by link-type name).
    """

    name: str
    entity_relations: Dict[str, Relation] = field(default_factory=dict)
    auxiliary_relations: Dict[str, Relation] = field(default_factory=dict)

    def relation(self, name: str) -> Relation:
        """Return the entity or auxiliary relation called *name*."""
        if name in self.entity_relations:
            return self.entity_relations[name]
        return self.auxiliary_relations[name]

    def relations(self) -> Tuple[Relation, ...]:
        """All relations (entity relations first)."""
        return tuple(self.entity_relations.values()) + tuple(self.auxiliary_relations.values())

    def total_tuples(self) -> int:
        """Total number of stored tuples, including the auxiliary relations.

        The difference between this number and the MAD database's atom count
        is the storage overhead of representing links as data.
        """
        return sum(len(relation) for relation in self.relations())

    def statistics(self) -> Dict[str, int]:
        """Per-relation tuple counts."""
        return {relation.name: len(relation) for relation in self.relations()}


def _endpoint_columns(link_type_name: str, first: str, second: str) -> Tuple[str, str]:
    """Column names of a junction relation; disambiguate reflexive link types."""
    if first == second:
        return (f"{first}_super_id", f"{second}_sub_id")
    return (f"{first}_id", f"{second}_id")


def map_database(database: Database, name: Optional[str] = None) -> RelationalMapping:
    """Transform *database* into its relational image (entity + auxiliary relations)."""
    mapping = RelationalMapping(name or f"{database.name}_rel")

    for atom_type in database.atom_types:
        attributes = ("_id",) + tuple(atom_type.description.names)
        schema = RelationSchema(attributes, primary_key=("_id",))
        relation = Relation(atom_type.name, schema)
        for atom in atom_type:
            row = {"_id": atom.identifier}
            row.update(atom.values)
            relation.insert(row)
        relation.build_index("_id")
        mapping.entity_relations[atom_type.name] = relation

    for link_type in database.link_types:
        first, second = link_type.atom_type_names
        first_col, second_col = _endpoint_columns(link_type.name, first, second)
        schema = RelationSchema(
            (first_col, second_col),
            primary_key=(first_col, second_col),
            foreign_keys=((first_col, first, "_id"), (second_col, second, "_id")),
        )
        relation = Relation(link_type.name, schema)
        # A stored link is in definition order: (first-type endpoint,
        # second-type endpoint), or a reflexive link's two roles as given.
        for link in link_type:
            relation.insert({first_col: link.first, second_col: link.second})
        relation.build_index(first_col)
        relation.build_index(second_col)
        mapping.auxiliary_relations[link_type.name] = relation

    return mapping


def concept_comparison_rows() -> Tuple[Tuple[str, str], ...]:
    """The rows of Fig. 3: relational concepts vs. MAD concepts.

    Returned as ``(relational concept, MAD concept)`` pairs; a dash means the
    concept has no counterpart on the relational side.  The Fig. 3 benchmark
    verifies each row against the live implementations of both models.
    """
    return (
        ("attribute", "attribute"),
        ("attribute domain", "attribute domain"),
        ("relation schema", "atom-type description"),
        ("tuple set", "atom-type occurrence"),
        ("tuple", "atom"),
        ("relation", "atom type"),
        ("database", "database"),
        ("-", "link"),
        ("-", "link-type description"),
        ("-", "link-type occurrence"),
        ("-", "link type"),
        ("referential integrity (?)", "referential integrity (!)"),
        ("'relation domain'", "database domain"),
    )
