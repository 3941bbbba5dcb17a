"""Mapping hierarchical molecule types onto nested relations.

The NF² model "supports only hierarchical complex objects without shared
subobjects": a molecule type whose structure graph is a *tree* can be mapped
onto a nested relation, but any atom shared between molecules (or reachable
through two branches) has to be **copied** into every parent.
:func:`molecule_type_to_nested` performs the mapping;
:func:`nested_duplication_factor` measures the resulting blow-up, which is one
of the quantities reported by the E-PERF1 benchmark.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.molecule import Molecule, MoleculeType, MoleculeTypeDescription
from repro.exceptions import AlgebraError
from repro.nf2.nested_relation import NestedRelation, NestedSchema


def _schema_for(description: MoleculeTypeDescription, type_name: str, attribute_names: Dict[str, Tuple[str, ...]]) -> NestedSchema:
    children = description.children_of(type_name)
    nested = tuple(
        (directed.target, _schema_for(description, directed.target, attribute_names))
        for directed in children
    )
    return NestedSchema(("_id",) + attribute_names[type_name], nested)


def molecule_type_to_nested(
    molecule_type: MoleculeType,
    name: Optional[str] = None,
    strict: bool = True,
) -> NestedRelation:
    """Map *molecule_type* onto a nested relation (one nested tuple per molecule).

    When *strict* is true the molecule structure must be a tree (every atom
    type except the root has exactly one parent); a DAG structure raises
    :class:`AlgebraError`, because NF² cannot represent the sharing without
    choosing one parent arbitrarily.  Shared atoms *between* molecules are
    silently duplicated — that is precisely the NF² limitation the paper
    points out.
    """
    description = molecule_type.description
    for type_name in description.atom_type_names:
        if type_name == description.root:
            continue
        if strict and len(description.parents_of(type_name)) > 1:
            raise AlgebraError(
                f"molecule structure is not hierarchical: {type_name!r} has several parents; "
                "NF² supports only hierarchical complex objects"
            )

    attribute_names: Dict[str, Tuple[str, ...]] = {}
    for type_name in description.atom_type_names:
        names: Tuple[str, ...] = ()
        for molecule in molecule_type:
            atoms = molecule.atoms_of_type(type_name)
            if atoms:
                names = tuple(atoms[0].values.keys())
                break
        attribute_names[type_name] = names

    schema = _schema_for(description, description.root, attribute_names)
    relation = NestedRelation(name or molecule_type.name, schema)

    adjacency_cache: Dict[int, Dict[str, set]] = {}

    def adjacency(molecule: Molecule) -> Dict[str, set]:
        key = id(molecule)
        if key not in adjacency_cache:
            adj: Dict[str, set] = {}
            for link in molecule.links:
                first, last = link.first, link.second
                adj.setdefault(first, set()).add(last)
                adj.setdefault(last, set()).add(first)
            adjacency_cache[key] = adj
        return adjacency_cache[key]

    def build(molecule: Molecule, atom, type_name: str) -> Dict[str, object]:
        row: Dict[str, object] = {"_id": atom.identifier}
        row.update(atom.values)
        neighbours = adjacency(molecule).get(atom.identifier, set())
        for directed in description.children_of(type_name):
            children = [
                child
                for child in molecule.atoms_of_type(directed.target)
                if child.identifier in neighbours
            ]
            row[directed.target] = [build(molecule, child, directed.target) for child in children]
        return row

    for molecule in molecule_type:
        relation.insert(build(molecule, molecule.root_atom, description.root))
    return relation


def nested_duplication_factor(molecule_type: MoleculeType, nested: NestedRelation) -> float:
    """Ratio of NF² stored tuples to distinct MAD atoms.

    A factor of 1.0 means no sharing was lost; factors above 1.0 quantify the
    copies the nested representation had to make for shared subobjects.
    """
    distinct = molecule_type.distinct_atom_count()
    if distinct == 0:
        return 1.0
    return nested.flat_tuple_count() / distinct
