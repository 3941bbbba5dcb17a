"""Seeded dataset generators: each returns a ``Database`` and its ``Model`` twin.

``mesh`` has a fixed schema — ``build_synthetic_network`` draws its link
parents from the same RNG stream as the data, so its schema changes with the
size — and ``forest`` is the ``build_bill_of_materials(fan_out=1)`` shape with
seeded costs.  Both go through the public ``Database`` API only.
"""

from __future__ import annotations

import random
from typing import Tuple

from repro.core.database import Database
from repro.datasets.bill_of_materials import define_bom_schema

from .model import Model, Shape

MESH_TYPES = ("t0", "t1", "t2", "t3", "t4")
MESH_LINKS = (("t0", "t1"), ("t0", "t2"), ("t0", "t3"), ("t2", "t4"))
GROUPS = ("alpha", "beta", "gamma")
FAN_OUT = 2
FOREST_DEPTH = 64

#: The two molecule structures the mesh workloads read.
T0_T2_T4: Shape = ("t0", (("l_t0_t2", ("t2", (("l_t2_t4", ("t4", ())),))),))
T0_BRANCHED: Shape = (
    "t0",
    (
        ("l_t0_t1", ("t1", ())),
        ("l_t0_t2", ("t2", (("l_t2_t4", ("t4", ())),))),
        ("l_t0_t3", ("t3", ())),
    ),
)
T0_T2: Shape = ("t0", (("l_t0_t2", ("t2", ())),))


def build_mesh(seed: int, per_type: int) -> Tuple[Database, Model]:
    """5 × *per_type* atoms, 2 × *per_type* links per link type.

    Every first-type atom links to ``FAN_OUT`` distinct second-type atoms
    drawn at random, so children are shared unevenly but every molecule of one
    structure has the same number of links: which roots a seed makes hot then
    decides nothing about how much work a read of them is.
    """
    rng = random.Random(seed)
    db = Database("mesh")
    model = Model()
    for type_name in MESH_TYPES:
        db.define_atom_type(type_name, {"key": "string", "value": "integer", "grp": "string"})
        model.add_type(type_name)
        atom_type = db.atyp(type_name)
        for index in range(per_type):
            identifier = f"{type_name}_{index}"
            values = {
                "key": identifier,
                "value": rng.randint(0, 100),
                "grp": rng.choice(GROUPS),
            }
            atom_type.add(values, identifier=identifier)
            model.put(type_name, identifier, values)
    for first, second in MESH_LINKS:
        name = f"l_{first}_{second}"
        db.define_link_type(name, first, second)
        model.add_link_type(name, first, second)
        link_type = db.ltyp(name)
        for a in range(per_type):
            for b in rng.sample(range(per_type), FAN_OUT):
                link_type.connect(f"{first}_{a}", f"{second}_{b}")
                model.connect(name, f"{first}_{a}", f"{second}_{b}")
    return db, model


def part_id(number: int) -> str:
    return f"P{number:06d}"


def build_forest(seed: int, roots: int) -> Tuple[Database, Model]:
    """*roots* assemblies, each one ``composition`` chain of 65 parts."""
    rng = random.Random(seed)
    db = define_bom_schema("forest")
    model = Model()
    model.add_type("part")
    model.add_link_type("composition", "part", "part")
    parts = db.atyp("part")
    composition = db.ltyp("composition")
    number = 0
    for _ in range(roots):
        parent = None
        for level in range(FOREST_DEPTH + 1):
            number += 1
            identifier = part_id(number)
            values = {
                "part_no": identifier,
                "description": f"part at level {level}",
                "level": level,
                "cost": float(rng.randint(1, 500)),
            }
            parts.add(values, identifier=identifier)
            model.put("part", identifier, values)
            if parent is not None:
                composition.connect(parent, identifier)
                model.connect("composition", parent, identifier)
            parent = identifier
    return db, model
