"""Database validation: referential integrity, cardinality, and domain checks.

The paper emphasizes that the MAD model "avoids the problem of enforcing
referential integrity, since the relevant relationships … are explicitly
represented and maintained by means of the link concept.  (There are no
dangling references (i.e. links) and it is even possible to control
cardinality restrictions specified in an extended link-type definition)".
:func:`validate_database` turns those guarantees into an executable report:
it never mutates the database, it only inspects it and lists every violation
found (an empty report means membership in the database domain ``DB*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.database import Database
from repro.core.link import Cardinality
from repro.exceptions import DomainError


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_database`; empty ``violations`` means valid."""

    violations: List[str] = field(default_factory=list)
    checked_atoms: int = 0
    checked_links: int = 0

    @property
    def is_valid(self) -> bool:
        """``True`` when no violation was recorded."""
        return not self.violations

    def add(self, message: str) -> None:
        """Record a violation."""
        self.violations.append(message)

    def __bool__(self) -> bool:
        return self.is_valid


def validate_database(database: Database) -> ValidationReport:
    """Validate *database* and return a :class:`ValidationReport`.

    Checks performed:

    * **domain check** — every atom's values satisfy its type's attribute
      descriptions (types, enumerations, required flags);
    * **referential integrity** — every link endpoint exists in one of the
      link type's endpoint atom types;
    * **cardinality** — 1:1 and 1:n link types do not exceed their bounds.

    Note that atom identity is unique *within* an atom type ("each atom …
    is uniquely identifiable and belongs to its corresponding atom type");
    the same identifier may legitimately appear in several atom types of an
    enlarged database, because algebra results keep the identity of their
    operand atoms (that is what makes link inheritance possible).
    """
    report = ValidationReport()

    for atom_type in database.atom_types:
        for atom in atom_type:
            report.checked_atoms += 1
            try:
                atom_type.description.validate_values(atom.values)
            except DomainError as exc:
                report.add(f"domain violation in {atom_type.name!r}/{atom.identifier!r}: {exc}")
            except Exception as exc:  # noqa: BLE001 - report, don't crash validation
                report.add(f"invalid atom {atom.identifier!r} in {atom_type.name!r}: {exc}")

    for link_type in database.link_types:
        first_name, second_name = link_type.atom_type_names
        first = database.atyp(first_name)
        second = database.atyp(second_name)
        known = set(first.identifiers()) | set(second.identifiers())
        degree_first: Dict[str, int] = {}
        degree_second: Dict[str, int] = {}
        for link in link_type:
            report.checked_links += 1
            # A stored link is in definition order.
            first_id, second_id = link.first, link.second
            for identifier in {first_id, second_id}:
                if identifier not in known:
                    report.add(
                        f"dangling link in {link_type.name!r}: atom {identifier!r} does not exist"
                    )
            degree_first[first_id] = degree_first.get(first_id, 0) + 1
            degree_second[second_id] = degree_second.get(second_id, 0) + 1
        if link_type.cardinality is Cardinality.ONE_TO_ONE:
            for identifier, degree in {**degree_first, **degree_second}.items():
                if degree > 1:
                    report.add(
                        f"cardinality violation in 1:1 link type {link_type.name!r}: "
                        f"atom {identifier!r} participates {degree} times"
                    )
        elif link_type.cardinality is Cardinality.ONE_TO_MANY:
            for identifier, degree in degree_second.items():
                if degree > 1:
                    report.add(
                        f"cardinality violation in 1:n link type {link_type.name!r}: "
                        f"{second_name!r} atom {identifier!r} has {degree} parents"
                    )

    return report
