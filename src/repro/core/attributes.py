"""Attribute descriptions, data types, and domains (Definition 1 substrate).

The paper states that "a valid atom-type description consists of a set of
attribute descriptions, and a valid atom-type occurrence is a subset of the
description's domain, which is the cartesian product of the attribute
domains used".  This module supplies those building blocks:

* :class:`DataType` — the primitive data types supported by attributes,
* :class:`AttributeDescription` — a named, typed attribute, optionally
  restricted to an explicit enumeration of allowed values,
* :class:`AtomTypeDescription` — an ordered collection of attribute
  descriptions (the ``ad`` component of an atom type).

Values are validated with :meth:`AttributeDescription.validate`, which is the
executable form of "belongs to the attribute domain".
"""

from __future__ import annotations

import enum
import operator
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.exceptions import AttributeError_, DomainError, DuplicateNameError


class DataType(enum.Enum):
    """Primitive data types available for attributes.

    The paper only requires "attributes of various data types"; we provide the
    types needed by the geographic example (names, measures, coordinates) plus
    a few generally useful ones.
    """

    INTEGER = "integer"
    REAL = "real"
    STRING = "string"
    BOOLEAN = "boolean"
    IDENTIFIER = "identifier"
    POINT2D = "point2d"
    ANY = "any"

    def accepts(self, value: object) -> bool:
        """Return ``True`` when *value* is a member of this data type's domain."""
        if value is None:
            return True
        if self is DataType.INTEGER:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.REAL:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is DataType.STRING:
            return isinstance(value, str)
        if self is DataType.BOOLEAN:
            return isinstance(value, bool)
        if self is DataType.IDENTIFIER:
            return isinstance(value, (str, int)) and not isinstance(value, bool)
        if self is DataType.POINT2D:
            return (
                isinstance(value, tuple)
                and len(value) == 2
                and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
            )
        return True  # DataType.ANY

    def coerce(self, value: object) -> object:
        """Coerce *value* into the canonical representation for this type.

        Integers offered to ``REAL`` attributes become floats, lists offered to
        ``POINT2D`` become tuples.  Values that cannot be represented raise
        :class:`DomainError`.
        """
        if value is None:
            return None
        if self is DataType.REAL and isinstance(value, int) and not isinstance(value, bool):
            return float(value)
        if self is DataType.POINT2D and isinstance(value, list):
            value = tuple(value)
        if not self.accepts(value):
            raise DomainError(f"value {value!r} is not a member of domain {self.value}")
        return value


class AttributeDescription:
    """A single attribute of an atom type: a name, a data type, and a domain.

    Parameters
    ----------
    name:
        The attribute name; must be a non-empty identifier.
    data_type:
        Member of :class:`DataType` (or its string value).
    allowed_values:
        Optional explicit domain enumeration.  When given, values must both
        satisfy the data type and be contained in this set.
    required:
        When ``True`` the attribute may not be ``None`` in any atom.
    doc:
        Free-form documentation string carried in the catalog.
    """

    __slots__ = ("name", "data_type", "allowed_values", "required", "doc")

    def __init__(
        self,
        name: str,
        data_type: "DataType | str" = DataType.ANY,
        allowed_values: Optional[Iterable[object]] = None,
        required: bool = False,
        doc: str = "",
    ) -> None:
        # Dotted prefixes are permitted because the cartesian product prefixes
        # clashing attribute names with their operand name ("area.name"), and
        # operand names of derived atom types may contain arbitrary symbols.
        if not isinstance(name, str) or not name or name != name.strip() or "\n" in name:
            raise AttributeError_(f"invalid attribute name: {name!r}")
        if isinstance(data_type, str):
            try:
                data_type = DataType(data_type)
            except ValueError as exc:
                raise AttributeError_(f"unknown data type: {data_type!r}") from exc
        self.name = name
        self.data_type = data_type
        self.allowed_values = frozenset(allowed_values) if allowed_values is not None else None
        self.required = bool(required)
        self.doc = doc

    def validate(self, value: object) -> object:
        """Validate and canonicalize *value* against this attribute's domain."""
        if value is None:
            if self.required:
                raise DomainError(f"attribute {self.name!r} is required and may not be None")
            return None
        value = self.data_type.coerce(value)
        if self.allowed_values is not None and value not in self.allowed_values:
            raise DomainError(
                f"value {value!r} is not in the enumerated domain of attribute {self.name!r}"
            )
        return value

    def renamed(self, new_name: str) -> "AttributeDescription":
        """Return a copy of this description carrying *new_name*."""
        return AttributeDescription(
            new_name,
            self.data_type,
            self.allowed_values,
            self.required,
            self.doc,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeDescription):
            return NotImplemented
        return (
            self.name == other.name
            and self.data_type == other.data_type
            and self.allowed_values == other.allowed_values
            and self.required == other.required
        )

    def __hash__(self) -> int:
        return hash((self.name, self.data_type, self.allowed_values, self.required))

    def __repr__(self) -> str:
        return f"AttributeDescription({self.name!r}, {self.data_type.value!r})"


class AtomTypeDescription:
    """The ``ad`` component of an atom type: an ordered set of attribute descriptions.

    Attribute order is preserved (it defines the column order of formatted
    output and of the relational mapping, and the positions of a stored
    atom's values) but equality is order-insensitive, matching the paper's
    set-based formulation.
    """

    __slots__ = ("_attributes", "_by_name", "positions")

    def __init__(self, attributes: Sequence["AttributeDescription | str"] = ()) -> None:
        self._attributes: Tuple[AttributeDescription, ...] = ()
        self._by_name: dict = {}
        normalized = []
        for attribute in attributes:
            if isinstance(attribute, str):
                attribute = AttributeDescription(attribute)
            if not isinstance(attribute, AttributeDescription):
                raise AttributeError_(
                    f"expected AttributeDescription or str, got {type(attribute).__name__}"
                )
            if attribute.name in self._by_name:
                raise DuplicateNameError(f"duplicate attribute name: {attribute.name!r}")
            self._by_name[attribute.name] = attribute
            normalized.append(attribute)
        self._attributes = tuple(normalized)
        #: Attribute name → position in definition order.  Every atom stored
        #: under this description holds its values as a row in that order
        #: and shares this one map to find them by name.
        self.positions: "dict[str, int]" = {
            attribute.name: position for position, attribute in enumerate(normalized)
        }

    @property
    def attributes(self) -> Tuple[AttributeDescription, ...]:
        """The attribute descriptions, in definition order."""
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        """The attribute names, in definition order."""
        return tuple(attribute.name for attribute in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[AttributeDescription]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> AttributeDescription:
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise AttributeError_(f"no attribute named {name!r} in description") from exc

    def get(self, name: str) -> Optional[AttributeDescription]:
        """Return the attribute description named *name*, or ``None``."""
        return self._by_name.get(name)

    def validate_values(self, values: Mapping[str, object]) -> "dict[str, object]":
        """Validate an attribute-value mapping against this description.

        Unknown attribute names raise :class:`AttributeError_`; missing
        attributes default to ``None`` (subject to ``required``).  The return
        value is a complete, canonicalized mapping covering every attribute.
        """
        return dict(zip(self.positions, self.validate_row(values)))

    def validate_row(self, values: Mapping[str, object]) -> Tuple[object, ...]:
        """:meth:`validate_values` as a row: the canonicalized values in
        definition order (the form a stored atom holds)."""
        unknown = set(values) - self._by_name.keys()
        if unknown:
            raise AttributeError_(
                f"unknown attributes {sorted(unknown)!r}; description has {list(self.names)!r}"
            )
        get = values.get
        return tuple([attribute.validate(get(attribute.name)) for attribute in self._attributes])

    def revalidate_row(self, row: Tuple[object, ...]) -> Tuple[object, ...]:
        """Validate a row already in definition order; *row* itself when
        validation keeps every value as it is (coerces none)."""
        validated = tuple(
            [attribute.validate(value) for attribute, value in zip(self._attributes, row)]
        )
        return row if all(map(operator.is_, validated, row)) else validated

    def project(self, names: Sequence[str]) -> "AtomTypeDescription":
        """Return a new description containing only the attributes in *names*.

        This is ``proj(ad)`` of Definition 4; *names* must be a subset of the
        existing attribute names.
        """
        missing = [name for name in names if name not in self._by_name]
        if missing:
            raise AttributeError_(f"cannot project onto unknown attributes {missing!r}")
        return AtomTypeDescription([self._by_name[name] for name in names])

    def union(self, other: "AtomTypeDescription", prefix_self: str = "", prefix_other: str = "") -> "AtomTypeDescription":
        """Concatenate two descriptions (``adx = ad1 ∪ ad2`` of the cartesian product).

        Definition 4 assumes operand descriptions are "in pairs disjoint"; when
        they are not, callers provide prefixes to disambiguate clashing names
        (the usual dotted-name convention).
        """
        merged = []
        other_names = set(other.names)
        for attribute in self._attributes:
            if attribute.name in other_names and prefix_self:
                merged.append(attribute.renamed(f"{prefix_self}.{attribute.name}"))
            else:
                merged.append(attribute)
        taken = {attribute.name for attribute in merged}
        for attribute in other._attributes:
            name = attribute.name
            if name in taken:
                if not prefix_other:
                    raise DuplicateNameError(
                        f"attribute {name!r} occurs in both operands; provide prefixes"
                    )
                name = f"{prefix_other}.{name}"
            merged.append(attribute.renamed(name) if name != attribute.name else attribute)
            taken.add(name)
        return AtomTypeDescription(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AtomTypeDescription):
            return NotImplemented
        return frozenset(self._attributes) == frozenset(other._attributes)

    def __hash__(self) -> int:
        return hash(frozenset(self._attributes))

    def __repr__(self) -> str:
        return f"AtomTypeDescription({list(self.names)!r})"


def make_description(spec: "AtomTypeDescription | Sequence | Mapping") -> AtomTypeDescription:
    """Build an :class:`AtomTypeDescription` from a convenient specification.

    Accepted forms:

    * an existing :class:`AtomTypeDescription` (returned unchanged),
    * a sequence of attribute names and/or :class:`AttributeDescription`
      objects,
    * a mapping ``{name: DataType | str}``.
    """
    if isinstance(spec, AtomTypeDescription):
        return spec
    if isinstance(spec, Mapping):
        return AtomTypeDescription(
            [AttributeDescription(name, data_type) for name, data_type in spec.items()]
        )
    return AtomTypeDescription(list(spec))
