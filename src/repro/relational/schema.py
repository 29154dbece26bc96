"""Relation schemas: named, typed attribute lists.

A :class:`Schema` is an ordered list of :class:`Attribute` objects.  Rows
(:class:`repro.relational.rows.Row`) are validated against a schema when a
relation is created with one.  Schemas also drive schema inference for
relational expressions (projection keeps a subset, natural join merges two
schemas on their common attribute names).
"""

from __future__ import annotations

import enum
from operator import itemgetter
from typing import Collection, Iterable, Iterator

from repro.errors import SchemaError
from repro.record import Node


class AttrType(enum.Enum):
    """The value types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"

    @property
    def python_type(self) -> type:
        return _PYTHON_TYPES[self]

    def accepts(self, value: object) -> bool:
        """Return True if ``value`` is a legal value of this type.

        ``bool`` is *not* accepted for INT even though ``bool`` subclasses
        ``int`` in Python — mixing them silently hides schema bugs.
        """
        if self is AttrType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is AttrType.FLOAT:
            return (
                isinstance(value, float)
                or (isinstance(value, int) and not isinstance(value, bool))
            )
        if self is AttrType.STR:
            return isinstance(value, str)
        return isinstance(value, bool)


_PYTHON_TYPES = {
    AttrType.INT: int,
    AttrType.FLOAT: float,
    AttrType.STR: str,
    AttrType.BOOL: bool,
}
#: per type, the value classes :meth:`AttrType.accepts` has said yes to (its
#: verdict depends on a value's class alone)
_ACCEPTED: dict[AttrType, set[type]] = {attr_type: set() for attr_type in AttrType}


class Attribute(Node):
    """A single named, typed column."""

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: AttrType = AttrType.INT) -> None:
        if not name or not name.isidentifier():
            raise SchemaError(f"attribute name {name!r} is not an identifier")
        self._init(name, type)

    def __str__(self) -> str:
        return f"{self.name}:{self.type.value}"


def _misfit(attr: Attribute, value: object) -> SchemaError:
    return SchemaError(
        f"attribute {attr.name!r} expects {attr.type.value}, "
        f"got {value!r} ({type(value).__name__})"
    )


class Schema:
    """An ordered, duplicate-free list of attributes.

    Schemas are immutable and hashable so they can be compared and cached.
    """

    __slots__ = ("_attributes", "_names", "_layout", "_by_name", "_hash", "_columns")

    def __init__(self, attributes: Iterable[Attribute | str]) -> None:
        attrs: list[Attribute] = []
        for attr in attributes:
            if isinstance(attr, str):
                attr = Attribute(attr)
            attrs.append(attr)
        names = [a.name for a in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        if not attrs:
            raise SchemaError("a schema must have at least one attribute")
        object.__setattr__(self, "_attributes", tuple(attrs))
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_layout", tuple(sorted(names)))
        object.__setattr__(self, "_by_name", {a.name: a for a in attrs})
        object.__setattr__(self, "_hash", hash(tuple(attrs)))
        # per layout position: the attribute, the value classes known to
        # fit its type, and the reader of that position of a value tuple
        by_name = self._by_name
        columns = (
            (by_name[name], _ACCEPTED[by_name[name].type], itemgetter(position))
            for position, name in enumerate(self._layout)
        )
        object.__setattr__(self, "_columns", tuple(columns))

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def layout(self) -> tuple[str, ...]:
        """The names sorted: the order a row's normalised items, and so a
        stored value tuple, line up in."""
        return self._layout

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __getitem__(self, name: str) -> Attribute:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"schema has no attribute {name!r}") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Schema({', '.join(str(a) for a in self._attributes)})"

    def validate(self, values: dict[str, object]) -> None:
        """Raise :class:`SchemaError` unless ``values`` matches this schema."""
        if values.keys() != self._by_name.keys():
            self._reject_names(values)
        for attr in self._attributes:
            value = values[attr.name]
            if not attr.type.accepts(value):
                raise _misfit(attr, value)

    def _reject_names(self, names: Iterable[str]) -> None:
        """The error for an attribute set that is not this schema's."""
        missing = [n for n in self._names if n not in names]
        if missing:
            raise SchemaError(f"row is missing attributes {missing}")
        extra = [n for n in names if n not in self._by_name]
        raise SchemaError(f"row has attributes {extra} not in schema")

    def validate_columns(
        self, layout: tuple[str, ...], tuples: Collection[tuple]
    ) -> None:
        """:meth:`validate` for a whole bag of ``layout``-positioned value
        tuples, decided per column instead of per row.

        The attribute set is compared once (``layout`` must be the sorted
        schema names, the only order in which a tuple lines up with a
        row's normalised items), every tuple must have the layout's arity,
        and for each attribute the *classes* present in its column are put
        to :meth:`AttrType.accepts`, one value per class not accepted
        before: the verdict of ``accepts`` depends on a value's class
        alone, so that is the check ``validate`` makes row by row, and a
        failure carries its message.
        """
        if layout != self._layout:
            if set(layout) != self._by_name.keys():
                self._reject_names(layout)
            raise SchemaError(
                f"layout {layout} is not the sorted attribute names of {self!r}"
            )
        if not tuples:
            return
        if not (
            {tuple}.issuperset(map(type, tuples))
            and {len(layout)}.issuperset(map(len, tuples))
        ):
            bad = next(
                t for t in tuples
                if type(t) is not tuple or len(t) != len(layout)
            )
            raise SchemaError(
                f"{bad!r} is not a tuple of the {len(layout)} values of "
                f"layout {layout}"
            )
        for attr, accepted, value_of in self._columns:
            for cls in set(map(type, map(value_of, tuples))) - accepted:
                witness = next(
                    v for v in map(value_of, tuples) if type(v) is cls
                )
                if not attr.type.accepts(witness):
                    raise _misfit(attr, witness)
                accepted.add(cls)

    def project(self, names: Iterable[str]) -> "Schema":
        """Return the sub-schema containing only ``names`` (in given order)."""
        return Schema([self[name] for name in names])

    def common_names(self, other: "Schema") -> tuple[str, ...]:
        """Attribute names shared with ``other`` (in this schema's order)."""
        return tuple(n for n in self.names if n in other)

    def natural_join(self, other: "Schema") -> "Schema":
        """Schema of the natural join: self's attributes, then other's new ones.

        Shared attribute names must agree on type.
        """
        for name in self.common_names(other):
            if self[name].type is not other[name].type:
                raise SchemaError(
                    f"natural join type mismatch on {name!r}: "
                    f"{self[name].type.value} vs {other[name].type.value}"
                )
        merged = list(self._attributes)
        merged.extend(a for a in other if a.name not in self._by_name)
        return Schema(merged)
