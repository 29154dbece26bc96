"""Immutable rows (tuples with named attributes).

A :class:`Row` is an immutable, hashable mapping from attribute name to
value.  Rows are the unit stored in relations and carried by updates,
deltas and action lists; immutability is what makes it safe to share them
freely between simulated processes.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Mapping

from repro.errors import SchemaError

_ITEM_VALUE = itemgetter(1)


class Row(Mapping[str, object]):
    """An immutable named tuple of attribute values.

    Construction accepts either a mapping or keyword arguments::

        Row({"a": 1, "b": 2})
        Row(a=1, b=2)

    Attribute order is normalised (sorted by name) so two rows with the
    same name/value pairs are equal and hash alike regardless of how they
    were built.
    """

    __slots__ = ("_items", "_dict", "_hash", "_projections", "_names", "_values")

    def __init__(self, values: Mapping[str, object] | None = None, **kwargs: object):
        merged: dict[str, object] = dict(values) if values else {}
        for key, val in kwargs.items():
            if key in merged:
                raise SchemaError(f"attribute {key!r} given twice")
            merged[key] = val
        if not merged:
            raise SchemaError("a row must have at least one attribute")
        items = tuple(sorted(merged.items()))
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_dict", dict(items))
        object.__setattr__(self, "_hash", hash(items))
        object.__setattr__(self, "_projections", None)
        object.__setattr__(self, "_names", None)
        object.__setattr__(self, "_values", None)

    @classmethod
    def _from_sorted_items(cls, items: tuple) -> "Row":
        """Build from already-normalised (sorted, unique-key) items.

        Skips the merge/sort work of ``__init__`` — only for internal
        callers that derive ``items`` from an existing row's ``_items``.
        """
        row = object.__new__(cls)
        object.__setattr__(row, "_items", items)
        object.__setattr__(row, "_dict", dict(items))
        object.__setattr__(row, "_hash", hash(items))
        object.__setattr__(row, "_projections", None)
        object.__setattr__(row, "_names", None)
        object.__setattr__(row, "_values", None)
        return row

    # -- Mapping protocol ------------------------------------------------
    def __getitem__(self, name: str) -> object:
        try:
            return self._dict[name]
        except KeyError:
            raise SchemaError(f"row has no attribute {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._dict)

    def __len__(self) -> int:
        return len(self._dict)

    def __contains__(self, name: object) -> bool:
        return name in self._dict

    # -- identity --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Row") -> bool:
        """Total order on rows with comparable values — used for stable output."""
        return self._sort_key() < other._sort_key()

    def _sort_key(self) -> tuple:
        return tuple((k, type(v).__name__, v) for k, v in self._items)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._items)
        return f"Row({inner})"

    # -- derivation ------------------------------------------------------
    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._dict)

    def sorted_names(self) -> tuple[str, ...]:
        """The attribute names in normalised (sorted) order, cached.

        This *is* the row's columnar layout: items are stored sorted by
        name, so a sorted layout over the same attribute set lines up
        with the row's values positionally.
        """
        cached = self._names
        if cached is None:
            cached = tuple(pair[0] for pair in self._items)
            object.__setattr__(self, "_names", cached)
        return cached

    def values_tuple(self, layout: tuple[str, ...]) -> tuple:
        """The attribute values in ``layout`` order, as a plain tuple.

        This is the row -> columnar boundary conversion.  When ``layout``
        equals the row's own sorted names (the common case — schema
        validation guarantees every row of a schema'd relation carries
        exactly the schema's attributes), the answer is the row's
        positional value tuple, which it remembers: the tuple a compiled
        builder made the row from, else one read off the normalised items
        on the first call.
        """
        if layout == self.sorted_names():
            values = self._values
            if values is None:
                values = tuple(map(_ITEM_VALUE, self._items))
                object.__setattr__(self, "_values", values)
            return values
        return tuple(self[name] for name in layout)

    def project(self, names: Iterable[str]) -> "Row":
        """Return a new row containing only ``names``.

        Results are memoized per (row, name tuple): projection runs once
        per row per Project node per update, and rows are shared between
        relations and deltas, so repeat projections are dict hits.  The
        projected row's items are carved out of this row's already-sorted
        items, skipping the normalisation sort.
        """
        key = tuple(names)
        cache = self._projections
        if cache is None:
            cache = {}
            object.__setattr__(self, "_projections", cache)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if not key:
            raise SchemaError("a row must have at least one attribute")
        keep = set(key)
        items = tuple(pair for pair in self._items if pair[0] in keep)
        if len(items) != len(keep):
            missing = sorted(keep - self._dict.keys())
            raise SchemaError(f"row has no attribute {missing[0]!r}")
        projected = Row._from_sorted_items(items)
        cache[key] = projected
        return projected

    def merge(self, other: "Row") -> "Row":
        """Combine two rows; shared attributes must agree.

        This is the tuple-concatenation step of a natural join.  Raises
        :class:`SchemaError` if a shared attribute has conflicting values —
        callers are expected to have checked joinability first.
        """
        merged = dict(self._dict)
        for name, value in other.items():
            if name in merged and merged[name] != value:
                raise SchemaError(
                    f"cannot merge rows: attribute {name!r} conflicts "
                    f"({merged[name]!r} vs {value!r})"
                )
            merged[name] = value
        return Row(merged)

    def replace(self, **changes: object) -> "Row":
        """Return a copy with some attribute values replaced."""
        updated = dict(self._dict)
        for name, value in changes.items():
            if name not in updated:
                raise SchemaError(f"row has no attribute {name!r}")
            updated[name] = value
        return Row(updated)
