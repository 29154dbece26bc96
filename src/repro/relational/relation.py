"""Multiset relations.

A :class:`Relation` is a bag of :class:`~repro.relational.rows.Row` objects
with positive multiplicities, optionally validated against a
:class:`~repro.relational.schema.Schema`.  Bag semantics (rather than set
semantics) are what make counting-based incremental view maintenance
correct under projection and join.  The bag is stored once, as the value
tuples of a :class:`~repro.relational.columnar.ColumnarRelation`; a
``Row`` exists at this API's edge only (``docs/engine.md``).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import RelationError, SchemaError
from repro.relational.columnar import ColumnarRelation
from repro.relational.rows import Row
from repro.relational.schema import Schema


def _is_count(cls: type) -> bool:
    """Whether values of class ``cls`` can be multiplicities: ints, and as
    for ``AttrType.INT`` a ``bool`` is not one."""
    return issubclass(cls, int) and not issubclass(cls, bool)


def _bad_multiplicity(row: object, count: object) -> RelationError:
    if not _is_count(type(count)):
        return RelationError(f"multiplicity {count!r} for {row} is not an int")
    return RelationError(f"multiplicity {count} for {row} is not positive")


def _taker(layout: tuple[str, ...]) -> Callable[[Mapping[str, object]], tuple]:
    """The ``layout``-positioned value tuple of a mapping, in one call."""
    take = itemgetter(*layout)
    return take if len(layout) > 1 else lambda row: (take(row),)


def _check_counts(counts: Mapping[object, int], positive: bool) -> None:
    """Raise :class:`RelationError` unless every count of a bag is an
    ``int`` and, for the multiplicities of a relation, ``positive`` (a
    delta's are signed): decided over the classes and the minimum, a pass
    per bad bag only."""
    values = counts.values()
    classes = set(map(type, values))
    if (classes <= {int} or all(map(_is_count, classes))) and not (
        positive and counts and min(values) <= 0
    ):
        return
    raise next(
        _bad_multiplicity(key, count)
        for key, count in counts.items()
        if not _is_count(type(count)) or (positive and count <= 0)
    )


class Relation:
    """A multiset of rows.

    Supports insert/delete with multiplicities, iteration (each row
    repeated by its count), equality as bags and cheap copying.  Its one
    store is :meth:`columnar` (the home of the probe indexes): rows given
    to the relation are converted on the way in, rows read from it are
    built on demand by the layout's compiled builder.

    The store's layout is the schema's sorted attribute names.  A relation
    without a schema takes the heading of the first row it is given and
    from then on rejects a row of any other heading with
    :class:`SchemaError`; :meth:`clear` forgets that heading.  Empty
    relations are equal whatever their layouts.
    """

    __slots__ = ("_schema", "_store")

    def __init__(
        self,
        schema: Schema | None = None,
        rows: Iterable[Row | Mapping[str, object]] = (),
    ) -> None:
        self._schema = schema
        self.replace_all(rows)

    # -- construction helpers --------------------------------------------
    @classmethod
    def from_counts(
        cls, counts: Mapping[Row, int], schema: Schema | None = None
    ) -> "Relation":
        """Build a relation directly from a row→count mapping."""
        rel = cls(schema)
        for row, count in counts.items():
            if not _is_count(type(count)) or count < 0:
                raise _bad_multiplicity(row, count)
            if count:
                rel.insert(row, count)
        return rel

    @classmethod
    def from_tuple_counts(
        cls,
        layout: tuple[str, ...],
        counts: Mapping[tuple, int],
        schema: Schema,
    ) -> "Relation":
        """Bulk-load a bag of ``layout``-positioned value tuples: equal, bag
        for bag and error class for error class, to ``from_counts(
        counts_to_rows(layout, counts), schema)``, but no ``Row`` is built.
        The tuples are checked column-wise (:meth:`Schema.validate_columns`),
        the multiplicities (positive ``int``s) in two passes, and the bag
        becomes the store in one dict copy.
        """
        schema.validate_columns(layout, counts)
        _check_counts(counts, positive=True)
        rel = object.__new__(cls)
        rel._schema = schema
        rel._store = ColumnarRelation._adopt(
            layout, dict(counts), sum(counts.values())
        )
        return rel

    def copy(self) -> "Relation":
        """Return an independent copy (value tuples are immutable and shared)."""
        dup = object.__new__(Relation)
        dup._schema = self._schema
        dup._store = self._store.copy()
        return dup

    # -- basic properties --------------------------------------------------
    @property
    def schema(self) -> Schema | None:
        return self._schema

    def __len__(self) -> int:
        """Total number of rows, counting multiplicity."""
        return len(self._store)

    def distinct_count(self) -> int:
        """Number of distinct rows."""
        return self._store.distinct_count()

    def __bool__(self) -> bool:
        return bool(self._store)

    def __iter__(self) -> Iterator[Row]:
        for row, count in self.counts():
            for _ in range(count):
                yield row

    def counts(self) -> Iterator[tuple[Row, int]]:
        """Iterate (row, multiplicity) pairs."""
        return iter(self._store.to_rows().items())

    def counts_view(self) -> Mapping[Row, int]:
        """The row->multiplicity mapping as of this call, read-only.

        Built from the store on every call (one ``Row`` per distinct
        row): a snapshot, which later mutations do not show in.
        """
        return MappingProxyType(self._store.to_rows())

    def columnar(self) -> ColumnarRelation:
        """The store of this relation: the bag as layout-positioned tuples.

        Every :class:`~repro.relational.columnar.ColumnIndex` built on it
        with ``columnar().index_on(attrs)`` follows ``insert``/``delete``/
        deltas; ``clear()`` and ``replace_all()`` start a fresh store, so
        re-fetch it (and its indexes) after one of those; ``copy()``
        copies the bag, not the indexes.  Writing to it directly bypasses
        the schema check.  See ``docs/engine.md`` for the facade contract.
        """
        return self._store

    def _key(self, row: Row) -> tuple | None:
        """``row`` as the store keys it, or ``None`` for a row of another
        heading, which the store therefore does not hold."""
        layout = self._store.layout
        return row.values_tuple(layout) if row.sorted_names() == layout else None

    def multiplicity(self, row: Row) -> int:
        return self._store.multiplicity(self._key(row))

    def __contains__(self, row: object) -> bool:
        return isinstance(row, Row) and self._key(row) in self._store

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        mine, theirs = self._store, other._store
        return mine == theirs or not (mine or theirs)

    def __hash__(self) -> int:
        return hash(frozenset(self._store.counts_view().items()))

    def __repr__(self) -> str:
        preview = ", ".join(repr(r) for r in sorted(self._store.to_rows())[:4])
        if self.distinct_count() > 4:
            preview += ", ..."
        return f"Relation(|{len(self)}| {preview})"

    def sorted_rows(self) -> list[Row]:
        """All rows (with multiplicity) in a deterministic order."""
        counts = self._store.to_rows()
        result: list[Row] = []
        for row in sorted(counts):
            result.extend([row] * counts[row])
        return result

    # -- mutation ----------------------------------------------------------
    def _check(self, row: Row) -> None:
        """Raise :class:`SchemaError` unless ``row`` fits the schema or,
        without one, the heading (which the first row checked fixes)."""
        if self._schema is not None:
            self._schema.validate(row._dict)
        elif not self._store.layout:
            self._store.layout = row.sorted_names()
        elif row.sorted_names() != self._store.layout:
            raise SchemaError(
                f"{row} does not have the heading {self._store.layout} of "
                f"the rows this schemaless relation holds"
            )

    def _check_columns(self, layout: tuple[str, ...], tuples: list[tuple]) -> None:
        """:meth:`_check` for a batch of ``layout``-positioned value tuples."""
        if self._schema is not None:
            self._schema.validate_columns(layout, tuples)
            return
        held = self._store.layout or layout
        if layout != held or set(map(len, tuples)) - {len(layout)}:
            raise SchemaError(
                f"tuples laid out as {layout} do not have the heading {held} "
                f"of the rows this schemaless relation holds"
            )
        if tuples:
            self._store.layout = held

    def _coerce(self, row: Row | Mapping[str, object]) -> Row:
        return row if isinstance(row, Row) else Row(row)

    def insert(self, row: Row | Mapping[str, object], count: int = 1) -> None:
        """Insert ``count`` copies of ``row``."""
        if count <= 0:
            raise RelationError(f"insert count must be positive, got {count}")
        row = self._coerce(row)
        self._check(row)
        self._store.insert(row.values_tuple(self._store.layout), count)

    def delete(self, row: Row | Mapping[str, object], count: int = 1) -> None:
        """Delete ``count`` copies of ``row``; the row must be present."""
        if count <= 0:
            raise RelationError(f"delete count must be positive, got {count}")
        row = self._coerce(row)
        key = self._key(row)
        present = self._store.multiplicity(key)
        if present < count:
            raise RelationError(
                f"cannot delete {count} copies of {row}: only {present} present"
            )
        self._store.delete(key, count)

    def modify(
        self,
        old: Row | Mapping[str, object],
        new: Row | Mapping[str, object],
    ) -> None:
        """Replace one copy of ``old`` with ``new`` atomically."""
        old = self._coerce(old)
        new = self._coerce(new)
        self.delete(old)
        try:
            self.insert(new)
        except SchemaError:
            self.insert(old)  # roll back so the relation stays valid
            raise

    def clear(self) -> None:
        """Empty the relation by starting a fresh store (no indexes; for a
        schemaless relation, no heading)."""
        schema = self._schema
        self._store = ColumnarRelation._adopt(
            schema.layout if schema is not None else (), {}, 0
        )

    def replace_all(self, rows: Iterable[Row | Mapping[str, object]]) -> None:
        """Replace the entire contents (periodic-refresh semantics) by
        starting a fresh store.

        A :class:`Relation` carrying an equal schema has validated every
        row already, so its bag is adopted in one dict copy.  Anything else
        is loaded column-wise: each row becomes a layout tuple (a ``dict``
        without becoming a ``Row``), counted in first-occurrence order; a
        row of another heading meets :meth:`_check` and every tuple (not
        only the distinct ones: 1.0 counted into 1 still misfits an INT)
        one :meth:`_check_columns`, so a defect fails as it did row by row.
        """
        if isinstance(rows, Relation) and (
            self._schema is None or rows._schema == self._schema
        ):
            self._store = rows._store.copy()
            return
        self.clear()
        tuples: list[tuple] = []
        layout = self._store.layout
        names, take = (set(layout), _taker(layout)) if layout else (None, None)
        for row in rows:
            if type(row) is dict and row.keys() == names:
                tuples.append(take(row))
                continue
            row = self._coerce(row)
            if row.sorted_names() != layout:
                self._check(row)  # raises, or fixes a schemaless heading
                layout = self._store.layout
                names, take = set(layout), _taker(layout)
            tuples.append(row.values_tuple(layout))
        counts = dict(Counter(tuples))
        self._check_columns(self._store.layout, tuples)
        self._store = ColumnarRelation._adopt(self._store.layout, counts, len(tuples))
