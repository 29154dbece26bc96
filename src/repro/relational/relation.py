"""Multiset relations.

A :class:`Relation` is a bag of :class:`~repro.relational.rows.Row` objects
with positive multiplicities, optionally validated against a
:class:`~repro.relational.schema.Schema`.  Bag semantics (rather than set
semantics) are what make counting-based incremental view maintenance
correct under projection and join.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from repro.errors import RelationError, SchemaError
from repro.relational.columnar import ColumnarRelation, compile_row_builder
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


class Relation:
    """A multiset of rows.

    Supports insert/delete with multiplicities, iteration (each row
    repeated by its count), equality as bags, cheap copying, and a lazily
    built columnar twin (:meth:`columnar`, the home of the probe indexes)
    kept in lockstep by ``insert``/``delete``.
    """

    __slots__ = ("_schema", "_counts", "_size", "_store")

    def __init__(
        self,
        schema: Schema | None = None,
        rows: Iterable[Row | Mapping[str, object]] = (),
    ) -> None:
        self._schema = schema
        self._counts: dict[Row, int] = {}
        self._size = 0
        self._store: ColumnarRelation | None = None
        self._fill(rows)

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
                rel._check(row)
                rel._counts[row] = count
                rel._size += count
        return rel

    @classmethod
    def from_tuple_counts(
        cls,
        layout: tuple[str, ...],
        counts: Mapping[tuple, int],
        schema: Schema,
    ) -> "Relation":
        """Bulk-load a bag of ``layout``-positioned value tuples.

        Equal, bag for bag and error class for error class, to
        ``from_counts(counts_to_rows(layout, counts), schema)``, which
        validates row by row: here the tuples are checked against the
        schema column-wise (:meth:`Schema.validate_columns`), the
        multiplicities (each a positive ``int``) in two passes, and the
        rows come from the layout's compiled builder.  No columnar twin is
        attached: a store relation would pay its lockstep upkeep on every
        commit.
        """
        schema.validate_columns(layout, counts)
        multiplicities = counts.values()
        classes = set(map(type, multiplicities))
        if not all(map(_is_count, classes)) or (
            counts and min(multiplicities) <= 0
        ):
            raise next(
                _bad_multiplicity(t, c)
                for t, c in counts.items()
                if not _is_count(type(c)) or c <= 0
            )
        rel = cls(schema)
        rel._counts = dict(
            zip(map(compile_row_builder(layout), counts), multiplicities)
        )
        rel._size = sum(multiplicities)
        return rel

    def copy(self) -> "Relation":
        """Return an independent copy (rows are immutable and shared)."""
        dup = Relation(self._schema)
        dup._counts = dict(self._counts)
        dup._size = self._size
        return dup

    # -- basic properties --------------------------------------------------
    @property
    def schema(self) -> Schema | None:
        return self._schema

    def __len__(self) -> int:
        """Total number of rows, counting multiplicity."""
        return self._size

    def distinct_count(self) -> int:
        """Number of distinct rows."""
        return len(self._counts)

    def __bool__(self) -> bool:
        return self._size > 0

    def __iter__(self) -> Iterator[Row]:
        for row, count in self._counts.items():
            for _ in range(count):
                yield row

    def counts(self) -> Iterator[tuple[Row, int]]:
        """Iterate (row, multiplicity) pairs."""
        return iter(self._counts.items())

    def counts_view(self) -> Mapping[Row, int]:
        """A zero-copy read-only view of the row->multiplicity mapping.

        The view aliases live state: it reflects subsequent mutations and
        must not be held across them by callers that need a snapshot (use
        ``dict(rel.counts_view())`` for that).
        """
        return MappingProxyType(self._counts)

    def columnar(self) -> ColumnarRelation:
        """The columnar twin of this relation, built lazily on first use.

        The store, and every :class:`~repro.relational.columnar.ColumnIndex`
        built on it with ``columnar().index_on(attrs)``, is kept in
        lockstep by ``insert``/``delete`` and dropped by ``clear()`` (so
        out-of-band ``replace_all`` cannot desync it); ``copy()`` does not
        carry it.
        Requires a schema — the schema's attribute set is the columnar
        layout, and schema validation is what guarantees every row fits
        it.  See ``docs/engine.md`` for the facade contract.
        """
        store = self._store
        if store is None:
            if self._schema is None:
                raise RelationError(
                    "columnar storage requires a schema (the layout)"
                )
            store = ColumnarRelation.from_rows(self._schema.names, self._counts)
            self._store = store
        return store

    def multiplicity(self, row: Row) -> int:
        return self._counts.get(row, 0)

    def __contains__(self, row: object) -> bool:
        return row in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        preview = ", ".join(repr(r) for r in sorted(self._counts)[:4])
        if self.distinct_count() > 4:
            preview += ", ..."
        return f"Relation(|{self._size}| {preview})"

    def sorted_rows(self) -> list[Row]:
        """All rows (with multiplicity) in a deterministic order."""
        result: list[Row] = []
        for row in sorted(self._counts):
            result.extend([row] * self._counts[row])
        return result

    # -- mutation ----------------------------------------------------------
    def _check(self, row: Row) -> None:
        if self._schema is not None:
            self._schema.validate(row._dict)

    def _coerce(self, row: Row | Mapping[str, object]) -> Row:
        return row if isinstance(row, Row) else Row(row)

    def insert(self, row: Row | Mapping[str, object], count: int = 1) -> None:
        """Insert ``count`` copies of ``row``."""
        if count <= 0:
            raise RelationError(f"insert count must be positive, got {count}")
        row = self._coerce(row)
        self._check(row)
        self._add(row, count)

    def _add(self, row: Row, count: int) -> None:
        """``insert`` minus the checks, for a row already known to fit —
        ``Delta.check_applicable`` validated it, or it came out of a
        relation with this schema."""
        self._counts[row] = self._counts.get(row, 0) + count
        self._size += count
        if self._store is not None:
            self._store.insert(row.values_tuple(self._store.layout), count)

    def delete(self, row: Row | Mapping[str, object], count: int = 1) -> None:
        """Delete ``count`` copies of ``row``; the row must be present."""
        if count <= 0:
            raise RelationError(f"delete count must be positive, got {count}")
        row = self._coerce(row)
        present = self._counts.get(row, 0)
        if present < count:
            raise RelationError(
                f"cannot delete {count} copies of {row}: only {present} present"
            )
        if present == count:
            del self._counts[row]
        else:
            self._counts[row] = present - count
        self._size -= count
        if self._store is not None:
            self._store.delete(row.values_tuple(self._store.layout), count)

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
        self._counts.clear()
        self._size = 0
        self._store = None

    def replace_all(self, rows: Iterable[Row]) -> None:
        """Replace the entire contents (periodic-refresh semantics)."""
        self.clear()
        self._fill(rows)

    def _fill(self, rows: Iterable[Row | Mapping[str, object]]) -> None:
        """Load ``rows`` into this (empty) relation.

        A :class:`Relation` carrying an equal schema has validated every
        row already, so its counts are adopted in one dict copy; anything
        else is inserted, and so validated, row by row.
        """
        if isinstance(rows, Relation) and (
            self._schema is None or rows._schema == self._schema
        ):
            self._counts = dict(rows._counts)
            self._size = rows._size
        else:
            for row in rows:
                self.insert(row)
