"""Base-data updates: single-row inserts, deletes and modifications.

The paper's examples use exactly these three kinds (§3.1: "each update is
a single tuple insert, delete, or modification").  An :class:`Update`
converts to a signed-count :class:`~repro.relational.delta.Delta` for the
maintenance machinery, once: the source, the base-data service and every
view manager that sees the update read the same ``Delta``.
"""

from __future__ import annotations

import enum

from repro.errors import SourceError
from repro.relational.delta import Delta
from repro.record import Record
from repro.relational.rows import Row


class UpdateKind(enum.Enum):
    """The three single-row update kinds of the paper's data model (§3.1)."""

    INSERT = "insert"
    DELETE = "delete"
    MODIFY = "modify"


class Update(Record):
    """One single-row change to one base relation; read-only once built.

    ``_delta`` is the :meth:`as_delta` built on first call; not part of the
    value (``==``, ``hash``, ``repr``) nor of the pickled state.
    """

    __slots__ = ("relation", "kind", "row", "new_row", "_delta")

    def __init__(self, relation: str, kind: UpdateKind, row: Row,
                 new_row: Row | None = None) -> None:
        if kind is UpdateKind.MODIFY:
            if new_row is None:
                raise SourceError("MODIFY update needs a new_row")
        elif new_row is not None:
            raise SourceError(f"{kind.value} update must not carry a new_row")
        self.relation = relation
        self.kind = kind
        self.row = row
        self.new_row = new_row
        self._delta: Delta | None = None

    # -- constructors -------------------------------------------------------
    @classmethod
    def insert(cls, relation: str, row: Row | dict) -> "Update":
        return cls(relation, UpdateKind.INSERT, _coerce(row))

    @classmethod
    def delete(cls, relation: str, row: Row | dict) -> "Update":
        return cls(relation, UpdateKind.DELETE, _coerce(row))

    @classmethod
    def modify(cls, relation: str, old: Row | dict, new: Row | dict) -> "Update":
        return cls(relation, UpdateKind.MODIFY, _coerce(old), _coerce(new))

    # -- semantics ------------------------------------------------------------
    def as_delta(self) -> Delta:
        """The update as a signed-count delta, built once (deltas are
        immutable, so every reader may share it)."""
        if self._delta is None:
            if self.kind is UpdateKind.MODIFY:
                delta = Delta.modify(self.row, self.new_row)
            else:
                delta = Delta({self.row: 1 if self.kind is UpdateKind.INSERT else -1})
            self._delta = delta
        return self._delta

    def __getstate__(self) -> list:
        return [self.relation, self.kind, self.row, self.new_row]

    def __setstate__(self, state: list) -> None:
        self.relation, self.kind, self.row, self.new_row = state
        self._delta = None

    def touched_rows(self) -> tuple[Row, ...]:
        """Rows whose values the relevance filter may inspect."""
        if self.kind is UpdateKind.MODIFY:
            assert self.new_row is not None
            return (self.row, self.new_row)
        return (self.row,)

    def __str__(self) -> str:
        if self.kind is UpdateKind.MODIFY:
            return f"modify {self.relation}: {self.row} -> {self.new_row}"
        return f"{self.kind.value} {self.relation}: {self.row}"


def _coerce(row: Row | dict) -> Row:
    return row if isinstance(row, Row) else Row(row)
