"""The per-row loader ``Relation.replace_all`` was before it loaded
column-wise, kept verbatim (``self`` is the relation to fill) so the
property tests can hold the column-wise one equal to it."""

from repro.relational.relation import Relation


def replace_all(self, rows):
    """Replace the entire contents (periodic-refresh semantics) by
    starting a fresh store.

    A :class:`Relation` carrying an equal schema has validated every
    row already, so its bag is adopted in one dict copy; anything
    else is inserted, and so validated, row by row.
    """
    if isinstance(rows, Relation) and (
        self._schema is None or rows._schema == self._schema
    ):
        self._store = rows._store.copy()
    else:
        self.clear()
        for row in rows:
            self.insert(row)
