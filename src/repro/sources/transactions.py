"""Source transactions.

Section 2.1 assumes one update per transaction spanning one source; the
algorithms are extended in Section 6.2 to transactions with several
updates, possibly across sources.  :class:`SourceTransaction` covers both:
it is a non-empty list of updates plus the name of the originating source
(or the coordinator, for global transactions).
"""

from __future__ import annotations

from repro.errors import SourceError
from repro.record import Record
from repro.relational.delta import Delta, updates_to_deltas
from repro.sources.update import Update


class SourceTransaction(Record):
    """An atomic group of base-data updates; read-only once built."""

    __slots__ = ("origin", "updates")

    def __init__(self, origin: str, updates: tuple[Update, ...]) -> None:
        if not updates:
            raise SourceError("a transaction must contain at least one update")
        self.origin = origin
        self.updates = updates

    @classmethod
    def single(cls, origin: str, update: Update) -> "SourceTransaction":
        """The Section-2 common case: one update per transaction."""
        return cls(origin, (update,))

    @property
    def relations(self) -> frozenset[str]:
        return frozenset(u.relation for u in self.updates)

    def deltas(self) -> dict[str, Delta]:
        """Per-relation net deltas of this transaction."""
        return updates_to_deltas(self.updates)

    def __str__(self) -> str:
        inner = "; ".join(str(u) for u in self.updates)
        return f"Txn@{self.origin}[{inner}]"


class CommittedTransaction(Record, compare=("sequence", "commit_time", "transaction")):
    """A transaction that committed, with its global commit position;
    ``detail`` is outside ``==`` and ``hash``.  Read-only once built."""

    __slots__ = ("sequence", "commit_time", "transaction", "detail")

    def __init__(self, sequence: int, commit_time: float,
                 transaction: SourceTransaction, detail: dict | None = None) -> None:
        self.sequence = sequence
        self.commit_time = commit_time
        self.transaction = transaction
        self.detail = {} if detail is None else detail

    @property
    def relations(self) -> frozenset[str]:
        return self.transaction.relations

    def deltas(self) -> dict[str, Delta]:
        return self.transaction.deltas()

    def __str__(self) -> str:
        return f"T{self.sequence}@{self.commit_time:.3f} {self.transaction}"
