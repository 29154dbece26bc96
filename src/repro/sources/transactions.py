"""Source transactions.

Section 2.1 assumes one update per transaction spanning one source; the
algorithms are extended in Section 6.2 to transactions with several
updates, possibly across sources.  :class:`SourceTransaction` covers both:
it is a non-empty list of updates plus the name of the originating source
(or the coordinator, for global transactions).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SourceError
from repro.relational.delta import Delta, updates_to_deltas
from repro.sources.update import Update


@dataclass(frozen=True, slots=True)
class SourceTransaction:
    """An atomic group of base-data updates."""

    origin: str
    updates: tuple[Update, ...]

    def __post_init__(self) -> None:
        if not self.updates:
            raise SourceError("a transaction must contain at least one update")

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


@dataclass(frozen=True, slots=True)
class CommittedTransaction:
    """A transaction that committed, with its global commit position."""

    sequence: int
    commit_time: float
    transaction: SourceTransaction
    detail: dict = field(default_factory=dict, compare=False)

    @property
    def relations(self) -> frozenset[str]:
        return self.transaction.relations

    def deltas(self) -> dict[str, Delta]:
        return self.transaction.deltas()

    def __str__(self) -> str:
        return f"T{self.sequence}@{self.commit_time:.3f} {self.transaction}"
