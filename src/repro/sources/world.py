"""The shared, serializable base-data state.

:class:`SourceWorld` holds the ground-truth contents of every base
relation across all sources, in a :class:`VersionedDatabase`.  Source
processes commit transactions into it one at a time, which realises the
paper's assumption that "the execution of source transactions is
serializable" (§2.1): the simulator's event loop serialises them.

The world records the committed-transaction log — the schedule
``S = U1; U2; ... Uf`` — and exposes the consistent source state sequence
``ss_0 ... ss_f`` that all consistency definitions are stated against.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.errors import SourceError
from repro.relational.database import Database, VersionedDatabase
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sources.transactions import CommittedTransaction, SourceTransaction


class SourceWorld:
    """Ground truth for all base data, with a full commit history."""

    def __init__(self) -> None:
        self._db = VersionedDatabase()
        self._log: list[CommittedTransaction] = []
        self._owners: dict[str, str] = {}

    # -- schema / ownership ------------------------------------------------
    def create_relation(
        self,
        name: str,
        schema: Schema,
        owner: str,
        rows: Iterable[Row | dict] = (),
    ) -> Relation:
        """Register a base relation owned by source ``owner``."""
        relation = self._db.create_relation(name, schema, rows)
        self._owners[name] = owner
        return relation

    @property
    def schemas(self) -> Mapping[str, Schema]:
        return self._db.schemas

    def owner_of(self, relation: str) -> str:
        try:
            return self._owners[relation]
        except KeyError:
            raise SourceError(f"unknown relation {relation!r}") from None

    def owns(self, owner: str, relation: str) -> bool:
        """Does source ``owner`` own ``relation`` (``False`` if unknown)?"""
        return self._owners.get(relation) == owner

    def relations_of(self, owner: str) -> frozenset[str]:
        return frozenset(n for n, o in self._owners.items() if o == owner)

    # -- commits ------------------------------------------------------------
    def commit(
        self, transaction: SourceTransaction, time: float
    ) -> CommittedTransaction:
        """Atomically apply ``transaction``; returns its committed record.

        The commit position in the log is the transaction's place in the
        serial schedule S.
        """
        if self._log and time < self._log[-1].commit_time:
            raise SourceError(
                f"commit at time {time} precedes last commit "
                f"at {self._log[-1].commit_time}"
            )
        for relation in transaction.relations:
            if relation not in self._owners:
                raise SourceError(f"unknown relation {relation!r}")
        version = self._db.commit(transaction.deltas())
        committed = CommittedTransaction(version, time, transaction)
        self._log.append(committed)
        return committed

    # -- history -----------------------------------------------------------------
    @property
    def version(self) -> int:
        """Number of committed transactions so far (f in the paper)."""
        return self._db.version

    @property
    def log(self) -> tuple[CommittedTransaction, ...]:
        return tuple(self._log)

    @property
    def current(self) -> Database:
        return self._db.current

    def state_after(self, sequence: int) -> Database:
        """Source state ``ss_sequence`` (0 = initial state)."""
        return self._db.as_of(sequence)

    def state_sequence(self) -> list[Database]:
        """The full consistent source state sequence ``ss_0 .. ss_f``."""
        return [self._db.as_of(v) for v in range(self._db.version + 1)]

    def prune_history_below(self, sequence: int) -> None:
        self._db.prune_below(sequence)
