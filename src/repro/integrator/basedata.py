"""The base-data service: versioned base relations for view managers.

The paper notes delta computation "may involve queries back to the
sources if base data is not cached at the warehouse" (§1.1).  This service
is that cache, co-located with the integrator: it replays the numbered
update stream into a :class:`VersionedDatabase` whose version ``i`` is the
base state after update ``U_i``, and answers view-manager queries:

* ``version=i``    — the multiversion snapshot as of ``U_i`` (complete
  and snapshot-mode managers);
* ``version=None`` — the current state, optionally with the undo
  information (``undo_from``) a compensating manager needs to roll the
  state back (Strobe-flavoured autonomous-source mode);
* a query for a version that has not been reached yet is *deferred* and
  answered as soon as the stream catches up.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import SourceError
from repro.messages import NumberedUpdate, SnapshotQuery, SnapshotResponse
from repro.relational.database import Database, VersionedDatabase
from repro.relational.delta import updates_to_deltas
from repro.relational.schema import Schema
from repro.sim.process import Process
from repro.sources.update import Update

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


_UPDATE_ID = itemgetter(0)  # of an update-log entry


class BaseDataService(Process):
    """Versioned replica of the base data, keyed by integrator numbering."""

    def __init__(
        self,
        sim: "Simulator",
        name: str = "basedata",
        per_query_cost: float = 0.0,
        retain_window: int | None = None,
    ) -> None:
        super().__init__(sim, name)
        self._db = VersionedDatabase()
        self._log: list[tuple[int, Update]] = []
        self._deferred: list[SnapshotQuery] = []
        self.per_query_cost = per_query_cost
        self.retain_window = retain_window
        self.queries_answered = 0
        self.queries_deferred = 0

    # -- setup ------------------------------------------------------------
    def seed(self, initial: Database, schemas: Mapping[str, Schema]) -> None:
        """Copy the initial base state (``ss_0``) into the replica."""
        for relation in sorted(schemas):
            self._db.create_relation(
                relation, schemas[relation], initial.relation(relation)
            )

    @property
    def version(self) -> int:
        return self._db.version

    # -- message handling --------------------------------------------------------
    def service_time(self, message: object) -> float:
        if isinstance(message, SnapshotQuery):
            return self.per_query_cost
        return 0.0

    def handle(self, message: object, sender: Process) -> None:
        if isinstance(message, NumberedUpdate):
            self._apply(message)
        elif isinstance(message, SnapshotQuery):
            self._answer_or_defer(message)
        else:
            raise SourceError(
                f"base-data service cannot handle {type(message).__name__}"
            )

    def _apply(self, message: NumberedUpdate) -> None:
        expected = self._db.version + 1
        if message.update_id != expected:
            raise SourceError(
                f"numbered update {message.update_id} arrived out of order "
                f"(expected {expected})"
            )
        self._log.extend((message.update_id, u) for u in message.updates)
        self._db.commit(updates_to_deltas(message.updates))
        if self.retain_window is not None:
            self._db.prune_below(self._db.version - self.retain_window)
        # The new version may satisfy deferred snapshot queries.
        still_waiting: list[SnapshotQuery] = []
        for query in self._deferred:
            if query.version is not None and query.version <= self._db.version:
                self._respond(query)
            else:
                still_waiting.append(query)
        self._deferred = still_waiting

    def _answer_or_defer(self, query: SnapshotQuery) -> None:
        if query.version is not None and query.version > self._db.version:
            self._deferred.append(query)
            self.queries_deferred += 1
            return
        self._respond(query)

    def _respond(self, query: SnapshotQuery) -> None:
        version = self._db.version if query.version is None else query.version
        state = self._db.as_of(version)
        # The snapshot is immutable, so its stores' bags go out as they are.
        contents = {}
        for relation in sorted(query.relations):
            store = state.relation(relation).columnar()
            contents[relation] = (store.layout, store.counts_view())
        undo: tuple[tuple[int, Update], ...] = ()
        if query.undo_from is not None:
            undo = self._undo_since(query.undo_from, version, query.relations)
        self.queries_answered += 1
        self.send(
            query.requester,
            SnapshotResponse(query.query_id, version, contents, undo),
        )

    def _undo_since(
        self, after: int, through: int, relations: Iterable[str]
    ) -> tuple[tuple[int, Update], ...]:
        wanted = frozenset(relations)
        # The log is ascending in update id.
        start = bisect_right(self._log, after, key=_UPDATE_ID)
        end = bisect_right(self._log, through, lo=start, key=_UPDATE_ID)
        return tuple(
            entry for entry in self._log[start:end] if entry[1].relation in wanted
        )
