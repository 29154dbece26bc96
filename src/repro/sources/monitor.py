"""Source monitors: observing legacy sources that do not report updates.

The WHIPS prototype ([15]) put a *wrapper/monitor* in front of each
source; for legacy systems without triggers or logs, the monitor detects
changes by periodically snapshotting the source and diffing.  This module
reproduces that substrate:

* :class:`SilentSource` — commits transactions into the world like a
  normal source but reports **nothing** to the integrator;
* :class:`SnapshotDiffMonitor` — a process that polls the silent source's
  relations every ``period``, diffs against its previous snapshot, and
  reports one synthesized multi-update transaction per poll.

Consequences, faithfully modelled: transaction boundaries *within* a poll
interval are lost (the diff batches them — every poll is one §6.2-style
multi-update transaction), and deletes/inserts that cancel within an
interval are never observed.  The warehouse is then consistent with the
**observed** schedule: each state corresponds to a real source state (the
one at some poll instant), so strong consistency survives while
completeness w.r.t. the fine-grained schedule is forfeited — exactly the
trade-off of snapshot-based monitoring.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SourceError
from repro.messages import UpdateNotification
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.sim.process import Process
from repro.sources.transactions import CommittedTransaction, SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class SilentSource(Process):
    """A legacy source: commits locally, never reports upstream."""

    def __init__(self, sim: "Simulator", name: str, world: SourceWorld) -> None:
        super().__init__(sim, name)
        self.world = world
        self.transactions_committed = 0

    @property
    def relations(self) -> frozenset[str]:
        return self.world.relations_of(self.name)

    def execute(self, transaction: SourceTransaction) -> CommittedTransaction:
        if transaction.origin != self.name:
            raise SourceError(
                f"silent source {self.name!r} asked to run a transaction "
                f"from {transaction.origin!r}"
            )
        foreign = [r for r in transaction.relations
                   if not self.world.owns(self.name, r)]
        if foreign:
            raise SourceError(
                f"silent source {self.name!r} does not own {sorted(foreign)}"
            )
        committed = self.world.commit(transaction, self.sim.now)
        self.transactions_committed += 1
        if self.sim.trace.wants("silent_commit"):
            self.trace("silent_commit", seq=committed.sequence)
        return committed

    def execute_update(self, update: Update) -> CommittedTransaction:
        return self.execute(SourceTransaction.single(self.name, update))

    def handle(self, message: object, sender: Process) -> None:
        raise SourceError("silent sources are driven by execute() calls")


class SnapshotDiffMonitor(Process):
    """Polls a silent source and synthesizes update reports from diffs."""

    def __init__(
        self,
        sim: "Simulator",
        source: SilentSource,
        period: float,
        name: str | None = None,
        integrator_name: str = "integrator",
        stop_after: float | None = None,
    ) -> None:
        if period <= 0:
            raise SourceError(f"poll period must be positive, got {period}")
        super().__init__(sim, name or f"monitor:{source.name}")
        self.source = source
        self.period = period
        self.integrator_name = integrator_name
        self.stop_after = stop_after
        self.polls = 0
        self.reports = 0
        self._last: dict[str, Relation] = {
            relation: source.world.current.relation(relation).copy()
            for relation in sorted(source.relations)
        }
        sim.schedule(period, self._poll)

    def _poll(self) -> None:
        self.polls += 1
        updates: list[Update] = []
        for relation in sorted(self.source.relations):
            current = self.source.world.current.relation(relation)
            diff = Delta.between(self._last[relation], current)
            for row, count in diff.deletions():
                updates.extend([Update.delete(relation, row)] * count)
            for row, count in diff.insertions():
                updates.extend([Update.insert(relation, row)] * count)
            if diff:
                self._last[relation] = current.copy()
        if updates:
            # One synthesized transaction per poll: the batch is atomic
            # from the warehouse's point of view (§6.2 semantics).
            transaction = SourceTransaction(self.source.name, tuple(updates))
            self.send(
                self.integrator_name,
                UpdateNotification(transaction, self.sim.now),
            )
            self.reports += 1
            if self.sim.trace.wants("monitor_report"):
                self.trace("monitor_report", updates=len(updates))
        if self.stop_after is None or self.sim.now + self.period <= self.stop_after:
            self.sim.schedule(self.period, self._poll)

    def handle(self, message: object, sender: Process) -> None:
        raise SourceError("monitors are timer-driven; they take no messages")
