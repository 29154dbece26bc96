"""Multi-source (global) transactions, §6.2.

"A source transaction may update more than one base relation that belongs
to more than one view.  ...  if sources have transactions (local or
global) involving more than one update, then all updates in a transaction
should be reflected in either all views or none."

The coordinator commits a global transaction atomically against the
shared world (the §6.2 serializability assumption) and reports it to the
integrator as a single unit, so the integrator assigns it **one** number —
one VUT row — and its REL set covers every view any of its updates
touches.  SPA and PA then apply all resulting action lists in one
warehouse transaction, giving the all-or-nothing visibility §6.2 asks for.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.messages import UpdateNotification
from repro.sim.process import Process
from repro.sources.transactions import CommittedTransaction, SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class GlobalTransactionCoordinator(Process):
    """Commits transactions spanning several sources atomically."""

    def __init__(
        self,
        sim: "Simulator",
        world: SourceWorld,
        name: str = "coordinator",
        integrator_name: str = "integrator",
    ) -> None:
        super().__init__(sim, name)
        self.world = world
        self.integrator_name = integrator_name
        self.transactions_committed = 0

    def execute(self, updates: Iterable[Update]) -> CommittedTransaction:
        """Commit all ``updates`` as one global transaction."""
        transaction = SourceTransaction(self.name, tuple(updates))
        committed = self.world.commit(transaction, self.sim.now)
        self.transactions_committed += 1
        if self.sim.trace.wants("global_commit"):
            self.trace(
                "global_commit",
                seq=committed.sequence,
                sources=tuple(sorted(
                    {self.world.owner_of(rel) for rel in transaction.relations}
                )),
                relations=tuple(sorted(transaction.relations)),
            )
        self.send(
            self.integrator_name,
            UpdateNotification(transaction, self.sim.now, committed.sequence),
        )
        return committed

    def handle(self, message: object, sender: Process) -> None:
        raise NotImplementedError(
            "the coordinator is driven by scheduled execute() calls"
        )
