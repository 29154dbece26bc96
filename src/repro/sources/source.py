"""A single autonomous data source.

A :class:`Source` owns a set of base relations inside the shared
:class:`~repro.sources.world.SourceWorld`.  Workload drivers schedule
``source.execute(txn)`` calls on the simulator; each call commits the
transaction serializably (the event loop serialises commits) and reports
it to the integrator over the source's FIFO channel — so "updates from the
same source arrive at the integrator in the order they committed" (§3.2)
holds by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SourceError
from repro.messages import UpdateNotification
from repro.sim.process import Process
from repro.sources.transactions import CommittedTransaction, SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

# The detail keys of the per-commit trace record.
_COMMIT_KEYS = ("seq", "relations")


class Source(Process):
    """One autonomous source: local serializable transactions only."""

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        world: SourceWorld,
        integrator_name: str = "integrator",
    ) -> None:
        super().__init__(sim, name)
        self.world = world
        self.integrator_name = integrator_name
        self.transactions_committed = 0

    @property
    def relations(self) -> frozenset[str]:
        return self.world.relations_of(self.name)

    # -- transaction execution -----------------------------------------------
    def execute(self, transaction: SourceTransaction) -> CommittedTransaction:
        """Commit ``transaction`` locally and report it upstream."""
        if transaction.origin != self.name:
            raise SourceError(
                f"source {self.name!r} asked to run a transaction from "
                f"{transaction.origin!r}"
            )
        foreign = [r for r in transaction.relations
                   if not self.world.owns(self.name, r)]
        if foreign:
            raise SourceError(
                f"source {self.name!r} does not own relations {sorted(foreign)}; "
                f"use a GlobalTransactionCoordinator for multi-source "
                f"transactions (§6.2)"
            )
        committed = self.world.commit(transaction, self.sim.now)
        self.transactions_committed += 1
        if self.sim.trace.wants("src_commit"):
            self.sim.trace.record_fields(
                self.sim.now, "src_commit", self.name, _COMMIT_KEYS,
                committed.sequence, tuple(sorted(transaction.relations)),
            )
        self.send(
            self.integrator_name,
            UpdateNotification(transaction, self.sim.now, committed.sequence),
        )
        return committed

    def execute_update(self, update: Update) -> CommittedTransaction:
        """Convenience: commit a single-update transaction (§2.1 model)."""
        return self.execute(SourceTransaction.single(self.name, update))

    def handle(self, message: object, sender: Process) -> None:
        raise SourceError(
            f"sources are driven by scheduled execute() calls, not messages; "
            f"{self.name} got {type(message).__name__}"
        )
