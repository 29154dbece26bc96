"""The warehouse process: parallel executors with commit-order control.

Section 4.3 observes that after the merge process submits ``WT_1`` then
``WT_3``, "it is possible that the warehouse DBMS will commit WT_3 before
WT_1" — breaking MVC when the two are dependent.  To let that hazard
actually occur (and be prevented), :class:`WarehouseProcess` executes
transactions on ``executors`` parallel slots with data-dependent execution
times, so completion order can differ from submission order.

Ordering controls, mirroring the paper's options:

* the merge process can serialise submissions itself (sequential and
  dependency-sequenced policies in :mod:`repro.merge.submission`); or
* it can attach ``sequenced_after`` dependency info and let the warehouse
  enforce it (``supports_dependencies=True`` — "if the warehouse DBMS can
  provide transaction dependency capabilities").
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import RelationError, WarehouseError
from repro.messages import CommitNotification, WarehouseTransactionMsg
from repro.sim.process import Process
from repro.warehouse.store import ViewStore
from repro.warehouse.txn import WarehouseTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

_COMMIT_KEYS = ("txn", "rows", "views", "state_index")
_START_KEYS = ("txn", "cost")


class WarehouseProcess(Process):
    """Applies warehouse transactions to the view store."""

    def __init__(
        self,
        sim: "Simulator",
        store: ViewStore,
        name: str = "warehouse",
        executors: int = 1,
        per_txn_overhead: float = 1.0,
        per_action_cost: float = 0.1,
        supports_dependencies: bool = True,
    ) -> None:
        super().__init__(sim, name)
        if executors < 1:
            raise WarehouseError(f"need at least one executor, got {executors}")
        self.store = store
        self.executors = executors
        self.per_txn_overhead = per_txn_overhead
        self.per_action_cost = per_action_cost
        self.supports_dependencies = supports_dependencies
        self._admission: deque[WarehouseTransactionMsg] = deque()
        self._executing: dict[int, WarehouseTransactionMsg] = {}
        self._awaiting_deps: list[WarehouseTransactionMsg] = []
        self._committed_ids: set[int] = set()
        self.commits = 0
        #: why the store could not apply a transaction: the run ends there
        self.refused: WarehouseError | None = None

    # -- message handling ----------------------------------------------------
    def handle(self, message: object, sender: Process) -> None:
        if not isinstance(message, WarehouseTransactionMsg):
            raise WarehouseError(
                f"warehouse cannot handle {type(message).__name__}"
            )
        if message.sequenced_after and not self.supports_dependencies:
            raise WarehouseError(
                "merge attached dependency info but this warehouse DBMS does "
                "not support transaction dependencies"
            )
        self._admission.append(message)
        self._fill_slots()

    def _fill_slots(self) -> None:
        while self._admission and len(self._executing) < self.executors:
            message = self._admission.popleft()
            txn = message.txn
            self._executing[txn.txn_id] = message
            cost = self.execution_time(txn)
            if self.sim.trace.wants("wh_start"):
                self.sim.trace.record_fields(
                    self.sim.now, "wh_start", self.name, _START_KEYS,
                    txn.txn_id, round(cost, 4),
                )
            self.sim.schedule(cost, self._complete, message)

    def execution_time(self, txn: WarehouseTransaction) -> float:
        """Execution cost: fixed overhead plus per-changed-row work."""
        changed_rows = sum(
            len(action.delta) + action.replacement.distinct_count()
            for al in txn.action_lists
            for action in al.actions
        )
        return self.per_txn_overhead + self.per_action_cost * changed_rows

    def _complete(self, message: WarehouseTransactionMsg) -> None:
        txn = message.txn
        del self._executing[txn.txn_id]
        if self._can_commit(message):
            self._commit(message)
            self._retry_waiting()
        else:
            self._awaiting_deps.append(message)
        self._fill_slots()

    def _can_commit(self, message: WarehouseTransactionMsg) -> bool:
        if not self.supports_dependencies:
            return True
        return all(dep in self._committed_ids for dep in message.sequenced_after)

    def _retry_waiting(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for message in list(self._awaiting_deps):
                if self._can_commit(message):
                    self._awaiting_deps.remove(message)
                    self._commit(message)
                    progressed = True

    def _commit(self, message: WarehouseTransactionMsg) -> None:
        txn = message.txn
        try:
            state = self.store.apply(txn, self.sim.now)
        except RelationError as error:  # the store rolled the transaction back
            self.refused = WarehouseError(
                f"warehouse transaction {txn.txn_id} from {txn.merge_name!r} "
                f"refused: {error}"
            )
            raise self.refused from error
        self._committed_ids.add(txn.txn_id)
        self.commits += 1
        self.sim.trace.record_fields(
            self.sim.now, "wh_commit", self.name, _COMMIT_KEYS, txn.txn_id,
            txn.covered_rows, tuple(sorted(txn.view_set)), state.index,
        )
        notification = CommitNotification(txn.txn_id, self.sim.now, txn.merge_name)
        if txn.merge_name in self._outgoing:
            self.send(txn.merge_name, notification)

    # -- inspection ------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return len(self._executing) + len(self._awaiting_deps) + len(self._admission)

    def committed(self, txn_id: int) -> bool:
        return txn_id in self._committed_ids
