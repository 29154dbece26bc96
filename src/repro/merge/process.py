"""The merge process of Figure 1: a simulated wrapper around an algorithm.

``MergeProcess = MergeAlgorithm + SubmissionPolicy``.  It consumes
``RelMessage`` and ``ActionListMessage`` events, turns the algorithm's
ready units into numbered warehouse transactions, hands them to the
submission policy, and feeds warehouse commit notifications back to the
policy.  Its ``service_time`` models per-message coordination cost — the
knob the §7 bottleneck study turns.

With ``checkpointing=True`` the process additionally snapshots its entire
durable state — the algorithm (VUT, held action lists), the submission
policy, the transaction-id counter, and the unacknowledged buffers of its
outgoing :class:`~repro.sim.network.ReliableChannel` s — after *every*
handled message, before the reliable channel acknowledges that message.
A crash then loses only unacknowledged input, which the senders
retransmit; :meth:`on_restart` reinstates the checkpoint, so the restarted
merge resumes exactly where its last acknowledged message left it and MVC
is preserved end-to-end (see ``docs/faults.md``).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

from repro.errors import MergeError
from repro.merge.base import MergeAlgorithm, ReadyUnit
from repro.merge.submission import SequentialPolicy, SubmissionPolicy
from repro.messages import (
    ActionListMessage,
    CommitNotification,
    RelMessage,
    WarehouseTransactionMsg,
)
from repro.sim.network import ReliableChannel
from repro.record import Record
from repro.sim.process import Process
from repro.warehouse.txn import WarehouseTransaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

# The detail keys of the two per-unit trace records.
_READY_KEYS = ("txn", "rows")
_SUBMIT_KEYS = ("txn", "rows", "after")


class MergeCheckpoint(Record):
    """A restorable snapshot of everything a merge process must not lose;
    read-only once built."""

    __slots__ = ("algorithm", "policy", "next_txn_id", "transactions_formed",
                 "channel_states")

    def __init__(self, algorithm: MergeAlgorithm, policy: SubmissionPolicy,
                 next_txn_id: int, transactions_formed: int,
                 channel_states: dict[str, tuple] | None = None) -> None:
        self.algorithm = algorithm
        self.policy = policy
        self.next_txn_id = next_txn_id
        self.transactions_formed = transactions_formed
        self.channel_states = {} if channel_states is None else channel_states


class MergeProcess(Process):
    """Runs a merge algorithm against live message traffic."""

    def __init__(
        self,
        sim: "Simulator",
        algorithm: MergeAlgorithm,
        name: str | None = None,
        warehouse_name: str = "warehouse",
        policy: SubmissionPolicy | None = None,
        per_message_cost: float = 0.0,
        txn_id_start: int = 1,
        txn_id_step: int = 1,
        checkpointing: bool = False,
        cache=None,
    ) -> None:
        super().__init__(sim, name or algorithm.name)
        self.algorithm = algorithm
        self.warehouse_name = warehouse_name
        self.policy = policy if policy is not None else SequentialPolicy()
        self.per_message_cost = per_message_cost
        # Distributed merges interleave disjoint id streams (start/step) so
        # transaction ids stay globally unique without coordination.
        self._next_txn_id = txn_id_start
        self._txn_id_step = txn_id_step
        self.policy.bind(self._submit_to_warehouse, self._allocate_txn_id)
        self.transactions_formed = 0
        # VUT occupancy over time: a timeline gauge so the registry keeps
        # the full (time, size) series, not just the peak.
        self._g_vut = sim.metrics.gauge("merge_vut_size", timeline=True,
                                        merge=self.name)
        self.checkpointing = checkpointing
        # Optional repro.cache.artifacts.MergeCacheBinding: checkpoints
        # additionally publish to the content-addressed store, and
        # restarts prefer the store's artifact over the in-memory copy.
        self._cache = cache
        self._checkpoint: MergeCheckpoint | None = None
        self.checkpoints_taken = 0
        self.restores = 0
        self.cache_restores = 0
        self.cache_fallbacks = 0

    # -- plumbing -----------------------------------------------------------
    def _allocate_txn_id(self) -> int:
        txn_id = self._next_txn_id
        self._next_txn_id += self._txn_id_step
        return txn_id

    def _submit_to_warehouse(self, message: WarehouseTransactionMsg) -> None:
        if self.sim.trace.wants("merge_submit"):
            self.sim.trace.record_fields(
                self.sim.now, "merge_submit", self.name, _SUBMIT_KEYS,
                message.txn.txn_id, message.txn.covered_rows,
                message.sequenced_after,
            )
        self.send(self.warehouse_name, message)

    # -- message handling -------------------------------------------------------
    def service_time(self, message: object) -> float:
        return self.per_message_cost

    def handle(self, message: object, sender: Process) -> None:
        if isinstance(message, RelMessage):
            ready = self.algorithm.receive_rel(message.update_id, message.views)
        elif isinstance(message, ActionListMessage):
            ready = self.algorithm.receive_action_list(message.action_list)
        elif isinstance(message, CommitNotification):
            self.policy.on_commit(message.txn_id)
            return
        else:
            raise MergeError(
                f"{self.name} cannot handle {type(message).__name__}"
            )
        for unit in ready:
            self._offer(unit)
        vut = getattr(self.algorithm, "vut", None)
        if vut is not None:
            self._g_vut.set(len(vut), at=self.sim.now)

    def _offer(self, unit: ReadyUnit) -> None:
        txn = WarehouseTransaction(
            txn_id=self._allocate_txn_id(),
            merge_name=self.name,
            action_lists=unit.action_lists,
            covered_rows=unit.rows,
        )
        self.transactions_formed += 1
        if self.sim.trace.wants("merge_ready"):
            self.sim.trace.record_fields(
                self.sim.now, "merge_ready", self.name, _READY_KEYS,
                txn.txn_id, unit.rows,
            )
        self.policy.offer(txn)

    def flush(self) -> None:
        """Release anything the algorithm or policy is holding voluntarily."""
        flush_units = getattr(self.algorithm, "flush", None)
        if callable(flush_units):
            for unit in flush_units():
                self._offer(unit)
        self.policy.flush()

    # -- checkpoint / restore (crash recovery) ----------------------------------
    def on_handled(self, message: object, sender: Process) -> None:
        if self.checkpointing:
            self.take_checkpoint()

    def take_checkpoint(self) -> MergeCheckpoint:
        """Snapshot durable state; taken after each handled message.

        The policy's merge-process callbacks are detached for the copy so
        the checkpoint does not drag the process (and the simulator) along.
        Channel sender states are captured *after* the message's sends, so
        a restore retransmits exactly the output the crash destroyed.
        """
        self.policy.unbind()
        try:
            algorithm = copy.deepcopy(self.algorithm)
            policy = copy.deepcopy(self.policy)
        finally:
            self.policy.bind(self._submit_to_warehouse, self._allocate_txn_id)
        channel_states = {
            name: channel.sender_state()
            for name, channel in self._outgoing.items()
            if isinstance(channel, ReliableChannel)
        }
        self._checkpoint = MergeCheckpoint(
            algorithm=algorithm,
            policy=policy,
            next_txn_id=self._next_txn_id,
            transactions_formed=self.transactions_formed,
            channel_states=channel_states,
        )
        self.checkpoints_taken += 1
        self.trace("checkpoint", next_txn=self._next_txn_id)
        if self._cache is not None:
            self._cache.publish(self._checkpoint)
        return self._checkpoint

    def on_restart(self) -> None:
        """Reinstate the newest checkpoint (or stay pristine if none exists).

        With a cache binding the artifact store is the source of truth:
        its ref points at the newest durably published checkpoint, and
        the in-memory copy is only the fallback for a miss or a failed
        integrity check.
        """
        checkpoint = None
        if self._cache is not None:
            checkpoint = self._cache.try_restore()
            if checkpoint is not None:
                self.cache_restores += 1
                self.sim.metrics.counter(
                    "cache_restores", process=self.name
                ).inc()
            elif self._checkpoint is not None:
                self.cache_fallbacks += 1
                self.sim.metrics.counter(
                    "cache_fallbacks", process=self.name
                ).inc()
        if checkpoint is None:
            checkpoint = self._checkpoint
        if checkpoint is None:
            return
        # Copy out of the checkpoint so it remains restorable a second time.
        self.algorithm = copy.deepcopy(checkpoint.algorithm)
        policy = copy.deepcopy(checkpoint.policy)
        policy.bind(self._submit_to_warehouse, self._allocate_txn_id)
        self.policy = policy
        self._next_txn_id = checkpoint.next_txn_id
        self.transactions_formed = checkpoint.transactions_formed
        for name, state in checkpoint.channel_states.items():
            channel = self._outgoing.get(name)
            if isinstance(channel, ReliableChannel):
                channel.restore_sender_state(state)
        self.restores += 1
        self.trace("restore", next_txn=self._next_txn_id)

    # -- inspection ------------------------------------------------------------
    def idle(self) -> bool:
        return (
            self.queue_length == 0
            and self.algorithm.idle()
            and self.policy.pending == 0
        )
