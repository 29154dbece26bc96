"""Warehouse-transaction submission policies (§4.3).

Once the painting algorithm declares a group of action lists ready, the
merge process must get it committed at the warehouse *in order relative to
dependent transactions* ("WT_j depends on WT_i if j > i and
VS(WT_j) ∩ VS(WT_i) ≠ ∅").  The paper sketches several solutions; all are
implemented:

* :class:`SequentialPolicy` — "only submit one to the warehouse after the
  previous transaction has committed."  Safe, minimal concurrency.
* :class:`DependencySequencedPolicy` — "only sequence dependent
  transactions instead of all transactions."  Independent transactions
  overlap at the warehouse.
* :class:`DbmsDependencyPolicy` — "submit transactions with dependency
  information and let the warehouse DBMS handle the execution sequence."
* :class:`BatchingPolicy` — "batch several WT_i s and submit them as one
  batched warehouse transaction (BWT)" — at the cost of degrading
  completeness to strong consistency (each BWT advances the warehouse by
  more than one state).
* :class:`EagerPolicy` — submit immediately with no ordering control.
  Deliberately unsafe: with a multi-executor warehouse it reproduces the
  §4.3 hazard where WT_3 commits before WT_1.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.errors import MergeError
from repro.messages import WarehouseTransactionMsg
from repro.warehouse.txn import WarehouseTransaction, batch as batch_txns

SubmitFn = Callable[[WarehouseTransactionMsg], None]
AllocateFn = Callable[[], int]


class SubmissionPolicy:
    """Decides when (and annotated how) ready transactions reach the warehouse."""

    #: the ``SystemConfig.submission_policy`` name (see :data:`POLICIES`)
    name = "policy"
    #: True when the policy preserves one warehouse state per ready unit
    preserves_completeness = True
    #: True when the policy itself keeps dependent transactions in order;
    #: one that does not is safe only on a single warehouse executor
    orders_commits = True
    #: constructor keyword -> the ``SystemConfig`` field that fills it
    config_args: dict[str, str] = {}

    def __init__(self) -> None:
        self._submit: SubmitFn | None = None
        self._allocate: AllocateFn | None = None
        self.submitted = 0

    def bind(self, submit: SubmitFn, allocate_id: AllocateFn) -> None:
        """Wire the policy to its merge process."""
        self._submit = submit
        self._allocate = allocate_id

    def unbind(self) -> None:
        """Drop the merge-process callbacks (so the policy can be deep-copied
        into a checkpoint without dragging the process and simulator along)."""
        self._submit = None
        self._allocate = None

    def _send(self, message: WarehouseTransactionMsg) -> None:
        if self._submit is None:
            raise MergeError(f"{type(self).__name__} was never bound")
        self.submitted += 1
        self._submit(message)

    # -- policy API --------------------------------------------------------
    def offer(self, txn: WarehouseTransaction) -> None:
        """A new ready transaction, in submission order."""
        raise NotImplementedError

    def on_commit(self, txn_id: int) -> None:
        """The warehouse confirmed commit of ``txn_id``."""

    def flush(self) -> None:
        """Force out anything held back (end of run; batching)."""

    @property
    def pending(self) -> int:
        """Transactions held by the policy, not yet submitted."""
        return 0


class EagerPolicy(SubmissionPolicy):
    """Submit immediately, attach nothing.  Unsafe by design (§4.3 hazard)."""

    name = "eager"
    orders_commits = False

    def offer(self, txn: WarehouseTransaction) -> None:
        self._send(WarehouseTransactionMsg(txn))


class SequentialPolicy(SubmissionPolicy):
    """One outstanding warehouse transaction at a time."""

    name = "sequential"

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[WarehouseTransaction] = deque()
        self._outstanding: int | None = None

    def offer(self, txn: WarehouseTransaction) -> None:
        self._queue.append(txn)
        self._pump()

    def on_commit(self, txn_id: int) -> None:
        if txn_id == self._outstanding:
            self._outstanding = None
        self._pump()

    def _pump(self) -> None:
        if self._outstanding is None and self._queue:
            txn = self._queue.popleft()
            self._outstanding = txn.txn_id
            self._send(WarehouseTransactionMsg(txn))

    @property
    def pending(self) -> int:
        return len(self._queue)


class DependencySequencedPolicy(SubmissionPolicy):
    """Delay a transaction only while a dependency is uncommitted.

    One FIFO *wait line* per view holds the offered-but-uncommitted
    transactions that update it, in offer order; the head of a line is in
    flight or the next to go.  A transaction is sent once it heads every
    line of its view set — i.e. once no earlier uncommitted transaction
    shares a view with it — so ``offer`` and ``on_commit`` cost
    O(|VS(WT)|) whatever the backlog.  Transactions are identified by
    their offer sequence number: batch ids and strided shard ids say
    nothing about offer order.
    """

    name = "dependency-sequenced"

    def __init__(self) -> None:
        super().__init__()
        self._offers = 0
        #: view -> offer numbers of its uncommitted transactions, oldest first
        self._lines: dict[str, deque[int]] = {}
        #: offer number -> [lines it does not head yet, transaction]
        self._held: dict[int, list] = {}
        #: txn id -> submitted, uncommitted transaction
        self._in_flight: dict[int, WarehouseTransaction] = {}

    def offer(self, txn: WarehouseTransaction) -> None:
        self._offers += 1
        blockers = 0
        for view in txn.view_set:
            line = self._lines.get(view)
            if line is None:  # empty lines are dropped, so this one is free
                self._lines[view] = deque((self._offers,))
            else:
                line.append(self._offers)
                blockers += 1
        if blockers:
            self._held[self._offers] = [blockers, txn]
        else:
            self._release(txn)

    def on_commit(self, txn_id: int) -> None:
        txn = self._in_flight.pop(txn_id, None)
        if txn is None:
            return  # unknown, still held, or already released
        unblocked = []
        for view in txn.view_set:
            line = self._lines[view]
            line.popleft()
            if not line:
                del self._lines[view]
                continue
            head = line[0]
            waiter = self._held[head]
            waiter[0] -= 1
            if not waiter[0]:
                unblocked.append(head)
        for offer in sorted(unblocked):
            self._release(self._held.pop(offer)[1])

    def _release(self, txn: WarehouseTransaction) -> None:
        self._in_flight[txn.txn_id] = txn
        self._send(WarehouseTransactionMsg(txn))

    @property
    def pending(self) -> int:
        return len(self._held)


class DbmsDependencyPolicy(SubmissionPolicy):
    """Submit everything at once, annotated with commit dependencies."""

    name = "dbms-dependency"

    def __init__(self) -> None:
        super().__init__()
        self._uncommitted: dict[int, frozenset[str]] = {}

    def offer(self, txn: WarehouseTransaction) -> None:
        view_set = txn.view_set
        deps = tuple(
            sorted(
                txn_id
                for txn_id, views in self._uncommitted.items()
                if views & view_set
            )
        )
        self._uncommitted[txn.txn_id] = view_set
        self._send(WarehouseTransactionMsg(txn, sequenced_after=deps))

    def on_commit(self, txn_id: int) -> None:
        self._uncommitted.pop(txn_id, None)


class BatchingPolicy(SubmissionPolicy):
    """Combine every ``batch_size`` ready WTs into one BWT (§4.3).

    The constituents keep their submission order inside the batch, so
    dependencies between them dissolve; dependencies between *batches* are
    handled by the ``inner`` policy (sequential by default).  Batching
    trades completeness for strong consistency: each BWT advances the
    warehouse state by more than one source state.
    """

    name = "batching"
    preserves_completeness = False
    config_args = {"batch_size": "submission_batch_size"}

    def __init__(
        self,
        batch_size: int = 4,
        inner: SubmissionPolicy | None = None,
    ) -> None:
        super().__init__()
        if batch_size < 1:
            raise MergeError(f"batch_size must be >= 1, got {batch_size}")
        self.batch_size = batch_size
        self.inner = inner if inner is not None else SequentialPolicy()
        self._held: list[WarehouseTransaction] = []
        self.batches_formed = 0

    def bind(self, submit: SubmitFn, allocate_id: AllocateFn) -> None:
        super().bind(submit, allocate_id)
        self.inner.bind(self._count_and_submit, allocate_id)

    def unbind(self) -> None:
        super().unbind()
        self.inner.unbind()

    def _count_and_submit(self, message: WarehouseTransactionMsg) -> None:
        self.submitted += 1
        assert self._submit is not None
        self._submit(message)

    def offer(self, txn: WarehouseTransaction) -> None:
        self._held.append(txn)
        if len(self._held) >= self.batch_size:
            self._form_batch()

    def _form_batch(self) -> None:
        if not self._held:
            return
        assert self._allocate is not None
        # Every constituent was formed by the merge this policy is bound to.
        combined = batch_txns(
            self._allocate(), self._held[0].merge_name, self._held
        )
        self._held = []
        self.batches_formed += 1
        self.inner.offer(combined)

    def on_commit(self, txn_id: int) -> None:
        self.inner.on_commit(txn_id)

    def flush(self) -> None:
        self._form_batch()
        self.inner.flush()

    @property
    def pending(self) -> int:
        return len(self._held) + self.inner.pending


#: ``SystemConfig.submission_policy`` name -> class, in the order configs
#: and ``--help`` list them.  A new policy declares ``name`` (and
#: ``preserves_completeness`` / ``config_args``) and is added here.
POLICIES: dict[str, type[SubmissionPolicy]] = {
    cls.name: cls
    for cls in (
        EagerPolicy,
        SequentialPolicy,
        DependencySequencedPolicy,
        DbmsDependencyPolicy,
        BatchingPolicy,
    )
}
