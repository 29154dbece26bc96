"""Message types exchanged between the Figure-1 processes.

Every inter-process payload in the system is one of these immutable
dataclasses.  Keeping them in one module documents the whole protocol:

========================  ===========================================
message                   direction
========================  ===========================================
UpdateNotification        source / coordinator -> integrator
RelMessage                integrator -> merge process(es)
UpdateForView             integrator -> view manager
EndOfBlock                integrator -> view manager (complete-N)
SnapshotQuery/Response    view manager <-> base-data service
ActionListMessage         view manager -> merge process
WarehouseTransactionMsg   merge process -> warehouse
CommitNotification        warehouse -> merge process
========================  ===========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports (no cycles)
    from repro.sources.transactions import SourceTransaction
    from repro.sources.update import Update
    from repro.viewmgr.actions import ActionList
    from repro.warehouse.txn import WarehouseTransaction


@dataclass(frozen=True, slots=True)
class UpdateNotification:
    """A committed source transaction reported to the integrator.

    ``lineage_id`` is the source world's global commit sequence number —
    the causal id observability threads from the source commit through the
    integrator's numbering (``0`` when the reporter cannot know it, e.g. a
    snapshot-diff monitor synthesizing transactions from state diffs).
    """

    transaction: SourceTransaction
    commit_time: float
    lineage_id: int = 0


@dataclass(frozen=True, slots=True)
class NumberedUpdate:
    """The integrator-numbered update stream fed to the base-data service."""

    update_id: int
    updates: tuple["Update", ...]


@dataclass(frozen=True, slots=True)
class RelMessage:
    """``REL_i``: the set of views relevant to update ``update_id`` (§3.2)."""

    update_id: int
    views: frozenset[str]


@dataclass(frozen=True, slots=True)
class UpdateForView:
    """A copy of update ``update_id`` routed to one view manager (§3.2).

    ``updates`` carries the transaction's updates restricted to relations
    the destination view reads (the integrator already knows the view's
    base relations, so irrelevant updates inside a multi-update
    transaction are not shipped).
    """

    update_id: int
    view: str
    updates: tuple[Update, ...]


@dataclass(frozen=True, slots=True)
class EndOfBlock:
    """Integrator marker: every update with id <= ``through`` was numbered."""

    block: int
    through: int


@dataclass(frozen=True, slots=True)
class SnapshotQuery:
    """A view manager asks the base-data service for base relations.

    ``version=None`` requests the current state (autonomous-source mode,
    answered together with the undo information needed to compensate);
    an integer requests that exact multiversion snapshot.
    """

    query_id: int
    requester: str
    relations: frozenset[str]
    version: int | None = None
    undo_from: int | None = None


@dataclass(frozen=True, slots=True)
class SnapshotResponse:
    """Answer to a :class:`SnapshotQuery`.

    ``contents`` maps relation name to its bag at ``version`` as
    ``(layout, {value tuple: count})``, the tuples positioned by the
    layout (the relation's sorted attribute names): what
    :meth:`Relation.from_tuple_counts` loads, and read-only, being the
    service's own snapshot.  In autonomous-source mode ``undo_updates``
    lists the integrator-numbered updates in ``(undo_from, version]``
    touching the requested relations, so the requester can roll the state
    back.
    """

    query_id: int
    version: int
    contents: Mapping[str, tuple[tuple[str, ...], Mapping[tuple, int]]]
    undo_updates: tuple[tuple[int, Update], ...] = ()


@dataclass(frozen=True, slots=True)
class ActionListMessage:
    """``AL^x_j`` sent by view manager x to the merge process (§3.3)."""

    action_list: "ActionList"


@dataclass(frozen=True, slots=True)
class WarehouseTransactionMsg:
    """A warehouse transaction submitted by a merge process (§4.3)."""

    txn: "WarehouseTransaction"
    sequenced_after: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class CommitNotification:
    """The warehouse confirms that transaction ``txn_id`` committed."""

    txn_id: int
    commit_time: float
    merge_name: str = ""


@dataclass(frozen=True, slots=True)
class SequencedFrame:
    """Transport frame of :class:`~repro.sim.network.ReliableChannel`.

    Wraps one application payload with the channel sequence number the
    reliable-delivery protocol uses for ordering, duplicate suppression and
    retransmission.  Never seen by application processes — the channel
    unwraps it before delivery.
    """

    seq: int
    payload: object


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Cumulative acknowledgement: every frame ``seq <= ack`` was processed."""

    ack: int


def lineage_keys(message: object) -> dict[str, tuple[int, ...]]:
    """The causal identifiers a message carries, for trace attribution.

    Returns any of three keys (absent when inapplicable):

    * ``ids`` — integrator-assigned update numbers the message concerns;
    * ``lineage`` — source-world commit sequence numbers (pre-numbering);
    * ``txn`` — warehouse transaction ids.

    Used by :meth:`repro.sim.process.Process` to stamp per-message queue
    and service events, which is what lets
    :class:`repro.obs.lineage.Lineage` attribute every hop of an update's
    path to the update itself.  Unknown message types yield ``{}`` — the
    hop simply goes unattributed rather than failing.
    """
    if isinstance(message, SequencedFrame):
        return lineage_keys(message.payload)
    if isinstance(message, (NumberedUpdate, RelMessage, UpdateForView)):
        return {"ids": (message.update_id,)}
    if isinstance(message, ActionListMessage):
        return {"ids": tuple(message.action_list.covered)}
    if isinstance(message, WarehouseTransactionMsg):
        return {
            "ids": tuple(message.txn.covered_rows),
            "txn": (message.txn.txn_id,),
        }
    if isinstance(message, CommitNotification):
        return {"txn": (message.txn_id,)}
    if isinstance(message, UpdateNotification):
        return {"lineage": (message.lineage_id,)} if message.lineage_id else {}
    return {}


__all__ = [
    "UpdateNotification",
    "NumberedUpdate",
    "RelMessage",
    "UpdateForView",
    "EndOfBlock",
    "SnapshotQuery",
    "SnapshotResponse",
    "ActionListMessage",
    "WarehouseTransactionMsg",
    "CommitNotification",
    "SequencedFrame",
    "AckFrame",
    "lineage_keys",
]
