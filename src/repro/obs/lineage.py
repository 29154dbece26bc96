"""Causal lineage: the source→warehouse path of every update.

The paper's §7 asks *where time goes* between a source commit and the
warehouse state that reflects it — which the end-of-run aggregates in
:class:`~repro.system.report.RunReport` cannot answer.  This module
reconstructs, per update, the full causal chain

    source commit → integrator numbering → view-manager delta computation
    → merge (VUT) decision → warehouse transaction → warehouse commit

with per-hop timestamps and, for every mailbox hop, the queue-wait vs
service-time split, from the run's :class:`~repro.sim.tracing.Trace`.

The chain is stitched from two id spaces:

* the **source world commit sequence** (``lineage_id``), stamped on
  ``src_commit`` / ``global_commit`` events and carried by
  :class:`~repro.messages.UpdateNotification`;
* the **integrator's update number**, assigned at numbering time; the
  ``int_number`` event records both ids, bridging the spaces.

Downstream hops (``proc_msg``, ``vm_compute``, ``merge_ready``,
``merge_submit``, ``wh_start``, ``wh_commit``) are keyed by update number
or by warehouse transaction id (resolved through ``merge_ready``'s
txn→rows mapping).  Reconstruction is purely trace-driven — it works on a
live system, a deserialised JSONL trace, and under retransmission
(reliable channels deliver exactly-once, so each hop appears exactly
once no matter how many copies the network carried).

Usage::

    lineage = Lineage.from_system(system)     # or Lineage(trace)
    chain = lineage.for_update(7)
    print(chain.format())
    chain.latency, chain.total_queue_wait, chain.total_service_time
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ReproError
from repro.sim.tracing import Trace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.builder import WarehouseSystem


class LineageError(ReproError):
    """Asked for lineage the trace cannot provide."""


@dataclass(frozen=True, slots=True)
class LineageHop:
    """One step of an update's causal path."""

    time: float
    process: str
    kind: str
    detail: Mapping[str, object] = field(default_factory=dict)
    #: mailbox wait before service started (``proc_msg`` hops only)
    queue_wait: float | None = None
    #: virtual time spent serving the message (``proc_msg`` hops only)
    service_time: float | None = None

    def __str__(self) -> str:
        timing = ""
        if self.queue_wait is not None:
            timing = (
                f" wait={self.queue_wait:.3f} service={self.service_time:.3f}"
            )
        inner = ", ".join(
            f"{k}={v}" for k, v in self.detail.items()
            if k not in ("wait", "service")
        )
        return (
            f"[{self.time:10.3f}] {self.process:<16} {self.kind:<14}"
            f"{timing} {inner}".rstrip()
        )


@dataclass(frozen=True, slots=True)
class UpdateLineage:
    """The reconstructed path of one numbered update."""

    update_id: int
    lineage_id: int | None
    source: str | None
    source_commit_time: float | None
    numbered_at: float | None
    warehouse_txns: tuple[int, ...]
    reflected_at: float | None
    hops: tuple[LineageHop, ...]

    @property
    def reflected(self) -> bool:
        """Did some warehouse commit make this update visible?"""
        return self.reflected_at is not None

    @property
    def latency(self) -> float | None:
        """Source commit to warehouse visibility (the per-update staleness)."""
        if self.reflected_at is None or self.source_commit_time is None:
            return None
        return self.reflected_at - self.source_commit_time

    @property
    def total_queue_wait(self) -> float:
        """Virtual time this update's messages sat in mailboxes."""
        return sum(h.queue_wait for h in self.hops if h.queue_wait is not None)

    @property
    def total_service_time(self) -> float:
        """Virtual time processes spent serving this update's messages."""
        return sum(
            h.service_time for h in self.hops if h.service_time is not None
        )

    def processes(self) -> tuple[str, ...]:
        """Every process the update passed through, in first-visit order."""
        seen: list[str] = []
        for hop in self.hops:
            if hop.process not in seen:
                seen.append(hop.process)
        return tuple(seen)

    def format(self) -> str:
        """A human-readable rendering of the whole chain."""
        latency = self.latency
        header = (
            f"U{self.update_id}"
            + (f" (source seq {self.lineage_id})" if self.lineage_id else "")
            + (
                f": committed t={self.source_commit_time:.3f}"
                if self.source_commit_time is not None
                else ": commit unobserved"
            )
            + (
                f", reflected t={self.reflected_at:.3f}"
                f" (latency {latency:.3f};"
                f" queue-wait {self.total_queue_wait:.3f},"
                f" service {self.total_service_time:.3f})"
                if self.reflected and latency is not None
                else ", not reflected"
            )
        )
        return "\n".join([header, *(f"  {hop}" for hop in self.hops)])


#: trace kinds lineage reconstruction consumes — the minimum ``Trace.kinds``
#: filter under which :meth:`Lineage.for_update` stays complete.
LINEAGE_KINDS = frozenset(
    {
        "src_commit",
        "global_commit",
        "int_number",
        "proc_msg",
        "vm_compute",
        "merge_ready",
        "merge_submit",
        "wh_start",
        "wh_commit",
    }
)


class Lineage:
    """An index over a trace answering per-update causal queries."""

    def __init__(self, trace: Trace | Iterable[TraceEvent]) -> None:
        events = list(trace)
        # -- pass 1: id bridges -------------------------------------------
        # source commit sequence -> commit event (src_commit/global_commit)
        self._commit_events: dict[int, TraceEvent] = {}
        # source seq -> update_id and back
        self._seq_to_update: dict[int, int] = {}
        self._update_to_seq: dict[int, int] = {}
        # warehouse txn id -> covered update ids (from merge_ready/submit)
        self._txn_rows: dict[int, tuple[int, ...]] = {}
        numbered: dict[int, TraceEvent] = {}
        for event in events:
            kind = event.kind
            if kind in ("src_commit", "global_commit"):
                seq = event.detail.get("seq")
                if isinstance(seq, int):
                    self._commit_events[seq] = event
            elif kind == "int_number":
                update_id = event.detail["update_id"]
                numbered[update_id] = event
                seq = event.detail.get("lineage")
                if isinstance(seq, int) and seq:
                    self._seq_to_update[seq] = update_id
                    self._update_to_seq[update_id] = seq
            elif kind in ("merge_ready", "merge_submit"):
                txn = event.detail.get("txn")
                rows = event.detail.get("rows")
                if isinstance(txn, int) and rows is not None:
                    self._txn_rows[txn] = tuple(rows)
        self._numbered = numbered

        # -- pass 2: per-update hop lists ---------------------------------
        hops: dict[int, list[LineageHop]] = {u: [] for u in numbered}
        self._reflected_at: dict[int, float] = {}
        self._txns_of: dict[int, list[int]] = {u: [] for u in numbered}
        for event in events:
            for update_id in self._updates_of(event):
                bucket = hops.get(update_id)
                if bucket is None:
                    continue
                bucket.append(self._as_hop(event))
                if event.kind == "wh_commit":
                    self._reflected_at.setdefault(update_id, event.time)
                if event.kind in ("merge_ready", "wh_commit"):
                    txn = event.detail.get("txn")
                    if isinstance(txn, int) and txn not in self._txns_of[update_id]:
                        self._txns_of[update_id].append(txn)
        # Prepend the source-commit hop, then sort stably by time so hop
        # timestamps are monotone while same-instant hops keep causal order.
        for update_id, bucket in hops.items():
            seq = self._update_to_seq.get(update_id)
            commit = self._commit_events.get(seq) if seq is not None else None
            if commit is not None:
                bucket.insert(0, self._as_hop(commit))
            bucket.sort(key=lambda hop: hop.time)
        self._hops = hops

    @classmethod
    def from_system(cls, system: "WarehouseSystem") -> "Lineage":
        """Index a finished (or in-flight) system's trace."""
        return cls(system.sim.trace)

    # -- event attribution -------------------------------------------------
    def _updates_of(self, event: TraceEvent) -> tuple[int, ...]:
        """Which numbered updates an event belongs to."""
        kind = event.kind
        detail = event.detail
        if kind == "int_number":
            return (detail["update_id"],)
        if kind == "vm_compute":
            return tuple(detail.get("covered", ()))
        if kind in ("merge_ready", "merge_submit", "wh_commit"):
            return tuple(detail.get("rows", ()))
        if kind == "wh_start":
            return self._txn_rows.get(detail.get("txn"), ())
        if kind == "proc_msg":
            ids = tuple(detail.get("ids", ()))
            for seq in detail.get("lineage", ()):
                update_id = self._seq_to_update.get(seq)
                if update_id is not None:
                    ids += (update_id,)
            for txn in detail.get("txn", ()):
                if not ids:  # commit acks carry only the txn id
                    ids += self._txn_rows.get(txn, ())
            return ids
        return ()

    @staticmethod
    def _as_hop(event: TraceEvent) -> LineageHop:
        wait = event.detail.get("wait") if event.kind == "proc_msg" else None
        service = (
            event.detail.get("service") if event.kind == "proc_msg" else None
        )
        return LineageHop(
            time=event.time,
            process=event.process,
            kind=event.kind,
            detail=dict(event.detail),
            queue_wait=wait,
            service_time=service,
        )

    # -- queries -----------------------------------------------------------
    def update_ids(self) -> tuple[int, ...]:
        """Every integrator-numbered update the trace knows about."""
        return tuple(sorted(self._numbered))

    def __len__(self) -> int:
        return len(self._numbered)

    def __contains__(self, update_id: int) -> bool:
        return update_id in self._numbered

    def for_update(self, update_id: int) -> UpdateLineage:
        """The full reconstructed chain for one numbered update."""
        numbering = self._numbered.get(update_id)
        if numbering is None:
            raise LineageError(
                f"update {update_id} was never numbered by the integrator "
                f"(trace knows updates {self.update_ids()[:10]}...)"
            )
        seq = self._update_to_seq.get(update_id)
        commit = self._commit_events.get(seq) if seq is not None else None
        commit_time = numbering.detail.get("commit_time")
        if commit is not None:
            commit_time = commit.time
        return UpdateLineage(
            update_id=update_id,
            lineage_id=seq,
            source=commit.process if commit is not None else None,
            source_commit_time=commit_time,
            numbered_at=numbering.time,
            warehouse_txns=tuple(self._txns_of.get(update_id, ())),
            reflected_at=self._reflected_at.get(update_id),
            hops=tuple(self._hops.get(update_id, ())),
        )

    def all(self) -> list[UpdateLineage]:
        """Chains for every numbered update, in numbering order."""
        return [self.for_update(u) for u in self.update_ids()]

    def unreflected(self) -> tuple[int, ...]:
        """Updates numbered but never covered by a warehouse commit."""
        return tuple(
            u for u in self.update_ids() if u not in self._reflected_at
        )
