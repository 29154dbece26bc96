"""Live freshness/staleness monitoring with an online SLO evaluator.

:func:`repro.system.report.staleness_per_update` computes per-update
staleness *post mortem*, from the warehouse commit log of a finished
run.  This module watches the same signals **while the system is serving
traffic**:

* **Per-view staleness** — how far the warehouse lags behind the newest
  source commit, derived incrementally from the lineage hop chain the
  trace already records: an ``int_number`` event marks update
  ``update_id`` (committed at ``commit_time``) as *pending* for every
  view in its ``rel`` routing set; a ``wh_commit`` event clears the
  committed ``rows`` for its ``views``.  A view's staleness at sample
  time is ``now - oldest pending commit_time`` (0 when fully caught up),
  in the simulator's virtual time, the clock the trace itself uses; the
  oldest is the top of a heap whose cleared entries leave when they surface.
* **VUT occupancy and merge-queue depth** — read directly off each merge
  process on every tick.
* **SLO evaluation** — an optional :class:`SloPolicy` turns thresholds
  into ``slo_breaches{kind=}`` counters and ``slo_breach`` trace events,
  and the CLI turns a non-zero breach count into exit code 2.

Sampling is tick-gated (:meth:`FreshnessMonitor.maybe_sample`): the
kernel invokes the probe after every executed event and the monitor
decides whether a tick has elapsed.  Gauges recorded: ``view_staleness``
(per view), ``monitor_queue_depth`` and ``monitor_vut_occupancy`` (per
merge shard).

Staleness ingestion needs the ``int_number`` and ``wh_commit`` trace
kinds, which a default run records; with those kinds filtered out
(``trace_kinds=frozenset()``, say), the monitor still samples queue
depth, VUT occupancy and their SLOs.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import ReproError
from repro.sim.tracing import STALENESS_KINDS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.system.builder import WarehouseSystem


@dataclass(frozen=True)
class SloPolicy:
    """Freshness service-level objectives; ``None`` disables a check.

    ``max_staleness`` bounds any view's lag behind the newest source
    commit (in virtual time);
    ``max_queue_depth`` bounds any merge shard's inbox; ``max_vut``
    bounds any merge shard's views-update-table occupancy.
    """

    max_staleness: float | None = None
    max_queue_depth: int | None = None
    max_vut: int | None = None

    def __post_init__(self) -> None:
        for name in ("max_staleness", "max_queue_depth", "max_vut"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ReproError(f"SloPolicy.{name} must be >= 0, got {value}")

    def active(self) -> bool:
        return (
            self.max_staleness is not None
            or self.max_queue_depth is not None
            or self.max_vut is not None
        )


class FreshnessMonitor:
    """Tick-sampled freshness gauges + SLO evaluation for one system."""

    def __init__(
        self,
        system: "WarehouseSystem",
        tick: float = 1.0,
        policy: SloPolicy | None = None,
    ) -> None:
        if tick <= 0:
            raise ReproError(f"freshness tick must be > 0, got {tick}")
        self._system = system
        self._sim = system.sim
        self._tick = tick
        self._policy = policy
        self._cursor = 0
        # view -> {update_id: source commit time} for updates routed to
        # the view but not yet covered by a warehouse commit for it
        self._pending: dict[str, dict[int, float]] = {
            view: {} for view in system.view_managers
        }
        # view -> heap of (commit time, update_id), a superset of pending's
        self._oldest: dict[str, list] = {view: [] for view in self._pending}
        # -inf, not None: maybe_sample runs once per executed event, so
        # the gate must be a single float comparison
        self._next_sample = float("-inf")
        self.samples = 0
        self.breaches = 0
        # The probe runs inside the kernel's hot loop, so per-sample
        # instrument lookups (label sorting, dict hashing) are hoisted
        # here: one gauge per view and per merge shard, resolved once.
        registry = system.sim.metrics
        self._staleness_gauges = [
            (view, pending, self._oldest[view],
             registry.gauge("view_staleness", view=view))
            for view, pending in sorted(self._pending.items())
        ]
        # the algorithm binds its ViewUpdateTable once and only mutates
        # it afterwards, so the object reference is safe to keep
        self._shard_gauges = [
            (
                merge,
                getattr(merge.algorithm, "vut", None),
                registry.gauge("monitor_queue_depth", merge=merge.name),
                registry.gauge("monitor_vut_occupancy", merge=merge.name),
            )
            for merge in system.merge_processes
        ]
        self._breach_counters: dict[str, object] = {}

    # -- sampling ------------------------------------------------------------
    def maybe_sample(self) -> None:
        """Sample iff a tick has elapsed since the last sample (cheap)."""
        if self._sim.now < self._next_sample:
            return
        self.sample()

    def sample(self) -> None:
        """Unconditionally ingest new trace events and record all gauges."""
        now = self._sim.now
        self._next_sample = now + self._tick
        self._ingest()
        policy = self._policy
        max_staleness = None if policy is None else policy.max_staleness
        max_depth = None if policy is None else policy.max_queue_depth
        max_vut = None if policy is None else policy.max_vut
        for view, pending, oldest, gauge in self._staleness_gauges:
            while oldest and pending.get(oldest[0][1]) != oldest[0][0]:
                heappop(oldest)
            lag = (now - oldest[0][0]) if oldest else 0.0
            gauge.set(lag, at=now)
            if max_staleness is not None and lag > max_staleness:
                self._breach("staleness", view, lag, max_staleness)
        for merge, vut, depth_gauge, vut_gauge in self._shard_gauges:
            depth = merge.queue_length
            depth_gauge.set(depth, at=now)
            occupancy = len(vut) if vut is not None else 0
            vut_gauge.set(occupancy, at=now)
            if max_depth is not None and depth > max_depth:
                self._breach("queue_depth", merge.name, depth, max_depth)
            if max_vut is not None and occupancy > max_vut:
                self._breach("vut_occupancy", merge.name, occupancy, max_vut)
        self.samples += 1

    def _ingest(self) -> None:
        # raw_events_since builds no TraceEvent: sampling runs inside the
        # kernel loop, and forcing TraceEvent materialisation mid-run
        # would charge the whole trace's construction cost to the
        # monitored arm (the trace defers it to the first read).  The
        # kinds filter keeps the Python loop off unrelated events.
        trace = self._sim.trace
        if len(trace) == self._cursor:  # nothing recorded since
            return
        self._cursor, events = trace.raw_events_since(self._cursor, STALENESS_KINDS)
        for time, kind, _process, detail in events:
            if kind == "int_number":
                uid = detail.get("update_id")
                if uid is None:
                    continue
                commit = detail.get("commit_time", time)
                for view in detail.get("rel", ()):
                    pending = self._pending.get(view)
                    if pending is not None:
                        pending[uid] = commit
                        heappush(self._oldest[view], (commit, uid))
            elif kind == "wh_commit":
                rows = detail.get("rows", ())
                for view in detail.get("views", ()):
                    pending = self._pending.get(view)
                    if pending:
                        for uid in rows:
                            pending.pop(uid, None)

    def _breach(
        self, kind: str, target: str, value: float, threshold: float
    ) -> None:
        self.breaches += 1
        sim = self._sim
        counter = self._breach_counters.get(kind)
        if counter is None:
            counter = sim.metrics.counter("slo_breaches", kind=kind)
            self._breach_counters[kind] = counter
        counter.inc()
        if sim.trace.wants("slo_breach"):
            # "slo" not "kind": record()'s positional parameter is
            # already named kind, so the detail needs its own key
            sim.trace.record(
                sim.now,
                "slo_breach",
                "monitor",
                slo=kind,
                target=target,
                value=round(float(value), 6),
                threshold=threshold,
            )

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict:
        """A JSON-serialisable summary for exit-time reporting."""
        registry = self._sim.metrics
        staleness = {}
        for view in sorted(self._pending):
            gauge = registry.get("view_staleness", view=view)
            if gauge is not None:
                staleness[view] = {
                    "current": gauge.value, "max": gauge.max,
                }
        shards = {}
        for merge in self._system.merge_processes:
            depth = registry.get("monitor_queue_depth", merge=merge.name)
            vut = registry.get("monitor_vut_occupancy", merge=merge.name)
            shards[merge.name] = {
                "queue_depth_max": depth.max if depth is not None else 0.0,
                "vut_occupancy_max": vut.max if vut is not None else 0.0,
            }
        return {
            "samples": self.samples,
            "breaches": self.breaches,
            "staleness": staleness,
            "shards": shards,
        }


def format_snapshot(snap: dict) -> str:
    """A :meth:`FreshnessMonitor.snapshot` as text, a line per view and
    shard (the end of a CLI run, :meth:`repro.system.report.RunReport.format`)."""
    lines = [
        f"freshness monitor: {snap['samples']} sample(s), "
        f"{snap['breaches']} SLO breach(es)"
    ]
    for view, entry in snap["staleness"].items():
        lines.append(
            f"  {view:<20} staleness now={entry['current']:.4g} "
            f"max={entry['max']:.4g}"
        )
    for merge, entry in snap["shards"].items():
        lines.append(
            f"  {merge:<20} queue max={entry['queue_depth_max']:.4g} "
            f"vut max={entry['vut_occupancy_max']:.4g}"
        )
    return "\n".join(lines)


__all__ = ["STALENESS_KINDS", "FreshnessMonitor", "SloPolicy", "format_snapshot"]
