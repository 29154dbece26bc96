"""Run metrics: the quantities the paper's §7 study asks about.

"We plan to investigate the effect of the merging process on view
freshness (recall that the merging delays the application of some ALs to
the warehouse views), and under which update load the merge process
becomes a bottleneck for the system."

* **freshness / staleness** — per source update, the lag between its
  commit at the source and the first warehouse commit that reflects it;
* **bottleneck indicators** — per-process utilisation, mean/max queue
  length, and end-of-run backlog;
* **throughput** — updates reflected per unit of virtual time;
* **transaction accounting** — warehouse transactions, batches, messages.

Since the observability layer landed, this module is a *thin view*: the
per-process numbers come from registry-backed instruments on
``sim.metrics`` (see :mod:`repro.obs.registry`), the VUT peak from the
merge processes' ``merge_vut_size`` timeline gauges, and queue-wait
percentiles from each process's ``proc_queue_wait`` histogram.  Anything
deeper — full timelines, per-update causality — lives in ``repro.obs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.obs.registry import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.builder import WarehouseSystem


@dataclass(frozen=True, slots=True)
class ProcessStats:
    """Per-process load statistics."""

    name: str
    messages_handled: int
    utilisation: float
    mean_queue: float
    max_queue: int
    final_queue: int
    mean_queue_wait: float = 0.0
    p95_queue_wait: float = 0.0


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """Everything a benchmark needs to print one results row."""

    makespan: float
    updates_committed: int
    updates_reflected: int
    warehouse_transactions: int
    mean_staleness: float
    max_staleness: float
    p95_staleness: float
    throughput: float
    processes: Mapping[str, ProcessStats] = field(default_factory=dict)
    messages_total: int = 0
    vut_peak: int = 0

    def process(self, name: str) -> ProcessStats:
        return self.processes[name]

    def to_dict(self) -> dict:
        """A JSON-serialisable record (for harnesses and dashboards)."""
        return {
            "makespan": self.makespan,
            "updates_committed": self.updates_committed,
            "updates_reflected": self.updates_reflected,
            "warehouse_transactions": self.warehouse_transactions,
            "staleness": {
                "mean": self.mean_staleness,
                "p95": self.p95_staleness,
                "max": self.max_staleness,
            },
            "throughput": self.throughput,
            "messages_total": self.messages_total,
            "vut_peak": self.vut_peak,
            "processes": {
                name: {
                    "messages": stats.messages_handled,
                    "utilisation": stats.utilisation,
                    "mean_queue": stats.mean_queue,
                    "max_queue": stats.max_queue,
                    "final_queue": stats.final_queue,
                    "mean_queue_wait": stats.mean_queue_wait,
                    "p95_queue_wait": stats.p95_queue_wait,
                }
                for name, stats in sorted(self.processes.items())
            },
        }

    def format_row(self) -> str:
        return (
            f"updates={self.updates_committed:<6} "
            f"txns={self.warehouse_transactions:<6} "
            f"makespan={self.makespan:9.2f} "
            f"thru={self.throughput:8.3f} "
            f"staleness mean={self.mean_staleness:8.2f} "
            f"p95={self.p95_staleness:8.2f} max={self.max_staleness:8.2f}"
        )


def staleness_per_update(system: "WarehouseSystem") -> dict[int, float]:
    """Source-commit to warehouse-visibility lag for each reflected update."""
    commit_time = {
        update_id: time for update_id, _txn, time in system.integrator.numbered
    }
    # The commit log, not the state history: with ``record_history=False``
    # the history holds the latest state only.
    visible_at: dict[int, float] = {}
    for commit in system.store.commit_log:
        for update_id in commit.covered_rows:
            if update_id not in visible_at:
                visible_at[update_id] = commit.time
    return {
        update_id: visible_at[update_id] - commit_time[update_id]
        for update_id in visible_at
        if update_id in commit_time
    }


def collect_metrics(system: "WarehouseSystem") -> RunMetrics:
    """Gather a :class:`RunMetrics` snapshot from a finished run."""
    staleness = staleness_per_update(system)
    lags = list(staleness.values())
    makespan = system.sim.now

    processes: dict[str, ProcessStats] = {}
    everyone = [p for p in (system.integrator, system.service, system.warehouse) if p]
    everyone.extend(system.merge_processes)
    everyone.extend(system.view_managers.values())
    for process in everyone:
        _count, mean_wait, p95_wait = process.queue_wait_stats()
        processes[process.name] = ProcessStats(
            name=process.name,
            messages_handled=process.messages_handled,
            utilisation=process.utilisation(),
            mean_queue=process.mean_queue_length(),
            max_queue=process.max_queue_length,
            final_queue=process.queue_length,
            mean_queue_wait=mean_wait,
            p95_queue_wait=p95_wait,
        )

    vut_peak = 0
    for gauge in system.sim.metrics.family("merge_vut_size"):
        vut_peak = max(vut_peak, int(gauge.max))

    committed = len(system.integrator.numbered)
    reflected = len(staleness)
    return RunMetrics(
        makespan=makespan,
        updates_committed=committed,
        updates_reflected=reflected,
        warehouse_transactions=system.warehouse.commits,
        mean_staleness=sum(lags) / len(lags) if lags else 0.0,
        max_staleness=max(lags) if lags else 0.0,
        p95_staleness=percentile(lags, 0.95),
        throughput=reflected / makespan if makespan > 0 else 0.0,
        processes=processes,
        messages_total=sum(p.messages_handled for p in processes.values()),
        vut_peak=vut_peak,
    )
