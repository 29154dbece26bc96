"""The run report: one record of what a finished run answers.

"We plan to investigate the effect of the merging process on view
freshness (recall that the merging delays the application of some ALs to
the warehouse views), and under which update load the merge process
becomes a bottleneck for the system."  (§7)

A :class:`RunReport` holds a run's answer to both, and its verdict:

* **freshness / staleness** — per source update, the lag between its
  commit at the source and the first warehouse commit that reflects it
  (:func:`staleness_per_update`), as mean / p95 / max;
* **bottleneck indicators** — per-process utilisation, mean/max queue
  length, end-of-run backlog and queue waits, and the merges' VUT peak;
* **throughput** — updates reflected per unit of virtual time;
* **transaction accounting** — warehouse transactions and messages;
* **the verdict** — the level the configuration promises
  (:func:`repro.merge.selection.promise`), the level the run achieved
  and, when the run fails its promise, why; the text of a warehouse
  transaction that was refused;
* what the observers that were on saw: the freshness monitor's snapshot
  and the plan profiler's per-node rows.

The per-process numbers are each process's own counters and its
``proc_queue_wait`` histogram, the VUT peak the merges'
``merge_vut_size`` timeline gauges (:mod:`repro.obs.registry`).  The CLI's
``run`` / ``inspect`` print :meth:`RunReport.format`, ``sweep`` prints
:func:`format_reports`, and ``--metrics-out x.json`` writes
:meth:`RunReport.to_json` (``repro-run-report/1``) with the registry in it:
a run's one metrics document.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ReproError
from repro.merge.selection import at_least
from repro.obs.registry import percentile

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.builder import WarehouseSystem

#: the schema tag of :meth:`RunReport.to_json`
REPORT_FORMAT = "repro-run-report/1"


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
class RunReport:
    """One finished run: its numbers, its verdict, what its observers saw.

    ``promised`` is ``None`` when the configuration promises nothing;
    ``achieved`` is ``None`` in an unchecked report (``report(classify=False)``);
    ``reason`` says why a checked run fails its promise; ``refused`` is the
    text of the warehouse transaction that ended the run, if one did.
    ``monitor`` and ``plan_profile`` are set when those observers are on,
    ``variant`` in a sweep, ``registry`` (``MetricsRegistry.to_dict()``) in
    the CLI's ``--metrics-out x.json``.
    """

    makespan: float
    updates_committed: int
    updates_reflected: int
    warehouse_transactions: int
    mean_staleness: float
    max_staleness: float
    p95_staleness: float
    throughput: float
    processes: Mapping[str, ProcessStats]
    messages_total: int
    vut_peak: int
    promised: str | None
    achieved: str | None
    reason: str | None
    refused: str | None
    monitor: Mapping | None = None
    plan_profile: Mapping[str, Mapping[str, int]] | None = None
    variant: str | None = None
    registry: Mapping | None = None

    @property
    def verified(self) -> bool | None:
        """Whether the run kept its promise (``None`` when unchecked); a run
        that promises nothing fails, as ``check_mvc("auto")`` does."""
        if self.achieved is None:
            return None
        return self.promised is not None and at_least(self.achieved, self.promised)

    @classmethod
    def of(cls, system: WarehouseSystem, classify: bool = True) -> RunReport:
        """The report of a drained ``system``; ``classify=False`` skips the
        replay the verdict needs."""
        staleness = staleness_per_update(system)
        lags = list(staleness.values())
        makespan = system.sim.now
        everyone = [p for p in (system.integrator, system.service, system.warehouse) if p]
        everyone.extend(system.merge_processes)
        everyone.extend(system.view_managers.values())
        processes = {}
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
        refused = system.warehouse.refused
        promised = system.expected_level()
        achieved = reason = None
        if classify:
            # one replay answers both; a refused run or an empty promise
            # fails without one, with check_mvc's text
            replay = None if refused else system.replay()
            achieved = replay.classify() if replay else "inconsistent"
            check = (replay.check(promised) if replay and promised
                     else system.check_mvc(promised))
            reason = None if check else check.reason
        reflected = len(staleness)
        return cls(
            makespan=makespan,
            updates_committed=len(system.integrator.numbered),
            updates_reflected=reflected,
            warehouse_transactions=system.warehouse.commits,
            mean_staleness=sum(lags) / len(lags) if lags else 0.0,
            max_staleness=max(lags) if lags else 0.0,
            p95_staleness=percentile(lags, 0.95),
            throughput=reflected / makespan if makespan > 0 else 0.0,
            processes=processes,
            messages_total=sum(p.messages_handled for p in processes.values()),
            vut_peak=max((int(gauge.max) for gauge in
                          system.sim.metrics.family("merge_vut_size")), default=0),
            promised=promised,
            achieved=achieved,
            reason=reason,
            refused=None if refused is None else str(refused),
            monitor=system.monitor.snapshot() if system.monitor else None,
            plan_profile=(system.plan_profiler.stats()
                          if system.plan_profiler else None),
        )

    def to_json(self) -> str:
        """The report as ``repro-run-report/1`` JSON (:meth:`from_json`)."""
        return json.dumps(
            {"format": REPORT_FORMAT, **dataclasses.asdict(self),
             "verified": self.verified},
            indent=2, sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> RunReport:
        """The report :meth:`to_json` wrote."""
        data = json.loads(text)
        if data.pop("format", None) != REPORT_FORMAT:
            raise ReproError(f"not a {REPORT_FORMAT} document")
        del data["verified"]
        data["processes"] = {
            name: ProcessStats(**stats) for name, stats in data["processes"].items()
        }
        return cls(**data)

    def format(self) -> str:
        """The end of a CLI run: the metrics table and the verdict (or the
        refused transaction that ended the run), then the observers' views."""
        if self.refused is not None:
            lines = [f"run ended: {self.refused}"]
        else:
            lines = [format_reports([self]),
                     f"promised MVC level: {self.promised or 'none'}"]
            if self.achieved is not None:
                lines.append(f"achieved MVC level: {self.achieved}")
                lines.append("verification: " + (
                    "OK" if self.verified else f"FAILED — {self.reason}"))
        if self.monitor is not None:
            from repro.obs.freshness import format_snapshot

            lines += ["", format_snapshot(self.monitor)]
        if self.plan_profile is not None:
            from repro.obs.profiler import format_stats

            lines += ["", "plan profile (heaviest nodes first):",
                      format_stats(self.plan_profile)]
        return "\n".join(lines)


def format_reports(reports: Sequence[RunReport]) -> str:
    """Reports as a fixed-width table, one row each."""
    headers = [
        "variant", "MVC", "updates", "makespan", "throughput",
        "staleness(mean)", "staleness(p95)", "staleness(max)", "wh txns",
    ]
    cells = [
        [
            report.variant or "-",
            report.achieved or "unchecked",
            str(report.updates_committed),
            f"{report.makespan:.1f}",
            f"{report.throughput:.3f}",
            f"{report.mean_staleness:.2f}",
            f"{report.p95_staleness:.2f}",
            f"{report.max_staleness:.2f}",
            str(report.warehouse_transactions),
        ]
        for report in reports
    ]
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
              for i, h in enumerate(headers)]

    def line(values):
        return "  ".join(v.rjust(w) for v, w in zip(values, widths))

    return "\n".join([line(headers), line(["-" * w for w in widths]),
                      *map(line, cells)])


def staleness_per_update(system: WarehouseSystem) -> dict[int, float]:
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
