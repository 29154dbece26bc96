"""``repro.obs`` — the observability layer.

Layered over the simulator's :class:`~repro.sim.tracing.Trace`:

* :mod:`repro.obs.registry` — typed metrics (counters, gauges,
  histograms — exact or reservoir-bounded) that processes, channels, and
  merges register on ``sim.metrics`` as they run, each tagged with the
  runtime ``origin`` that recorded it;
* :mod:`repro.obs.lineage` — per-update causal reconstruction
  (source commit → integrator → view manager → merge → warehouse) from
  trace events;
* :mod:`repro.obs.export` — trace serialisation: Chrome/Perfetto JSON,
  JSONL event log, plain-text timeline;
* :mod:`repro.obs.promexport` — metrics serialisation: Prometheus text
  exposition and JSON snapshots;
* :mod:`repro.obs.freshness` — live per-view staleness, VUT occupancy
  and merge-queue gauges with an online SLO evaluator;
* :mod:`repro.obs.profiler` — opt-in per-plan-node timing for compiled
  maintenance plans.

See ``docs/observability.md`` for the model and worked examples.
"""

from repro.obs.export import (
    read_chrome_trace,
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    to_timeline,
    write_chrome_trace,
    write_jsonl,
    write_timeline,
    write_trace,
)
from repro.obs.freshness import STALENESS_KINDS, FreshnessMonitor, SloPolicy
from repro.obs.lineage import (
    LINEAGE_KINDS,
    Lineage,
    LineageError,
    LineageHop,
    UpdateLineage,
)
from repro.obs.profiler import PROF_KEY, PlanProfiler
from repro.obs.promexport import (
    parse_prometheus,
    to_prometheus,
    to_snapshot,
    write_metrics,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    percentile,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "percentile",
    "LINEAGE_KINDS",
    "Lineage",
    "LineageError",
    "LineageHop",
    "UpdateLineage",
    "PROF_KEY",
    "PlanProfiler",
    "STALENESS_KINDS",
    "FreshnessMonitor",
    "SloPolicy",
    "parse_prometheus",
    "to_prometheus",
    "to_snapshot",
    "write_metrics",
    "read_chrome_trace",
    "read_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "to_timeline",
    "write_chrome_trace",
    "write_jsonl",
    "write_timeline",
    "write_trace",
]
