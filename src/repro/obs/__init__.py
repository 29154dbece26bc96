"""``repro.obs`` — the observability layer.

Layered over the simulator's :class:`~repro.sim.tracing.Trace`:

* :mod:`repro.obs.registry` — typed metrics (counters, gauges,
  histograms — exact or reservoir-bounded) that processes, channels, and
  merges register on ``sim.metrics`` as they run;
* :mod:`repro.obs.lineage` — per-update causal reconstruction
  (source commit → integrator → view manager → merge → warehouse) from
  trace events;
* :mod:`repro.obs.export` — trace serialisation: Chrome/Perfetto JSON,
  JSONL event log, plain-text timeline;
* :mod:`repro.obs.promexport` — metrics serialisation: Prometheus text
  exposition;
* :mod:`repro.obs.freshness` — live per-view staleness, VUT occupancy
  and merge-queue gauges with an online SLO evaluator;
* :mod:`repro.obs.profiler` — opt-in per-plan-node timing for compiled
  maintenance plans.

See ``docs/observability.md`` for the model and worked examples.
"""

from importlib import import_module

#: module -> the names the package exports from it, each imported on first
#: use (PEP 562): the kernel's ``repro.obs.registry`` import loads no
#: exporter, lineage, freshness monitor or profiler.
_EXPORTS = {
    "repro.obs.registry": (
        "Counter", "Gauge", "Histogram", "Metric", "MetricsRegistry",
        "percentile",
    ),
    "repro.obs.lineage": (
        "LINEAGE_KINDS", "Lineage", "LineageError", "LineageHop",
        "UpdateLineage",
    ),
    "repro.obs.profiler": ("PROF_KEY", "PlanProfiler"),
    "repro.obs.freshness": ("FreshnessMonitor", "SloPolicy"),
    "repro.sim.tracing": ("STALENESS_KINDS",),
    "repro.obs.promexport": ("to_prometheus", "write_metrics"),
    "repro.obs.export": (
        "read_chrome_trace", "read_jsonl", "to_chrome_trace", "to_jsonl",
        "to_timeline", "write_chrome_trace", "write_jsonl", "write_timeline",
        "write_trace",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
