"""``repro.obs`` — the observability layer.

Layered over the simulator's :class:`~repro.sim.tracing.Trace`:

* :mod:`repro.obs.registry` — typed metrics (counters, gauges,
  histograms — exact or reservoir-bounded) that processes, channels, and
  merges register on ``sim.metrics`` as they run;
* :mod:`repro.obs.lineage` — per-update causal reconstruction
  (source commit → integrator → view manager → merge → warehouse) from
  trace events;
* :mod:`repro.obs.export` — trace files: Chrome/Perfetto JSON, the
  lossless JSONL event log, and the ``Trace.format`` text;
* :mod:`repro.obs.freshness` — live per-view staleness, VUT occupancy
  and merge-queue gauges with an online SLO evaluator;
* :mod:`repro.obs.profiler` — opt-in per-plan-node timing for compiled
  maintenance plans.

A finished run's metrics leave as one document, its run report
(:meth:`repro.system.report.RunReport.to_json`, the registry inside).
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
    "repro.obs.export": (
        "read_chrome_trace", "read_jsonl", "to_chrome_trace", "to_jsonl",
        "write_chrome_trace", "write_jsonl", "write_trace",
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
