"""System assembly: build and run complete Figure-1 warehouses.

:class:`SystemConfig` selects every architectural knob the paper
discusses (manager class, merge algorithm, submission policy, distributed
merging, relevance filtering, latencies and costs);
:class:`WarehouseSystem` wires the processes together, runs workloads, and
exposes the state histories, the consistency verdicts and the run report
(:class:`RunReport`).
"""

from importlib import import_module

#: module -> the names the package exports from it, each imported on first
#: use (PEP 562): building and running a system loads neither the run
#: report nor the parameter sweeps.
_EXPORTS = {
    "repro.system.config": ("SystemConfig",),
    "repro.system.builder": ("WarehouseSystem",),
    "repro.system.report": ("RunReport", "format_reports"),
    "repro.system.sweeps": ("sweep",),
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
