"""Multiple View Consistency for Data Warehousing — a full reproduction.

This library reimplements the system and algorithms of

    Yue Zhuge, Janet L. Wiener, Hector Garcia-Molina.
    "Multiple View Consistency for Data Warehousing." ICDE 1997.

Quick start::

    from repro import (
        SystemConfig, WarehouseSystem, Update,
        paper_world, paper_views_example1,
    )

    world = paper_world()
    system = WarehouseSystem(world, paper_views_example1(),
                             SystemConfig(manager_kind="complete"))
    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.run()
    assert system.check_mvc("complete").ok

Packages:

* :mod:`repro.relational`  — multiset relational engine + delta rules
* :mod:`repro.sim`         — deterministic discrete-event kernel
* :mod:`repro.sources`     — autonomous sources, transactions, world
* :mod:`repro.integrator`  — update numbering, REL computation, base cache
* :mod:`repro.viewmgr`     — complete / strong / complete-N / periodic /
  convergent (and deliberately broken) view managers
* :mod:`repro.merge`       — the VUT, SPA, PA, submission policies,
  distributed merging
* :mod:`repro.warehouse`   — view store + transactional applier
* :mod:`repro.consistency` — executable §2 definitions (test oracles)
* :mod:`repro.system`      — Figure-1 assembly, the run report
* :mod:`repro.workloads`   — schemas and seeded update streams
* :mod:`repro.obs`         — observability: causal lineage, metrics
  registry, trace files (Perfetto / JSONL / text)
* :mod:`repro.conformance` — schedule-exploration conformance engine:
  seeded violation hunts, delta-debugged minimal reproducers, the
  guarantee matrix
* :mod:`repro.cache`       — content-addressed materialization cache:
  blake2b artifact keys, the atomic integrity-verified store, and warm
  crash-restart for view managers and merge processes
"""

from importlib import import_module

__version__ = "1.0.0"

#: module -> the names the package exports from it.  A name is imported
#: on first use (PEP 562), so ``import repro`` loads only what a caller
#: reaches for: a default run never loads the conformance engine, the
#: cache, fault plans or the exporters.
_EXPORTS = {
    "repro.errors": (
        "ReproError", "SchemaError", "SourceError", "ViewManagerError",
        "MergeError", "WarehouseError", "ConsistencyViolation", "FaultError",
    ),
    "repro.faults": ("FaultPlan", "CrashSpec", "ChannelFaultModel"),
    "repro.relational": (
        "Attribute", "AttrType", "Schema", "Row", "Relation", "Delta",
        "Database", "ViewDefinition", "Aggregate", "AggregateSpec",
        "MaintenancePlan", "MaterializedView", "evaluate", "propagate_delta",
        "parse_view", "to_sql",
    ),
    "repro.relational.catalog": ("parse_catalog", "load_views", "dump_views"),
    "repro.sources": (
        "Update", "UpdateKind", "SourceTransaction", "SourceWorld", "Source",
        "GlobalTransactionCoordinator", "SilentSource", "SnapshotDiffMonitor",
    ),
    "repro.merge": (
        "ViewUpdateTable", "SimplePaintingAlgorithm", "PaintingAlgorithm",
        "ShardRouter", "partition_views", "shard_view_groups",
    ),
    "repro.consistency": (
        "replay_source_states", "Replay", "check_mvc_ordered",
        "classify_mvc_ordered",
    ),
    "repro.obs": (
        "Lineage", "UpdateLineage", "LineageHop", "MetricsRegistry",
        "write_trace", "write_chrome_trace", "write_jsonl",
    ),
    "repro.cache": ("ArtifactStore", "CacheConfig", "artifact_key"),
    "repro.conformance": ("ScenarioSpec", "Explorer", "Reproducer", "run_matrix"),
    "repro.system": (
        "SystemConfig", "WarehouseSystem", "RunReport", "format_reports", "sweep",
    ),
    "repro.workloads": (
        "paper_world", "paper_views_example1", "paper_views_example2",
        "paper_views_example3", "paper_views_example5", "bank_world",
        "bank_views", "star_world", "star_views", "WorkloadSpec",
        "UpdateStreamGenerator",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str) -> object:
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
