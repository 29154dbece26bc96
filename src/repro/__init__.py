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
* :mod:`repro.system`      — Figure-1 assembly, metrics
* :mod:`repro.workloads`   — schemas and seeded update streams
* :mod:`repro.obs`         — observability: causal lineage, metrics
  registry, trace exporters (Perfetto / JSONL / timeline)
* :mod:`repro.conformance` — schedule-exploration conformance engine:
  seeded violation hunts, delta-debugged minimal reproducers, the
  guarantee matrix
* :mod:`repro.cache`       — content-addressed materialization cache:
  blake2b artifact keys, the atomic integrity-verified store, and warm
  crash-restart for view managers and merge processes
"""

from repro.errors import (
    ConsistencyViolation,
    FaultError,
    MergeError,
    ReproError,
    SchemaError,
    SourceError,
    ViewManagerError,
    WarehouseError,
)
from repro.faults import ChannelFaultModel, CrashSpec, FaultPlan
from repro.relational import (
    Aggregate,
    AggregateSpec,
    Attribute,
    AttrType,
    Database,
    Delta,
    MaintenancePlan,
    MaterializedView,
    Relation,
    Row,
    Schema,
    ViewDefinition,
    evaluate,
    parse_view,
    propagate_delta,
    to_sql,
)
from repro.relational.catalog import dump_views, load_views, parse_catalog
from repro.sources import (
    GlobalTransactionCoordinator,
    SilentSource,
    SnapshotDiffMonitor,
    Source,
    SourceTransaction,
    SourceWorld,
    Update,
    UpdateKind,
)
from repro.merge import (
    PaintingAlgorithm,
    ShardRouter,
    SimplePaintingAlgorithm,
    ViewUpdateTable,
    partition_views,
    shard_view_groups,
)
from repro.consistency import (
    Replay,
    check_mvc_ordered,
    classify_mvc_ordered,
    replay_source_states,
)
from repro.obs import (
    Lineage,
    LineageHop,
    MetricsRegistry,
    UpdateLineage,
    write_chrome_trace,
    write_jsonl,
    write_timeline,
    write_trace,
)
from repro.cache import ArtifactStore, CacheConfig, artifact_key
from repro.conformance import (
    Explorer,
    Reproducer,
    ScenarioSpec,
    run_matrix,
)
from repro.system import (
    RunMetrics,
    SweepRow,
    SystemConfig,
    WarehouseSystem,
    format_sweep,
    sweep,
)
from repro.workloads import (
    UpdateStreamGenerator,
    WorkloadSpec,
    bank_views,
    bank_world,
    paper_views_example1,
    paper_views_example2,
    paper_views_example3,
    paper_views_example5,
    paper_world,
    star_views,
    star_world,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "SourceError",
    "ViewManagerError",
    "MergeError",
    "WarehouseError",
    "ConsistencyViolation",
    "FaultError",
    # faults
    "FaultPlan",
    "CrashSpec",
    "ChannelFaultModel",
    # relational
    "Attribute",
    "AttrType",
    "Schema",
    "Row",
    "Relation",
    "Delta",
    "Database",
    "ViewDefinition",
    "Aggregate",
    "AggregateSpec",
    "MaintenancePlan",
    "MaterializedView",
    "evaluate",
    "propagate_delta",
    "parse_view",
    "to_sql",
    "parse_catalog",
    "load_views",
    "dump_views",
    # sources
    "Update",
    "UpdateKind",
    "SourceTransaction",
    "SourceWorld",
    "Source",
    "GlobalTransactionCoordinator",
    "SilentSource",
    "SnapshotDiffMonitor",
    # merge
    "ViewUpdateTable",
    "SimplePaintingAlgorithm",
    "PaintingAlgorithm",
    "ShardRouter",
    "partition_views",
    "shard_view_groups",
    # consistency
    "replay_source_states",
    "Replay",
    "check_mvc_ordered",
    "classify_mvc_ordered",
    # observability
    "Lineage",
    "UpdateLineage",
    "LineageHop",
    "MetricsRegistry",
    "write_trace",
    "write_chrome_trace",
    "write_jsonl",
    "write_timeline",
    # cache
    "ArtifactStore",
    "CacheConfig",
    "artifact_key",
    # conformance
    "ScenarioSpec",
    "Explorer",
    "Reproducer",
    "run_matrix",
    # system
    "SystemConfig",
    "WarehouseSystem",
    "RunMetrics",
    "sweep",
    "SweepRow",
    "format_sweep",
    # workloads
    "paper_world",
    "paper_views_example1",
    "paper_views_example2",
    "paper_views_example3",
    "paper_views_example5",
    "bank_world",
    "bank_views",
    "star_world",
    "star_views",
    "WorkloadSpec",
    "UpdateStreamGenerator",
]
