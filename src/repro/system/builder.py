"""Assembling and running a complete Figure-1 warehouse system.

:class:`WarehouseSystem` takes a :class:`~repro.sources.world.SourceWorld`
(base relations, owners, initial contents), a list of view definitions and
a :class:`~repro.system.config.SystemConfig`, and builds the whole
architecture:

* one :class:`Source` process per relation owner (plus an optional
  :class:`GlobalTransactionCoordinator` for §6.2 transactions);
* the :class:`Integrator` and :class:`BaseDataService`;
* one view manager per view, of the configured kind;
* one or several merge processes (§6.1 partitioning) with the configured
  algorithm and submission policy;
* the :class:`WarehouseProcess` over a :class:`ViewStore` whose views are
  initially materialized from ``ss_0``.

Workloads are posted with :meth:`post` / :meth:`post_global`, the run is
driven with :meth:`run`, and the results are read back through
:attr:`history`, :meth:`source_states`, :meth:`check_mvc` and
:meth:`metrics`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import shutil
import tempfile

from repro.cache.artifacts import SystemCacheBinding
from repro.cache.store import ArtifactStore
from repro.consistency import ConsistencyReport, Replay, replay_source_states
from repro.errors import FaultError, ReproError, SimulationError
from repro.integrator.basedata import BaseDataService
from repro.integrator.integrator import Integrator
from repro.integrator.relevance import RelevanceFilter
from repro.merge.base import MergeAlgorithm
from repro.merge.complete_n import CompleteNMerge
from repro.merge.distributed import partition_views
from repro.merge.sharding import shard_view_groups
from repro.merge.process import MergeProcess
from repro.merge.selection import (
    ALGORITHMS,
    at_least,
    choose_algorithm,
    delivered_level,
    weakest_level,
)
from repro.merge.submission import POLICIES
from repro.relational.database import Database
from repro.relational.expressions import ViewDefinition
from repro.runtime import RUNTIMES
from repro.sim.network import Channel, LatencyModel, LossyChannel, ReliableChannel
from repro.sim.process import Process
from repro.sources.multisource import GlobalTransactionCoordinator
from repro.sources.source import Source
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld
from repro.system.config import SystemConfig, manager_class
from repro.system.metrics import RunMetrics, collect_metrics
from repro.viewmgr.base import ViewManager
from repro.warehouse.store import ViewStore
from repro.warehouse.warehouse import WarehouseProcess

# Latencies of the hops no study varies (the others are SystemConfig's
# ``latency_*`` fields): one time unit each, except the integrator's feed of
# the base-data service, which is co-located with it.
_HOP_LATENCY = 1.0
_SERVICE_FEED_LATENCY = 0.0


class WarehouseSystem:
    """A fully wired, runnable data-warehouse simulation."""

    def __init__(
        self,
        world: SourceWorld,
        definitions: Sequence[ViewDefinition],
        config: SystemConfig | None = None,
    ) -> None:
        if not definitions:
            raise ReproError("a warehouse needs at least one view")
        self.world = world
        self.definitions = tuple(definitions)
        self.config = config if config is not None else SystemConfig()
        self.sim = RUNTIMES[self.config.runtime](self.config)
        self.sim.trace.enabled = self.config.trace_enabled
        self.sim.trace.kinds = self.config.trace_kinds
        self._initial_state = world.current.snapshot()
        self._owned_cache_root: str | None = None
        self._closed = False
        self.cache_store: ArtifactStore | None = None
        self._cache_binding: SystemCacheBinding | None = None
        if self.config.cache is not None:
            cache_cfg = self.config.cache
            root = cache_cfg.root
            if root is None:
                # Private store, removed by close(); pass an explicit
                # root to share artifacts across systems (warm restart).
                root = tempfile.mkdtemp(prefix="repro-cache-")
                self._owned_cache_root = root
            self.cache_store = ArtifactStore(
                root,
                max_bytes=cache_cfg.max_bytes,
                max_artifacts=cache_cfg.max_artifacts,
            )
            # One set of numbers: the store's stat attributes stay the
            # source of truth, mirrored into the registry for exporters.
            self.cache_store.bind_registry(self.sim.metrics, store="system")
            self._cache_binding = SystemCacheBinding(
                self.cache_store, cache_cfg
            )
        self._build()
        # Live telemetry: the freshness monitor samples per-view staleness
        # and shard queue/VUT occupancy on the configured tick (and its
        # SLO evaluator arms when a policy is set); plan profiling times
        # every propagate.  Probes run per executed event under des and
        # from the kernel's sampler thread under threads.
        self.monitor = None
        cfg = self.config
        if cfg.freshness_tick is not None or cfg.slo is not None:
            from repro.obs.freshness import FreshnessMonitor

            self.monitor = FreshnessMonitor(
                self,
                tick=cfg.freshness_tick if cfg.freshness_tick is not None else 1.0,
                policy=cfg.slo,
            )
            self.sim.add_probe(self.monitor.maybe_sample)
        self.plan_profiler = None
        if cfg.profile_plans:
            from repro.obs.profiler import PlanProfiler

            self.plan_profiler = PlanProfiler()
            for manager in self.view_managers.values():
                manager.enable_plan_profiling(self.plan_profiler)

    # ------------------------------------------------------------------ build
    def _connect(self, source: Process, destination: Process,
                 latency: "LatencyModel | float") -> Channel:
        """Wire one channel, honouring the configured fault plan.

        Without a plan this is a perfect FIFO :class:`Channel`.  With one,
        every connection becomes a :class:`ReliableChannel` running the
        recovery protocol over the lossy transport (or, with
        ``reliable=False``, a bare :class:`LossyChannel` so the run
        demonstrates what breaks without recovery).
        """
        plan = self.config.fault_plan
        if plan is None:
            return source.connect(destination, latency)
        faults = (
            plan.faults_for(source.name, destination.name)
            if plan.faulty_network
            else None
        )
        if not plan.reliable:
            channel: Channel = LossyChannel(
                self.sim, source, destination, latency, faults=faults
            )
        else:
            ack_faults = (
                plan.ack_faults_for(source.name, destination.name)
                if plan.faulty_network
                else None
            )
            channel = ReliableChannel(
                self.sim,
                source,
                destination,
                latency,
                faults=faults,
                ack_faults=ack_faults,
                timeout=plan.retransmit_timeout,
                backoff_factor=plan.backoff_factor,
                timeout_cap=plan.timeout_cap,
            )
        return source.attach(channel)

    def _build(self) -> None:
        """Wire Figure 1, layer by layer.

        The order of construction and of ``_connect`` calls fixes process
        names, channel lanes and registry keys (and with them the trace
        digests), so the layers below are built in this order and no other.
        """
        cfg = self.config
        self._schemas = dict(self.world.schemas)

        # Warehouse + store (views materialized at ss_0 by their managers)
        # and the base-data service.
        self.store = ViewStore(
            self.definitions, self._schemas, record_history=cfg.record_history
        )
        self.warehouse = WarehouseProcess(
            self.sim,
            self.store,
            executors=cfg.warehouse_executors,
            per_txn_overhead=cfg.warehouse_txn_overhead,
            per_action_cost=cfg.warehouse_action_cost,
        )
        self.service = BaseDataService(
            self.sim, per_query_cost=cfg.service_query_cost
        )
        self.service.seed(self._initial_state, self._schemas)

        self._build_merges()
        self._build_managers()
        self._build_integrator()

        # Sources and the global coordinator.
        owners = sorted({self.world.owner_of(r) for r in self.world.schemas})
        self.sources: dict[str, Source] = {}
        for owner in owners:
            source = Source(self.sim, owner, self.world)
            self._connect(source, self.integrator, _HOP_LATENCY)
            self.sources[owner] = source
        self.coordinator = GlobalTransactionCoordinator(self.sim, self.world)
        self._connect(self.coordinator, self.integrator, _HOP_LATENCY)

        # Process registry (used by fault plans and diagnostics).
        processes = (
            self.warehouse,
            self.service,
            self.integrator,
            self.coordinator,
            *self.merge_processes,
            *self.view_managers.values(),
            *self.sources.values(),
        )
        self.processes: dict[str, Process] = {p.name: p for p in processes}

        # Scheduled crash/restart pairs from the fault plan.
        for crash in cfg.fault_plan.crashes if cfg.fault_plan is not None else ():
            process = self.process_by_name(crash.process)
            self.sim.schedule_at(crash.at, process.crash)
            self.sim.schedule_at(crash.at + crash.restart_after, process.restart)

    def _build_merges(self) -> None:
        """The merge processes (possibly partitioned, §6.1).

        The hash router packs the finest partition onto the shard fleet by
        consistent hashing with cost-bounded loads; coalesce merges
        cheapest-first.
        """
        cfg = self.config
        if cfg.merge_router == "hash" and cfg.merge_groups > 1:
            groups = shard_view_groups(self.definitions, cfg.merge_groups)
        else:
            groups = partition_views(self.definitions, max_groups=cfg.merge_groups)
        self.merge_processes: list[MergeProcess] = []
        policy_class = POLICIES[cfg.submission_policy]
        for index, group in enumerate(groups):
            name = "merge" if len(groups) == 1 else f"merge{index}"
            merge = MergeProcess(
                self.sim,
                self._make_algorithm(group, name),
                name=name,
                policy=policy_class(**cfg.arguments_for(policy_class)),
                per_message_cost=cfg.merge_message_cost,
                txn_id_start=index + 1,
                txn_id_step=len(groups),
                # Under a fault plan (or with a cache) the merge
                # checkpoints after every handled message so a
                # crash/restart resumes without violating MVC.
                checkpointing=cfg.fault_plan is not None
                or self._cache_binding is not None,
                cache=(
                    self._cache_binding.for_merge(name)
                    if self._cache_binding is not None
                    else None
                ),
            )
            self._connect(merge, self.warehouse, _HOP_LATENCY)
            self._connect(self.warehouse, merge, _HOP_LATENCY)
            self.merge_processes.append(merge)
        # Kept public: the conformance oracle derives per-view effective
        # guarantee levels from each view's merge process.
        self.view_to_merge = {
            view: merge.name
            for merge in self.merge_processes
            for view in merge.algorithm.views
        }

    def _build_managers(self) -> None:
        """One view manager per view, wired, seeded and materialized."""
        cfg = self.config
        self.view_managers: dict[str, ViewManager] = {}
        relevance = (
            RelevanceFilter(self.definitions, self._schemas, use_selections=True)
            if cfg.use_selection_filtering
            else None
        )
        memo: dict = {}  # this build's evaluations over ss_0, each made once
        for definition in self.definitions:
            merge_name = self.view_to_merge[definition.name]
            manager_cls = manager_class(cfg.kind_for(definition.name))
            manager = manager_cls(
                self.sim,
                definition,
                self._schemas,
                merge_name=merge_name,
                service_name=self.service.name,
                compute_cost=cfg.compute_cost,
                **cfg.arguments_for(manager_cls),
            )
            self._connect(
                manager, self._merge_by_name(merge_name), cfg.latency_vm_merge
            )
            self._connect(manager, self.service, _HOP_LATENCY)
            self._connect(self.service, manager, _HOP_LATENCY)
            if relevance is not None:
                # Keep the replica sigma-restricted in lockstep with the
                # integrator's routing filter (see RelevanceFilter docs).
                manager.set_replica_filters(
                    {
                        relation: relevance.restricted_predicate(
                            definition.name, relation
                        )
                        for relation in definition.base_relations()
                    }
                )
            if manager.mode == "cached":
                if self._cache_binding is not None:
                    manager.install_cache(
                        self._cache_binding.for_view(definition.name)
                    )
                manager.seed_replica(self._initial_state, memo)
            self.store.initialize_view(
                definition.name, manager.materialize_initial(self._initial_state, memo)
            )
            self.view_managers[definition.name] = manager

    def _build_integrator(self) -> None:
        cfg = self.config
        # Complete-N managers and merges close their blocks on the
        # integrator's markers and need a REL for every update.
        complete_n = ALGORITHMS[cfg.merge_algorithm] is CompleteNMerge or any(
            manager.needs_block_markers for manager in self.view_managers.values()
        )
        self.integrator = Integrator(
            self.sim,
            self.definitions,
            self._schemas,
            merge_groups={m.name: m.algorithm.views for m in self.merge_processes},
            view_manager_names={v: m.name for v, m in self.view_managers.items()},
            use_selection_filtering=cfg.use_selection_filtering,
            send_empty_rels=complete_n,
            block_size=cfg.block_size if complete_n else None,
        )
        for merge in self.merge_processes:
            self._connect(self.integrator, merge, cfg.latency_integrator_merge)
        for manager in self.view_managers.values():
            self._connect(self.integrator, manager, cfg.latency_integrator_vm)
        self._connect(self.integrator, self.service, _SERVICE_FEED_LATENCY)

    def _merge_by_name(self, name: str) -> MergeProcess:
        for merge in self.merge_processes:
            if merge.name == name:
                return merge
        raise ReproError(f"no merge process named {name!r}")

    def process_by_name(self, name: str) -> Process:
        """Any Figure-1 process by name (e.g. "merge", "warehouse", "vm_V1")."""
        try:
            return self.processes[name]
        except KeyError:
            raise FaultError(
                f"no process named {name!r} (have: {sorted(self.processes)})"
            ) from None

    def _make_algorithm(
        self, views: tuple[str, ...], name: str
    ) -> MergeAlgorithm:
        """The configured algorithm for one merge group, checked against
        the levels of the managers it will coordinate."""
        cfg = self.config
        levels = cfg.manager_levels(views)
        algorithm_cls = ALGORITHMS[cfg.merge_algorithm]
        if algorithm_cls is None:
            # auto: the weakest-level rule of §6.3 (a group of complete-N
            # managers alone keeps its blocks).
            if set(levels) != {"complete-n"}:
                return choose_algorithm(views, levels, name=name)
            algorithm_cls = CompleteNMerge
        for view, level in zip(views, levels):
            # A broken manager promises nothing and runs mechanically under
            # any algorithm (one list per update): the anomaly demos.
            if level != "broken" and not at_least(level, algorithm_cls.requires_level):
                raise ReproError(
                    f"view {view!r}: its {cfg.kind_for(view)!r} manager is "
                    f"{level}, below the {algorithm_cls.requires_level} that "
                    f"merge_algorithm {cfg.merge_algorithm!r} requires "
                    f"('auto' picks the algorithm by the weakest level)"
                )
        return algorithm_cls(views, name=name, **cfg.arguments_for(algorithm_cls))

    # -------------------------------------------------------------- workloads
    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("the system is closed: it takes no more "
                                  "updates and runs no more events")

    def post(self, transaction: SourceTransaction, at: float) -> None:
        """Schedule ``transaction`` at the owning source at virtual time ``at``."""
        self._check_open()
        source = self.sources.get(transaction.origin)
        if source is None:
            raise ReproError(f"no source named {transaction.origin!r}")
        self.sim.schedule_at(at, source.execute, transaction)

    def post_update(self, update: Update, at: float) -> None:
        """Schedule a single-update transaction (the §2.1 common case)."""
        owner = self.world.owner_of(update.relation)
        self.post(SourceTransaction.single(owner, update), at)

    def post_global(self, updates: Iterable[Update], at: float) -> None:
        """Schedule a §6.2 multi-source transaction via the coordinator."""
        self._check_open()
        self.sim.schedule_at(at, self.coordinator.execute, tuple(updates))

    # ------------------------------------------------------------------- run
    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the simulation; flush trailing blocks/batches at the end."""
        self._check_open()
        executed = self.sim.run(until=until, max_events=max_events)
        if until is None and max_events is None:
            # End-of-stream: close trailing complete-N blocks at the
            # managers, let their lists propagate, then flush the merges.
            for manager in self.view_managers.values():
                manager.flush()
            executed += self.sim.run()
            for merge in self.merge_processes:
                merge.flush()
            executed += self.sim.run()
            self._finalise_telemetry()
        return executed

    def _finalise_telemetry(self) -> None:
        """Fold all deferred telemetry into the kernel's registry.

        Takes a closing freshness sample and publishes accumulated
        profiler stats.  Additive and idempotent, so it runs after every
        unbounded drain and again on close (a bounded-run caller who never
        drains fully still gets its numbers).
        """
        if self.monitor is not None:
            self.monitor.sample()
        if self.plan_profiler is not None:
            self.plan_profiler.publish_into(self.sim.metrics)

    def close(self) -> None:
        """Publish closing telemetry, remove a private cache.  Terminal: a
        later ``post*`` or ``run`` raises, results stay readable, a second
        ``close()`` does nothing."""
        if self._closed:
            return
        self._closed = True
        self._finalise_telemetry()
        if self._owned_cache_root is not None:
            shutil.rmtree(self._owned_cache_root, ignore_errors=True)
            self._owned_cache_root = None

    def __enter__(self) -> "WarehouseSystem":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ----------------------------------------------------------------- results
    @property
    def history(self):
        """The warehouse state sequence ``ws_0 .. ws_q``."""
        return self.store.history

    @property
    def initial_state(self) -> Database:
        """``ss_0``: the base-data snapshot the views were materialized at."""
        return self._initial_state

    def source_states(self) -> list[Database]:
        """``ss_0 .. ss_f`` replayed in integrator numbering order."""
        return replay_source_states(
            self._initial_state,
            [txn for _id, txn, _time in self.integrator.numbered],
        )

    def replay(self) -> Replay:
        """The finished run replayed once; every scope's verdict is read
        off the result (``check_mvc``, ``classify``, the conformance oracle)."""
        return Replay(
            self.history, self._initial_state, self.integrator.numbered,
            self.definitions,
        )

    def check_mvc(self, level: str = "auto") -> ConsistencyReport:
        """Check the run against an MVC level (or the expected one).

        "complete" and "strong" follow the schedule the warehouse applied
        (the painting algorithms may legally reorder commuting updates)
        and need ``record_history``; "convergent" compares final states.
        """
        if level == "auto":
            level = self.expected_level()
        return self.replay().check(level)

    def classify(self) -> str:
        """The strongest MVC level this run actually achieved."""
        return self.replay().classify()

    def expected_level(self) -> str:
        """The MVC level the configuration promises: the weakest its merge
        processes deliver (see :mod:`repro.merge.selection`)."""
        return weakest_level(
            delivered_level(m.algorithm, m.policy) for m in self.merge_processes
        )

    def metrics(self) -> RunMetrics:
        return collect_metrics(self)

    def profile_report(self) -> str:
        """The plan profiler's per-node table (needs ``profile_plans``)."""
        if self.plan_profiler is None:
            raise ReproError(
                "plan profiling is off; build with "
                "SystemConfig(profile_plans=True)"
            )
        return self.plan_profiler.format()

    def mqo_report(self) -> dict[str, dict]:
        """Per-shard multi-query-optimization report (compile-time).

        For each merge process, compiles the shard's view expressions
        through one :class:`~repro.relational.plan.PlanLibrary` against a
        throwaway copy of ``ss_0`` and returns the library's shared-node
        report — how much delta-probe work same-shard views share.
        """
        from repro.relational.plan import PlanLibrary

        definitions = {d.name: d for d in self.definitions}
        shards: dict[str, list[str]] = {}
        for view, merge_name in sorted(self.view_to_merge.items()):
            shards.setdefault(merge_name, []).append(view)
        reports: dict[str, dict] = {}
        for merge_name, views in sorted(shards.items()):
            library = PlanLibrary(self._initial_state.snapshot())
            for view in views:
                library.compile(view, definitions[view].expression)
            report = library.report()
            report["views"] = views
            reports[merge_name] = report
        return reports
