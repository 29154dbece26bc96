"""Assembling and running a complete Figure-1 warehouse system.

:class:`WarehouseSystem` takes a :class:`~repro.sources.world.SourceWorld`
(base relations, owners, initial contents), a list of view definitions and
a :class:`~repro.system.config.SystemConfig`, and builds the whole
architecture:

* one :class:`Source` process per relation owner (plus an optional
  :class:`GlobalTransactionCoordinator` for §6.2 transactions);
* the :class:`Integrator`, and the :class:`BaseDataService` when some
  view manager queries back for its pre-state (none in a cached fleet);
* one view manager per view, of the configured kind;
* one or several merge processes (§6.1 partitioning) with the configured
  algorithm and submission policy;
* the :class:`WarehouseProcess` over a :class:`ViewStore` whose views are
  initially materialized from ``ss_0``.

Workloads are posted with :meth:`post` / :meth:`post_global`, the run is
driven with :meth:`run`, and the results are read back through
:attr:`history`, :meth:`source_states`, :meth:`check_mvc` and
:meth:`report`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import FaultError, ReproError, SimulationError, WarehouseError
from repro.integrator.basedata import BaseDataService
from repro.integrator.integrator import Integrator
from repro.integrator.relevance import RelevanceFilter
from repro.merge.complete_n import CompleteNMerge
from repro.merge.distributed import partition_views
from repro.merge.process import MergeProcess
from repro.merge.selection import CHECKED_LEVELS, promise, select_algorithm
from repro.merge.submission import POLICIES
from repro.relational.database import Database
from repro.relational.expressions import ViewDefinition
from repro.sim.kernel import Simulator
from repro.sim.network import Channel, LossyChannel, ReliableChannel
from repro.sim.process import Process
from repro.sources.multisource import GlobalTransactionCoordinator
from repro.sources.source import Source
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld
from repro.system.config import SystemConfig, manager_class
from repro.viewmgr.base import ViewManager
from repro.warehouse.store import ViewStore
from repro.warehouse.warehouse import WarehouseProcess

if TYPE_CHECKING:  # pragma: no cover - opt-in subsystems load where used
    from repro.cache.artifacts import SystemCacheBinding
    from repro.cache.store import ArtifactStore
    from repro.consistency import ConsistencyReport, Replay
    from repro.system.report import RunReport

# Hop latencies: one time unit each, except the integrator's feed of the
# base-data service, which is co-located with it.  A scheduler perturbs
# them per message (SystemConfig.scheduler).
_HOP_LATENCY = 1.0
_SERVICE_FEED_LATENCY = 0.0

# The event kinds only an attached consumer gives rise to (an SLO's
# breaches; a fault plan's drops, crashes and recoveries): a non-empty
# ``trace_kinds`` filter keeps those of each consumer the config attaches.
_CONSUMER_KINDS = {
    "slo": {"slo_breach"},
    "fault_plan": {"msg_lost", "msg_drop", "msg_retransmit", "crash",
                   "restart", "checkpoint", "restore", "cache_restore",
                   "cache_fallback"},
}


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
        self.sim = Simulator(scheduler=self.config.scheduler)
        kinds = self.config.trace_kinds
        if kinds:
            kinds = set(kinds).union(*(
                extra for field, extra in _CONSUMER_KINDS.items()
                if getattr(self.config, field) is not None))
        self.sim.trace.kinds = kinds
        self._initial_state = world.current.snapshot()
        self._owned_cache_root: str | None = None
        self._closed = False
        self.cache_store: ArtifactStore | None = None
        self._cache_binding: SystemCacheBinding | None = None
        if self.config.cache is not None:
            import tempfile

            from repro.cache.artifacts import SystemCacheBinding
            from repro.cache.store import ArtifactStore

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
        # every propagate.  Probes run after every executed event.
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
                 latency: float) -> Channel:
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
        # and, if some manager's class and config make it query back (any
        # mode but cached), the base-data service.
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
        self.service: BaseDataService | None = None
        modes = {manager_class(cfg.kind_for(d.name)).fixed_mode or cfg.manager_mode
                 for d in self.definitions}
        if modes != {"cached"}:
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
        self.processes: dict[str, Process] = {p.name: p for p in processes if p}

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
            from repro.merge.sharding import shard_view_groups

            groups = shard_view_groups(self.definitions, cfg.merge_groups)
        else:
            groups = partition_views(self.definitions, max_groups=cfg.merge_groups)
        self.merge_processes: list[MergeProcess] = []
        policy_class = POLICIES[cfg.submission_policy]
        for index, group in enumerate(groups):
            name = "merge" if len(groups) == 1 else f"merge{index}"
            merge = MergeProcess(
                self.sim,
                select_algorithm(group, cfg, name),
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
                    self._cache_binding.merge_checkpoints(name)
                    if self._cache_binding is not None
                    else None
                ),
            )
            self._connect(merge, self.warehouse, _HOP_LATENCY)
            self._connect(self.warehouse, merge, _HOP_LATENCY)
            self.merge_processes.append(merge)
        # Kept public: the conformance oracle's shard scopes read it.
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
        merges = {merge.name: merge for merge in self.merge_processes}
        for definition in self.definitions:
            merge_name = self.view_to_merge[definition.name]
            manager_cls = manager_class(cfg.kind_for(definition.name))
            manager = manager_cls(
                self.sim,
                definition,
                self._schemas,
                merge_name=merge_name,
                service_name=getattr(self.service, "name", None),
                compute_cost=cfg.compute_cost,
                **cfg.arguments_for(manager_cls),
            )
            self._connect(manager, merges[merge_name], _HOP_LATENCY)
            if self.service is not None:
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
                        self._cache_binding.for_view(definition.name),
                        self._cache_binding.view_checkpoints(definition.name),
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
        complete_n = any(
            isinstance(merge.algorithm, CompleteNMerge) for merge in self.merge_processes
        ) or any(manager.needs_block_markers for manager in self.view_managers.values())
        self.integrator = Integrator(
            self.sim,
            self.definitions,
            self._schemas,
            merge_groups={m.name: m.algorithm.views for m in self.merge_processes},
            view_manager_names={v: m.name for v, m in self.view_managers.items()},
            service_name=getattr(self.service, "name", None),
            use_selection_filtering=cfg.use_selection_filtering,
            send_empty_rels=complete_n,
            block_size=cfg.block_size if complete_n else None,
        )
        for merge in self.merge_processes:
            self._connect(self.integrator, merge, _HOP_LATENCY)
        for manager in self.view_managers.values():
            self._connect(self.integrator, manager, _HOP_LATENCY)
        if self.service is not None:
            self._connect(self.integrator, self.service, _SERVICE_FEED_LATENCY)

    def process_by_name(self, name: str) -> Process:
        """Any Figure-1 process by name (e.g. "merge", "warehouse", "vm_V1")."""
        try:
            return self.processes[name]
        except KeyError:
            raise FaultError(
                f"no process named {name!r} (have: {sorted(self.processes)})"
            ) from None

    # -------------------------------------------------------------- workloads
    def _check_open(self, updates: Sequence[Update] = ()) -> None:
        if self._closed:
            raise SimulationError("the system is closed: it takes no more "
                                  "updates and runs no more events")
        if self.warehouse.refused is not None:
            raise SimulationError(f"the run ended at a refused transaction "
                                  f"({self.warehouse.refused}); it does not resume")
        # §6.1 meets §6.2: groups share no relation, so one update spans none
        if len(updates) > 1 and len(self.merge_processes) > 1:
            self.integrator.check_one_group(updates)

    def post(self, transaction: SourceTransaction, at: float) -> None:
        """Schedule ``transaction`` at the owning source at virtual time ``at``."""
        self._check_open(transaction.updates)
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
        updates = tuple(updates)
        self._check_open(updates)
        self.sim.schedule_at(at, self.coordinator.execute, updates)

    # ------------------------------------------------------------------- run
    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Drive the simulation; flush trailing blocks/batches at the end.
        A transaction the store cannot apply ends the run for good, with the
        store at its last commit (``warehouse.refused`` says why)."""
        self._check_open()
        start = self.sim.events_executed
        try:
            self.sim.run(until=until, max_events=max_events)
            if until is None and max_events is None:
                # End-of-stream: close trailing complete-N blocks at the
                # managers, let their lists propagate, then flush the merges.
                for manager in self.view_managers.values():
                    manager.flush()
                self.sim.run()
                for merge in self.merge_processes:
                    merge.flush()
                self.sim.run()
                self._finalise_telemetry()
        except WarehouseError as error:
            if error is not self.warehouse.refused:
                raise
        return self.sim.events_executed - start

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
            import shutil

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
        from repro.consistency import replay_source_states

        return replay_source_states(
            self._initial_state,
            [txn for _id, txn, _time in self.integrator.numbered],
        )

    def replay(self) -> Replay:
        """The finished run replayed once; every scope's verdict is read
        off the result (``check_mvc``, ``classify``, the conformance oracle)."""
        from repro.consistency import Replay

        return Replay(
            self.history, self._initial_state, self.integrator.numbered,
            self.definitions,
        )

    def check_mvc(self, level: str = "auto") -> ConsistencyReport:
        """Check the run against an MVC level (or the expected one).

        "complete" and "strong" follow the schedule the warehouse applied
        (the painting algorithms may legally reorder commuting updates)
        and need ``record_history``; "convergent" compares final states.
        A run that ended at a refused transaction fails every level, and a
        configuration that promises nothing fails "auto".
        """
        if level == "auto":
            level = self.expected_level()
        if self.warehouse.refused is None and level is not None:
            return self.replay().check(level)
        if level not in (None, *CHECKED_LEVELS):
            raise ReproError(f"unknown MVC level {level!r}")
        from repro.consistency import ConsistencyReport

        return ConsistencyReport(False, f"mvc-{level or 'none'}", str(
            self.warehouse.refused or "the configuration promises no MVC level"))

    def classify(self) -> str:
        """The strongest MVC level this run actually achieved."""
        return "inconsistent" if self.warehouse.refused else self.replay().classify()

    def expected_level(self) -> str | None:
        """The fleet's promise (:func:`repro.merge.selection.promise`)."""
        return promise(self)[1]

    def report(self, classify: bool = True) -> RunReport:
        """The finished run's :class:`~repro.system.report.RunReport`: its
        numbers, its verdict (``classify=False`` skips the replay) and what
        its observers saw."""
        from repro.system.report import RunReport

        return RunReport.of(self, classify)
