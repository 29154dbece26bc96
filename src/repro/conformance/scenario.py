"""Scenario specifications: one JSON-serializable description per hunt.

A :class:`ScenarioSpec` fixes everything about a conformance run *except*
the schedule: the source world and view suite, the workload, the
view-manager fleet, the merge algorithm and submission policy, and an
optional fault plan.  The :class:`~repro.conformance.explorer.Explorer`
then drives many seeded runs of the same spec, each with a differently
seeded scheduler, searching for an interleaving that violates the
configuration's advertised consistency level.

Serialization is part of the contract: a spec round-trips through JSON so
a found-and-shrunk violation can be stored as a standalone reproducer
file and re-executed later with ``python -m repro conformance replay``.
"""

from __future__ import annotations

import dataclasses
import json
import zlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.cache.store import CacheConfig
from repro.errors import ReproError
from repro.faults.plan import CrashSpec, FaultPlan
from repro.relational.expressions import ViewDefinition
from repro.relational.parser import parse_view
from repro.sim.scheduler import (
    DelayInjectingScheduler,
    Perturbation,
    RandomScheduler,
    Scheduler,
)
from repro.sources.world import SourceWorld
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    bank_views,
    bank_world,
    paper_views_example1,
    paper_views_example2,
    paper_views_example3,
    paper_world,
)

SCHEDULER_KINDS = ("fifo", "random", "delay")


def _paper_views_wide() -> list[ViewDefinition]:
    """A four-view suite over the paper's relations (fleet-size sweeps)."""
    return [
        parse_view("V1 = SELECT * FROM R JOIN S"),
        parse_view("V2 = SELECT * FROM S JOIN T JOIN Q"),
        parse_view("V3 = SELECT * FROM Q"),
        parse_view("V4 = SELECT * FROM T JOIN Q"),
    ]


#: schema registry: name -> (world factory, view-suite factory)
SCENARIO_SCHEMAS: dict[
    str, tuple[Callable[[], SourceWorld], Callable[[], list[ViewDefinition]]]
] = {
    "paper": (paper_world, paper_views_example2),
    "paper-ex1": (paper_world, paper_views_example1),
    "paper-ex3": (paper_world, paper_views_example3),
    "paper-wide": (paper_world, _paper_views_wide),
    "bank": (lambda: bank_world(customers=6), bank_views),
}


def fault_plan_to_dict(plan: FaultPlan) -> dict:
    """A JSON-ready rendering of a :class:`FaultPlan`."""
    return {
        "seed": plan.seed,
        "drop_rate": plan.drop_rate,
        "duplicate_rate": plan.duplicate_rate,
        "delay_spike_rate": plan.delay_spike_rate,
        "delay_spike": plan.delay_spike,
        "crashes": [
            {"process": c.process, "at": c.at, "restart_after": c.restart_after}
            for c in plan.crashes
        ],
        "reliable": plan.reliable,
        "retransmit_timeout": plan.retransmit_timeout,
        "backoff_factor": plan.backoff_factor,
        "timeout_cap": plan.timeout_cap,
    }


def fault_plan_from_dict(data: dict) -> FaultPlan:
    """Inverse of :func:`fault_plan_to_dict`."""
    return FaultPlan(
        seed=int(data.get("seed", 0)),
        drop_rate=float(data.get("drop_rate", 0.0)),
        duplicate_rate=float(data.get("duplicate_rate", 0.0)),
        delay_spike_rate=float(data.get("delay_spike_rate", 0.0)),
        delay_spike=float(data.get("delay_spike", 10.0)),
        crashes=tuple(
            CrashSpec(
                process=c["process"],
                at=float(c["at"]),
                restart_after=float(c.get("restart_after", 5.0)),
            )
            for c in data.get("crashes", ())
        ),
        reliable=bool(data.get("reliable", True)),
        retransmit_timeout=float(data.get("retransmit_timeout", 4.0)),
        backoff_factor=float(data.get("backoff_factor", 2.0)),
        timeout_cap=float(data.get("timeout_cap", 32.0)),
    )


@dataclass
class ScenarioSpec:
    """Everything about a conformance run except the schedule seed.

    ``views`` restricts the schema's view suite to its first N views
    (0 = all), which is how the property suite sweeps fleet sizes.
    ``scheduler`` picks the exploration mode (``fifo`` | ``random`` |
    ``delay``); the per-run seed is supplied by the explorer, not stored
    here.  With a ``fault_plan``, each run derives a distinct fault seed
    from the run seed so faults are explored alongside interleavings.
    """

    schema: str = "paper"
    views: int = 0
    updates: int = 20
    rate: float = 2.0
    mix: tuple[float, float, float] = (0.6, 0.2, 0.2)
    arrivals: str = "poisson"
    multi_update_fraction: float = 0.0
    workload_seed: int = 0
    manager_kind: str = "complete"
    manager_kinds: Mapping[str, str] = field(default_factory=dict)
    manager_mode: str = "cached"
    merge_algorithm: str = "auto"
    merge_groups: int = 1
    merge_router: str = "coalesce"
    submission_policy: str = "dependency-sequenced"
    block_size: int = 4
    refresh_period: float = 15.0
    use_selection_filtering: bool = False
    warehouse_executors: int = 1
    fault_plan: FaultPlan | None = None
    # Content-addressed materialization cache (repro.cache): each run
    # gets a private temp store, so these knobs explore cache-backed
    # crash recovery rather than cross-run warm restarts.
    # ``cache_stale_refs`` is the negative branch — checkpoint refs lag
    # one publish, so a restart restores a valid-but-stale artifact.
    cache: bool = False
    cache_stale_refs: bool = False
    scheduler: str = "delay"
    delay_rate: float = 0.15
    max_delay: float = 3.0
    reorder_rate: float = 0.15
    # Explore the workload alongside the schedule: each run derives its
    # update stream from the run seed (replay stays exact because the
    # reproducer stores that seed).  Set False to pin the stream and
    # search interleavings only.
    vary_workload: bool = True

    def __post_init__(self) -> None:
        if self.schema not in SCENARIO_SCHEMAS:
            raise ReproError(
                f"unknown scenario schema {self.schema!r} "
                f"(have: {sorted(SCENARIO_SCHEMAS)})"
            )
        if self.scheduler not in SCHEDULER_KINDS:
            raise ReproError(
                f"unknown scheduler kind {self.scheduler!r} "
                f"(have: {SCHEDULER_KINDS})"
            )
        if self.views < 0:
            raise ReproError(f"views must be >= 0, got {self.views}")
        self.manager_kinds = dict(self.manager_kinds)
        self.mix = tuple(self.mix)  # type: ignore[assignment]

    # -- materialization ----------------------------------------------------
    def materialize(self) -> tuple[SourceWorld, list[ViewDefinition]]:
        """A fresh world and the (possibly truncated) view suite."""
        world_factory, views_factory = SCENARIO_SCHEMAS[self.schema]
        world = world_factory()
        views = views_factory()
        if self.views:
            if self.views > len(views):
                raise ReproError(
                    f"schema {self.schema!r} has {len(views)} views, "
                    f"cannot take {self.views}"
                )
            views = views[: self.views]
        return world, views

    def workload(self, run_seed: int = 0) -> WorkloadSpec:
        seed = self.workload_seed
        if self.vary_workload:
            seed = zlib.crc32(f"{self.workload_seed}:{run_seed}".encode("utf-8"))
        return WorkloadSpec(
            updates=self.updates,
            rate=self.rate,
            seed=seed,
            mix=self.mix,
            arrivals=self.arrivals,
            multi_update_fraction=self.multi_update_fraction,
        )

    def fault_plan_for(self, run_seed: int) -> FaultPlan | None:
        """The run's fault plan: same shape, run-seed-derived fault streams."""
        if self.fault_plan is None:
            return None
        derived = zlib.crc32(f"{self.fault_plan.seed}:{run_seed}".encode("utf-8"))
        return dataclasses.replace(self.fault_plan, seed=derived)

    def make_scheduler(self, run_seed: int) -> Scheduler:
        """A fresh scheduler of the configured kind, seeded for this run."""
        if self.scheduler == "fifo":
            return Scheduler()
        if self.scheduler == "random":
            return RandomScheduler(seed=run_seed)
        return DelayInjectingScheduler(
            seed=run_seed,
            delay_rate=self.delay_rate,
            max_delay=self.max_delay,
            reorder_rate=self.reorder_rate,
        )

    def config(self, run_seed: int, scheduler: Scheduler | None) -> SystemConfig:
        return SystemConfig(
            manager_kind=self.manager_kind,
            manager_kinds=dict(self.manager_kinds),
            manager_mode=self.manager_mode,
            merge_algorithm=self.merge_algorithm,
            merge_groups=self.merge_groups,
            merge_router=self.merge_router,
            submission_policy=self.submission_policy,
            block_size=self.block_size,
            refresh_period=self.refresh_period,
            use_selection_filtering=self.use_selection_filtering,
            warehouse_executors=self.warehouse_executors,
            fault_plan=self.fault_plan_for(run_seed),
            cache=(
                CacheConfig(stale_refs=self.cache_stale_refs)
                if self.cache
                else None
            ),
            scheduler=scheduler,
            seed=run_seed,
            trace_kinds=None,  # digests cover every kind
        )

    def build(
        self, run_seed: int = 0, scheduler: Scheduler | None = None
    ) -> WarehouseSystem:
        """A fully wired system with the workload posted, ready to run.

        ``scheduler`` overrides the spec's own kind — the explorer passes
        a :meth:`DelayInjectingScheduler.replay` instance when re-running
        a shrunk perturbation list.
        """
        world, views = self.materialize()
        if scheduler is None:
            scheduler = self.make_scheduler(run_seed)
        system = WarehouseSystem(world, views, self.config(run_seed, scheduler))
        post_stream(
            system,
            UpdateStreamGenerator(world, self.workload(run_seed)).transactions(),
        )
        return system

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        data = {
            "schema": self.schema,
            "views": self.views,
            "updates": self.updates,
            "rate": self.rate,
            "mix": list(self.mix),
            "arrivals": self.arrivals,
            "multi_update_fraction": self.multi_update_fraction,
            "workload_seed": self.workload_seed,
            "manager_kind": self.manager_kind,
            "manager_kinds": dict(self.manager_kinds),
            "manager_mode": self.manager_mode,
            "merge_algorithm": self.merge_algorithm,
            "merge_groups": self.merge_groups,
            "merge_router": self.merge_router,
            "submission_policy": self.submission_policy,
            "block_size": self.block_size,
            "refresh_period": self.refresh_period,
            "use_selection_filtering": self.use_selection_filtering,
            "warehouse_executors": self.warehouse_executors,
            "fault_plan": (
                fault_plan_to_dict(self.fault_plan) if self.fault_plan else None
            ),
            "cache": self.cache,
            "cache_stale_refs": self.cache_stale_refs,
            "scheduler": self.scheduler,
            "delay_rate": self.delay_rate,
            "max_delay": self.max_delay,
            "reorder_rate": self.reorder_rate,
            "vary_workload": self.vary_workload,
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        data = dict(data)
        fault = data.get("fault_plan")
        data["fault_plan"] = fault_plan_from_dict(fault) if fault else None
        if "mix" in data:
            data["mix"] = tuple(data["mix"])
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ReproError(f"unknown scenario fields {sorted(unknown)}")
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        fleet = (
            ",".join(f"{v}={k}" for v, k in sorted(self.manager_kinds.items()))
            or self.manager_kind
        )
        parts = [
            f"schema={self.schema}",
            f"fleet={fleet}",
            f"merge={self.merge_algorithm}",
            *(
                [f"shards={self.merge_groups}({self.merge_router})"]
                if self.merge_groups > 1
                else []
            ),
            f"policy={self.submission_policy}",
            f"updates={self.updates}@{self.rate:g}",
            f"scheduler={self.scheduler}",
        ]
        if self.fault_plan is not None:
            parts.append(self.fault_plan.describe())
        if self.cache:
            parts.append(
                "cache=stale-refs" if self.cache_stale_refs else "cache=on"
            )
        return " ".join(parts)


__all__ = [
    "SCENARIO_SCHEMAS",
    "SCHEDULER_KINDS",
    "ScenarioSpec",
    "fault_plan_from_dict",
    "fault_plan_to_dict",
    "Perturbation",
]
