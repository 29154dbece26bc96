"""Configuration for assembled warehouse systems.

This module is where a configuration is interpreted: the names it may use
are the keys of the component registries (``repro.viewmgr.MANAGERS``,
``repro.merge.selection.ALGORITHMS``, ``repro.merge.submission.POLICIES``),
what each field may hold is one row of the tables below, and what a fleet
of managers promises is read off the registered classes
(:meth:`SystemConfig.manager_levels`; the lattice itself is
:mod:`repro.merge.selection`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from importlib import import_module
from typing import TYPE_CHECKING, Mapping

from repro.errors import ReproError
from repro.merge.selection import ALGORITHMS
from repro.merge.submission import POLICIES
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import STALENESS_KINDS
from repro.viewmgr import MANAGERS
from repro.viewmgr.base import DEFAULT_COST, PRE_STATE_MODES, ViewManager

if TYPE_CHECKING:  # pragma: no cover - the opt-in subsystems load when set
    from repro.cache.store import CacheConfig
    from repro.faults.plan import FaultPlan
    from repro.obs.freshness import SloPolicy

# The name tuples are the registries' keys, in registry order: they are
# what the CLI offers as ``choices``.  Validation reads the registries
# themselves, so a class registered later is accepted too.
MANAGER_KINDS = tuple(MANAGERS)
MERGE_ALGORITHMS = tuple(ALGORITHMS)
SUBMISSION_POLICIES = tuple(POLICIES)
MERGE_ROUTERS = ("coalesce", "hash")
#: the correct pre-state modes; the broken one is ``NaiveViewManager``'s
#: own and is asked for as ``manager_kind="naive"``
MANAGER_MODES = tuple(mode for mode in PRE_STATE_MODES if mode != "naive")

#: membership rules: field -> the names it may hold
_NAMES = {
    "manager_kind": MANAGERS,
    "merge_algorithm": ALGORITHMS,
    "submission_policy": POLICIES,
    "merge_router": MERGE_ROUTERS,
    "manager_mode": MANAGER_MODES,
}
#: range rules: field -> (comparison, bound).  ``None`` (an optional field
#: left unset) passes.
_RANGES = {
    "merge_groups": (">=", 1),
    "block_size": (">=", 1),
    "submission_batch_size": (">=", 1),
    "warehouse_executors": (">=", 1),
    "refresh_period": (">", 0),
    "freshness_tick": (">", 0),
    "merge_message_cost": (">=", 0),
    "service_query_cost": (">=", 0),
    "warehouse_txn_overhead": (">=", 0),
    "warehouse_action_cost": (">=", 0),
}
_COMPARE = {">=": operator.ge, ">": operator.gt}
#: type rules: optional field -> (module, class) its value must be an
#: instance of.  The module is imported only when the field is set.
_TYPES = {
    "fault_plan": ("repro.faults.plan", "FaultPlan"),
    "cache": ("repro.cache.store", "CacheConfig"),
    "slo": ("repro.obs.freshness", "SloPolicy"),
}


def manager_class(kind: str, view: str | None = None) -> type[ViewManager]:
    """The class registered for a manager ``kind`` (the one kind check)."""
    try:
        return MANAGERS[kind]
    except KeyError:
        where = f" for {view!r}" if view is not None else ""
        raise ReproError(f"unknown manager kind {kind!r}{where}") from None


@dataclass
class SystemConfig:
    """Every knob of the Figure-1 architecture in one place.

    ``manager_kinds`` may override the default ``manager_kind`` per view
    (mixed fleets, §6.3).  ``merge_algorithm="auto"`` applies the
    weakest-level rule.  ``merge_groups`` > 1 partitions the merge work
    (§6.1) into at most that many processes along shared-base-relation
    boundaries; ``merge_router`` picks how the finest partition is packed
    onto those processes — ``"coalesce"`` merges the cheapest groups
    until the count fits (the historical behaviour), ``"hash"`` places
    groups by consistent hashing with cost-bounded loads
    (:mod:`repro.merge.sharding`), which stays stable under view-suite
    and fleet churn.

    Every value but the per-run ``scheduler`` is plain data (names,
    numbers, tuples, the opt-in dataclasses), so a scenario file carries
    it.  Every hop has a fixed latency; the scheduler is the one way to
    perturb timing.
    """

    # view managers
    manager_kind: str = "complete"
    manager_kinds: Mapping[str, str] = field(default_factory=dict)
    manager_mode: str = "cached"  # one of MANAGER_MODES
    block_size: int = 4  # complete-N block size
    refresh_period: float = 50.0  # periodic managers
    # virtual time a manager takes per batch: (fixed, per_row, per_update)
    # -> fixed + per_row * (view delta rows + 1) + per_update * batch size
    compute_cost: tuple[float, float, float] = DEFAULT_COST

    # merge process(es)
    merge_algorithm: str = "auto"
    merge_groups: int = 1
    merge_router: str = "coalesce"
    submission_policy: str = "dependency-sequenced"
    submission_batch_size: int = 4  # for the batching policy
    merge_message_cost: float = 0.0

    # integrator & base-data service
    use_selection_filtering: bool = False
    service_query_cost: float = 0.0

    # warehouse
    warehouse_executors: int = 1
    warehouse_txn_overhead: float = 1.0
    warehouse_action_cost: float = 0.05

    # fault injection (None = the paper's perfect environment)
    fault_plan: FaultPlan | None = None

    # content-addressed materialization cache (None = no cache; see
    # repro.cache and docs/caching.md).  With a cache, cached-mode view
    # managers publish seed artifacts + per-message checkpoints and the
    # merge process publishes durable checkpoints; crash recovery
    # restores from the nearest artifact and falls back to replay on a
    # miss or digest mismatch.
    cache: CacheConfig | None = None

    # event scheduling (None = deterministic FIFO tie-breaks).  A
    # Scheduler instance is stateful per run: build one system per
    # instance (see repro.sim.scheduler and repro.conformance).
    scheduler: Scheduler | None = None

    # telemetry (see repro.obs and docs/observability.md).
    # ``freshness_tick`` enables the live staleness monitor (sampling
    # period in virtual time);
    # ``slo`` arms its threshold evaluator (and implies a monitor even
    # without a tick); ``profile_plans`` turns on per-plan-node and
    # per-propagate timing.
    freshness_tick: float | None = None
    slo: SloPolicy | None = None
    profile_plans: bool = False

    # bookkeeping.  ``seed`` seeds nothing (the scheduler, the fault plan
    # and the workload carry their own seeds); it stays for callers that
    # still pass it.
    seed: int = 0
    record_history: bool = True
    # The trace event kinds to record.  The default keeps the two
    # freshness endpoints (``STALENESS_KINDS``: ``int_number`` and
    # ``wh_commit``), all a run reads of its own trace; ``None`` records
    # every kind (exporters, digests, lineage, which needs at least
    # ``LINEAGE_KINDS``), ``frozenset()`` none.  Any other set also keeps
    # the kinds an attached ``slo`` or ``fault_plan`` gives rise to.  A
    # dropped kind stores nothing and its call site builds no arguments.
    # A bare string is rejected, not split.
    trace_kinds: frozenset[str] | None = STALENESS_KINDS

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Walk the rule tables above; the first broken rule raises."""
        for name, allowed in _NAMES.items():
            if getattr(self, name) not in tuple(allowed):
                raise ReproError(
                    f"{name} {getattr(self, name)!r} not in {tuple(allowed)}"
                )
        for view, kind in self.manager_kinds.items():
            if kind not in MANAGERS:
                raise ReproError(
                    f"manager kind {kind!r} for view {view!r} "
                    f"not in {tuple(MANAGERS)}"
                )
        for name, (comparison, bound) in _RANGES.items():
            value = getattr(self, name)
            if not (value is None or _COMPARE[comparison](value, bound)):
                raise ReproError(
                    f"{name} must be {comparison} {bound}, got {value}"
                )
        cost = self.compute_cost
        if not (
            isinstance(cost, (tuple, list))
            and len(cost) == 3
            and all(isinstance(term, (int, float)) and math.isfinite(term)
                    and term >= 0 for term in cost)
        ):
            raise ReproError(
                f"compute_cost must be three finite numbers >= 0 "
                f"(fixed, per_row, per_update), got {cost!r}"
            )
        self.compute_cost = tuple(cost)  # a decoded JSON list is the tuple
        for name, (module, cls) in _TYPES.items():
            value = getattr(self, name)
            if value is not None and not isinstance(
                value, getattr(import_module(module), cls)
            ):
                raise ReproError(
                    f"{name} must be a {cls}, got {type(value).__name__}"
                )
        if isinstance(self.trace_kinds, str):
            raise ReproError(
                f"trace_kinds must be a collection of event kinds, not the "
                f"string {self.trace_kinds!r}"
            )
        if self.scheduler is not None and not callable(
            getattr(self.scheduler, "adjust", None)
        ):
            raise ReproError(
                f"scheduler must provide adjust(time, lane), "
                f"got {type(self.scheduler).__name__}"
            )

    def kind_for(self, view: str) -> str:
        return self.manager_kinds.get(view, self.manager_kind)

    def manager_levels(self, views: tuple[str, ...]) -> list[str]:
        """The single-view consistency level of each view's manager."""
        return [manager_class(self.kind_for(view), view).level for view in views]

    def arguments_for(self, cls: type) -> dict[str, object]:
        """The constructor keywords ``cls`` declares it takes from a config."""
        return {
            keyword: getattr(self, name)
            for keyword, name in cls.config_args.items()
        }
