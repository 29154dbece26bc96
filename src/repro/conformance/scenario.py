"""Scenario specifications: one serialisable description per run.

A :class:`ScenarioSpec` is a thin wrapper over the objects a run is made
of: a named schema (the source world and its view suite), a
:class:`~repro.workloads.generator.WorkloadSpec`, a mapping of
:class:`~repro.system.config.SystemConfig` keyword overrides, and the
scheduler the explorer perturbs each run with.  :meth:`ScenarioSpec.build`
is the one place a run is assembled: the CLI's ``run`` / ``inspect`` /
``sweep``, :func:`repro.system.sweeps.sweep` and the
:class:`~repro.conformance.explorer.Explorer` all build through it.

Serialisation is part of the contract: a spec round-trips through JSON so
a found-and-shrunk violation can be stored as a standalone reproducer
file and re-executed later with ``python -m repro conformance replay``.
One codec (:func:`encode` / :func:`decode`) carries every dataclass a
spec holds; a value it cannot carry raises instead of being dropped.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
import zlib
from dataclasses import dataclass, field
from importlib import import_module
from typing import Mapping

from repro.cache.store import CacheConfig
from repro.errors import ReproError
from repro.faults.plan import FaultPlan
from repro.relational.expressions import ViewDefinition
from repro.sim.scheduler import (
    DelayInjectingScheduler,
    Perturbation,
    RandomScheduler,
    Scheduler,
)
from repro.sources.world import SourceWorld
from repro.system.builder import WarehouseSystem
from repro.system.config import _TYPES, SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import SCHEMAS

SCHEDULER_KINDS = ("fifo", "random", "delay")
#: the overrides of a spec given no ``config``: periodic managers refresh
#: inside the short exploration workloads
SCENARIO_CONFIG: Mapping[str, object] = {"refresh_period": 15.0}
#: the ``SystemConfig`` fields that watch a run without steering it; only
#: :meth:`ScenarioSpec.build` sets them, never a spec
OBSERVE_FIELDS = frozenset({"trace_kinds", "slo", "freshness_tick", "profile_plans"})
#: what a spec may override: everything but the per-run seed, scheduler
#: and observers
_OVERRIDABLE = frozenset(
    f.name for f in dataclasses.fields(SystemConfig)
) - OBSERVE_FIELDS - {"seed", "scheduler"}


def encode(value: object) -> object:
    """The JSON form of ``value``: scalars, lists, string-keyed mappings and
    dataclasses field by field (a ``WorkloadSpec``, ``FaultPlan``,
    ``CacheConfig``, a reproducer).  Anything else is a ``ReproError``,
    never silently dropped; of the config values, only a cache root (a
    path on one host) is refused."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return [encode(item) for item in value]
    if isinstance(value, Mapping) and all(isinstance(key, str) for key in value):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, CacheConfig) and value.root is not None:
        raise ReproError(
            f"cannot encode cache root {value.root!r}: a scenario's runs "
            f"each get a private store"
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    raise ReproError(f"cannot encode {type(value).__name__} {value!r} in a scenario")


def decode(cls: type, data: object) -> object:
    """Rebuild the dataclass ``cls`` from its :func:`encode` form.

    A field annotated as a dataclass, a homogeneous tuple or list, or an
    optional one of those is rebuilt from its JSON form; an unknown key
    raises.
    """
    if not isinstance(data, Mapping):
        raise ReproError(f"a {cls.__name__} is a JSON object, not {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ReproError(f"unknown {cls.__name__} fields {sorted(unknown)}")
    return cls(**{name: _decode_as(hints[name], value) for name, value in data.items()})


def _decode_as(hint: object, value: object) -> object:
    if value is None:
        return None
    if isinstance(hint, type) and dataclasses.is_dataclass(hint):
        return decode(hint, value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (tuple, list):
        return origin(_decode_as(args[0], item) for item in value)
    if origin in (typing.Union, types.UnionType):
        arms = [arm for arm in args if arm is not type(None)]
        if len(arms) == 1:
            return _decode_as(arms[0], value)
    return value


def _decode_override(name: str, value: object) -> object:
    """A config override as ``SystemConfig`` takes it: a JSON object under
    a field that holds an object (``config.py``'s ``_TYPES``) is decoded."""
    if name in _TYPES and isinstance(value, Mapping):
        module, cls = _TYPES[name]
        return decode(getattr(import_module(module), cls), value)
    return value


@dataclass
class ScenarioSpec:
    """Everything about a run except its seed and what observes it.

    ``views`` keeps the schema's first N views (0 = all), which is how
    the property suite sweeps fleet sizes, or names a view catalog file
    that replaces the schema's suite.  ``config`` holds
    :class:`~repro.system.config.SystemConfig` keyword overrides.
    ``scheduler`` picks the exploration mode (``fifo`` | ``random`` |
    ``delay``).  The run seed seeds the scheduler, the fault streams of
    a ``fault_plan`` and, with ``vary_workload``, the update stream, so
    one spec explores faults and workloads alongside interleavings.
    """

    schema: str = "paper"
    views: int | str = 0
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(updates=20, rate=2.0, arrivals="poisson")
    )
    vary_workload: bool = True
    config: Mapping[str, object] = field(default_factory=lambda: dict(SCENARIO_CONFIG))
    scheduler: str = "delay"
    delay_rate: float = 0.15
    max_delay: float = 3.0
    reorder_rate: float = 0.15

    def __post_init__(self) -> None:
        if self.schema not in SCHEMAS:
            raise ReproError(
                f"unknown scenario schema {self.schema!r} (have: {sorted(SCHEMAS)})"
            )
        if self.scheduler not in SCHEDULER_KINDS:
            raise ReproError(
                f"unknown scheduler kind {self.scheduler!r} "
                f"(have: {SCHEDULER_KINDS})"
            )
        if isinstance(self.views, int) and self.views < 0:
            raise ReproError(f"views must be >= 0, got {self.views}")
        refused = set(self.config) - _OVERRIDABLE
        if refused:
            raise ReproError(
                f"a scenario's config cannot set {sorted(refused)}: the seed "
                f"and scheduler come from the run, observers from build()"
            )
        self.config = {
            name: _decode_override(name, value) for name, value in self.config.items()
        }

    # -- assembly ------------------------------------------------------------
    def materialize(self) -> tuple[SourceWorld, list[ViewDefinition]]:
        """A fresh world and the view suite (truncated or from a file)."""
        world_factory, views_factory = SCHEMAS[self.schema]
        world = world_factory()
        if isinstance(self.views, str):
            from repro.relational.catalog import load_views

            return world, load_views(self.views)
        views = views_factory()
        if self.views > len(views):
            raise ReproError(
                f"schema {self.schema!r} has {len(views)} views, "
                f"cannot take {self.views}"
            )
        return world, views[: self.views] if self.views else views

    def workload_for(self, run_seed: int) -> WorkloadSpec:
        """The run's workload: the spec's own, re-seeded per run unless pinned."""
        if not self.vary_workload:
            return self.workload
        seed = zlib.crc32(f"{self.workload.seed}:{run_seed}".encode("utf-8"))
        return dataclasses.replace(self.workload, seed=seed)

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

    def build(
        self, run_seed: int = 0, scheduler: Scheduler | None = None, **observe
    ) -> WarehouseSystem:
        """A fully wired system with the workload posted, ready to run.

        ``scheduler`` overrides the spec's own kind — the explorer passes
        a :meth:`DelayInjectingScheduler.replay` instance when re-running
        a shrunk perturbation list.  ``observe`` sets the fields of
        :data:`OBSERVE_FIELDS` (``trace_kinds=None`` to record every kind).
        """
        unknown = set(observe) - OBSERVE_FIELDS
        if unknown:
            raise ReproError(
                f"build() observes a run through {sorted(OBSERVE_FIELDS)}, "
                f"not {sorted(unknown)}"
            )
        world, views = self.materialize()
        overrides = dict(self.config)
        plan = overrides.get("fault_plan")
        if plan is not None:
            # same shape, run-seed-derived fault streams
            derived = zlib.crc32(f"{plan.seed}:{run_seed}".encode("utf-8"))
            overrides["fault_plan"] = dataclasses.replace(plan, seed=derived)
        config = SystemConfig(
            **overrides,
            scheduler=scheduler if scheduler is not None else self.make_scheduler(run_seed),
            **observe,
        )
        system = WarehouseSystem(world, views, config)
        post_stream(
            system,
            UpdateStreamGenerator(world, self.workload_for(run_seed)).transactions(),
        )
        return system

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return decode(cls, data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def describe(self) -> str:
        """One line: the schema, every override, the workload, the scheduler."""
        overrides = (
            value.describe() if isinstance(value, FaultPlan) else f"{name}={value}"
            for name, value in sorted(self.config.items())
        )
        workload = f"updates={self.workload.updates}@{self.workload.rate:g}"
        return " ".join(
            (f"schema={self.schema}", *overrides, workload, f"scheduler={self.scheduler}")
        )


__all__ = [
    "OBSERVE_FIELDS",
    "SCENARIO_CONFIG",
    "SCHEDULER_KINDS",
    "ScenarioSpec",
    "Perturbation",
    "decode",
    "encode",
]
