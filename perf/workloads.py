"""The five benchmark workloads, built through the public ``repro`` API.

Every workload is a closed batch on the DES runtime: all updates are
posted up front at their generated virtual times and then drained.
``--seed`` feeds ``WorkloadSpec.seed``, ``SystemConfig.seed`` and the star
fact-table RNG, so one seed fixes every input.  Why each workload exists
is recorded in ``BENCHMARK.json`` and ``perf/README.md``.

``slice_events`` sizes the timed drain's slices so that one slice costs
roughly three calibration steps (calibration is then 20-30% of the drain).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from repro import (
    SourceWorld,
    SystemConfig,
    ViewDefinition,
    WorkloadSpec,
    paper_views_example2,
    paper_world,
    star_views,
    star_world,
)
from repro.workloads import clustered_views, clustered_world

Built = tuple[SourceWorld, Sequence[ViewDefinition], WorkloadSpec, SystemConfig]

STAR_FACT_ROWS = 20_000
# Deletes outweigh inserts, so the four relations hover near empty (about
# eight rows in all) instead of random-walking: a balanced mix let them
# wander between 30 and 70 rows depending on the seed, and peak RSS then
# differed by 10% and cost per update by 17% from one seed to the next.
EX2_MIX = (0.3, 0.5, 0.2)


@dataclass(frozen=True)
class Workload:
    name: str
    updates: int
    slice_events: int
    build: Callable[[int, int], Built]


def _ex2_steady(seed: int, updates: int) -> Built:
    spec = WorkloadSpec(updates=updates, rate=0.2, arrivals="poisson",
                        mix=EX2_MIX, value_range=40, seed=seed)
    return paper_world(), paper_views_example2(), spec, SystemConfig(seed=seed)


def _ex2_queryback(seed: int, updates: int) -> Built:
    spec = WorkloadSpec(updates=updates, rate=0.5, arrivals="poisson",
                        mix=EX2_MIX, value_range=40, seed=seed)
    config = SystemConfig(manager_kind="strong", manager_mode="compensate",
                          seed=seed)
    return paper_world(), paper_views_example2(), spec, config


def _clustered(clusters: int, **config: object) -> Callable[[int, int], Built]:
    def build(seed: int, updates: int) -> Built:
        spec = WorkloadSpec(updates=updates, rate=40.0, arrivals="poisson",
                            seed=seed)
        return (clustered_world(clusters), clustered_views(clusters, 3),
                spec, SystemConfig(seed=seed, **config))
    return build


def _star_20k(seed: int, updates: int) -> Built:
    # star_world() creates Sales empty; re-create the same schemas with the
    # fact table preloaded, which SourceWorld only allows before any commit.
    template = star_world(products=64, stores=16)
    rng = random.Random(seed)
    world = SourceWorld()
    for name, schema in template.schemas.items():
        rows = list(template.current.relation(name))
        if name == "Sales":
            rows = [
                {"sale": sale, "prod": rng.randrange(64),
                 "store": rng.randrange(16), "qty": rng.randrange(16)}
                for sale in range(STAR_FACT_ROWS)
            ]
        world.create_relation(name, schema, template.owner_of(name), rows)
    # Fact-table updates only, evenly spaced: one dimension update rewrites
    # ~1000 view rows, and the two dozen that 120 updates would contain
    # made p95 staleness range 130-504 across seeds.
    spec = WorkloadSpec(updates=updates, rate=0.1, arrivals="uniform",
                        relation_weights={"Sales": 1, "Product": 0, "Store": 0},
                        value_range=64, seed=seed)
    config = SystemConfig(record_history=False, seed=seed)
    return world, star_views(selective=True, aggregates=True), spec, config


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ex2-steady", 4000, 500, _ex2_steady),
        Workload("ex2-queryback", 3000, 380, _ex2_queryback),
        Workload("clustered-36", 700, 100, _clustered(12)),
        Workload("sharded-108", 1000, 180,
                 _clustered(36, merge_algorithm="spa", merge_groups=8,
                            merge_router="hash")),
        Workload("star-20k", 120, 50, _star_20k),
    )
}
