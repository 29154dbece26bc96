"""Fixtures for observability tests: one finished paper-schema run."""

from __future__ import annotations

import pytest

from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world


def run_paper_system(config: SystemConfig | None = None,
                     updates: int = 25, rate: float = 4.0,
                     seed: int = 21) -> WarehouseSystem:
    """Build + drive the b1-style workload (paper schema, example-2 views)."""
    world = paper_world()
    spec = WorkloadSpec(updates=updates, rate=rate, seed=seed,
                        mix=(0.6, 0.2, 0.2))
    if config is None:  # the exporters and lineage read every kind
        config = SystemConfig(seed=seed, trace_kinds=None)
    system = WarehouseSystem(world, paper_views_example2(), config)
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    return system


@pytest.fixture(scope="module")
def finished_system() -> WarehouseSystem:
    return run_paper_system()
