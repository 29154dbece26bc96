"""Which systems build the base-data service, one row per configuration.

The service answers the pre-state queries of managers that query back
(modes ``snapshot``, ``compensate`` and ``naive``).  A fleet whose every
manager maintains from its own cached replica never asks, so the system
builds no service, no channel to it and no feed of numbered updates.
"""

import pytest

from repro import CrashSpec, FaultPlan, FaultError, SystemConfig, WarehouseSystem
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world


def run(config):
    world = paper_world()
    system = WarehouseSystem(world, paper_views_example2(), config)
    # Inserts only: a naive manager's wrong deltas then never delete a
    # row the warehouse lacks, so every row drains.
    spec = WorkloadSpec(updates=20, rate=2.0, seed=3, mix=(1, 0, 0))
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    return system


@pytest.mark.parametrize("config, queries_back", [
    ({"manager_kind": "complete", "manager_mode": "cached"}, False),
    ({"manager_kind": "complete", "manager_mode": "snapshot"}, True),
    ({"manager_kind": "complete", "manager_mode": "compensate"}, True),

    ({"manager_kind": "strong", "manager_mode": "cached"}, False),
    ({"manager_kind": "strong", "manager_mode": "snapshot"}, True),
    ({"manager_kind": "strong", "manager_mode": "compensate"}, True),

    ({"manager_kind": "complete-n", "manager_mode": "cached"}, False),
    ({"manager_kind": "complete-n", "manager_mode": "snapshot"}, True),
    ({"manager_kind": "complete-n", "manager_mode": "compensate"}, True),

    ({"manager_kind": "convergent", "manager_mode": "cached"}, False),
    ({"manager_kind": "convergent", "manager_mode": "snapshot"}, True),
    ({"manager_kind": "convergent", "manager_mode": "compensate"}, True),

    # Periodic managers always refresh from their replica ...
    ({"manager_kind": "periodic", "manager_mode": "cached"}, False),
    ({"manager_kind": "periodic", "manager_mode": "snapshot"}, False),
    ({"manager_kind": "periodic", "manager_mode": "compensate"}, False),

    # ... and naive ones always read the current base state.
    ({"manager_kind": "naive", "manager_mode": "cached"}, True),
    ({"manager_kind": "naive", "manager_mode": "snapshot"}, True),
    ({"manager_kind": "naive", "manager_mode": "compensate"}, True),

    # One querying view is enough.
    ({"manager_kind": "complete", "manager_kinds": {"V2": "naive"}}, True),
])
def test_service_exists_exactly_when_a_manager_queries_back(config, queries_back):
    system = run(SystemConfig(seed=3, trace_kinds=None, **config))

    assert (system.service is not None) == queries_back
    assert ("basedata" in system.processes) == queries_back
    assert ("basedata" in system.report(classify=False).processes) == queries_back
    if queries_back:
        assert system.service.version == system.integrator.updates_numbered
    else:
        assert not [
            event for event in system.sim.trace
            if event.process == "basedata"
            or event.detail.get("to") == "basedata"
        ]


def test_crashing_the_absent_service_is_a_build_error():
    plan = FaultPlan(crashes=(CrashSpec("basedata", at=5.0),))

    with pytest.raises(FaultError, match="basedata"):
        WarehouseSystem(paper_world(), paper_views_example2(),
                        SystemConfig(fault_plan=plan))
