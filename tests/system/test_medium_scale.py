"""Medium-scale soak: a few hundred updates through every pipeline stage.

These runs are larger than the property tests (hundreds of updates, all
update kinds, multi-update transactions, random delays) and exist to
catch anything that only shows up with depth: purge bookkeeping over long
VUT lifetimes, replica drift, id exhaustion, queue accounting.
"""

import pytest

from repro.sim.scheduler import DelayInjectingScheduler
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    clustered_views,
    clustered_world,
    paper_views_example2,
    paper_world,
)


@pytest.mark.parametrize(
    "kind,level",
    [("complete", "complete"), ("strong", "strong")],
)
def test_soak_300_updates(kind, level):
    world = paper_world()
    spec = WorkloadSpec(
        updates=300,
        rate=4.0,
        seed=99,
        mix=(0.5, 0.25, 0.25),
        multi_update_fraction=0.1,
        arrivals="poisson",
        hot_fraction=0.3,
        hot_keys=2,
    )
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world,
        paper_views_example2(),
        SystemConfig(
            manager_kind=kind,
            scheduler=DelayInjectingScheduler(99, delay_rate=1.0, max_delay=2.0),
            seed=99,
            trace_kinds=frozenset(),
        ),
    )
    post_stream(system, stream)
    system.run()
    report = system.check_mvc(level)
    assert report, report.reason
    # Everything drained: no stuck rows, no queued work, no in-flight txns.
    assert all(m.idle() for m in system.merge_processes)
    assert all(vm.idle() for vm in system.view_managers.values())
    assert system.warehouse.in_flight == 0
    # Every committed update was reflected.
    metrics = system.report(classify=False)
    assert metrics.updates_reflected == metrics.updates_committed == 300


def test_soak_distributed_clustered():
    world = clustered_world(4)
    spec = WorkloadSpec(
        updates=300, rate=5.0, seed=123, mix=(0.6, 0.2, 0.2),
        arrivals="poisson", value_range=5,
    )
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world,
        clustered_views(4, per_cluster=3),
        SystemConfig(
            manager_kind="complete",
            merge_groups=4,
            submission_policy="dbms-dependency",
            warehouse_executors=4,
            seed=123,
            trace_kinds=frozenset(),
        ),
    )
    post_stream(system, stream)
    system.run()
    report = system.check_mvc("complete")
    assert report, report.reason
    # Transaction ids from the four merges never collided.
    ids = [state.txn_id for state in system.history[1:]]
    assert len(ids) == len(set(ids))
