"""The trace is an observer: what it records never changes the run.

A default run records only the freshness endpoints (``STALENESS_KINDS``)
and the kinds an attached SLO or fault plan gives rise to;
``trace_kinds=None`` records every kind.  The two must run the same
simulation — same views, same commit log, same event count and clock,
same MVC verdict — and agree on every record the default keeps.
"""

import pytest

from repro.cache.store import CacheConfig
from repro.faults import CrashSpec, FaultPlan
from repro.obs.freshness import STALENESS_KINDS, SloPolicy
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    paper_views_example1,
    paper_views_example2,
    paper_views_example3,
    paper_world,
)

FAULTS = FaultPlan(
    seed=17,
    drop_rate=0.05,
    duplicate_rate=0.02,
    crashes=(CrashSpec("merge", at=12.0, restart_after=4.0),),
)

#: case -> (view suite, config fields)
CASES = {
    "complete-spa": (paper_views_example2,
                     {"manager_kind": "complete", "merge_algorithm": "spa"}),
    "strong-compensate-pa": (paper_views_example2,
                             {"manager_kind": "strong",
                              "manager_mode": "compensate",
                              "merge_algorithm": "pa"}),
    "two-merges": (paper_views_example3,
                   {"manager_kind": "complete", "merge_groups": 2}),
    "drops-and-crash": (paper_views_example1,
                        {"manager_kind": "complete", "fault_plan": FAULTS}),
    "cache": (paper_views_example1,
              {"manager_kind": "complete", "cache": CacheConfig()}),
    "slo": (paper_views_example2,
            {"manager_kind": "complete", "slo": SloPolicy(max_staleness=0.5)}),
}

#: case -> the kinds beyond the endpoints its default trace must hold
CONSUMER_KINDS = {
    "drops-and-crash": {"msg_drop", "msg_retransmit", "crash", "restart",
                        "checkpoint", "restore"},
    "slo": {"slo_breach"},
}


def run(views, fields, **trace):
    world = paper_world()
    system = WarehouseSystem(world, views(),
                             SystemConfig(seed=5, **fields, **trace))
    spec = WorkloadSpec(updates=30, rate=2.0, seed=5, mix=(0.6, 0.2, 0.2),
                        arrivals="poisson", multi_update_fraction=0.2)
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    try:
        system.run()
    finally:
        system.close()
    return system


def records(system, kinds):
    return [(e.time, e.kind, e.process, e.detail) for e in system.sim.trace
            if e.kind in kinds]


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_trace_does_not_change_the_run(case):
    views, fields = CASES[case]
    default = run(views, fields)
    everything = run(views, fields, trace_kinds=None)

    assert default.config.trace_kinds == STALENESS_KINDS
    kept = default.sim.trace.kinds
    assert {e.kind for e in default.sim.trace} <= kept
    assert ({e.kind for e in default.sim.trace} - STALENESS_KINDS
            == CONSUMER_KINDS.get(case, set()))
    assert len({e.kind for e in everything.sim.trace}) > len(kept)
    assert records(default, kept) == records(everything, kept)

    names = default.store.view_names
    assert {n: default.store.view(n) for n in names} == {
        n: everything.store.view(n) for n in names
    }
    assert default.store.commit_log == everything.store.commit_log
    assert default.sim.events_executed == everything.sim.events_executed
    assert default.sim.now == everything.sim.now
    assert default.check_mvc("auto") == everything.check_mvc("auto")
    assert default.check_mvc("auto").ok
