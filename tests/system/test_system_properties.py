"""Whole-system property tests.

Theorem 4.1 and Theorem 5.1, empirically: for ANY seeded workload and ANY
delay-induced interleaving, a complete fleet under SPA yields an
MVC-complete run and a strong fleet under PA an MVC-strongly-consistent
run.  These are the library's headline guarantees, so they get hammered
across random seeds, rates, mixes and scheduler-injected delays.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.scheduler import DelayInjectingScheduler
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world


def build_and_run(seed, kind, policy, jitter, updates=25):
    world = paper_world()
    spec = WorkloadSpec(
        updates=updates,
        rate=2.0,
        seed=seed,
        mix=(0.5, 0.25, 0.25),
        arrivals="poisson",
    )
    stream = UpdateStreamGenerator(world, spec).transactions()
    config = SystemConfig(
        manager_kind=kind,
        submission_policy=policy,
        seed=seed,
        # Random delays on every message shake out arrival-order corner cases.
        scheduler=DelayInjectingScheduler(seed, delay_rate=1.0, max_delay=jitter),
        record_history=True,
        trace_kinds=frozenset(),
    )
    system = WarehouseSystem(world, paper_views_example2(), config)
    post_stream(system, stream)
    system.run()
    return system


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    jitter=st.floats(min_value=0.0, max_value=8.0),
    policy=st.sampled_from(["sequential", "dependency-sequenced", "dbms-dependency"]),
)
@settings(max_examples=25, deadline=None)
def test_spa_runs_are_mvc_complete(seed, jitter, policy):
    system = build_and_run(seed, "complete", policy, jitter)
    report = system.check_mvc("complete")
    assert report, report.reason


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    jitter=st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=25, deadline=None)
def test_pa_runs_are_mvc_strong(seed, jitter):
    system = build_and_run(seed, "strong", "dependency-sequenced", jitter)
    report = system.check_mvc("strong")
    assert report, report.reason


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_heavy_tailed_latencies_do_not_break_mvc(seed):
    """Delays of up to 20 time units on every message, against hops of one:
    extreme reordering between channels, FIFO within each — MVC must
    still hold."""
    world = paper_world()
    spec = WorkloadSpec(updates=20, rate=3.0, seed=seed,
                        mix=(0.5, 0.25, 0.25), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world, paper_views_example2(),
        SystemConfig(
            manager_kind="complete",
            scheduler=DelayInjectingScheduler(seed, delay_rate=1.0, max_delay=20.0),
            seed=seed,
            trace_kinds=frozenset(),
        ),
    )
    post_stream(system, stream)
    system.run()
    report = system.check_mvc("complete")
    assert report, report.reason


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_batching_runs_are_mvc_strong(seed):
    system = build_and_run(seed, "complete", "batching", jitter=2.0)
    report = system.check_mvc("strong")
    assert report, report.reason


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    groups=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=15, deadline=None)
def test_distributed_merge_preserves_completeness(seed, groups):
    from repro.workloads.schemas import paper_views_example3

    world = paper_world()
    spec = WorkloadSpec(updates=25, rate=2.0, seed=seed,
                        mix=(0.5, 0.25, 0.25), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world, paper_views_example3(),
        SystemConfig(manager_kind="complete", merge_groups=groups,
                     seed=seed, trace_kinds=frozenset()),
    )
    post_stream(system, stream)
    system.run()
    report = system.check_mvc("complete")
    assert report, report.reason


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_selection_filtering_preserves_completeness(seed):
    from repro.workloads.schemas import star_views, star_world

    world = star_world()
    spec = WorkloadSpec(updates=30, rate=2.0, seed=seed,
                        mix=(0.5, 0.3, 0.2), value_range=12)
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world, star_views(selective=True),
        SystemConfig(manager_kind="complete", use_selection_filtering=True,
                     seed=seed, trace_kinds=frozenset()),
    )
    post_stream(system, stream)
    system.run()
    report = system.check_mvc("complete")
    assert report, report.reason


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=8, deadline=None)
def test_aggregate_views_preserve_completeness(seed):
    from repro.workloads.schemas import star_views, star_world

    world = star_world()
    spec = WorkloadSpec(updates=25, rate=2.0, seed=seed, value_range=10,
                        mix=(0.5, 0.3, 0.2))
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world, star_views(selective=False, aggregates=True),
        SystemConfig(manager_kind="complete", seed=seed, trace_kinds=frozenset()),
    )
    post_stream(system, stream)
    system.run()
    report = system.check_mvc("complete")
    assert report, report.reason


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None)
def test_promptness_nothing_left_behind(seed):
    """Once the stream drains, no merge or manager holds anything."""
    system = build_and_run(seed, "complete", "dependency-sequenced", 4.0)
    assert all(m.idle() for m in system.merge_processes)
    assert all(vm.idle() for vm in system.view_managers.values())
    assert system.warehouse.in_flight == 0
