"""Live freshness monitor: staleness derivation, SLOs, tick gating."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.obs.freshness import FreshnessMonitor, SloPolicy, format_snapshot
from repro.obs.registry import MetricsRegistry
from repro.sim.tracing import Trace
from repro.system.config import SystemConfig

from tests.obs.conftest import run_paper_system


class _StubSim:
    def __init__(self):
        self.now = 0.0
        self.trace = Trace()
        self.metrics = MetricsRegistry()


class _StubMerge:
    def __init__(self, name: str, depth: int = 0, vut: int = 0):
        self.name = name
        self.queue_length = depth
        self.algorithm = type("A", (), {"vut": dict.fromkeys(range(vut))})()


class _StubSystem:
    def __init__(self, views=("V1", "V2"), merges=()):
        self.sim = _StubSim()
        self.view_managers = dict.fromkeys(views)
        self.merge_processes = list(merges)


class TestSloPolicy:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ReproError, match="max_staleness"):
            SloPolicy(max_staleness=-1.0)

    def test_active(self):
        assert not SloPolicy().active()
        assert SloPolicy(max_queue_depth=5).active()


class TestStalenessDerivation:
    def test_pending_update_ages_until_committed(self):
        system = _StubSystem()
        monitor = FreshnessMonitor(system, tick=1.0)
        sim = system.sim
        sim.trace.record(2.5, "int_number", "integrator",
                         update_id=1, commit_time=2.0, rel=("V1",))
        sim.now = 5.0
        monitor.sample()
        assert sim.metrics.value("view_staleness", view="V1") == 3.0
        assert sim.metrics.value("view_staleness", view="V2") == 0.0
        sim.trace.record(5.5, "wh_commit", "warehouse",
                         rows=(1,), views=("V1",))
        sim.now = 7.0
        monitor.sample()
        assert sim.metrics.value("view_staleness", view="V1") == 0.0

    def test_oldest_pending_commit_wins(self):
        system = _StubSystem(views=("V1",))
        monitor = FreshnessMonitor(system, tick=1.0)
        sim = system.sim
        sim.trace.record(1.0, "int_number", "integrator",
                         update_id=1, commit_time=1.0, rel=("V1",))
        sim.trace.record(4.0, "int_number", "integrator",
                         update_id=2, commit_time=4.0, rel=("V1",))
        sim.now = 6.0
        monitor.sample()
        assert sim.metrics.value("view_staleness", view="V1") == 5.0

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["number", "commit", "sample"]),
        st.sampled_from([0.0, 0.5, 1.0, 3.0]),  # commit time before now
        st.frozensets(st.sampled_from(["V1", "V2"])),
        st.integers(0, 7),  # where in the numbering the three rows a commit covers start
    ), max_size=40))
    def test_staleness_is_now_minus_the_oldest_pending_commit(self, steps):
        """Every sample equals ``now - min(pending commit times)``, whatever
        order commit times arrive and rows clear in."""
        system = _StubSystem()
        monitor = FreshnessMonitor(system, tick=1.0)
        sim = system.sim
        pending = {"V1": {}, "V2": {}}
        numbered = []
        for kind, age, views, count in steps:
            sim.now += 0.5
            if kind == "number":
                uid = len(numbered) + 1
                numbered.append(uid)
                sim.trace.record(sim.now, "int_number", "integrator",
                                 update_id=uid, commit_time=sim.now - age,
                                 rel=tuple(sorted(views)))
                for view in views:
                    pending[view][uid] = sim.now - age
            elif kind == "commit":
                rows = tuple(numbered[count:count + 3])
                sim.trace.record(sim.now, "wh_commit", "warehouse",
                                 rows=rows, views=tuple(sorted(views)))
                for view in views:
                    for uid in rows:
                        pending[view].pop(uid, None)
            else:
                monitor.sample()
                for view, held in pending.items():
                    expected = sim.now - min(held.values()) if held else 0.0
                    assert sim.metrics.value("view_staleness", view=view) == expected

    def test_tick_gates_maybe_sample(self):
        system = _StubSystem()
        monitor = FreshnessMonitor(system, tick=10.0)
        monitor.maybe_sample()
        assert monitor.samples == 1
        system.sim.now = 5.0
        monitor.maybe_sample()
        assert monitor.samples == 1  # inside the tick: skipped
        system.sim.now = 10.0
        monitor.maybe_sample()
        assert monitor.samples == 2

    def test_invalid_tick_rejected(self):
        with pytest.raises(ReproError, match="tick"):
            FreshnessMonitor(_StubSystem(), tick=0.0)


class TestSloEvaluation:
    def test_staleness_breach_counted_and_traced(self):
        system = _StubSystem(views=("V1",))
        monitor = FreshnessMonitor(
            system, tick=1.0, policy=SloPolicy(max_staleness=1.0)
        )
        sim = system.sim
        sim.trace.record(0.0, "int_number", "integrator",
                         update_id=1, commit_time=0.0, rel=("V1",))
        sim.now = 3.0
        monitor.sample()
        assert monitor.breaches == 1
        assert sim.metrics.value("slo_breaches", kind="staleness") == 1.0
        (event,) = sim.trace.of_kind("slo_breach")
        assert event.detail["target"] == "V1"
        assert event.detail["value"] == 3.0
        assert event.detail["threshold"] == 1.0

    def test_queue_and_vut_breaches(self):
        merge = _StubMerge("merge", depth=8, vut=5)
        system = _StubSystem(merges=[merge])
        monitor = FreshnessMonitor(
            system, tick=1.0,
            policy=SloPolicy(max_queue_depth=4, max_vut=3),
        )
        monitor.sample()
        metrics = system.sim.metrics
        assert metrics.value("monitor_queue_depth", merge="merge") == 8.0
        assert metrics.value("monitor_vut_occupancy", merge="merge") == 5.0
        assert metrics.value("slo_breaches", kind="queue_depth") == 1.0
        assert metrics.value("slo_breaches", kind="vut_occupancy") == 1.0
        assert monitor.breaches == 2

    def test_no_policy_no_breaches(self):
        merge = _StubMerge("merge", depth=100, vut=100)
        monitor = FreshnessMonitor(_StubSystem(merges=[merge]), tick=1.0)
        monitor.sample()
        assert monitor.breaches == 0


class TestReporting:
    def test_snapshot_and_format(self):
        merge = _StubMerge("merge", depth=2)
        system = _StubSystem(views=("V1",), merges=[merge])
        monitor = FreshnessMonitor(system, tick=1.0)
        monitor.sample()
        snap = monitor.snapshot()
        assert snap["samples"] == 1 and snap["breaches"] == 0
        assert snap["staleness"]["V1"] == {"current": 0.0, "max": 0.0}
        assert snap["shards"]["merge"]["queue_depth_max"] == 2.0
        text = format_snapshot(snap)
        assert "freshness monitor: 1 sample(s), 0 SLO breach(es)" in text
        assert "V1" in text and "merge" in text


class TestSystemIntegration:
    def test_monitor_samples_during_des_run(self):
        system = run_paper_system(
            SystemConfig(seed=21, freshness_tick=0.5)
        )
        monitor = system.monitor
        assert monitor is not None
        assert monitor.samples > 10
        assert monitor.breaches == 0
        # fully drained run ends caught up
        for view in system.view_managers:
            gauge = system.sim.metrics.get("view_staleness", view=view)
            assert gauge is not None and gauge.value == 0.0
        # the run was genuinely behind at some point
        assert any(
            system.sim.metrics.get("view_staleness", view=view).max > 0.0
            for view in system.view_managers
        )

    def test_slo_implies_monitor_and_breaches(self):
        system = run_paper_system(
            SystemConfig(seed=21, slo=SloPolicy(max_staleness=0.5))
        )
        assert system.monitor is not None
        assert system.monitor.breaches > 0
        assert system.sim.metrics.value("slo_breaches", kind="staleness") > 0
        assert system.sim.trace.of_kind("slo_breach")

    def test_config_validates_telemetry_knobs(self):
        with pytest.raises(ReproError, match="freshness_tick"):
            SystemConfig(freshness_tick=0.0)
        with pytest.raises(ReproError, match="SloPolicy"):
            SystemConfig(slo="tight")  # type: ignore[arg-type]
