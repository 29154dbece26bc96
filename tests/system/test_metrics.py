"""Tests for the run report's numbers (staleness, load, throughput)."""

import pytest

from repro.obs.registry import percentile
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.system.report import RunReport, format_reports, staleness_per_update
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example1, paper_world
from tests.sim.trace_records import to_records


@pytest.fixture(scope="module")
def finished_system():
    world = paper_world()
    spec = WorkloadSpec(updates=20, rate=2.0, seed=4, mix=(0.7, 0.15, 0.15))
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(world, paper_views_example1(),
                             SystemConfig(manager_kind="complete",
                                          trace_kinds=None))
    post_stream(system, stream)
    system.run()
    return system


class TestStaleness:
    def test_every_reflected_update_has_positive_lag(self, finished_system):
        lags = staleness_per_update(finished_system)
        assert lags
        assert all(lag > 0 for lag in lags.values())

    def test_visibility_uses_first_covering_state(self):
        world = paper_world()
        system = WarehouseSystem(world, paper_views_example1())
        system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
        system.run()
        lags = staleness_per_update(system)
        state_time = system.history[1].time
        assert lags[1] == pytest.approx(state_time - 1.0)


    def test_history_off_reports_every_update(self):
        """Regression: staleness used to walk ``store.history``, which holds
        one state when ``record_history=False`` — a 10-update run reported
        ``updates_reflected == 1`` and that one update's staleness."""

        def run(record_history):
            world = paper_world()
            spec = WorkloadSpec(
                updates=10, rate=2.0, seed=6, mix=(0.7, 0.15, 0.15),
                relation_weights={"Q": 0},  # no view reads Q
            )
            stream = UpdateStreamGenerator(world, spec).transactions()
            system = WarehouseSystem(
                world,
                paper_views_example1(),
                SystemConfig(record_history=record_history),
            )
            post_stream(system, stream)
            system.run()
            return system

        off, on = run(False), run(True)
        assert len(off.history) == 2 < len(on.history)
        metrics = off.report(classify=False)
        assert metrics.updates_committed == metrics.updates_reflected == 10
        assert staleness_per_update(off) == staleness_per_update(on)
        reference = on.report(classify=False)
        for name in ("mean_staleness", "p95_staleness", "max_staleness",
                     "throughput", "warehouse_transactions"):
            assert getattr(metrics, name) == getattr(reference, name)


class TestPercentile:
    """Pins the linear-interpolation behaviour (regression for the old
    nearest-rank-via-round(), which biased p95 to the max on small samples)."""

    def test_empty_and_singleton(self):
        assert percentile([], 0.95) == 0.0
        assert percentile([3.0], 0.95) == 3.0

    def test_interpolates_between_order_statistics(self):
        # position = 0.95 * 9 = 8.55 -> 9 + 0.55 * (10 - 9)
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 0.95) == pytest.approx(9.55)
        # position = 0.5 * 3 = 1.5 -> midpoint of the middle pair
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_unsorted_input_handled(self):
        assert percentile([9.0, 1.0, 5.0], 0.5) == 5.0

    def test_small_sample_not_biased_to_max(self):
        # The old round() implementation returned 10.0 (the max) here.
        values = [float(i) for i in range(1, 11)]
        assert percentile(values, 0.95) < max(values)


class TestCollect:
    def test_metrics_fields(self, finished_system):
        metrics = RunReport.of(finished_system)
        assert metrics.updates_committed == 20
        assert metrics.warehouse_transactions == finished_system.warehouse.commits
        assert metrics.makespan == finished_system.sim.now
        assert 0 < metrics.mean_staleness <= metrics.max_staleness
        assert metrics.p95_staleness <= metrics.max_staleness
        assert metrics.throughput > 0
        assert metrics.vut_peak >= 1

    def test_per_process_stats_present(self, finished_system):
        metrics = finished_system.report()
        for name in ("integrator", "merge", "warehouse", "vm:V1", "vm:V2"):
            stats = metrics.processes[name]
            assert stats.messages_handled > 0
        assert metrics.messages_total >= sum(
            1 for _ in ("integrator", "merge", "warehouse")
        )

    def test_format_row(self, finished_system):
        text = format_reports([finished_system.report()])
        assert "staleness" in text and "updates" in text
        assert text.splitlines()[-1].split()[2] == "20"

    def test_to_dict_is_json_serialisable(self, finished_system):
        import json

        text = finished_system.report().to_json()
        record = json.loads(text)
        assert "warehouse_transactions" in text
        assert record["updates_committed"] == 20
        assert "merge" in record["processes"]


class TestTraceExport:
    def test_trace_records_serialisable(self, finished_system):
        import json

        records = to_records(finished_system.sim.trace, "wh_commit")
        assert records
        assert all(r["kind"] == "wh_commit" for r in records)
        json.dumps(records, default=str)

    def test_trace_records_unfiltered(self, finished_system):
        assert len(to_records(finished_system.sim.trace)) == len(
            finished_system.sim.trace
        )
