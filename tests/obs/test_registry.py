"""The typed metrics registry: instrument semantics, registry identity,
and the registry inside a run report's JSON."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.system.report import RunReport


class TestCounter:
    def test_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("msgs", process="merge")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_decrease(self):
        counter = MetricsRegistry().counter("msgs")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_key_includes_sorted_labels(self):
        counter = MetricsRegistry().counter("sent", dst="b", src="a")
        assert counter.key == "sent{dst=b,src=a}"
        assert MetricsRegistry().counter("bare").key == "bare"


class TestGauge:
    def test_min_max_current(self):
        gauge = MetricsRegistry().gauge("queue")
        for value in (3.0, 7.0, 1.0):
            gauge.set(value)
        assert gauge.value == 1.0
        assert gauge.min == 1.0
        assert gauge.max == 7.0

    def test_timeline_keeps_samples(self):
        gauge = MetricsRegistry().gauge("vut", timeline=True)
        gauge.set(2, at=1.0)
        gauge.set(5, at=2.5)
        assert gauge.samples == ((1.0, 2), (2.5, 5))

    def test_no_timeline_by_default(self):
        gauge = MetricsRegistry().gauge("vut")
        gauge.set(2, at=1.0)
        assert gauge.samples == ()


class TestHistogram:
    def test_stats(self):
        histogram = MetricsRegistry().histogram("wait")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.mean == 2.5
        assert histogram.max == 4.0
        assert histogram.quantile(0.5) == pytest.approx(2.5)

    def test_quantile_matches_percentile_helper(self):
        values = [float(v) for v in (9, 1, 5, 7, 3)]
        histogram = MetricsRegistry().histogram("wait")
        for value in values:
            histogram.observe(value)
        assert histogram.quantile(0.95) == percentile(values, 0.95)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("sent", src="x", dst="y")
        b = registry.counter("sent", dst="y", src="x")  # label order free
        assert a is b
        assert len(registry) == 1

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(TypeError):
            registry.gauge("thing")

    def test_family_and_value(self):
        registry = MetricsRegistry()
        registry.counter("sent", src="a").inc(2)
        registry.counter("sent", src="b").inc(3)
        registry.gauge("other").set(9)
        family = registry.family("sent")
        assert [m.labels for m in family] == [(("src", "a"),), (("src", "b"),)]
        assert registry.value("sent", src="b") == 3
        assert registry.value("missing", default=-1.0) == -1.0

    def test_to_dict_and_format(self):
        registry = MetricsRegistry()
        registry.counter("sent", src="a").inc()
        registry.histogram("wait", process="m").observe(2.0)
        dump = registry.to_dict()
        assert dump["sent{src=a}"] == {"type": "counter", "value": 1.0}
        assert dump["wait{process=m}"]["count"] == 1
        text = registry.format(prefix="sent")
        assert "sent{src=a}" in text
        assert "wait" not in text


class TestSimulationWiring:
    """Instruments a real run actually registers (the tentpole hooks)."""

    def test_process_instruments_match_legacy_stats(self, finished_system):
        registry = finished_system.sim.metrics
        for process in [finished_system.integrator,
                        finished_system.warehouse,
                        *finished_system.merge_processes]:
            assert registry.value(
                "proc_messages_handled", process=process.name
            ) == process.messages_handled
            assert registry.value(
                "proc_busy_time", process=process.name
            ) == pytest.approx(process.busy_time)

    def test_channel_counters_registered(self, finished_system):
        registry = finished_system.sim.metrics
        sent = registry.family("chan_messages_sent")
        assert sent, "no channel counters registered"
        assert sum(m.value for m in sent) > 0

    def test_vut_timeline_gauge(self, finished_system):
        merge = finished_system.merge_processes[0]
        gauge = finished_system.sim.metrics.get("merge_vut_size",
                                                merge=merge.name)
        assert gauge is not None
        assert gauge.samples, "timeline gauge kept no samples"
        times = [t for t, _ in gauge.samples]
        assert times == sorted(times)
        assert int(gauge.max) == finished_system.report(classify=False).vut_peak

    def test_queue_wait_histogram_feeds_metrics(self, finished_system):
        process = finished_system.merge_processes[0]
        count, mean, p95 = process.queue_wait_stats()
        assert count == process.messages_handled
        assert 0.0 <= mean <= p95 or count == 0
        stats = finished_system.report(classify=False).processes[process.name]
        assert stats.mean_queue_wait == pytest.approx(mean)
        assert stats.p95_queue_wait == pytest.approx(p95)


def with_registry(system, registry: MetricsRegistry) -> RunReport:
    """``system``'s report with ``registry`` in it, as ``--metrics-out x.json``
    writes it."""
    return dataclasses.replace(system.report(classify=False),
                               registry=registry.to_dict())


class TestSnapshot:
    """The JSON snapshot of a registry is the ``registry`` of a run report."""

    def test_meta_header(self, finished_system):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        record = json.loads(with_registry(finished_system, registry).to_json())
        assert record["format"] == "repro-run-report/1"
        assert len(record["registry"]) == 1

    def test_round_trips_through_json(self, finished_system):
        report = with_registry(finished_system, finished_system.sim.metrics)
        assert RunReport.from_json(report.to_json()) == report

    def test_metrics_match_to_dict(self, finished_system):
        registry = finished_system.sim.metrics
        record = json.loads(with_registry(finished_system, registry).to_json())
        assert record["registry"] == registry.to_dict()
