"""Metric exports: the Prometheus text format and the registry inside a
run report's JSON."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.promexport import to_prometheus, write_metrics
from repro.obs.registry import MetricsRegistry
from repro.system.report import RunReport


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse exposition text back to ``{sample_line_key: value}``: the
    round-trip inverse of exactly what :func:`to_prometheus` emits, not the
    full grammar."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def with_registry(system, registry: MetricsRegistry) -> RunReport:
    """``system``'s report with ``registry`` in it, as ``--metrics-out x.json``
    writes it."""
    return dataclasses.replace(system.report(classify=False),
                               registry=registry.to_dict())


def small_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("msgs_sent", src="a", dst="b").inc(3)
    registry.counter("msgs_sent", src="b", dst="a").inc(1)
    registry.gauge("queue_depth", proc="merge").set(7)
    histogram = registry.histogram("latency", proc="merge")
    for value in (1.0, 2.0, 3.0, 4.0):
        histogram.observe(value)
    return registry


class TestToPrometheus:
    def test_type_lines_per_family(self):
        text = to_prometheus(small_registry())
        assert "# TYPE repro_msgs_sent counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_latency summary" in text
        # one TYPE line per family, not per instrument
        assert text.count("# TYPE repro_msgs_sent counter") == 1

    def test_counter_and_gauge_samples(self):
        # labels render in the registry's sorted-by-key order
        samples = parse_prometheus(to_prometheus(small_registry()))
        assert samples['repro_msgs_sent{dst="b",src="a"}'] == 3.0
        assert samples['repro_msgs_sent{dst="a",src="b"}'] == 1.0
        assert samples['repro_queue_depth{proc="merge"}'] == 7.0

    def test_histogram_becomes_summary_family(self):
        samples = parse_prometheus(to_prometheus(small_registry()))
        assert samples['repro_latency_sum{proc="merge"}'] == 10.0
        assert samples['repro_latency_count{proc="merge"}'] == 4.0
        assert samples['repro_latency{proc="merge",quantile="0.5"}'] == 2.5

    def test_namespace_override_and_empty(self):
        registry = MetricsRegistry()
        registry.counter("ops").inc()
        assert "myapp_ops 1.0" in to_prometheus(registry, namespace="myapp")
        assert to_prometheus(registry, namespace="").startswith("# TYPE ops ")

    def test_invalid_name_characters_sanitised(self):
        registry = MetricsRegistry()
        registry.counter("cache.hit-rate").inc()
        text = to_prometheus(registry)
        assert "repro_cache_hit_rate 1.0" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("ops", node='sel["x"]').inc()
        text = to_prometheus(registry)
        assert 'node="sel[\\"x\\"]"' in text
        assert parse_prometheus(text)  # still one parseable sample

    def test_empty_registry_exports_empty(self):
        assert to_prometheus(MetricsRegistry()) == ""
        assert parse_prometheus("") == {}

    def test_every_instrument_appears(self, finished_system):
        registry = finished_system.sim.metrics
        samples = parse_prometheus(to_prometheus(registry))
        # each counter/gauge exports 1 sample, each histogram 5
        # (3 quantiles + _sum + _count)
        expected = sum(
            5 if metric.summary()["type"] == "histogram" else 1
            for metric in registry
        )
        assert len(samples) == expected


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


class TestWriteMetrics:
    def test_prom_extension(self, tmp_path):
        path = write_metrics(small_registry(), tmp_path / "m.prom")
        assert parse_prometheus(path.read_text())

    def test_txt_extension(self, tmp_path):
        path = write_metrics(small_registry(), tmp_path / "m.txt")
        assert "# TYPE" in path.read_text()

    def test_unknown_extension_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown metrics format"):
            write_metrics(small_registry(), tmp_path / "m.csv")
