"""Bounded (reservoir) histograms: exactness, memory bound, determinism."""

from __future__ import annotations

import pytest

from repro.obs.registry import Histogram, MetricsRegistry


def filled(bound: int | None, n: int = 1000) -> Histogram:
    histogram = Histogram("h", (), bound=bound)
    for value in range(n):
        histogram.observe(float(value))
    return histogram


class TestExactModeUnchanged:
    def test_default_is_exact(self):
        histogram = MetricsRegistry().histogram("h")
        assert histogram.bound is None
        for value in range(100):
            histogram.observe(float(value))
        assert len(histogram.values()) == 100

    def test_exact_summary_has_no_bound_key(self):
        histogram = Histogram("h", ())
        histogram.observe(2.0)
        assert histogram.summary() == {
            "type": "histogram",
            "count": 1,
            "total": 2.0,
            "mean": 2.0,
            "p50": 2.0,
            "p95": 2.0,
            "max": 2.0,
        }


class TestBoundedMode:
    def test_scalars_stay_exact(self):
        histogram = filled(bound=16)
        assert histogram.count == 1000
        assert histogram.total == sum(range(1000))
        assert histogram.mean == pytest.approx(499.5)
        assert histogram.max == 999.0

    def test_reservoir_size_respected(self):
        assert len(filled(bound=16).values()) == 16
        assert len(filled(bound=16, n=10).values()) == 10

    def test_summary_carries_bound(self):
        assert filled(bound=16).summary()["bound"] == 16

    def test_quantiles_from_reservoir_are_plausible(self):
        histogram = filled(bound=128, n=10_000)
        # Algorithm R keeps a uniform sample: the median of 0..9999
        # should land well inside the middle half
        assert 2_500 < histogram.quantile(0.5) < 7_500

    def test_reservoir_is_deterministic(self):
        # RNG seeded from the instrument identity: same key + same
        # observation sequence => same retained samples, across runs
        # and across processes
        assert filled(bound=16).values() == filled(bound=16).values()

    def test_different_identities_sample_differently(self):
        first = Histogram("a", (), bound=16)
        second = Histogram("b", (), bound=16)
        for value in range(1000):
            first.observe(float(value))
            second.observe(float(value))
        assert first.values() != second.values()

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError, match="bound"):
            Histogram("h", (), bound=0)
