"""Cache counters in the metrics registry: one set of numbers everywhere.

``repro cache stats`` reads the store's attribute counters; the metric
exporters read the registry.  ``bind_registry`` keeps the two in exact
agreement — every store-level increment mirrors into a
``cache_store_<stat>`` counter, and late binding catches up.
"""

from __future__ import annotations

import pytest

from repro.cache.keys import artifact_key
from repro.cache.store import ArtifactStore, CacheConfig
from repro.errors import CacheIntegrityError, CacheMiss
from repro.obs.registry import MetricsRegistry
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import (
    UpdateStreamGenerator,
    WorkloadSpec,
    post_stream,
)
from repro.workloads.schemas import paper_views_example2, paper_world

STATS = ("puts", "hits", "misses", "integrity_failures", "evictions")


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def registry_stats(registry: MetricsRegistry, **labels) -> dict[str, float]:
    return {
        stat: registry.value(f"cache_store_{stat}", **labels)
        for stat in STATS
    }


def store_stats(store: ArtifactStore) -> dict[str, float]:
    return {stat: float(getattr(store, stat)) for stat in STATS}


class TestBindRegistry:
    def test_increments_mirror(self, store):
        registry = MetricsRegistry()
        store.bind_registry(registry, store="system")
        key = artifact_key("test", {"name": "mirrored"})
        store.put(key, b"payload")
        store.get(key)
        with pytest.raises(CacheMiss):
            store.get(artifact_key("test", {"name": "absent"}))
        assert registry_stats(registry, store="system") == store_stats(store)

    def test_integrity_failure_mirrors(self, store):
        registry = MetricsRegistry()
        store.bind_registry(registry)
        key = artifact_key("test", {"name": "corrupt"})
        store.put(key, b"payload")
        path = store._object_path(key)
        path.write_bytes(path.read_bytes()[:-3] + b"zzz")
        with pytest.raises(CacheIntegrityError):
            store.get(key)
        assert registry.value("cache_store_integrity_failures") == 1.0

    def test_evictions_mirror(self, store):
        registry = MetricsRegistry()
        store.bind_registry(registry)
        for index in range(4):
            store.put(artifact_key("test", {"n": index}), b"x" * 64)
        store.gc(max_artifacts=1)
        assert store.evictions == 3
        assert registry.value("cache_store_evictions") == 3.0

    def test_late_bind_catches_up(self, store):
        key = artifact_key("test", {"name": "early"})
        store.put(key, b"payload")
        store.get(key)
        registry = MetricsRegistry()
        store.bind_registry(registry)
        assert registry.value("cache_store_puts") == 1.0
        assert registry.value("cache_store_hits") == 1.0
        # and stays exact afterwards
        store.get(key)
        assert registry.value("cache_store_hits") == 2.0

    def test_rebind_does_not_double_count(self, store):
        registry = MetricsRegistry()
        store.bind_registry(registry)
        store.put(artifact_key("test", {"name": "once"}), b"payload")
        store.bind_registry(registry)
        assert registry.value("cache_store_puts") == 1.0

    def test_unbound_store_keeps_no_registry(self, store):
        key = artifact_key("test", {"name": "plain"})
        store.put(key, b"payload")  # must not raise
        assert store.puts == 1


class TestSystemIntegration:
    @pytest.fixture(scope="class")
    def cached_system(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("cache-metrics")
        world = paper_world()
        spec = WorkloadSpec(updates=25, rate=4.0, seed=21,
                            mix=(0.6, 0.2, 0.2))
        system = WarehouseSystem(
            world, paper_views_example2(),
            SystemConfig(seed=21, cache=CacheConfig(root=str(root))),
        )
        post_stream(system,
                    UpdateStreamGenerator(world, spec).transactions())
        system.run()
        return system

    def test_store_is_bound_at_build(self, cached_system):
        registry = cached_system.sim.metrics
        assert (registry_stats(registry, store="system")
                == store_stats(cached_system.cache_store))
        assert cached_system.cache_store.puts > 0

    def test_cache_is_a_directory_not_an_actor(self, cached_system):
        """A cached system has the processes and channels of an uncached
        one: restores read the store directly, nothing is served."""
        plain = WarehouseSystem(
            paper_world(), paper_views_example2(), SystemConfig(seed=21)
        )
        assert plain.cache_store is None
        assert set(cached_system.processes) == set(plain.processes)
        for name, process in plain.processes.items():
            assert set(cached_system.processes[name].peers()) == set(process.peers())
