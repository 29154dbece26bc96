"""The artifact store: durability primitives the warm-restart path trusts.

Every guarantee the recovery machinery leans on is pinned here at the
store level: writes are atomic (a reader never sees a torn artifact),
reads are integrity-verified (corruption raises, it never silently
returns garbage), GC respects pins, and artifact keys are pure functions
of their material — stable across processes and hash seeds.
"""

import dataclasses
import pickle
import subprocess
import sys
import threading

import pytest

from repro.cache.keys import artifact_key, canon_bytes, relation_digest
from repro.cache.store import ArtifactStore, CacheConfig
from repro.errors import CacheError, CacheIntegrityError, CacheMiss


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


KEY = artifact_key("test", {"name": "round-trip"})


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        payload = pickle.dumps({"rows": [(1, 2), (3, 4)], "count": 2})
        store.put(KEY, payload)
        assert store.get(KEY) == payload
        assert store.has(KEY)
        assert store.keys() == [KEY]

    def test_get_missing_raises_cache_miss(self, store):
        with pytest.raises(CacheMiss):
            store.get(artifact_key("test", {"name": "never-written"}))
        assert store.misses == 1

    def test_put_overwrites_idempotently(self, store):
        store.put(KEY, b"first")
        store.put(KEY, b"second")
        assert store.get(KEY) == b"second"
        assert store.stats()["artifacts"] == 1

    def test_non_bytes_payload_rejected(self, store):
        with pytest.raises(CacheError, match="bytes"):
            store.put(KEY, {"not": "bytes"})

    def test_malformed_keys_rejected(self, store):
        for bad in ("", "../escape", ".hidden"):
            with pytest.raises(CacheError, match="malformed"):
                store.put(bad, b"payload")

    def test_refs_point_at_keys(self, store):
        store.put(KEY, b"payload")
        store.set_ref("default/view/V1", KEY)
        assert store.ref("default/view/V1") == KEY
        assert store.ref("default/view/V9") is None
        assert store.refs() == {"default/view/V1": KEY}


class TestCorruptionDetection:
    def _corrupt(self, store, key, offset=-1):
        path = store._object_path(key)
        raw = bytearray(path.read_bytes())
        raw[offset] ^= 0xFF  # flip one byte
        path.write_bytes(bytes(raw))

    def test_flipped_payload_byte_raises(self, store):
        store.put(KEY, pickle.dumps(list(range(100))))
        self._corrupt(store, KEY)
        with pytest.raises(CacheIntegrityError, match="digest"):
            store.get(KEY)
        assert store.integrity_failures == 1

    def test_flipped_header_byte_raises(self, store):
        store.put(KEY, b"payload-bytes")
        self._corrupt(store, KEY, offset=0)
        with pytest.raises(CacheIntegrityError):
            store.get(KEY)

    def test_truncated_artifact_raises(self, store):
        store.put(KEY, b"payload-bytes")
        path = store._object_path(KEY)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CacheIntegrityError):
            store.get(KEY)

    def test_intact_sibling_unaffected(self, store):
        other = artifact_key("test", {"name": "sibling"})
        store.put(KEY, b"doomed")
        store.put(other, b"fine")
        self._corrupt(store, KEY)
        with pytest.raises(CacheIntegrityError):
            store.get(KEY)
        assert store.get(other) == b"fine"


class TestConcurrentWriters:
    def test_racing_writers_never_produce_a_torn_artifact(self, store):
        """N threads hammer the same key; every read sees one writer's
        complete payload, never an interleaving."""
        payloads = [bytes([i]) * 4096 for i in range(8)]
        errors = []

        def write(payload):
            try:
                for _ in range(20):
                    store.put(KEY, payload)
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [
            threading.Thread(target=write, args=(p,)) for p in payloads
        ]
        for t in threads:
            t.start()
        seen = set()
        for _ in range(50):
            try:
                seen.add(store.get(KEY))
            except CacheMiss:
                pass
        for t in threads:
            t.join()
        assert errors == []
        assert seen <= set(payloads)  # only complete payloads, ever
        assert store.get(KEY) in payloads

    def test_distinct_keys_from_many_threads_all_land(self, store):
        keys = [artifact_key("test", {"writer": i}) for i in range(16)]

        def write(key, i):
            store.put(key, b"%d" % i)

        threads = [
            threading.Thread(target=write, args=(k, i))
            for i, k in enumerate(keys)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert store.keys() == sorted(keys)
        for i, key in enumerate(keys):
            assert store.get(key) == b"%d" % i


class TestGarbageCollection:
    def test_gc_is_noop_without_caps(self, store):
        store.put(KEY, b"payload")
        report = store.gc()
        assert report["evicted"] == 0
        assert store.has(KEY)

    def test_lru_eviction_keeps_recently_read(self, store, tmp_path):
        import os

        keys = [artifact_key("test", {"n": i}) for i in range(5)]
        for age, key in enumerate(keys):
            store.put(key, b"x" * 10)
            # Deterministic mtimes: keys[0] oldest ... keys[4] newest.
            os.utime(store._object_path(key), (1000 + age, 1000 + age))
        report = store.gc(max_artifacts=2)
        assert report["evicted"] == 3
        assert store.has(keys[3]) and store.has(keys[4])
        assert not any(store.has(k) for k in keys[:3])

    def test_gc_never_evicts_pinned(self, store):
        import os

        pinned_key = artifact_key("test", {"pinned": True})
        store.put(pinned_key, b"precious", pin=True)
        os.utime(store._object_path(pinned_key), (500, 500))  # oldest
        victims = [artifact_key("test", {"n": i}) for i in range(4)]
        for age, key in enumerate(victims):
            store.put(key, b"x")
            os.utime(store._object_path(key), (1000 + age, 1000 + age))
        report = store.gc(max_artifacts=1)
        assert store.has(pinned_key)
        assert store.get(pinned_key) == b"precious"
        assert report["evicted"] >= 3
        store.unpin(pinned_key)
        store.gc(max_artifacts=0)
        assert not store.has(pinned_key)

    def test_configured_caps_are_the_default(self, tmp_path):
        store = ArtifactStore(tmp_path, max_artifacts=2)
        for i in range(5):
            store.put(artifact_key("test", {"n": i}), b"x")
        report = store.gc()
        assert report["artifacts"] == 2


class TestKeyStability:
    """Keys must be pure functions of their material — same material,
    same key, in any process, under any PYTHONHASHSEED."""

    MATERIAL = {
        "view": "V1",
        "expr": "project(join(R, S on B), A, C)",
        "vv": {"R": "aa" * 16, "S": "bb" * 16},
        "engine": "columnar",
        "weights": (1, 2.5, None, True),
    }

    def _subprocess_key(self, hash_seed):
        script = (
            "from repro.cache.keys import artifact_key\n"
            f"print(artifact_key('test', {self.MATERIAL!r}))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": "src", "PYTHONHASHSEED": str(hash_seed)},
            cwd="/root/repo",
        )
        return out.stdout.strip()

    def test_key_stable_across_processes_and_hash_seeds(self):
        local = artifact_key("test", self.MATERIAL)
        assert self._subprocess_key(0) == local
        assert self._subprocess_key(424242) == local

    def test_key_ordering_insensitive_to_dict_order(self):
        a = artifact_key("test", {"x": 1, "y": 2})
        b = artifact_key("test", {"y": 2, "x": 1})
        assert a == b

    def test_kind_partitions_the_key_space(self):
        assert artifact_key("seed", {"x": 1}) != artifact_key("ckpt", {"x": 1})

    def test_canon_rejects_unencodable_types(self):
        with pytest.raises(CacheError):
            canon_bytes({"bad": object()})

    def test_relation_digest_is_content_addressed(self):
        layout = ("A", "B")
        assert relation_digest(layout, {(1, 2): 1, (3, 4): 2}) == (
            relation_digest(layout, {(3, 4): 2, (1, 2): 1})
        )
        assert relation_digest(layout, {(1, 2): 1}) != (
            relation_digest(layout, {(1, 2): 2})
        )

    def test_encoding_and_digest_are_pinned(self):
        # Artifact addresses are built from these bytes: a change to them
        # orphans every stored artifact, so it must come with KEY_FORMAT.
        value = (1, True, -2, 2.5, "é", None, b"y", (3, "x"), [0], {"k": 1})
        assert canon_bytes(value) == (
            b"(i:1,b:1,i:-2,f:2.5,s:\xc3\xa9,n,y:y,(i:3,s:x,),(i:0,),{s:k=i:1;},)"
        )
        counts = {(1, "x", 2.5): 2, (True, None, -7): 1, (0, "", 1.0): 3}
        assert relation_digest(("A", "B", "C"), counts) == (
            "675cefce3fd71155e5631b3d13c87074"
        )
        ints = {(1, 2): 1, (10, -3): 2, (2**70, 0): 1}  # a row of ints only
        assert relation_digest(("A", "B"), ints) == "ccdea10673427e1c37f965bc94537e99"


class TestCacheConfig:
    def test_validation(self):
        with pytest.raises(CacheError):
            CacheConfig(max_bytes=0)
        with pytest.raises(CacheError):
            CacheConfig(max_artifacts=-1)
        with pytest.raises(CacheError):
            CacheConfig(namespace="")

    def test_defaults(self):
        cfg = CacheConfig()
        assert cfg.root is None
        assert len(dataclasses.fields(cfg)) == 5  # no actor knob: the store is a directory
        assert cfg.stale_refs is False
