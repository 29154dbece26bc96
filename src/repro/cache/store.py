"""The on-disk content-addressed artifact store.

Layout (all paths under one ``root`` directory)::

    objects/<k[:2]>/<key>   one file per artifact: a one-line header
                            carrying the payload's blake2b digest and
                            length, then the raw payload bytes
    refs/<quoted-name>      named pointers (git-style): file content is
                            the key the name currently resolves to
    pins/<key>              pin markers: GC never evicts a pinned key
    tmp/                    staging area for atomic write-then-rename

Durability discipline (ybd/kbas style):

* **put** writes header+payload to a temp file and ``os.replace`` s it
  into place — readers never observe a half-written artifact, and
  concurrent writers of the same key race benignly (last rename wins,
  both wrote identical content for a content-addressed key).
* **get** re-hashes the payload and compares it to the stored digest; a
  mismatch raises :class:`~repro.errors.CacheIntegrityError` so a
  corrupted artifact can never be restored from — callers fall back to
  replay.
* **gc** evicts least-recently-used artifacts (``get`` touches mtime)
  until the store fits the configured byte/count caps, skipping pinned
  keys.  Refs may dangle after an eviction; a dangling ref behaves
  exactly like a miss.

The store is safe to share between threads (one lock around compound
operations) and between processes on one filesystem (atomicity comes
from ``os.replace``; pins are marker files, visible across processes).
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import threading
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from repro.errors import CacheError, CacheIntegrityError, CacheMiss

_MAGIC = b"repro-artifact"
_VERSION = 1
#: the store's stat attributes, published as ``cache_store_<stat>``
_STATS = ("puts", "hits", "misses", "integrity_failures", "evictions")


@dataclass(frozen=True)
class CacheConfig:
    """The ``SystemConfig(cache=...)`` knob: where and how to cache.

    ``root=None`` gives the system a private temporary store, removed by
    :meth:`~repro.system.builder.WarehouseSystem.close` — set an explicit
    path to share artifacts across systems (warm restart).
    ``stale_refs`` is a fault-injection knob for the conformance suite:
    ref updates lag one publish behind, modelling a lost ref write — the
    artifact a restart then finds is *valid but stale*, which the oracle
    must catch.
    """

    root: str | None = None
    max_bytes: int | None = None
    max_artifacts: int | None = None
    namespace: str = "default"
    stale_refs: bool = False

    def __post_init__(self) -> None:
        if self.max_bytes is not None and self.max_bytes <= 0:
            raise CacheError(f"max_bytes must be > 0, got {self.max_bytes}")
        if self.max_artifacts is not None and self.max_artifacts <= 0:
            raise CacheError(
                f"max_artifacts must be > 0, got {self.max_artifacts}"
            )
        if not self.namespace:
            raise CacheError("namespace must be non-empty")


def _payload_digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


class ArtifactStore:
    """A content-addressed key → payload store with refs, pins and GC."""

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int | None = None,
        max_artifacts: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.max_artifacts = max_artifacts
        self._objects = self.root / "objects"
        self._refs = self.root / "refs"
        self._pins = self.root / "pins"
        self._tmp = self.root / "tmp"
        for directory in (self._objects, self._refs, self._pins, self._tmp):
            directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.puts = 0
        self.hits = 0
        self.misses = 0
        self.integrity_failures = 0
        self.evictions = 0

    def bind_registry(self, registry, **labels) -> None:
        """Publish the stat counters into a :class:`MetricsRegistry`.

        The attribute counters stay the source of truth (``stats()`` and
        ``repro cache stats`` read them); ``registry`` publishes their
        totals as ``cache_store_<stat>`` whenever it is read, so
        exporters report the same numbers, and a late bind never
        under-reports.
        """
        counters = [(stat, registry.counter(f"cache_store_{stat}", **labels))
                    for stat in _STATS]

        def publish() -> None:
            for stat, counter in counters:
                counter.advance_to(getattr(self, stat))

        registry.on_read(publish)

    # -- object paths -------------------------------------------------------
    def _object_path(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise CacheError(f"malformed artifact key {key!r}")
        return self._objects / key[:2] / key

    def _atomic_write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=self._tmp, prefix="put-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # -- artifacts ----------------------------------------------------------
    def put(self, key: str, payload: bytes, pin: bool = False) -> str:
        """Publish ``payload`` under ``key`` (atomic write-then-rename)."""
        if not isinstance(payload, bytes):
            raise CacheError(
                f"payload must be bytes, got {type(payload).__name__}"
            )
        header = b"%s %d %s %d\n" % (
            _MAGIC,
            _VERSION,
            _payload_digest(payload).encode("ascii"),
            len(payload),
        )
        if pin:
            self.pin(key)
        self._atomic_write(self._object_path(key), header + payload)
        with self._lock:
            self.puts += 1
        return key

    def get(self, key: str) -> bytes:
        """Integrity-verified read: miss and corruption both raise."""
        path = self._object_path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            with self._lock:
                self.misses += 1
            raise CacheMiss(f"no artifact {key!r} in {self.root}") from None
        newline = raw.find(b"\n")
        header = raw[:newline].split(b" ") if newline >= 0 else []
        payload = raw[newline + 1 :]
        ok = (
            len(header) == 4
            and header[0] == _MAGIC
            and header[1] == b"%d" % _VERSION
            and header[3] == b"%d" % len(payload)
            and header[2].decode("ascii", "replace")
            == _payload_digest(payload)
        )
        if not ok:
            with self._lock:
                self.integrity_failures += 1
            raise CacheIntegrityError(
                f"artifact {key!r} failed digest verification "
                f"(corrupt or truncated)"
            )
        try:
            os.utime(path)  # LRU recency for gc()
        except OSError:
            pass
        with self._lock:
            self.hits += 1
        return payload

    def has(self, key: str) -> bool:
        return self._object_path(key).exists()

    def keys(self) -> list[str]:
        return sorted(
            p.name for p in self._objects.glob("*/*") if p.is_file()
        )

    # -- refs ---------------------------------------------------------------
    def _ref_path(self, name: str) -> Path:
        return self._refs / urllib.parse.quote(name, safe="")

    def set_ref(self, name: str, key: str) -> None:
        """Point ``name`` at ``key`` (atomic, last writer wins)."""
        self._object_path(key)  # validate the key shape
        self._atomic_write(self._ref_path(name), key.encode("ascii"))

    def ref(self, name: str) -> str | None:
        try:
            return self._ref_path(name).read_text("ascii").strip() or None
        except FileNotFoundError:
            return None

    def refs(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for path in sorted(self._refs.iterdir()):
            if path.is_file():
                name = urllib.parse.unquote(path.name)
                out[name] = path.read_text("ascii").strip()
        return out

    # -- pins ---------------------------------------------------------------
    def pin(self, key: str) -> None:
        """Protect ``key`` from GC (e.g. while a restore is in flight)."""
        self._object_path(key)  # validate
        (self._pins / key).touch()

    def unpin(self, key: str) -> None:
        try:
            (self._pins / key).unlink()
        except FileNotFoundError:
            pass

    def pinned(self) -> set[str]:
        return {p.name for p in self._pins.iterdir() if p.is_file()}

    # -- gc -----------------------------------------------------------------
    def gc(
        self,
        max_bytes: int | None = None,
        max_artifacts: int | None = None,
    ) -> dict[str, int]:
        """Evict least-recently-used artifacts down to the caps.

        Explicit arguments override the store's configured caps; with no
        cap at all this is a no-op.  Pinned keys are never evicted, even
        if that leaves the store above its caps.
        """
        max_bytes = max_bytes if max_bytes is not None else self.max_bytes
        max_artifacts = (
            max_artifacts if max_artifacts is not None else self.max_artifacts
        )
        with self._lock:
            entries = []  # (mtime, size, key, path)
            for path in self._objects.glob("*/*"):
                try:
                    stat = path.stat()
                except FileNotFoundError:
                    continue  # concurrently evicted
                entries.append((stat.st_mtime, stat.st_size, path.name, path))
            entries.sort()
            pinned = self.pinned()
            total_bytes = sum(size for _, size, _, _ in entries)
            total_count = len(entries)
            evicted = 0
            freed = 0
            for mtime, size, key, path in entries:
                over_bytes = max_bytes is not None and total_bytes > max_bytes
                over_count = (
                    max_artifacts is not None and total_count > max_artifacts
                )
                if not (over_bytes or over_count):
                    break
                if key in pinned:
                    continue
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                total_bytes -= size
                total_count -= 1
                evicted += 1
                freed += size
            self.evictions += evicted
            return {
                "evicted": evicted,
                "freed_bytes": freed,
                "artifacts": total_count,
                "bytes": total_bytes,
            }

    # -- inspection ---------------------------------------------------------
    def stats(self) -> dict[str, int]:
        sizes = [
            p.stat().st_size
            for p in self._objects.glob("*/*")
            if p.is_file()
        ]
        return {
            "artifacts": len(sizes),
            "bytes": sum(sizes),
            "refs": len(self.refs()),
            "pinned": len(self.pinned()),
            **{stat: getattr(self, stat) for stat in _STATS},
        }

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"


__all__ = ["ArtifactStore", "CacheConfig"]
