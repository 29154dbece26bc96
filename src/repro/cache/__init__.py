"""Content-addressed materialization cache (warm restart).

The paper assumes a crashed view manager or merge process rebuilds its
state by replaying from the sources — the slow path at production scale.
This package closes that gap with a ybd-style content-addressed artifact
store:

* :mod:`repro.cache.keys` — every artifact is keyed by a ``blake2b``
  digest over plain data: a seed by the view definition AST, the
  initial base-relation digests and the plan engine id; a checkpoint by
  the process name and the digest of its own bytes.  Equal keys mean
  equal state, across processes and across runs.
* :mod:`repro.cache.store` — the on-disk store: atomic
  write-then-rename publication, integrity-verified reads (a flipped
  byte raises, never silently corrupts a restore), named refs
  (git-style ``name -> key`` pointers for "latest checkpoint"), pins,
  and LRU/size-capped garbage collection.
* :mod:`repro.cache.artifacts` — the bindings that hook the store into
  the processes: seed artifacts for view managers, and one checkpoint
  binding that publishes and resolves a process's checkpoint record
  (a :class:`~repro.viewmgr.base.ViewCheckpoint` or a
  :class:`~repro.merge.process.MergeCheckpoint`).

Wire it through ``SystemConfig(cache=CacheConfig(...))``; recovery falls
back to the PR-1 replay path on any miss or digest mismatch.  See
``docs/caching.md`` for the key derivation and invalidation rules.
"""

from repro.cache.keys import artifact_key, canon_bytes, relation_digest
from repro.cache.store import ArtifactStore, CacheConfig

__all__ = [
    "ArtifactStore",
    "CacheConfig",
    "artifact_key",
    "canon_bytes",
    "relation_digest",
]
