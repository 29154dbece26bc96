"""Content-addressed materialization cache (warm restart).

The paper assumes a crashed view manager or merge process rebuilds its
state by replaying from the sources — the slow path at production scale.
This package closes that gap with a ybd-style content-addressed artifact
store:

* :mod:`repro.cache.keys` — every artifact is keyed by a
  ``blake2b`` digest over *what the state is*: the view definition AST,
  a base-state version vector (per-relation rolling content digests),
  and the plan engine id.  Equal keys mean equal state, across processes
  and across runs.
* :mod:`repro.cache.store` — the on-disk store: atomic
  write-then-rename publication, integrity-verified reads (a flipped
  byte raises, never silently corrupts a restore), named refs
  (git-style ``name -> key`` pointers for "latest checkpoint"), pins,
  and LRU/size-capped garbage collection.
* :mod:`repro.cache.artifacts` — the serialization layer and the
  bindings that hook the store into view managers (seed artifacts +
  per-message crash checkpoints) and merge processes (durable
  :class:`~repro.merge.process.MergeCheckpoint` s).

Wire it through ``SystemConfig(cache=CacheConfig(...))``; recovery falls
back to the PR-1 replay path on any miss or digest mismatch.  See
``docs/caching.md`` for the key derivation and invalidation rules.
"""

from repro.cache.keys import (
    advance_digest,
    artifact_key,
    canon_bytes,
    relation_digest,
)
from repro.cache.store import ArtifactStore, CacheConfig

__all__ = [
    "ArtifactStore",
    "CacheConfig",
    "advance_digest",
    "artifact_key",
    "canon_bytes",
    "relation_digest",
]
