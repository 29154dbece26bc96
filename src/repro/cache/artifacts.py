"""The store ↔ process bindings.

This module is the glue between the plain byte store
(:mod:`repro.cache.store`) and the live processes that publish and
restore state:

* :class:`SystemCacheBinding` — one per system: owns the store handle,
  the namespace, the stale-ref fault knob, and a memo of initial
  base-relation digests (every replica of the same filtered relation
  starts from the same digest — computing it once per system keeps cold
  seeding O(base state), not O(views × base state)).
* :class:`ViewCacheBinding` — one per cached-mode view manager: the
  *seed* artifact (view contents + plan auxiliary state, keyed purely by
  definition/engine/initial state — shareable across runs and fleets).
* :class:`CheckpointBinding` — one per checkpointing process, view
  manager and merge alike: publishes the process's checkpoint record
  (:class:`~repro.viewmgr.base.ViewCheckpoint`,
  :class:`~repro.merge.process.MergeCheckpoint`) keyed by the digest of
  its bytes, moves the process's ref to it, and resolves the ref on
  restart.

Payloads hold *plain data* (value tuples + counts) — never live
``Relation``/``Database`` objects.  Measured on this codebase, unpickling
a full object graph is nearly as slow as recomputing it; shipping
value-level counts and rebuilding cheap wrappers is what makes warm
restart actually fast.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import TYPE_CHECKING

from repro.cache.keys import artifact_key, relation_digest
from repro.cache.store import ArtifactStore, CacheConfig
from repro.errors import CacheIntegrityError, CacheMiss
from repro.relational.relation import Relation
from repro.viewmgr.base import decode_relation, encode_relation

if TYPE_CHECKING:  # pragma: no cover
    from repro.viewmgr.base import ViewManager

#: payload layout version — bump on any incompatible payload change.
PAYLOAD_FORMAT = 1

#: the ``"engine"`` field of key material and child payloads: the id of the
#: plan node family whose auxiliary state an artifact holds.  There is one
#: family; the field stays so content addresses are what they always were.
ENGINE = "columnar"


def _load(raw: bytes) -> object | None:
    """Unpickle a verified payload; None when this code cannot load it
    (written by other code: a missing class, another record layout)."""
    try:
        return pickle.loads(raw)
    except (pickle.UnpicklingError, AttributeError, EOFError, ImportError,
            LookupError, TypeError, ValueError):
        return None


class SystemCacheBinding:
    """Per-system cache plumbing shared by every view/merge binding."""

    def __init__(self, store: ArtifactStore, config: CacheConfig) -> None:
        self.store = store
        self.config = config
        self.namespace = config.namespace
        self._initial_digests: dict[tuple[str, str], str] = {}

    def initial_digest(
        self, relation: str, filter_repr: str, layout: tuple[str, ...], counts
    ) -> str:
        """Digest of a (possibly filtered) initial base relation, memoized.

        ``counts`` (value tuples of ``layout``) is only consulted on the
        first call per ``(relation, filter_repr)`` — replicas seeded from
        the same initial snapshot through the same filter are identical,
        so the digest is too.
        """
        memo_key = (relation, filter_repr)
        digest = self._initial_digests.get(memo_key)
        if digest is None:
            digest = relation_digest(layout, counts)
            self._initial_digests[memo_key] = digest
        return digest

    def for_view(self, view: str) -> "ViewCacheBinding":
        return ViewCacheBinding(self, view)

    def view_checkpoints(self, view: str) -> "CheckpointBinding":
        return CheckpointBinding(
            self, "view-checkpoint", view, f"{self.namespace}/vm/{view}"
        )

    def merge_checkpoints(self, name: str) -> "CheckpointBinding":
        return CheckpointBinding(
            self, "merge-checkpoint", name, f"{self.namespace}/merge/{name}"
        )


class CheckpointBinding:
    """One process's checkpoints: publish a record, resolve the newest.

    A checkpoint is keyed by its own bytes, ``artifact_key(kind, {format,
    name, payload digest})``, and found again only through the process's
    ref.  With ``stale_refs`` on, every ref update lags one publish
    behind — modelling a checkpoint whose payload landed but whose ref
    write was lost.  The artifact a restart then resolves is *internally
    valid* (digest verifies) but semantically stale; only the consistency
    oracle can catch that, which is exactly what the negative conformance
    rows assert.
    """

    def __init__(
        self, system: SystemCacheBinding, kind: str, name: str, ref: str
    ) -> None:
        self._store = system.store
        self._stale_refs = system.config.stale_refs
        self._kind = kind
        self._name = name
        self._ref = ref
        self._previous_key: str | None = None

    def publish(self, record: object) -> str:
        """Pickle ``record``, store it under its key and move the ref."""
        payload = pickle.dumps(record)
        key = artifact_key(self._kind, {
            "format": PAYLOAD_FORMAT,
            "name": self._name,
            "digest": hashlib.blake2b(payload, digest_size=16).hexdigest(),
        })
        self._store.put(key, payload)
        if self._stale_refs:
            if self._previous_key is not None:
                self._store.set_ref(self._ref, self._previous_key)
            self._previous_key = key
        else:
            self._store.set_ref(self._ref, key)
        return key

    def resolve(self, cls: type) -> object | None:
        """The record the ref points at, if it is a ``cls``; else None —
        a dangling ref, a miss, corruption, a payload this code cannot
        load or a record of another class, so the caller falls back."""
        key = self._store.ref(self._ref)
        if key is None:
            return None
        try:
            record = _load(self._store.get(key))
        except (CacheMiss, CacheIntegrityError):
            return None
        return record if isinstance(record, cls) else None


class ViewCacheBinding:
    """Seed artifacts for one cached-mode view manager."""

    def __init__(self, system: SystemCacheBinding, view: str) -> None:
        self.system = system
        self.store = system.store
        self.view = view
        self._view_schema = None
        self._seed_key: str | None = None
        self._seed_payload: dict | None = None
        self.seed_hits = 0

    def on_seeded(self, vm: "ViewManager") -> None:
        """Fix the key material and look up a seed artifact.

        Called from :meth:`ViewManager.seed_replica` once the replica is
        built but *before* the maintenance plan compiles, so a seed hit
        can preload the plan's auxiliary state (skipping the expensive
        compile-time evaluation, which dominates cold-start cost).
        """
        filters = {
            name: str(predicate)
            for name, predicate in sorted(vm._replica_filters.items())
        }
        replica = vm._replica
        initial = {
            name: self.system.initial_digest(
                name,
                filters.get(name, ""),
                vm.base_schemas[name].layout,
                replica.relation(name).columnar().counts_view(),
            )
            for name in sorted(vm.definition.base_relations())
        }
        self._view_schema = vm.definition.expression.infer_schema(vm.base_schemas)
        self._seed_key = artifact_key("view-seed", {
            "format": PAYLOAD_FORMAT,
            "view": self.view,
            "expr": str(vm.definition.expression),
            "engine": ENGINE,
            "filters": filters,
            "vv": initial,
        })
        self._seed_payload = None
        try:
            payload = _load(self.store.get(self._seed_key))
            if isinstance(payload, dict) and payload.get("format") == PAYLOAD_FORMAT:
                self._seed_payload = payload
                self.seed_hits += 1
        except (CacheMiss, CacheIntegrityError):
            pass

    def seed_aux(self) -> dict | None:
        """Plan auxiliary state from the seed artifact (None on miss)."""
        if self._seed_payload is None:
            return None
        return self._seed_payload["aux"]

    def seed_contents(self) -> Relation | None:
        """Initial view contents from the seed artifact (None on miss)."""
        if self._seed_payload is None:
            return None
        return decode_relation(
            self._seed_payload["contents"], self._view_schema
        )

    def publish_seed(self, vm: "ViewManager", contents: Relation) -> None:
        """Publish the cold-start artifact so later runs seed warm."""
        aux = vm._plan.export_aux() if vm._plan is not None else {}
        payload = {
            "format": PAYLOAD_FORMAT,
            "kind": "seed",
            "view": self.view,
            "contents": encode_relation(contents),
            "aux": aux,
        }
        self.store.put(self._seed_key, pickle.dumps(payload))


__all__ = [
    "PAYLOAD_FORMAT",
    "CheckpointBinding",
    "SystemCacheBinding",
    "ViewCacheBinding",
]
