"""Artifact serialization and the store ↔ process bindings.

This module is the glue between the plain byte store
(:mod:`repro.cache.store`) and the live processes that publish and
restore state:

* :class:`SystemCacheBinding` — one per system: owns the store handle,
  the namespace, the stale-ref fault knob, and a memo of initial
  base-relation digests (every replica of the same filtered relation
  starts from the same digest — computing it once per system keeps cold
  seeding O(base state), not O(views × base state)).
* :class:`ViewCacheBinding` — one per cached-mode view manager.  Tracks
  the manager's **version vector** (one rolling content digest per base
  relation, advanced per applied delta batch), publishes *seed*
  artifacts (view contents + plan auxiliary state, keyed purely by
  definition/engine/initial state — shareable across runs and fleets)
  and *checkpoint* artifacts (full durable manager state after every
  handled message), and restores a crashed manager from the newest
  checkpoint its ref points at.
* :class:`MergeCacheBinding` — publishes each
  :class:`~repro.merge.process.MergeCheckpoint` as an artifact and
  restores from the ref on restart.

Payloads are pickled dicts of *plain data* (value tuples + counts, via
the columnar facade helpers) — never live ``Relation``/``Database``
objects.  Measured on this codebase, unpickling a full object graph is
nearly as slow as recomputing it; shipping value-level counts and
rebuilding cheap wrappers is what makes warm restart actually fast.
"""

from __future__ import annotations

import pickle
from collections import deque
from typing import TYPE_CHECKING, Mapping

from repro.cache.keys import (
    KEY_FORMAT,
    advance_digest,
    artifact_key,
    relation_digest,
)
from repro.cache.store import ArtifactStore, CacheConfig
from repro.errors import CacheIntegrityError, CacheMiss
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.plan import MaintenancePlan
from repro.relational.relation import Relation

if TYPE_CHECKING:  # pragma: no cover
    from repro.merge.process import MergeCheckpoint
    from repro.viewmgr.base import ViewManager

#: payload layout version — bump on any incompatible payload change.
PAYLOAD_FORMAT = 1

#: the ``"engine"`` field of key material and child payloads: the id of the
#: plan node family whose auxiliary state an artifact holds.  There is one
#: family; the field stays so content addresses are what they always were.
ENGINE = "columnar"


def _encode_relation(relation: Relation) -> tuple:
    """(layout, {value-tuple: count}) — plain data, stable to pickle."""
    store = relation.columnar()
    return (store.layout, dict(store.counts_view()))


def _decode_relation(encoded: tuple, schema) -> Relation:
    layout, counts = encoded
    return Relation.from_tuple_counts(tuple(layout), counts, schema)


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

    def checkpoints_enabled(self, view: str) -> bool:
        allowed = self.config.checkpoint_views
        return allowed is None or view in allowed

    def for_view(self, view: str) -> "ViewCacheBinding":
        return ViewCacheBinding(self, view)

    def for_merge(self, name: str) -> "MergeCacheBinding":
        return MergeCacheBinding(self, name)


class _RefPublisher:
    """Shared ref-update discipline, including the stale-ref fault.

    With ``stale_refs`` on, every ref update lags one publish behind —
    modelling a checkpoint whose payload landed but whose ref write was
    lost.  The artifact a restart then resolves is *internally valid*
    (digest verifies) but semantically stale; only the consistency
    oracle can catch that, which is exactly what the negative
    conformance rows assert.
    """

    def __init__(self, system: SystemCacheBinding, ref_name: str) -> None:
        self._store = system.store
        self._stale_refs = system.config.stale_refs
        self._ref_name = ref_name
        self._previous_key: str | None = None

    def publish(self, key: str, payload: bytes) -> None:
        self._store.put(key, payload)
        if self._stale_refs:
            if self._previous_key is not None:
                self._store.set_ref(self._ref_name, self._previous_key)
            self._previous_key = key
        else:
            self._store.set_ref(self._ref_name, key)

    def resolve(self) -> bytes | None:
        """Ref → verified payload, or None on dangling/miss/corruption."""
        key = self._store.ref(self._ref_name)
        if key is None:
            return None
        try:
            return self._store.get(key)
        except (CacheMiss, CacheIntegrityError):
            return None


class ViewCacheBinding:
    """Cache hooks for one cached-mode view manager."""

    def __init__(self, system: SystemCacheBinding, view: str) -> None:
        self.system = system
        self.store = system.store
        self.view = view
        self.version_vector: dict[str, str] = {}
        self._layouts: dict[str, tuple[str, ...]] = {}
        self._filters_repr: dict[str, str] = {}
        self._expr_repr = ""
        self._view_layout: tuple[str, ...] = ()
        self._seed_key: str | None = None
        self._seed_payload: dict | None = None
        self._refs = _RefPublisher(
            system, f"{system.namespace}/vm/{view}"
        )
        self.seed_hits = 0
        self.publishes = 0

    # -- seeding -----------------------------------------------------------
    def on_seeded(self, vm: "ViewManager") -> None:
        """Fix the key material and look up a seed artifact.

        Called from :meth:`ViewManager.seed_replica` once the replica is
        built but *before* the maintenance plan compiles, so a seed hit
        can preload the plan's auxiliary state (skipping the expensive
        compile-time evaluation, which dominates cold-start cost).
        """
        self._expr_repr = str(vm.definition.expression)
        self._filters_repr = {
            name: str(predicate)
            for name, predicate in sorted(vm._replica_filters.items())
        }
        replica = vm._replica
        self.version_vector = {}
        self._layouts = {}
        for name in sorted(vm.definition.base_relations()):
            layout = vm.base_schemas[name].layout
            self._layouts[name] = layout
            self.version_vector[name] = self.system.initial_digest(
                name,
                self._filters_repr.get(name, ""),
                layout,
                replica.relation(name).columnar().counts_view(),
            )
        view_schema = vm.definition.expression.infer_schema(vm.base_schemas)
        self._view_layout = view_schema.layout
        self._view_schema = view_schema
        self._seed_key = artifact_key("view-seed", self._key_material())
        self._seed_payload = None
        try:
            payload = pickle.loads(self.store.get(self._seed_key))
            if payload.get("format") == PAYLOAD_FORMAT:
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
        return _decode_relation(
            self._seed_payload["contents"], self._view_schema
        )

    def publish_seed(self, vm: "ViewManager", contents: Relation) -> None:
        """Publish the cold-start artifact so later runs seed warm."""
        aux = vm._plan.export_aux() if vm._plan is not None else {}
        payload = {
            "format": PAYLOAD_FORMAT,
            "kind": "seed",
            "view": self.view,
            "contents": _encode_relation(contents),
            "aux": aux,
        }
        self.store.put(self._seed_key, pickle.dumps(payload))
        self.publishes += 1

    # -- version vector ----------------------------------------------------
    def advance(self, deltas: Mapping[str, Delta]) -> None:
        """Roll the version vector over one applied (filtered) batch."""
        for name, delta in deltas.items():
            if delta:  # an empty delta is the identity: digest unchanged
                self.version_vector[name] = advance_digest(
                    self.version_vector[name], delta.tuple_counts()
                )

    # -- checkpoints -------------------------------------------------------
    def _key_material(self, state: Mapping | None = None) -> dict:
        material = {
            "format": PAYLOAD_FORMAT,
            "view": self.view,
            "expr": self._expr_repr,
            "engine": ENGINE,
            "filters": dict(self._filters_repr),
            "vv": dict(self.version_vector),
        }
        if state is not None:
            material["state"] = dict(state)
        return material

    def on_handled(self, vm: "ViewManager") -> None:
        if self.system.checkpoints_enabled(self.view):
            self.publish_checkpoint(vm)

    def publish_checkpoint(self, vm: "ViewManager") -> None:
        """Durably publish the manager's full recoverable state.

        Runs in ``on_handled`` — after the message's effects, *before*
        the channel-level ack (``on_processed``) — so an acked update is
        always covered by some published checkpoint.
        """
        pending = vm._pending_emit
        state_fingerprint = {
            "buffer": tuple(m.update_id for m in vm._buffer),
            "batch": tuple(m.update_id for m in vm._current_batch),
            "pending": tuple(pending[0]) if pending is not None else None,
            "applied": vm._applied_version,
            "sent": vm.action_lists_sent,
        }
        key = artifact_key(
            "view-checkpoint", self._key_material(state_fingerprint)
        )
        replica = vm._replica
        payload = {
            "format": PAYLOAD_FORMAT,
            "kind": "checkpoint",
            "view": self.view,
            "vv": dict(self.version_vector),
            "replica": {
                name: _encode_relation(replica.relation(name))
                for name in sorted(self._layouts)
            },
            "aux": vm._plan.export_aux() if vm._plan is not None else {},
            "buffer": tuple(vm._buffer),
            "current_batch": tuple(vm._current_batch),
            "pending_emit": (
                None
                if pending is None
                else (
                    tuple(pending[0]),
                    (self._view_layout, dict(pending[1].tuple_counts())),
                )
            ),
            "computing": vm._computing,
            "applied_version": vm._applied_version,
            "action_lists_sent": vm.action_lists_sent,
            "updates_processed": vm.updates_processed,
            "extra": vm.extra_durable_state(),
        }
        self._refs.publish(key, pickle.dumps(payload))
        self.publishes += 1

    # -- crash/restart -----------------------------------------------------
    def capture_local(self, vm: "ViewManager") -> dict:
        """Stash live state aside at crash time (the replay fallback)."""
        return {
            "replica": vm._replica,
            "plan": vm._plan,
            "buffer": deque(vm._buffer),
            "current_batch": list(vm._current_batch),
            "pending_emit": vm._pending_emit,
            "computing": vm._computing,
            "applied_version": vm._applied_version,
            "action_lists_sent": vm.action_lists_sent,
            "updates_processed": vm.updates_processed,
            "vv": dict(self.version_vector),
            "extra": vm.extra_durable_state(),
        }

    def restore_local(self, vm: "ViewManager", stash: dict) -> None:
        vm._replica = stash["replica"]
        vm._plan = stash["plan"]
        vm._buffer = deque(stash["buffer"])
        vm._current_batch = list(stash["current_batch"])
        vm._pending_emit = stash["pending_emit"]
        vm._computing = stash["computing"]
        vm._applied_version = stash["applied_version"]
        vm.action_lists_sent = stash["action_lists_sent"]
        vm.updates_processed = stash["updates_processed"]
        vm.restore_extra_state(stash["extra"])
        self.version_vector = dict(stash["vv"])

    def try_restore(self, vm: "ViewManager") -> bool:
        """Rebuild the manager from its newest checkpoint artifact.

        Returns False — leaving the manager untouched — on a dangling
        ref, a cache miss, a failed digest verification, or a payload
        format mismatch; the caller then falls back to the replay path.
        """
        raw = self._refs.resolve()
        if raw is None:
            return False
        payload = pickle.loads(raw)
        if (
            payload.get("format") != PAYLOAD_FORMAT
            or payload.get("kind") != "checkpoint"
            or payload.get("view") != self.view
        ):
            return False
        replica = Database()
        for name in sorted(payload["replica"]):
            schema = vm.base_schemas[name]
            replica.create_relation(
                name, schema, _decode_relation(payload["replica"][name], schema)
            )
        vm._replica = replica
        vm._plan = MaintenancePlan(
            vm.definition.expression, replica, preload=payload["aux"]
        )
        vm._buffer = deque(payload["buffer"])
        vm._current_batch = list(payload["current_batch"])
        pending = payload["pending_emit"]
        if pending is not None:
            covered, (layout, counts) = pending
            pending = (tuple(covered), Delta(counts, tuple(layout)))
        vm._pending_emit = pending
        vm._computing = payload["computing"]
        vm._applied_version = payload["applied_version"]
        vm.action_lists_sent = payload["action_lists_sent"]
        vm.updates_processed = payload["updates_processed"]
        vm.restore_extra_state(payload["extra"])
        self.version_vector = dict(payload["vv"])
        return True


class MergeCacheBinding:
    """Durable checkpoints for one merge process."""

    def __init__(self, system: SystemCacheBinding, name: str) -> None:
        self.system = system
        self.store = system.store
        self.name = name
        self._refs = _RefPublisher(
            system, f"{system.namespace}/merge/{name}"
        )
        self.publishes = 0

    def publish(self, checkpoint: "MergeCheckpoint") -> str:
        import hashlib

        payload = pickle.dumps(checkpoint)
        key = artifact_key(
            "merge-checkpoint",
            {
                "format": PAYLOAD_FORMAT,
                "merge": self.name,
                "next_txn": checkpoint.next_txn_id,
                "digest": hashlib.blake2b(
                    payload, digest_size=16
                ).hexdigest(),
            },
        )
        self._refs.publish(key, payload)
        self.publishes += 1
        return key

    def try_restore(self) -> "MergeCheckpoint | None":
        raw = self._refs.resolve()
        if raw is None:
            return None
        return pickle.loads(raw)


__all__ = [
    "PAYLOAD_FORMAT",
    "MergeCacheBinding",
    "SystemCacheBinding",
    "ViewCacheBinding",
]
