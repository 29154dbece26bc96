"""View manager base class.

A view manager (§3.3) is a process that owns one view: it buffers the
updates the integrator routes to it, computes view deltas (which takes
virtual time, configurable via ``compute_cost``: fixed work plus work per
changed view row and per update), and sends action lists to its merge
process.

Pre-state acquisition — the crux of §1.1 Problem 3 (delta computation is
"intertwined" with subsequent updates) — supports three correct modes and
one deliberately broken one:

``cached``
    The manager keeps local replicas of its base relations, maintained
    from the very update stream it receives.  Replicas always sit exactly
    at the state preceding the batch being processed, so deltas are
    trivially correct.  (The paper notes delta computation "may involve
    queries back to the sources if base data is not cached at the
    warehouse" — this is the cached case.)

``snapshot``
    The manager queries the base-data service for the multiversion
    snapshot *as of* the batch's starting version.

``compensate``
    The manager queries the *current* state and rolls back the updates
    that committed after its batch start (the service ships the undo
    information).  This is the Strobe-flavoured discipline for autonomous
    sources without multiversion reads.

``naive``
    Queries the current state and uses it as-is.  Wrong whenever updates
    intertwine — kept to demonstrate the anomaly (see
    :class:`repro.viewmgr.naive.NaiveViewManager`).
"""

from __future__ import annotations

import itertools
from collections import deque
from time import perf_counter_ns
from typing import TYPE_CHECKING, Mapping

from repro.errors import ViewManagerError
from repro.messages import (
    ActionListMessage,
    EndOfBlock,
    SnapshotQuery,
    SnapshotResponse,
    UpdateForView,
)
from repro.record import Record
from repro.relational.columnar import compile_filter, evaluate_columnar
from repro.relational.database import Database
from repro.relational.delta import Delta, propagate_delta, updates_to_deltas
from repro.relational.delta import pre_state_reads
from repro.relational.expressions import ViewDefinition
from repro.relational.plan import MaintenancePlan
from repro.relational.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sim.process import Process
from repro.viewmgr.actions import ActionList

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: the virtual time a batch takes, ``(fixed, per_row, per_update)``: a mild
#: default of fixed overhead plus work per changed view row and per update
DEFAULT_COST = (1.0, 0.05, 0.1)


PRE_STATE_MODES = ("cached", "snapshot", "compensate", "naive")

# The detail keys of the per-batch trace record.
_COMPUTE_KEYS = ("covered", "delta", "cost")


def encode_relation(relation: Relation) -> tuple:
    """(layout, {value-tuple: count}) — plain data, stable to pickle."""
    store = relation.columnar()
    return (store.layout, dict(store.counts_view()))


def decode_relation(encoded: tuple, schema: Schema) -> Relation:
    """Inverse of :func:`encode_relation`: one checked bulk load."""
    layout, counts = encoded
    return Relation.from_tuple_counts(tuple(layout), counts, schema)


class ViewCheckpoint(Record):
    """Everything a cached-mode view manager must not lose, as plain data:
    each replica relation and the computed-but-unsent view delta as
    ``(layout, {value tuple: count})``, the plan's ``export_aux()``, the
    buffered and in-flight updates, the counters and a subclass's
    ``extra_durable_state()``.  Built by :meth:`ViewManager.checkpoint`,
    applied by :meth:`ViewManager.restore`; read-only once built."""

    __slots__ = ("replica", "aux", "buffer", "current_batch", "pending_emit",
                 "computing", "applied_version", "action_lists_sent",
                 "updates_processed", "extra")

    def __init__(self, replica: dict[str, tuple], aux: dict,
                 buffer: tuple, current_batch: tuple,
                 pending_emit: tuple | None, computing: bool,
                 applied_version: int, action_lists_sent: int,
                 updates_processed: int, extra: dict) -> None:
        self.replica = replica
        self.aux = aux
        self.buffer = buffer
        self.current_batch = current_batch
        self.pending_emit = pending_emit
        self.computing = computing
        self.applied_version = applied_version
        self.action_lists_sent = action_lists_sent
        self.updates_processed = updates_processed
        self.extra = extra


class ViewManager(Process):
    """Common machinery; subclasses choose the batching discipline."""

    #: the ``SystemConfig.manager_kind`` name a concrete subclass answers
    #: to (see ``repro.viewmgr.MANAGERS``)
    kind: str
    #: single-view consistency level, one of ``repro.merge.selection.LEVELS``
    level = "complete"
    #: constructor keyword -> the ``SystemConfig`` field the builder fills
    #: it from (on top of the simulator, definition, schemas and wiring)
    config_args: dict[str, str] = {"mode": "manager_mode"}
    #: the pre-state mode a subclass always runs (None: ``manager_mode``)
    fixed_mode: str | None = None
    #: closes its batches on the integrator's :class:`EndOfBlock` markers,
    #: so the integrator must send them (and a REL for every update)
    needs_block_markers = False

    def __init__(
        self,
        sim: "Simulator",
        definition: ViewDefinition,
        base_schemas: Mapping[str, Schema],
        *,  # subclasses add keywords of their own behind these
        name: str | None = None,
        merge_name: str = "merge",
        service_name: str | None = "basedata",
        mode: str = "cached",
        compute_cost: tuple[float, float, float] = DEFAULT_COST,
    ) -> None:
        super().__init__(sim, name or f"vm:{definition.name}")
        if mode not in PRE_STATE_MODES:
            raise ViewManagerError(
                f"unknown pre-state mode {mode!r}; pick one of {PRE_STATE_MODES}"
            )
        self.definition = definition
        self.view = definition.name
        self.base_schemas = dict(base_schemas)
        self.merge_name = merge_name
        self.service_name = service_name
        self.mode = mode
        self.compute_cost = compute_cost
        self._buffer: deque[UpdateForView] = deque()
        self._computing = False
        self._replica: Database | None = None
        self._plan: MaintenancePlan | None = None
        # Per-relation sigma-restriction (selection filtering, [7]): rows a
        # view's selections provably reject are kept out of the replica
        # and out of incoming deltas — they can never contribute.
        self._replica_filters: dict[str, "Predicate"] = {}
        self._applied_version = 0
        self._query_ids = itertools.count(1)
        self._outstanding_query: SnapshotQuery | None = None
        self._current_batch: list[UpdateForView] = []
        self.action_lists_sent = 0
        self.updates_processed = 0
        # Per-view compute work, handed to registry twins by _publish so
        # exporters and `inspect` see it without touching manager internals.
        # Created eagerly: the instruments exist (at zero) even for views
        # that never see an update.
        self.compute_batches = self.compute_rows = self.compute_updates = 0
        metrics = sim.metrics
        self._m_batches = metrics.counter("vm_compute_batches", view=self.view)
        self._m_rows = metrics.counter("vm_compute_rows", view=self.view)
        self._m_updates = metrics.counter("vm_updates_processed", view=self.view)
        # Opt-in plan profiling (SystemConfig.profile_plans): wraps each
        # propagate in a wall-clock timer and, for a local plan, attaches
        # a PlanProfiler for per-node timings (kept for a restored plan).
        self._profile = False
        self._plan_profiler = None
        # Content-addressed cache bindings (repro.cache): seed artifacts and
        # checkpoints.  None = the PR-1 behaviour, crash recovery by
        # in-simulator replay only.
        self._cache = None
        self._checkpoints = None
        self._pending_emit: tuple[tuple[int, ...], Delta] | None = None
        self._stash: ViewCheckpoint | None = None
        self.cache_restores = 0
        self.cache_fallbacks = 0

    # -- replica management (cached mode) ---------------------------------------
    def set_replica_filters(self, filters: Mapping[str, "Predicate"]) -> None:
        """Install the restricted selection predicates (filtering mode).

        Must match the integrator's routing filter: an update this view
        never receives must also be a row the replica never holds.
        Call before :meth:`seed_replica`.
        """
        self._replica_filters = dict(filters)

    def _filter_deltas(self, deltas: dict[str, Delta]) -> dict[str, Delta]:
        for relation, predicate in self._replica_filters.items():
            delta = deltas.get(relation)
            keep = compile_filter(predicate, delta.layout) if delta else None
            if keep is not None:
                deltas[relation] = Delta(keep(delta.tuple_counts()), delta.layout)
        return deltas

    def install_cache(self, seeds, checkpoints) -> None:
        """Attach a :class:`~repro.cache.artifacts.ViewCacheBinding` and a
        :class:`~repro.cache.artifacts.CheckpointBinding`.

        Call before :meth:`seed_replica` so ``seeds`` can serve a seed
        artifact (warm plan compile + initial contents) and so every
        handled message publishes a durable checkpoint.  Only cached mode
        has a standing replica worth caching.
        """
        if self.mode != "cached":
            raise ViewManagerError(
                f"{self.name} runs mode={self.mode!r}; the artifact cache "
                f"needs cached mode (a standing replica to checkpoint)"
            )
        self._cache = seeds
        self._checkpoints = checkpoints

    def seed_replica(self, initial: Database, memo: dict | None = None) -> None:
        """Install local base-relation replicas from the initial source state."""
        replica = Database()
        filtered = False
        for relation in sorted(self.definition.base_relations()):
            schema = self.base_schemas[relation]
            rows = initial.relation(relation)
            predicate = self._replica_filters.get(relation)
            if predicate is not None:
                store = rows.columnar()
                keep = compile_filter(predicate, store.layout)
                if keep is not None:
                    rows = Relation.from_tuple_counts(
                        store.layout, keep(store.counts_view()), schema
                    )
                    filtered = True
            replica.create_relation(relation, schema, rows)
        self._replica = replica
        # Cached mode maintains through a compiled indexed plan over this one
        # stable database (docs/engine.md).  The compile's evaluations (the
        # cold-start hot spot) come from a cache binding's seed artifact,
        # looked up here by its key material, or else through the build's
        # memo.  That memo holds ss_0, which a filtered replica is not.
        preload = None
        if self._cache is not None:
            self._cache.on_seeded(self)
            preload = self._cache.seed_aux()
        self._plan = MaintenancePlan(
            self.definition.expression, replica, preload=preload,
            memo=None if filtered else memo,
        )

    def materialize_initial(
        self, initial: Database, memo: dict | None = None
    ) -> Relation:
        """The view's initial contents (``V(ss_0)``): off the group states of
        an aggregate root's plan, else evaluated through the build's ``memo``
        on ``initial`` itself, the system's ss_0 snapshot, as its stores are."""
        if self._cache is not None:
            cached = self._cache.seed_contents()
            if cached is not None:
                return cached
        contents = self._plan.contents() if self._plan is not None else None
        if contents is None:
            contents = evaluate_columnar(self.definition.expression, initial, memo)
        if self._cache is not None:
            self._cache.publish_seed(self, contents)
        return contents

    # -- message handling -----------------------------------------------------
    def handle(self, message: object, sender: Process) -> None:
        if isinstance(message, UpdateForView):
            if message.view != self.view:
                raise ViewManagerError(
                    f"{self.name} got update for view {message.view!r}"
                )
            self._buffer.append(message)
            self._maybe_start()
        elif isinstance(message, SnapshotResponse):
            self._on_snapshot(message)
        elif isinstance(message, EndOfBlock):
            # Block markers are broadcast to every manager in complete-N
            # systems; only CompleteNViewManager acts on them (it overrides
            # handle), the rest ignore them.
            pass
        else:
            raise ViewManagerError(
                f"{self.name} cannot handle {type(message).__name__}"
            )

    # -- compute loop -------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._computing or not self._buffer:
            return
        batch = self.select_batch()
        if not batch:
            return
        self._computing = True
        self._current_batch = batch
        if self.mode == "cached":
            self._compute_from(self._require_replica(), advance_replica=True)
        else:
            self._send_query(batch)

    def select_batch(self) -> list[UpdateForView]:
        """Take the updates to process next from the buffer (subclass hook).

        Must remove the selected messages from ``self._buffer`` and return
        them in arrival order; returning an empty list means "not yet"
        (e.g. complete-N still collecting).
        """
        raise NotImplementedError

    def _require_replica(self) -> Database:
        if self._replica is None:
            raise ViewManagerError(
                f"{self.name} runs in cached mode but seed_replica() was "
                f"never called"
            )
        return self._replica

    def _send_query(self, batch: list[UpdateForView]) -> None:
        start_version = batch[0].update_id - 1
        # Only the old sides the delta rules read (none for V3 = Q).
        # snapshot: the multiversion state as of the batch start;
        # compensate: the current state plus the undo information back to
        # the batch start; naive: the current state as it happens to be.
        changed = frozenset([u.relation for msg in batch for u in msg.updates])
        self._outstanding_query = query = SnapshotQuery(
            next(self._query_ids),
            self.name,
            pre_state_reads(self.definition.expression, changed),
            version=start_version if self.mode == "snapshot" else None,
            undo_from=start_version if self.mode == "compensate" else None,
        )
        self.send(self.service_name, query)

    def _on_snapshot(self, response: SnapshotResponse) -> None:
        query = self._outstanding_query
        if query is None or response.query_id != query.query_id:
            raise ViewManagerError(
                f"{self.name} got stale snapshot response {response.query_id}"
            )
        self._outstanding_query = None
        pre_state = self._build_pre_state(query, response)
        self._compute_from(pre_state, advance_replica=False)

    def _build_pre_state(
        self, query: SnapshotQuery, response: SnapshotResponse
    ) -> "_PreState":
        relations = {}
        for relation in sorted(query.relations):
            bag = response.contents.get(relation)
            if bag is None:
                # An absent relation is a malformed answer, not an empty
                # relation: computing on would send a wrong action list.
                raise ViewManagerError(
                    f"{self.name}: snapshot response {response.query_id} "
                    f"lacks base relation {relation!r}"
                )
            relations[relation] = Relation.from_tuple_counts(
                *bag, self.base_schemas[relation]
            )
        later = updates_to_deltas(
            u for _id, u in response.undo_updates if self.mode == "compensate"
        )
        unasked = (response.contents.keys() | later.keys()) - query.relations
        if unasked:
            raise ViewManagerError(
                f"{self.name}: snapshot response {response.query_id} carries "
                f"{sorted(unasked)}, which its query did not ask for"
            )
        # Roll back every update that committed after our batch start
        # (their net effect, negated) to reconstruct the pre-state.
        for relation, delta in later.items():
            delta.negated().apply_to(relations[relation])
        return _PreState(self, relations)

    def _publish(self) -> None:
        super()._publish()
        self._m_batches.advance_to(self.compute_batches)
        self._m_rows.advance_to(self.compute_rows)
        self._m_updates.advance_to(self.compute_updates)

    def enable_plan_profiling(self, profiler=None) -> None:
        """Time every propagate; profile the local plan's nodes if present.

        ``profiler`` is shared across managers when the builder passes
        one (so a system-wide report aggregates per-node).
        """
        self._profile = True
        metrics = self.sim.metrics
        self._m_prop_calls = metrics.counter(
            "plan_propagate_calls", view=self.view
        )
        self._m_prop_ns = metrics.counter(
            "plan_propagate_time_ns", view=self.view
        )
        self._plan_profiler = profiler
        if self._plan is not None:
            self._plan_profiler = self._plan.enable_profiling(profiler)

    def _compute_from(
        self, pre_state: "Database | _PreState", advance_replica: bool
    ) -> None:
        batch = self._current_batch
        deltas = self._filter_deltas(
            updates_to_deltas(u for msg in batch for u in msg.updates)
        )
        t0 = perf_counter_ns() if self._profile else 0
        if advance_replica:
            # Indexed path: probe the replica's column indexes and the
            # plan's auxiliary state instead of rescanning base relations.
            view_delta = self._plan.propagate(deltas)
            pre_state.apply_deltas(deltas)
            self._plan.advance()
        else:
            # Query-back modes: the pre-state was fetched for this batch
            # alone, so there is no standing state for a plan to keep.
            view_delta = propagate_delta(
                self.definition.expression, pre_state, deltas
            )
        if self._profile:
            self._m_prop_calls.inc()
            self._m_prop_ns.inc(perf_counter_ns() - t0)
        self.compute_batches += 1
        self.compute_rows += len(view_delta)
        self.compute_updates += len(batch)
        covered = tuple(msg.update_id for msg in batch)
        fixed, per_row, per_update = self.compute_cost
        cost = fixed + per_row * (len(view_delta) + 1) + per_update * len(batch)
        if self.sim.trace.wants("vm_compute"):
            self.sim.trace.record_fields(
                self.sim.now, "vm_compute", self.name, _COMPUTE_KEYS,
                covered, len(view_delta), round(cost, 4),
            )
        self._pending_emit = (covered, view_delta)
        self.sim.schedule(cost, self._emit, covered, view_delta, self._epoch)

    def _emit(
        self,
        covered: tuple[int, ...],
        view_delta: Delta,
        epoch: int | None = None,
    ) -> None:
        if (
            self._checkpoints is not None
            and epoch is not None
            and epoch != self._epoch
        ):
            # A pre-crash emit firing after restart.  Cache-backed
            # recovery restored (and re-scheduled) the pending emit
            # itself, so letting this stale event through would send the
            # action list twice.  Without a cache the stale emit *is*
            # the recovery path — the computed state survives in-process
            # — so the guard applies only to cache-backed managers.
            return
        for action_list in self.build_action_lists(covered, view_delta):
            self.send(self.merge_name, ActionListMessage(action_list))
            self.action_lists_sent += 1
        self.updates_processed += len(covered)
        self._applied_version = covered[-1]
        self._computing = False
        self._current_batch = []
        self._pending_emit = None
        if self._checkpoints is not None:
            # The emit changed durable state (list sent, pending cleared)
            # outside any handled message — publish a covering checkpoint
            # or a restart would re-send this action list.
            self._checkpoints.publish(self.checkpoint())
        self._maybe_start()

    def build_action_lists(
        self, covered: tuple[int, ...], view_delta: Delta
    ) -> list[ActionList]:
        """The lists one computed batch is sent as, in sending order
        (subclass hook; at least one, so the merge sees progress)."""
        return [self.build_action_list(covered, view_delta)]

    def build_action_list(
        self, covered: tuple[int, ...], view_delta: Delta
    ) -> ActionList:
        """Package the computed delta (subclass hook for REPLACE managers)."""
        return ActionList.from_delta(self.view, self.name, covered, view_delta)

    def flush(self) -> None:
        """End-of-stream hook: release anything held voluntarily.

        The default managers hold nothing (they always drain their
        buffer); complete-N overrides this to close its trailing partial
        block once the update stream has ended.
        """

    # -- durability (repro.cache) -------------------------------------------
    def extra_durable_state(self) -> dict:
        """Subclass state a checkpoint must carry (plain picklable data)."""
        return {}

    def restore_extra_state(self, state: dict) -> None:
        """Inverse of :meth:`extra_durable_state`."""

    def checkpoint(self) -> ViewCheckpoint:
        """The manager's durable state, copied out as plain data."""
        replica, plan, pending = self._replica, self._plan, self._pending_emit
        return ViewCheckpoint(
            replica={} if replica is None else {
                name: encode_relation(replica.relation(name))
                for name in sorted(self.definition.base_relations())
            },
            aux=plan.export_aux() if plan is not None else {},
            buffer=tuple(self._buffer),
            current_batch=tuple(self._current_batch),
            pending_emit=None if pending is None else (
                pending[0], (pending[1].layout, dict(pending[1].tuple_counts()))
            ),
            computing=self._computing,
            applied_version=self._applied_version,
            action_lists_sent=self.action_lists_sent,
            updates_processed=self.updates_processed,
            extra=self.extra_durable_state(),
        )

    def restore(self, checkpoint: ViewCheckpoint) -> None:
        """Rebuild the manager from ``checkpoint`` (which stays reusable):
        the replica and a plan compiled over it with the checkpoint's
        auxiliary state preloaded, so nothing is evaluated."""
        replica = Database()
        for name, encoded in sorted(checkpoint.replica.items()):
            schema = self.base_schemas[name]
            replica.create_relation(name, schema, decode_relation(encoded, schema))
        self._replica = replica
        self._plan = MaintenancePlan(
            self.definition.expression, replica, preload=checkpoint.aux
        )
        if self._profile:
            self._plan_profiler = self._plan.enable_profiling(
                self._plan_profiler)
        self._buffer = deque(checkpoint.buffer)
        self._current_batch = list(checkpoint.current_batch)
        pending = checkpoint.pending_emit
        if pending is not None:
            covered, (layout, counts) = pending
            pending = (tuple(covered), Delta(counts, tuple(layout)))
        self._pending_emit = pending
        self._computing = checkpoint.computing
        self._applied_version = checkpoint.applied_version
        self.action_lists_sent = checkpoint.action_lists_sent
        self.updates_processed = checkpoint.updates_processed
        self.restore_extra_state(checkpoint.extra)

    def on_handled(self, message: object, sender: Process) -> None:
        # Checkpoint-before-ack: this hook runs after the message's
        # effects but before the channel-level on_processed ack, so every
        # acked update is covered by some published artifact.
        if self._checkpoints is not None:
            self._checkpoints.publish(self.checkpoint())

    def on_crash(self) -> None:
        if self._checkpoints is None:
            return
        # Model a real process death: volatile state is gone.  A checkpoint
        # of it is stashed aside only as the *fallback* recovery path
        # (mirroring PR-1 replay); restore prefers the artifact store and
        # the counters below say which path ran.
        self._stash = self.checkpoint()
        self._buffer = deque()
        self._current_batch = []
        self._pending_emit = None
        self._computing = False
        self._outstanding_query = None
        self._replica = None
        self._plan = None

    def on_restart(self) -> None:
        if self._checkpoints is None:
            return
        checkpoint = self._checkpoints.resolve(ViewCheckpoint)
        kind = "cache_restore"
        if checkpoint is None:
            checkpoint, kind = self._stash, "cache_fallback"
            if checkpoint is None:
                raise ViewManagerError(
                    f"{self.name} restarted with neither a cache artifact "
                    f"nor local state to fall back to"
                )
        self._stash = None
        self.restore(checkpoint)
        if kind == "cache_restore":
            self.cache_restores += 1
        else:
            self.cache_fallbacks += 1
        self.sim.metrics.counter(f"{kind}s", process=self.name).inc()
        self.trace(kind, applied=self._applied_version)
        pending = self._pending_emit
        if pending is not None:
            # The crash interrupted a computed-but-unsent batch; the
            # checkpoint preserved it, so re-emit immediately (the
            # compute cost was already paid before the crash).
            self.sim.schedule(
                0.0, self._emit, pending[0], pending[1], self._epoch
            )
        else:
            self._maybe_start()

    # -- inspection ------------------------------------------------------------
    def idle(self) -> bool:
        return not self._buffer and not self._computing


class _PreState:
    """One query-back batch's pre-state (a ``DatabaseLike``): the manager's
    base schemas and only the relations the delta rules read.  Reading any
    other raises at once rather than computing on an empty relation."""

    __slots__ = ("schemas", "_relations", "_owner")

    def __init__(self, owner: ViewManager, relations: dict[str, Relation]):
        self.schemas = owner.base_schemas
        self._relations = relations
        self._owner = owner.name

    def relation(self, name: str) -> Relation:
        if name not in self._relations:
            raise ViewManagerError(f"{self._owner}: the pre-state holds no {name!r}")
        return self._relations[name]
