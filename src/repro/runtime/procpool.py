"""Per-shard compute servers: view maintenance on real cores.

The ``procs`` runtime keeps the process graph on worker threads (the
messaging layer is cheap) but moves the expensive step — the columnar
:meth:`~repro.relational.plan.MaintenancePlan.propagate_counts` probe of
each cached view manager — into forked OS processes, one per merge
shard.  The shard is the natural unit: §6.1 guarantees shards share no
base relation, so each server owns its views' replicas and plans
outright and never coordinates with a sibling.

Wire protocol (one ``multiprocessing.Pipe`` per server, requests
serialised by a parent-side lock):

    ("propagate", view, {relation: {value_tuple: count}})
        -> ("ok", {value_tuple: count})   # the view delta, root layout
        -> ("err", "ExcType: message")
    ("publish", view)
        -> ("ok", key)                    # child-state artifact published
        -> ("err", "ExcType: message")
    ("telemetry",)
        -> ("ok", payload)                # drained ShardTelemetry payload
    ("stop",) -> server exits

Telemetry: each child owns a
:class:`~repro.obs.collector.ShardTelemetry` sink tagged
``origin="<shard>:<pid>"`` and timestamped against the parent kernel's
monotonic epoch.  The propagate path records request counts, row
volumes, latency histograms and one ``proc_compute`` trace event per
batch; ``("telemetry",)`` drains the sink (additively — the sink resets)
so :meth:`ComputeFleet.collect_into` can merge every shard's numbers
into the parent's locked registry after each run.  With
``SystemConfig(profile_plans=True)`` the child also runs its plans under
a :class:`~repro.obs.profiler.PlanProfiler`, published into the drained
payload.

When the system runs with a cache (``SystemConfig(cache=...)``), each
child inherits the artifact-store *root path* across the fork and opens
its own :class:`~repro.cache.store.ArtifactStore` handle on first
``publish`` — the store's atomic write-then-rename discipline makes the
parent and any number of children safe concurrent writers.  A publish
encodes the child's replica + plan auxiliary state with
:func:`~repro.cache.artifacts.encode_child_state` and points the
``<namespace>/procs/<view>`` ref at it, so the parent (or a later run)
can fetch and verify exactly what state the shard had reached.

Batches cross the pipe as layout-positioned tuple bags — the same raw
form ``propagate_counts`` takes — so no :class:`~repro.relational.rows.Row`
objects are ever pickled.  The parent-side :class:`RemoteViewPlan` does
the facade conversion at both edges and plugs into
:meth:`~repro.viewmgr.base.ViewManager.use_remote_plan`.

Fork discipline: servers inherit the already-seeded replicas and compiled
plans by ``fork`` (the view predicates hold lambdas, which never pickle),
so the fleet MUST start before any worker thread exists.
:meth:`~repro.runtime.parallel.ProcsRuntime.start` runs after the builder
seeds the system and before the kernel's first ``run()`` — the only
window in which both constraints hold.
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import TYPE_CHECKING, Mapping

from repro.errors import SimulationError
from repro.relational.columnar import counts_to_rows
from repro.relational.delta import Delta

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.relational.plan import MaintenancePlan
    from repro.system.builder import WarehouseSystem
    from repro.viewmgr.base import ViewManager


def _publish_child_state(
    store, namespace: str, view: str, plan, replica, layouts: dict, expr: str
) -> str:
    """Encode + publish one view's shard state; returns the artifact key."""
    from repro.cache.artifacts import encode_child_state

    replica_counts = {
        name: (layouts[name], replica.relation(name).columnar().counts_view())
        for name in replica.relation_names
    }
    key, payload = encode_child_state(
        view, expr, replica_counts, plan.export_aux()
    )
    store.put(key, payload)
    store.set_ref(f"{namespace}/procs/{view}", key)
    return key


def _serve_shard(
    conn,
    plans: dict,
    replicas: dict,
    base_layouts: dict,
    cache_info=None,
    telemetry_info=None,
) -> None:
    """Child main loop: propagate/advance/publish each view on request."""
    import os
    import time as _time

    from repro.obs.collector import ShardTelemetry

    store = None
    shard_name, clock0, profile = telemetry_info or ("shard", None, False)
    enabled = telemetry_info is not None
    telemetry = ShardTelemetry(f"{shard_name}:{os.getpid()}", clock0=clock0)
    process_name = f"compute:{shard_name}"
    profiler = None
    if enabled and profile:
        from repro.obs.profiler import PlanProfiler

        profiler = PlanProfiler()
        for plan in plans.values():
            plan.enable_profiling(profiler)
    try:
        while True:
            request = conn.recv()
            if request[0] == "stop":
                return
            if request[0] == "telemetry":
                if profiler is not None:
                    profiler.publish_into(telemetry.registry)
                conn.send(("ok", telemetry.drain()))
                continue
            if request[0] == "publish":
                _kind, view = request
                try:
                    if cache_info is None:
                        raise SimulationError(
                            "compute server has no cache configured"
                        )
                    root, namespace, exprs = cache_info
                    if store is None:
                        from repro.cache.store import ArtifactStore

                        store = ArtifactStore(root)
                    key = _publish_child_state(
                        store,
                        namespace,
                        view,
                        plans[view],
                        replicas[view],
                        base_layouts[view],
                        exprs[view],
                    )
                    if enabled:
                        telemetry.registry.counter(
                            "proc_publishes", view=view
                        ).inc()
                    conn.send(("ok", key))
                except Exception as exc:  # noqa: BLE001 - relayed to parent
                    conn.send(("err", f"{type(exc).__name__}: {exc}"))
                continue
            _kind, view, raw = request
            try:
                t0 = _time.perf_counter_ns() if enabled else 0
                plan = plans[view]
                delta = plan.propagate_counts(raw)
                out = dict(delta.counts())
                replicas[view].apply_deltas(
                    {
                        relation: Delta(
                            counts_to_rows(base_layouts[view][relation], counts)
                        )
                        for relation, counts in raw.items()
                    }
                )
                plan.advance()
                if enabled:
                    elapsed = (_time.perf_counter_ns() - t0) / 1e9
                    # magnitudes (sum of |count|), matching len(Delta) on
                    # the parent so per-view totals reconcile exactly
                    rows_in = sum(
                        abs(c) for counts in raw.values()
                        for c in counts.values()
                    )
                    rows_out = sum(abs(c) for c in out.values())
                    registry = telemetry.registry
                    registry.counter("proc_compute_requests", view=view).inc()
                    registry.counter(
                        "proc_compute_rows_in", view=view
                    ).inc(rows_in)
                    registry.counter(
                        "proc_compute_rows_out", view=view
                    ).inc(rows_out)
                    registry.histogram(
                        "proc_compute_seconds", view=view
                    ).observe(elapsed)
                    telemetry.record(
                        "proc_compute",
                        process_name,
                        view=view,
                        rows_in=rows_in,
                        rows_out=rows_out,
                        seconds=round(elapsed, 9),
                    )
                conn.send(("ok", out))
            except Exception as exc:  # noqa: BLE001 - relayed to the parent
                if enabled:
                    telemetry.registry.counter(
                        "proc_compute_errors", view=view
                    ).inc()
                conn.send(("err", f"{type(exc).__name__}: {exc}"))
    except (EOFError, KeyboardInterrupt):  # parent died / interrupted
        return


class ComputeServer:
    """Parent-side handle on one forked shard server."""

    def __init__(
        self,
        shard: str,
        managers: "list[ViewManager]",
        timeout: float,
        context,
        cache_info: tuple | None = None,
        telemetry_info: tuple | None = None,
    ) -> None:
        self.shard = shard
        self._timeout = timeout
        self._lock = threading.Lock()
        parent_conn, child_conn = context.Pipe()
        self._conn = parent_conn
        plans = {m.view: m._plan for m in managers}
        replicas = {m.view: m._replica for m in managers}
        base_layouts = {
            m.view: {
                relation: m.base_schemas[relation].layout
                for relation in m.definition.base_relations()
            }
            for m in managers
        }
        if cache_info is not None:
            root, namespace = cache_info
            exprs = {m.view: str(m.definition.expression) for m in managers}
            cache_info = (root, namespace, exprs)
        self._process = context.Process(
            target=_serve_shard,
            args=(
                child_conn, plans, replicas, base_layouts, cache_info,
                telemetry_info,
            ),
            name=f"repro-compute-{shard}",
            daemon=True,
        )
        self._process.start()
        child_conn.close()

    def propagate(
        self, view: str, raw: Mapping[str, Mapping[tuple, int]]
    ) -> dict[tuple, int]:
        """Round-trip one batch; blocks (GIL released) awaiting the reply."""
        with self._lock:
            if not self._process.is_alive():
                raise SimulationError(
                    f"compute server {self.shard!r} died "
                    f"(exitcode {self._process.exitcode})"
                )
            self._conn.send(("propagate", view, dict(raw)))
            if not self._conn.poll(self._timeout):
                raise SimulationError(
                    f"compute server {self.shard!r} gave no reply within "
                    f"{self._timeout}s for view {view!r} (hung worker?)"
                )
            status, payload = self._conn.recv()
        if status != "ok":
            raise SimulationError(
                f"compute server {self.shard!r} failed on view {view!r}: "
                f"{payload}"
            )
        return payload

    def publish_state(self, view: str) -> str:
        """Ask the child to publish ``view``'s shard state; returns the key."""
        with self._lock:
            if not self._process.is_alive():
                raise SimulationError(
                    f"compute server {self.shard!r} died "
                    f"(exitcode {self._process.exitcode})"
                )
            self._conn.send(("publish", view))
            if not self._conn.poll(self._timeout):
                raise SimulationError(
                    f"compute server {self.shard!r} gave no publish reply "
                    f"within {self._timeout}s for view {view!r}"
                )
            status, payload = self._conn.recv()
        if status != "ok":
            raise SimulationError(
                f"compute server {self.shard!r} could not publish "
                f"view {view!r}: {payload}"
            )
        return payload

    def collect_telemetry(self) -> dict | None:
        """Drain the child's telemetry sink; ``None`` if the child is gone.

        Additive: the child resets its counters on drain, so merging every
        payload the parent ever receives yields the true totals.
        """
        with self._lock:
            if not self._process.is_alive():
                return None
            try:
                self._conn.send(("telemetry",))
                if not self._conn.poll(self._timeout):
                    raise SimulationError(
                        f"compute server {self.shard!r} gave no telemetry "
                        f"reply within {self._timeout}s"
                    )
                status, payload = self._conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                return None
        return payload if status == "ok" else None

    def stop(self) -> None:
        try:
            with self._lock:
                self._conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - last resort
            self._process.terminate()
            self._process.join(timeout=5.0)
        self._conn.close()


class RemoteViewPlan:
    """The view-manager side of one remote plan: facade in, facade out.

    Mirrors the local plan's ``propagate`` signature so
    :meth:`ViewManager._compute_from` treats both identically; the
    batch-apply/advance half happens inside the server against *its*
    replica (the parent still advances its own replica rows to stay
    restartable).
    """

    def __init__(
        self,
        server: ComputeServer,
        view: str,
        base_layouts: Mapping[str, tuple[str, ...]],
        view_layout: tuple[str, ...],
    ) -> None:
        self._server = server
        self._view = view
        self._base_layouts = dict(base_layouts)
        self._view_layout = view_layout

    def propagate(self, deltas: Mapping[str, Delta]) -> Delta:
        raw = {
            relation: delta.tuple_counts(self._base_layouts[relation])
            for relation, delta in deltas.items()
            if len(delta)
        }
        if not raw:
            return Delta()
        counts = self._server.propagate(self._view, raw)
        return Delta(counts_to_rows(self._view_layout, counts))


class ComputeFleet:
    """All of a system's shard servers, stoppable as one."""

    def __init__(self, servers: list[ComputeServer]) -> None:
        self.servers = servers

    def collect_into(self, registry, trace) -> int:
        """Drain every shard's telemetry into the parent registry/trace.

        Returns the number of instruments merged across all shards.
        Safe to call repeatedly (drains are additive) and after a child
        died (dead shards are skipped).
        """
        from repro.obs.collector import merge_payload

        merged = 0
        for server in self.servers:
            payload = server.collect_telemetry()
            if payload:
                merged += merge_payload(registry, trace, payload)
        return merged

    def stop(self) -> None:
        for server in self.servers:
            server.stop()
        self.servers = []


def start_compute_fleet(
    system: "WarehouseSystem",
    workers: int | None = None,
    timeout: float = 60.0,
) -> ComputeFleet:
    """Fork one compute server per merge shard and install remote plans.

    Only cached-mode managers are offloaded; the query-back modes keep
    their in-process path (they rebuild a pre-state per batch and never
    had a standing plan to ship).  ``workers`` caps the fleet size —
    beyond it, shards share servers round-robin, still never splitting a
    shard.
    """
    context = multiprocessing.get_context("fork")
    offloadable: dict[str, list] = {}
    for manager in system.view_managers.values():
        if manager.mode == "cached":
            shard = system.view_to_merge[manager.view]
            offloadable.setdefault(shard, []).append(manager)

    cache_info = None
    store = getattr(system, "cache_store", None)
    if store is not None:
        cache_info = (str(store.root), system.config.cache.namespace)

    collect = getattr(system.config, "collect_telemetry", True)
    clock0 = getattr(system.sim, "clock_epoch", None)
    profile = getattr(system.config, "profile_plans", False)

    servers: list[ComputeServer] = []
    if offloadable:
        shards = sorted(offloadable)
        cap = max(1, min(len(shards), workers or len(shards)))
        buckets: list[list] = [[] for _ in range(cap)]
        names: list[list[str]] = [[] for _ in range(cap)]
        for index, shard in enumerate(shards):
            buckets[index % cap].extend(offloadable[shard])
            names[index % cap].append(shard)
        for bucket, shard_names in zip(buckets, names):
            shard_label = "+".join(shard_names)
            telemetry_info = (shard_label, clock0, profile) if collect else None
            server = ComputeServer(
                shard_label, bucket, timeout, context,
                cache_info=cache_info,
                telemetry_info=telemetry_info,
            )
            servers.append(server)
            for manager in bucket:
                base_layouts = {
                    relation: manager.base_schemas[relation].layout
                    for relation in manager.definition.base_relations()
                }
                manager.use_remote_plan(
                    RemoteViewPlan(
                        server,
                        manager.view,
                        base_layouts,
                        manager._plan._root.layout,
                    )
                )
    return ComputeFleet(servers)


__all__ = [
    "ComputeFleet",
    "ComputeServer",
    "RemoteViewPlan",
    "start_compute_fleet",
]
