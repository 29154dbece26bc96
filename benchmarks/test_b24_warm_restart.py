"""B24 — Warm restart: artifact-cache recovery vs full replay.

A warehouse restart (deploy, crash, failover) must rebuild every view
manager's replica, compiled maintenance plan, and initial view contents.
Without ``repro.cache`` that is a full replay of the cold-start path:
re-evaluate ``V(ss_0)`` for every view — for the aggregate-over-join
fleets measured here, the dominant cost is re-running every join.  With
a populated artifact store the restart fetches the seed artifact
(contents + plan auxiliary state, integrity-verified) and skips the
evaluation passes entirely.

Arms, per fleet size (15 / 45 / 120 views over relation-disjoint
clusters):

* **replay** — no cache configured: the PR-1 cold-start path.
* **cold**   — cache on, empty store: replay cost *plus* publishing the
  seed artifacts (the one-time price of durability).
* **warm**   — cache on, the store the cold arm just populated: the
  restart path under test.

The replay and warm arms alternate ``BUILDS`` times and each reports its
best build, so the speedup compares like with like; the cold arm builds
once, since a second cold build would find the store full.

Paper link: §4's SWEEP/merge correctness argument assumes each view
manager owns a consistent materialized state; this experiment measures
what it costs to *regain* that state after losing the process, and shows
content-addressed artifacts make restart cost independent of join width.
Shape claims: a warm restart evaluates nothing (no join, no aggregate
fold; a replay joins each cluster once, through the build's memo, and
folds each view once) and is >= 5x faster than replay at 100+ views,
the warm-started warehouse bag-identical to the replayed one, and a
cached crash/restart run converging to the same stores as an uncrashed
run.
Emits BENCH_b24.json via ``--bench-out``.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time

from repro.cache.store import CacheConfig
from repro.faults import CrashSpec, FaultPlan
from repro.relational import columnar
from repro.relational.columnar import AggregateKernel
from repro.relational.parser import parse_view
from repro.relational.schema import Schema
from repro.sources.world import SourceWorld
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import (
    UpdateStreamGenerator,
    WorkloadSpec,
    post_stream,
)

from benchmarks.conftest import fmt_table

CLUSTER_SIZES = (5, 15, 40)  # x3 views each: 15 / 45 / 120 views
ROWS = 200  # rows per base relation
SKEW = 4  # join-key domain: every join fans out to ROWS^2/SKEW rows
SPEEDUP_FLOOR = 5.0  # asserted at the 100+ view size
BUILDS = 5  # the replay and warm arms each take the best of this many builds


def seeded_world(clusters: int) -> SourceWorld:
    """Relation-disjoint clusters R_i(k, v) / S_i(k, w), pre-seeded so the
    initial materialization actually has joins worth caching."""
    world = SourceWorld()
    for i in range(clusters):
        world.create_relation(
            f"R_{i}", Schema(["k", "v"]), f"src_{i}",
            [{"k": j % SKEW, "v": j} for j in range(ROWS)],
        )
        world.create_relation(
            f"S_{i}", Schema(["k", "w"]), f"src_{i}",
            [{"k": j % SKEW, "w": j} for j in range(ROWS)],
        )
    return world


def fleet_views(clusters: int):
    """Three aggregate views per cluster, all over the R_i ⋈ S_i join —
    expensive to evaluate, cheap to store (the artifact holds the group
    states, not the join)."""
    views = []
    for i in range(clusters):
        views.append(parse_view(
            f"A_{i} = SELECT k, count(*) AS n, sum(w) AS tw "
            f"FROM R_{i} JOIN S_{i} GROUP BY k"
        ))
        views.append(parse_view(
            f"B_{i} = SELECT k, count(*) AS n, sum(v) AS tv "
            f"FROM R_{i} JOIN S_{i} GROUP BY k"
        ))
        views.append(parse_view(
            f"T_{i} = SELECT count(*) AS n FROM R_{i} JOIN S_{i}"
        ))
    return views


def build_config(cache_root: str | None) -> SystemConfig:
    return SystemConfig(
        manager_kind="complete",
        merge_groups=4,
        merge_router="hash",
        seed=24,
        cache=CacheConfig(root=cache_root) if cache_root else None,
    )


def timed_build(clusters: int, cache_root: str | None):
    """Time the restart itself: replica seeding, plan compilation and
    initial materialization inside ``WarehouseSystem`` construction."""
    world = seeded_world(clusters)
    views = fleet_views(clusters)
    gc.collect()  # an earlier arm's cyclic garbage is not this arm's cost
    start = time.perf_counter()
    system = WarehouseSystem(world, views, build_config(cache_root))
    return system, time.perf_counter() - start


def counting_evaluations(monkeypatch) -> dict[str, int]:
    """Count the joins and aggregate folds evaluated from here on."""
    calls = {"joins": 0, "folds": 0}
    join, fold = columnar.join_counts_columnar, AggregateKernel.accumulate

    def counted_join(*args):
        calls["joins"] += 1
        return join(*args)

    def counted_fold(self, *args):
        calls["folds"] += 1
        return fold(self, *args)

    monkeypatch.setattr(columnar, "join_counts_columnar", counted_join)
    monkeypatch.setattr(AggregateKernel, "accumulate", counted_fold)
    return calls


def warehouse_stores(system: WarehouseSystem) -> dict:
    store = system.warehouse.store
    return {
        name: dict(store.view(name).counts_view())
        for name in store.view_names
    }


def test_b24_warm_restart_vs_replay(benchmark, report, bench_out, monkeypatch):
    calls = counting_evaluations(monkeypatch)

    def all_arms():
        results = {}
        for clusters in CLUSTER_SIZES:
            root = tempfile.mkdtemp(prefix="b24-store-")
            try:
                cold_sys, cold_s = timed_build(clusters, root)
                cold_puts = cold_sys.cache_store.puts
                cold_sys.close()

                # The compared arms alternate, so a burst of load on a
                # shared host slows both; each keeps its best build.
                arms = {"replay": None, "warm": root}
                seconds = {arm: [] for arm in arms}
                evaluated = {arm: dict.fromkeys(calls, 0) for arm in arms}
                stores, warm_hits = [], []
                for _ in range(BUILDS):
                    for arm, arm_root in arms.items():
                        before = dict(calls)
                        system, took = timed_build(clusters, arm_root)
                        seconds[arm].append(took)
                        for k in calls:
                            evaluated[arm][k] += calls[k] - before[k]
                        stores.append(warehouse_stores(system))
                        if arm_root is not None:
                            warm_hits.append(system.cache_store.hits)
                        system.close()
            finally:
                shutil.rmtree(root, ignore_errors=True)
            results[clusters * 3] = {
                "clusters": clusters,
                "replay_s": min(seconds["replay"]),
                "cold_s": cold_s,
                "warm_s": min(seconds["warm"]),
                "cold_puts": cold_puts,
                "warm_hits": min(warm_hits),
                # per build, on average
                "replay_evaluations": {
                    k: n / BUILDS for k, n in evaluated["replay"].items()},
                "warm_evaluations": {
                    k: n / BUILDS for k, n in evaluated["warm"].items()},
                "stores_match": all(s == stores[0] for s in stores),
            }
        return results

    results = benchmark.pedantic(all_arms, rounds=1, iterations=1)

    rows = []
    for views, r in results.items():
        speedup = r["replay_s"] / r["warm_s"] if r["warm_s"] > 0 else float("inf")
        r["speedup"] = round(speedup, 1)
        rows.append([
            views,
            f"{r['replay_s']:.3f}",
            f"{r['cold_s']:.3f}",
            f"{r['warm_s']:.3f}",
            f"{speedup:.1f}x",
            str(r["stores_match"]),
        ])

    report(f"B24 — restart cost, {ROWS} rows/relation, join fan-out "
           f"{ROWS * ROWS // SKEW} rows/view:")
    report(fmt_table(
        ["views", "replay s", "cold s", "warm s", "warm speedup",
         "stores == replay"],
        rows,
    ))
    biggest = max(results)
    report("")
    report(f"Shape: at {biggest} views a warm restart is "
           f"{results[biggest]['speedup']}x faster than replay "
           f"(floor: {SPEEDUP_FLOOR}x).")

    artifact = bench_out("b24", {
        "benchmark": "b24_warm_restart",
        "question": "does a content-addressed artifact store make restart "
                    "cost independent of view evaluation cost?",
        "rows_per_relation": ROWS,
        "join_fanout_rows": ROWS * ROWS // SKEW,
        "units": "build_wall_seconds",
        "fleets": {
            str(views): {
                "replay_s": round(r["replay_s"], 4),
                "cold_s": round(r["cold_s"], 4),
                "warm_s": round(r["warm_s"], 4),
                "speedup": r["speedup"],
                "cold_puts": r["cold_puts"],
                "warm_hits": r["warm_hits"],
                "replay_evaluations": r["replay_evaluations"],
                "warm_evaluations": r["warm_evaluations"],
                "stores_match": r["stores_match"],
            }
            for views, r in results.items()
        },
    })
    if artifact is not None:
        report(f"wrote {artifact}")

    for views, r in results.items():
        # The warm start must be a restore, not a silent re-evaluation,
        # and must rebuild exactly the replayed warehouse.
        assert r["cold_puts"] >= views, (
            f"{views} views: cold build published only {r['cold_puts']} "
            f"artifacts"
        )
        assert r["warm_hits"] >= views, (
            f"{views} views: warm build hit the store only "
            f"{r['warm_hits']} times — it replayed instead of restoring"
        )
        assert r["stores_match"], (
            f"{views} views: warm-started warehouse diverged from replay"
        )
        assert r["warm_evaluations"] == {"joins": 0, "folds": 0}, (
            f"{views} views: the warm restart evaluated "
            f"{r['warm_evaluations']}"
        )
        assert r["replay_evaluations"] == {
            "joins": r["clusters"], "folds": views
        }, f"{views} views: replay evaluated {r['replay_evaluations']}"

    assert results[biggest]["speedup"] >= SPEEDUP_FLOOR, (
        f"warm restart at {biggest} views was only "
        f"{results[biggest]['speedup']}x faster than replay "
        f"(floor {SPEEDUP_FLOOR}x) — the seed artifacts are not carrying "
        f"the evaluation cost"
    )


def test_b24_crash_recovery_matches_uncrashed_run(report):
    """The durability half of the claim: a cached run that loses a view
    manager *and* a merge process mid-stream restores from artifacts and
    still converges to the exact stores of an uncrashed, uncached run."""
    clusters = CLUSTER_SIZES[0]
    plan = FaultPlan(
        seed=24,
        crashes=(
            # Late enough that A_0 has checkpointed at least one batch —
            # a crash before any checkpoint falls back to replay (also
            # correct, but this test pins the restore path).
            CrashSpec("vm:A_0", at=10.0, restart_after=2.0),
            CrashSpec("merge", at=7.0, restart_after=2.0),
        ),
    )

    def run_arm(fault_plan, cache_root):
        world = seeded_world(clusters)
        config = SystemConfig(
            manager_kind="complete",
            seed=24,
            fault_plan=fault_plan,
            cache=CacheConfig(root=cache_root) if cache_root else None,
        )
        system = WarehouseSystem(world, fleet_views(clusters), config)
        spec = WorkloadSpec(updates=30, rate=2.0, seed=24,
                            mix=(0.7, 0.15, 0.15))
        post_stream(system, UpdateStreamGenerator(world, spec).transactions())
        try:
            system.run()
            assert system.check_mvc("complete").ok
            restores = sum(
                vm.cache_restores for vm in system.view_managers.values()
            ) if cache_root else 0
            if cache_root:
                restores += sum(
                    m.cache_restores for m in system.merge_processes
                )
            return warehouse_stores(system), restores
        finally:
            system.close()

    root = tempfile.mkdtemp(prefix="b24-crash-")
    try:
        crashed_stores, restores = run_arm(plan, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    pristine_stores, _ = run_arm(None, None)

    report(f"B24 crash check: {clusters * 3} views, vm+merge crash, "
           f"{restores} artifact restore(s), "
           f"stores match uncrashed run: {crashed_stores == pristine_stores}")
    assert restores >= 2, "crash/restart never touched the artifact store"
    assert crashed_stores == pristine_stores
