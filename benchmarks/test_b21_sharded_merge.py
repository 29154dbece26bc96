"""B21 — Sharded merge throughput.

A scale question about the §6.1 distributed merge once the view suite
grows past toy size: 36 relation-disjoint clusters x 3 views = 108
views, packed onto {1, 2, 4, 8} merge shards by the consistent-hash
router (``merge_router="hash"``).  With a per-message merge cost the
single merge process is the pipeline bottleneck; shards carry
relation-disjoint work concurrently, so aggregate throughput (updates
reflected per unit of virtual time) should scale with the fleet
while every arm preserves MVC-completeness.

Paper question: §6.1 "each group of views is assigned one merge
process" — does the split actually buy throughput at warehouse scale?
Reads: simulated throughput per shard count; emits BENCH_b21.json via
``--bench-out``.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import clustered_views, clustered_world

from benchmarks.conftest import fmt_table, timed_run_system, wall_clock_section

CLUSTERS = 36
VIEWS_PER_CLUSTER = 3  # 108 views total
UPDATES = 200
SHARD_COUNTS = (1, 2, 4, 8)


def run_sharded(shards: int):
    spec = WorkloadSpec(updates=UPDATES, rate=40.0, seed=11,
                        arrivals="poisson", mix=(0.6, 0.2, 0.2))
    return timed_run_system(
        clustered_world(CLUSTERS),
        clustered_views(CLUSTERS, VIEWS_PER_CLUSTER),
        SystemConfig(
            manager_kind="complete",
            merge_algorithm="spa",
            merge_groups=shards,
            merge_router="hash",
            merge_message_cost=0.4,
            warehouse_executors=16,
            warehouse_txn_overhead=0.05,
            trace_kinds=frozenset(),
            seed=11,
        ),
        spec,
    )


def test_b21_sharded_merge_throughput(benchmark, report, bench_out):
    results = benchmark.pedantic(
        lambda: {n: run_sharded(n) for n in SHARD_COUNTS},
        rounds=1, iterations=1,
    )

    arms = {}
    for shards, (system, wall) in results.items():
        metrics = system.report(classify=False)
        merge_util = max(
            metrics.processes[m.name].utilisation
            for m in system.merge_processes
        )
        arms[shards] = {
            "merges": len(system.merge_processes),
            "makespan": metrics.makespan,
            "throughput": metrics.throughput,
            "max_merge_utilisation": merge_util,
            "mvc_complete": bool(system.check_mvc("complete")),
            "wall_clock": wall_clock_section(system, wall),
        }

    speedup = arms[8]["throughput"] / arms[1]["throughput"]

    report(f"B21 — {CLUSTERS * VIEWS_PER_CLUSTER} views over {CLUSTERS} "
           f"disjoint clusters, hash-routed onto merge shards:")
    report(fmt_table(
        ["shards", "merges", "makespan", "upd/vtime", "max merge util",
         "MVC complete"],
        [
            [
                shards,
                arm["merges"],
                f"{arm['makespan']:.1f}",
                f"{arm['throughput']:.3f}",
                f"{arm['max_merge_utilisation']:.1%}",
                str(arm["mvc_complete"]),
            ]
            for shards, arm in arms.items()
        ],
    ))
    report("")
    report(f"Shape: aggregate merge throughput scales "
           f"{speedup:.1f}x from 1 to 8 shards, MVC-complete throughout.")

    artifact = bench_out("b21", {
        "benchmark": "b21_sharded_merge",
        "question": "does hash-sharding the merge scale throughput at "
                    "100+ views while preserving MVC?",
        "views": CLUSTERS * VIEWS_PER_CLUSTER,
        "clusters": CLUSTERS,
        "updates": UPDATES,
        "units": "updates_reflected_per_sim_time",
        "arms": {
            str(shards): {
                "merges": arm["merges"],
                "makespan": round(arm["makespan"], 2),
                "throughput": round(arm["throughput"], 4),
                "max_merge_utilisation": round(
                    arm["max_merge_utilisation"], 4
                ),
                "mvc_complete": arm["mvc_complete"],
                "wall_clock": arm["wall_clock"],
            }
            for shards, arm in arms.items()
        },
        "speedup_8_vs_1": round(speedup, 2),
    })
    if artifact is not None:
        report(f"wrote {artifact}")

    # Acceptance shape: every arm keeps its promise, 8 shards buy >= 3x.
    assert all(arm["mvc_complete"] for arm in arms.values())
    for shards, arm in arms.items():
        assert arm["merges"] == min(shards, CLUSTERS)
    assert speedup >= 3.0, (
        f"8 shards bought only {speedup:.2f}x aggregate throughput over a "
        f"single merge — the shard router is not spreading the load"
    )

