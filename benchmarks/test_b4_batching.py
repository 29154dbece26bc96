"""B4 — Batched warehouse transactions (BWT, §4.3).

"When transaction overhead is high, the merge process can batch several
WT_i s and submit them to the warehouse as one batched warehouse
transaction. ... batching only yields strong consistency at the warehouse
rather than complete consistency, because each BWT may advance the
warehouse state by more than one."

The experiment fixes a high per-transaction warehouse overhead, sweeps the
BWT batch size, and reports warehouse transaction counts, makespan and the
verified MVC level.

Expected shape: bigger batches => fewer warehouse transactions and lower
makespan under high overhead, but the runs verify only MVC-strong (batch
size 1 remains MVC-complete).

Paper question: §4.3 — what does batching (BWT) buy and what does it
cost?  Reads: ``warehouse.commits`` (transaction count),
``RunReport.makespan`` / ``mean_staleness``, and the verified MVC level
per batch size.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

WH_OVERHEAD = 6.0  # expensive commits: the regime where batching pays
BATCH_SIZES = (1, 2, 4, 8)


def run_with_batch(batch_size: int):
    spec = WorkloadSpec(
        updates=80, rate=4.0, seed=17, mix=(0.6, 0.2, 0.2), arrivals="poisson"
    )
    system = run_system(
        paper_world(),
        paper_views_example2(),
        SystemConfig(
            manager_kind="complete",
            submission_policy="batching",
            submission_batch_size=batch_size,
            warehouse_txn_overhead=WH_OVERHEAD,
            warehouse_action_cost=0.01,
            seed=17,
        ),
        spec,
    )
    return system


def test_b4_batching(benchmark, report):
    def experiment():
        results = []
        for size in BATCH_SIZES:
            system = run_with_batch(size)
            metrics = system.report()
            results.append(
                (size, system.warehouse.commits, metrics.makespan,
                 metrics.mean_staleness, metrics.achieved)
            )
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = [
        [size, txns, f"{makespan:.0f}", f"{staleness:.1f}", level]
        for size, txns, makespan, staleness, level in results
    ]
    report(f"B4 — BWT batching (warehouse per-txn overhead {WH_OVERHEAD}):")
    report(fmt_table(
        ["batch size", "warehouse txns", "makespan", "mean staleness",
         "MVC level"],
        rows,
    ))
    report("")
    report("Shape: larger batches cut transaction count and makespan; the "
           "price is completeness — every batched run is strong, not "
           "complete (§4.3).")

    by_size = {size: (txns, makespan, level)
               for size, txns, makespan, _s, level in results}
    assert by_size[1][2] == "complete"  # batch of 1 preserves completeness
    for size in (2, 4, 8):
        assert by_size[size][2] == "strong"
    # Fewer transactions and no worse makespan as batches grow.
    assert by_size[8][0] < by_size[2][0] < by_size[1][0]
    assert by_size[8][1] < by_size[1][1]
