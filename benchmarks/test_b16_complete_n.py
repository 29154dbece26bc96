"""B16 — Complete-N maintenance: the block-size knob (§6.3).

"A view manager may be complete-N, that is, it may process N source
updates at a time and maintain the view consistently after every N
updates. ... The warehouse view maintenance is complete-N as well."

The experiment sweeps N over a fixed workload and reports warehouse
transactions, makespan and staleness, confirming the guarantee ladder:
N = 1 behaves like complete maintenance; larger N trades state granularity
(fewer, coarser warehouse states) for amortised work.

Paper question: §6.3 — what does complete-N's block size N trade?
Reads: ``warehouse.commits``, ``RunReport.makespan`` /
``mean_staleness``, and the verified consistency ladder per N.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

UPDATES = 60
BLOCKS = (1, 3, 6, 12)


def run_with_n(n: int):
    spec = WorkloadSpec(updates=UPDATES, rate=2.0, seed=53,
                        mix=(0.6, 0.2, 0.2), arrivals="poisson")
    system = run_system(
        paper_world(),
        paper_views_example2(),
        SystemConfig(
            manager_kind="complete-n",
            block_size=n,
            warehouse_txn_overhead=2.0,
            seed=53,
        ),
        spec,
    )
    metrics = system.report()
    return system.warehouse.commits, metrics.makespan, \
        metrics.mean_staleness, metrics.achieved


def test_b16_complete_n_sweep(benchmark, report):
    results = benchmark.pedantic(
        lambda: {n: run_with_n(n) for n in BLOCKS}, rounds=1, iterations=1
    )

    rows = [
        [n, txns, f"{makespan:.0f}", f"{staleness:.1f}", level]
        for n, (txns, makespan, staleness, level) in results.items()
    ]
    report(f"B16 — complete-N over {UPDATES} updates "
           f"(warehouse txn overhead 2.0):")
    report(fmt_table(
        ["N", "warehouse txns", "makespan", "mean staleness", "MVC level"],
        rows,
    ))
    report("")
    report("Shape: N=1 is per-update (complete) maintenance; growing N "
           "coarsens the warehouse state sequence (~updates/N txns) and "
           "amortises transaction overhead; every run stays at least "
           "MVC-strong (complete per N-block).")

    order = {"convergent": 0, "strong": 1, "complete": 2}
    assert results[1][3] == "complete"
    for n in (3, 6, 12):
        assert order[results[n][3]] >= order["strong"]
    txns = [results[n][0] for n in BLOCKS]
    assert txns[0] > txns[1] > txns[2] > txns[3]
    # Overhead amortisation: far fewer transactions means lower makespan.
    assert results[12][1] < results[1][1]
