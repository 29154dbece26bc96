"""B1 — Throughput: sequential integrator vs concurrent managers + painting.

§1.1 describes the "simplest solution" — a single integrator process that,
for each update, sequentially computes the changes to all views, submits
one warehouse transaction, waits for the commit, and only then takes the
next update.  "Clearly, this does not allow for any concurrency ... and is
not acceptable in a high update rate environment."

This experiment sweeps the delta-computation cost and compares makespan /
throughput of

* the sequential baseline (modelled as a single serial server doing all
  per-view work back to back — exactly the §1.1 description), and
* the Figure-1 architecture (concurrent view managers + SPA / PA).

Expected shape: once delta computation dominates, the concurrent
architecture wins by roughly the number of views computable in parallel;
PA (strong managers, batching under load) is at least as fast as SPA.

Paper question: §1.1 — is the sequential single-integrator "simplest
solution" acceptable at high update rates, and how much does the
Figure-1 concurrent architecture win?  Reads: virtual makespan
(``sim.now``) per variant; throughput and speedups are derived from it.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

UPDATES = 80
RATE = 10.0  # high update rate: arrival gaps are short vs compute cost


def sequential_baseline_makespan(compute_unit: float) -> float:
    """The §1.1 single-process solution, modelled analytically.

    For every update, the single integrator computes the delta for each
    relevant view in sequence (same per-view cost model as the concurrent
    managers), then runs one warehouse transaction and waits for it.
    Updates queue behind this serial work.
    """
    world = paper_world()
    views = paper_views_example2()
    spec = WorkloadSpec(updates=UPDATES, rate=RATE, seed=21, mix=(0.6, 0.2, 0.2))
    stream = UpdateStreamGenerator(world, spec).transactions()
    base_relations = {v.name: v.base_relations() for v in views}
    server_free = 0.0
    wh_cost = 1.0
    for arrival, txn in stream:
        relevant = [
            name
            for name, rels in base_relations.items()
            if rels & txn.relations
        ]
        work = compute_unit * len(relevant) + wh_cost
        server_free = max(server_free, arrival) + work
    return server_free


def concurrent_makespan(kind: str, compute_unit: float) -> float:
    spec = WorkloadSpec(updates=UPDATES, rate=RATE, seed=21, mix=(0.6, 0.2, 0.2))
    system = run_system(
        paper_world(),
        paper_views_example2(),
        SystemConfig(
            manager_kind=kind,
            compute_cost=(compute_unit, 0.0, 0.0),
            warehouse_txn_overhead=1.0,
            warehouse_action_cost=0.0,
            seed=21,
        ),
        spec,
    )
    level = "complete" if kind == "complete" else "strong"
    assert system.check_mvc(level)
    return system.sim.now


def test_b1_throughput(benchmark, report):
    def experiment():
        rows = []
        for compute_unit in (0.5, 2.0, 8.0):
            seq = sequential_baseline_makespan(compute_unit)
            spa = concurrent_makespan("complete", compute_unit)
            pa = concurrent_makespan("strong", compute_unit)
            rows.append(
                [
                    compute_unit,
                    f"{seq:.0f}",
                    f"{spa:.0f}",
                    f"{pa:.0f}",
                    f"{seq / spa:.2f}x",
                    f"{seq / pa:.2f}x",
                ]
            )
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    report(f"B1 — makespan for {UPDATES} updates at rate {RATE}/time-unit:")
    report(fmt_table(
        ["delta cost", "sequential", "SPA", "PA", "SPA speedup", "PA speedup"],
        rows,
    ))
    report("")
    report("Shape: concurrency wins, and wins more as delta computation "
           "dominates; PA (batching) keeps up with or beats SPA.")

    # Shape assertions on the heaviest configuration.
    heavy = rows[-1]
    seq, spa, pa = float(heavy[1]), float(heavy[2]), float(heavy[3])
    assert spa < seq and pa < seq
    assert pa <= spa * 1.05  # PA at least matches SPA under load
    # Speedup grows with compute cost.
    light_speedup = float(rows[0][4].rstrip("x"))
    heavy_speedup = float(rows[-1][4].rstrip("x"))
    assert heavy_speedup > light_speedup
