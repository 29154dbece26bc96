"""B3 — When does the merge process become the bottleneck? (§7, §6.1)

"...and under which update load the merge process becomes a bottleneck
for the system.  [§6.1] The merge process may become a bottleneck as the
system scales up ... In this case, a merge process can be split into
several ones."

The experiment fixes a per-message merge coordination cost, sweeps the
update rate over a 3-cluster world (6 views), and reports merge
utilisation, queue growth, and staleness for a single merge process vs the
§6.1 partition (3 merge processes).

Expected shape: the single merge saturates (utilisation -> 1, staleness
explodes) at roughly one third of the load the partitioned configuration
sustains.

Paper question: §7 / §6.1 — "under which update load the merge process
becomes a bottleneck", and does the §6.1 split recover it?  Reads: merge
``utilisation()`` and ``mean_queue_length()`` (registry instruments
``proc_busy_time`` / ``proc_queue_length``) plus
``RunReport.mean_staleness`` per rate.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import clustered_views, clustered_world

from benchmarks.conftest import fmt_table, run_system

MERGE_COST = 0.35
RATES = (0.5, 1.5, 3.0, 6.0)


def run_at(rate: float, groups: int):
    spec = WorkloadSpec(
        updates=150, rate=rate, seed=12, mix=(0.6, 0.2, 0.2),
        arrivals="poisson", value_range=6,
    )
    system = run_system(
        clustered_world(3),
        clustered_views(3),
        SystemConfig(
            manager_kind="complete",
            merge_groups=groups,
            merge_message_cost=MERGE_COST,
            # Submit with DBMS dependency annotations so the merge never
            # stalls on commit round-trips — its own service rate is the
            # resource under study.
            submission_policy="dbms-dependency",
            warehouse_executors=4,
            # Keep delta computation cheap so the merge process — not the
            # view managers — is the contended resource under study.
            compute_cost=(0.05, 0.0, 0.0),
            warehouse_txn_overhead=0.05,
            warehouse_action_cost=0.0,
            seed=12,
        ),
        spec,
    )
    metrics = system.report(classify=False)
    merge_util = max(
        metrics.processes[m.name].utilisation for m in system.merge_processes
    )
    merge_queue = max(
        metrics.processes[m.name].max_queue for m in system.merge_processes
    )
    assert system.check_mvc("complete")
    return merge_util, merge_queue, metrics.mean_staleness


def test_b3_merge_bottleneck(benchmark, report):
    def experiment():
        rows = []
        for rate in RATES:
            single = run_at(rate, groups=1)
            split = run_at(rate, groups=3)
            rows.append((rate, single, split))
        return rows

    data = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for rate, (u1, q1, s1), (u3, q3, s3) in data:
        rows.append(
            [
                rate,
                f"{u1:.1%}", q1, f"{s1:.1f}",
                f"{u3:.1%}", q3, f"{s3:.1f}",
            ]
        )
    report(f"B3 — merge bottleneck (per-message merge cost {MERGE_COST}):")
    report(fmt_table(
        ["rate", "1MP util", "1MP max queue", "1MP staleness",
         "3MP util", "3MP max queue", "3MP staleness"],
        rows,
    ))
    report("")
    report("Shape: the single merge saturates first; partitioning (§6.1) "
           "pushes the knee to ~3x the load.")

    # At the highest rate the single merge is saturated, the split is not.
    _rate, (u1, q1, s1), (u3, q3, s3) = data[-1]
    assert u1 > 0.9
    assert u3 < u1
    assert s3 < s1
    # Utilisation increases monotonically with rate for the single merge.
    utils = [entry[1][0] for entry in data]
    assert all(a <= b + 0.02 for a, b in zip(utils, utils[1:]))
