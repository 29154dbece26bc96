"""B7 — Submission-policy ablation (§4.3).

"There are a few solutions to this problem; each may be appropriate in
different scenarios": submit strictly sequentially, sequence only
dependent transactions, or hand dependency information to the warehouse
DBMS.  Plus the unsafe strawman: submit eagerly with no ordering control.

The experiment runs the same workload against a 4-executor warehouse under
each policy and reports makespan, staleness and the verified MVC level.

Expected shape: all three safe policies preserve MVC-completeness;
dependency-aware policies beat fully-sequential on makespan by overlapping
independent transactions; the eager policy loses consistency.

Paper question: §4.3 — which commit-order control to use ("each may be
appropriate in different scenarios")?  Reads: ``RunReport.makespan`` /
``mean_staleness`` and the verified MVC level per policy.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import clustered_views, clustered_world

from benchmarks.conftest import fmt_table, run_system

POLICIES = ("sequential", "dependency-sequenced", "dbms-dependency", "eager")


def run(policy: str):
    spec = WorkloadSpec(
        updates=120, rate=3.0, seed=23, mix=(0.6, 0.2, 0.2),
        arrivals="poisson", value_range=6,
    )
    system = run_system(
        clustered_world(3),
        clustered_views(3),
        SystemConfig(
            manager_kind="complete",
            submission_policy=policy,
            warehouse_executors=4,
            warehouse_txn_overhead=1.5,
            warehouse_action_cost=0.2,
            seed=23,
        ),
        spec,
    )
    metrics = system.report()
    return metrics.achieved, metrics.makespan, metrics.mean_staleness


def test_b7_submission_policies(benchmark, report):
    results = benchmark.pedantic(
        lambda: {policy: run(policy) for policy in POLICIES},
        rounds=1, iterations=1,
    )

    rows = [
        [policy, level, f"{makespan:.0f}", f"{staleness:.1f}"]
        for policy, (level, makespan, staleness) in results.items()
    ]
    report("B7 — §4.3 submission policies on a 4-executor warehouse:")
    report(fmt_table(["policy", "MVC level", "makespan", "mean staleness"], rows))
    report("")
    report("Shape: the three safe policies stay complete; exploiting "
           "independence (dependency-sequenced / dbms-dependency) beats "
           "strict sequencing; eager submission sacrifices consistency.")

    assert results["sequential"][0] == "complete"
    assert results["dependency-sequenced"][0] == "complete"
    assert results["dbms-dependency"][0] == "complete"
    assert results["eager"][0] in ("convergent", "inconsistent")
    # Dependency-awareness helps staleness (more commit concurrency).
    assert results["dbms-dependency"][2] <= results["sequential"][2]
