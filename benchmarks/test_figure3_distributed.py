"""F3 — Figure 3: splitting the merge process along view groups.

Figure 3 partitions {V1 = R./S, V2 = S./T} | {V3 = Q} onto two merge
processes.  This experiment regenerates the partition, runs the same
workload through one merge and through the Figure-3 pair, and confirms
both preserve MVC-completeness while the split spreads the load.
"""

from repro.merge.distributed import partition_views
from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example3, paper_world

from benchmarks.conftest import fmt_table, run_system


def run(groups: int):
    spec = WorkloadSpec(updates=120, rate=4.0, seed=3, arrivals="poisson",
                        mix=(0.6, 0.2, 0.2))
    return run_system(
        paper_world(),
        paper_views_example3(),
        SystemConfig(
            manager_kind="complete",
            merge_groups=groups,
            merge_message_cost=0.2,
            seed=3,
        ),
        spec,
    )


def test_figure3_distributed_merge(benchmark, report):
    single, split = benchmark.pedantic(
        lambda: (run(1), run(2)), rounds=1, iterations=1
    )

    partition = partition_views(paper_views_example3())
    report("Figure 3 — partition by shared base relations:")
    for index, group in enumerate(partition):
        report(f"  MP{index + 1}: views {group}")

    rows = []
    for label, system in (("single merge", single), ("two merges", split)):
        metrics = system.report(classify=False)
        max_util = max(
            metrics.processes[m.name].utilisation for m in system.merge_processes
        )
        rows.append(
            [
                label,
                len(system.merge_processes),
                str(bool(system.check_mvc("complete"))),
                f"{metrics.makespan:.1f}",
                f"{metrics.mean_staleness:.2f}",
                f"{max_util:.1%}",
            ]
        )
    report("")
    report(fmt_table(
        ["config", "MPs", "MVC complete", "makespan", "mean staleness",
         "max merge util"],
        rows,
    ))

    assert partition == [("V1", "V2"), ("V3",)]
    assert len(split.merge_processes) == 2
    assert single.check_mvc("complete") and split.check_mvc("complete")
    # The split must reduce the busiest merge's utilisation.
    single_util = max(
        single.report(classify=False).processes[m.name].utilisation
        for m in single.merge_processes
    )
    split_util = max(
        split.report(classify=False).processes[m.name].utilisation
        for m in split.merge_processes
    )
    assert split_util < single_util
