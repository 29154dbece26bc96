"""B5 — VUT occupancy and promptness (§4.2's closing claim).

"Although theoretically, the total number of rows in the VUT could be as
many as the total number of updates, the actual number is small in a
system where no view manager is a bottleneck."

The experiment tracks the VUT's row count after every merge event in two
regimes:

* balanced — all managers equally fast: the VUT stays small regardless of
  how many updates flow through;
* straggler — one manager 25x slower: unapplied rows pile up behind it,
  bounded only by the straggler's backlog.

Paper question: §4.2 — "the actual number [of VUT rows] is small in a
system where no view manager is a bottleneck".  Reads: the
``merge_vut_size`` timeline gauge in ``sim.metrics``, one sample after
every merge event, per regime.
"""

from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table

UPDATES = 150


def run(straggler: bool):
    world = paper_world()
    spec = WorkloadSpec(updates=UPDATES, rate=3.0, seed=5,
                        mix=(0.6, 0.2, 0.2), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world,
        paper_views_example2(),
        SystemConfig(
            manager_kind="complete",
            compute_cost=(0.2, 0.0, 0.0),
            seed=5,
        ),
    )
    if straggler:
        system.view_managers["V2"].compute_cost = (5.0, 0.0, 0.0)
    post_stream(system, stream)
    system.run()
    sizes = [
        int(size)
        for gauge in system.sim.metrics.family("merge_vut_size")
        for _time, size in gauge.samples
    ]
    assert system.check_mvc("complete")
    return sizes


def test_b5_vut_occupancy(benchmark, report):
    balanced, straggler = benchmark.pedantic(
        lambda: (run(False), run(True)), rounds=1, iterations=1
    )

    def stats(sizes):
        return [
            max(sizes),
            f"{sum(sizes) / len(sizes):.1f}",
            sizes[-1],
        ]

    report(f"B5 — VUT rows over a {UPDATES}-update run:")
    report(fmt_table(
        ["regime", "peak rows", "mean rows", "final rows"],
        [
            ["balanced managers"] + stats(balanced),
            ["one straggler (25x slower)"] + stats(straggler),
        ],
    ))
    report("")
    report("Shape: with no bottleneck manager the table stays a small "
           "fraction of the update count (purging works); a straggler "
           "makes rows accumulate behind it.")

    assert max(balanced) < UPDATES * 0.2, "balanced VUT stays small"
    assert max(straggler) > max(balanced) * 3, "straggler inflates the VUT"
    assert balanced[-1] == 0 and straggler[-1] == 0, "fully purged at the end"
