"""F2 — Figure 2: the three consistency layers, validated live.

Figure 2 stacks source consistency (among base data), view consistency
(each view vs its base data) and MVC (among the views).  This experiment
runs one workload and checks each layer with the corresponding oracle:

* source consistency — the replayed integrator-order schedule reaches the
  same final state as the sources' serial commit schedule;
* view consistency  — every individual view's state sequence is complete
  w.r.t. the source state sequence;
* MVC               — the joint (vector) sequence is complete.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system


def test_figure2_three_layers(benchmark, report):
    spec = WorkloadSpec(updates=50, rate=2.0, seed=2, mix=(0.6, 0.2, 0.2))
    system = benchmark.pedantic(
        lambda: run_system(
            paper_world(), paper_views_example2(),
            SystemConfig(manager_kind="complete", seed=2), spec,
        ),
        rounds=1, iterations=1,
    )

    # Layer 1: source consistency.
    replayed = system.source_states()
    source_ok = replayed[-1].same_state_as(system.world.current)

    # Layers 2 and 3 are read off one replay of the run: each view's
    # value sequence against its own source sequence, then all of them
    # jointly over the schedule the warehouse applied.
    replay = system.replay()
    per_view = [
        [definition.name, replay.classify_view(definition.name)]
        for definition in system.definitions
    ]
    mvc_level = replay.classify()

    report("Figure 2 — three layers of consistency:")
    rows = [["source consistency", "consistent" if source_ok else "BROKEN"]]
    rows += [[f"view consistency: {name}", level] for name, level in per_view]
    rows += [["multiple view consistency", mvc_level]]
    report(fmt_table(["layer", "verdict"], rows))

    assert source_ok
    assert all(level == "complete" for _name, level in per_view)
    assert mvc_level == "complete"
