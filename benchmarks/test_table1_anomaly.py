"""T1 — Table 1 / Example 1: the multiple-view-consistency anomaly.

Regenerates the paper's Table 1 timeline.  Without coordination
(pass-through merging of per-view action lists) there is a warehouse state
where V1 reflects the S insert but V2 does not — the t2 row of Table 1.
With the merge process running SPA, no such state exists: both views
change in one atomic warehouse transaction.
"""

from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.schemas import paper_views_example1, paper_world

from benchmarks.conftest import fmt_table


def run(coordinated: bool) -> WarehouseSystem:
    world = paper_world()
    kind = "complete" if coordinated else "convergent"
    system = WarehouseSystem(
        world,
        paper_views_example1(),
        SystemConfig(manager_kind=kind, compute_cost=(1.0, 0.0, 0.0)),
    )
    if not coordinated:
        # V2's delta computation is slower than V1's: the paper's t2 < t3
        # gap, during which the two views disagree.
        system.view_managers["V2"].compute_cost = (8.0, 0.0, 0.0)
    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.run()
    return system


def table_rows(system: WarehouseSystem) -> list[list[object]]:
    rows = []
    for state in system.history:
        rows.append(
            [
                f"{state.time:6.2f}",
                sorted(tuple(r.values()) for r in state.view("V1")),
                sorted(tuple(r.values()) for r in state.view("V2")),
            ]
        )
    return rows


def mutually_inconsistent_states(system: WarehouseSystem) -> int:
    """States where V1 reflects the S insert but V2 does not (or reverse)."""
    count = 0
    for state in system.history:
        has_v1 = len(state.view("V1")) > 0
        has_v2 = len(state.view("V2")) > 0
        if has_v1 != has_v2:
            count += 1
    return count


def test_table1_anomaly_and_fix(benchmark, report):
    uncoordinated, coordinated = benchmark.pedantic(
        lambda: (run(coordinated=False), run(coordinated=True)),
        rounds=1,
        iterations=1,
    )

    report("Table 1 — uncoordinated (per-view managers write independently):")
    report(fmt_table(["time", "V1", "V2"], table_rows(uncoordinated)))
    bad = mutually_inconsistent_states(uncoordinated)
    report(f"mutually inconsistent states: {bad}   "
           f"(the paper's t2 row, where V1 moved and V2 did not)")

    report("")
    report("Table 1 — coordinated (merge process, SPA):")
    report(fmt_table(["time", "V1", "V2"], table_rows(coordinated)))
    good = mutually_inconsistent_states(coordinated)
    report(f"mutually inconsistent states: {good}")
    report(f"MVC-complete verified: {bool(coordinated.check_mvc('complete'))}")

    # Shape claims.
    assert bad >= 1, "the anomaly must be reproducible"
    assert good == 0
    assert coordinated.check_mvc("complete")
    assert coordinated.warehouse.commits == 1  # one atomic transaction
