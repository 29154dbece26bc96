#!/usr/bin/env python3
"""Quickstart: the paper's Table 1, fixed by the merge process.

Example 1 of the paper: two warehouse views V1 = R ./ S and V2 = S ./ T.
A single source update (inserting [2,3] into S) affects both views.
Without coordination, V1 reflects the insert before V2 does and a reader
can observe mutually inconsistent views.  With the WHIPS architecture —
per-view managers feeding the Simple Painting Algorithm — both views
change in one atomic warehouse transaction.

Run:  python examples/quickstart.py
"""

from repro import (
    SystemConfig,
    Update,
    WarehouseSystem,
    paper_views_example1,
    paper_world,
)


def show_state(state) -> str:
    v1 = [tuple(sorted(r.items())) for r in state.view("V1").sorted_rows()]
    v2 = [tuple(sorted(r.items())) for r in state.view("V2").sorted_rows()]
    return f"V1={v1}  V2={v2}"


def main() -> None:
    # Base data (Table 1 at t0): R = {[1,2]}, S = {}, T = {[3,4]}.
    world = paper_world()
    system = WarehouseSystem(
        world,
        paper_views_example1(),
        SystemConfig(manager_kind="complete"),  # complete managers + SPA
    )

    # t1: a source transaction inserts tuple [2,3] into S.
    system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
    system.run()

    print("Warehouse state sequence (one line per warehouse transaction):")
    for state in system.history:
        print(f"  t={state.time:6.2f}  {show_state(state)}")

    report = system.check_mvc("complete")
    print(f"\nMVC-complete: {bool(report)}")
    print(f"Strongest level achieved: {system.classify()}")
    print(f"Warehouse transactions: {system.warehouse.commits} "
          f"(both views updated atomically in one)")

    print(f"\nRun report:\n{system.report().format()}")


if __name__ == "__main__":
    main()
