#!/usr/bin/env python3
"""Distributing the merge process (§6.1 / Figure 3).

The merge process can become a bottleneck as the update rate grows.  §6.1
partitions the view managers "into groups such that base relations used in
the views of one group are disjoint with those used in the views of other
groups", assigning one merge process per group.

This example builds a warehouse with six views over disjoint relation
clusters, drives the same high-rate workload through one merge process and
through the partitioned configuration, and compares merge utilisation and
freshness.  Both runs verify MVC-complete.

Run:  python examples/distributed_merge.py
"""

from repro import (
    Schema,
    SourceWorld,
    SystemConfig,
    WarehouseSystem,
    WorkloadSpec,
    UpdateStreamGenerator,
    parse_view,
    partition_views,
)
from repro.workloads.generator import post_stream


def make_world() -> SourceWorld:
    world = SourceWorld()
    for cluster in ("a", "b", "c"):
        world.create_relation(f"R_{cluster}", Schema(["k", "v"]), f"src_{cluster}")
        world.create_relation(f"S_{cluster}", Schema(["k", "w"]), f"src_{cluster}")
    return world


def make_views():
    views = []
    for cluster in ("a", "b", "c"):
        views.append(parse_view(f"J_{cluster} = SELECT * FROM R_{cluster} JOIN S_{cluster}"))
        views.append(parse_view(f"C_{cluster} = SELECT * FROM R_{cluster}"))
    return views


def run(groups: int):
    world = make_world()
    spec = WorkloadSpec(updates=300, rate=5.0, seed=42, value_range=6,
                        mix=(0.6, 0.2, 0.2), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world,
        make_views(),
        SystemConfig(
            manager_kind="complete",
            merge_groups=groups,
            merge_message_cost=0.25,  # coordination work per message
            seed=42,
        ),
    )
    post_stream(system, stream)
    system.run()
    metrics = system.report()
    merge_util = max(
        metrics.processes[m.name].utilisation for m in system.merge_processes
    )
    ok = metrics.verified
    return system, metrics, merge_util, ok


def main() -> None:
    views = make_views()
    print("View partition by shared base relations (Figure 3 style):")
    for group in partition_views(views):
        print(f"  merge group: {group}")
    print()

    header = (f"{'merges':>7} {'MVC ok':>7} {'makespan':>9} "
              f"{'mean staleness':>15} {'max merge util':>15}")
    print(header)
    for groups in (1, 3):
        system, metrics, util, ok = run(groups)
        print(f"{len(system.merge_processes):>7} {str(ok):>7} "
              f"{metrics.makespan:>9.1f} {metrics.mean_staleness:>15.2f} "
              f"{util:>15.2%}")
    print("\nPartitioning spreads the merge work: lower per-merge utilisation")
    print("and fresher views at the same update rate, with MVC preserved.")


if __name__ == "__main__":
    main()
