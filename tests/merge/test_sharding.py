"""Tests for consistent-hash shard placement (§6.1 at scale)."""

import pytest

from repro.errors import MergeError
from repro.merge.distributed import partition_views, view_to_group_map
from repro.merge.sharding import (
    ShardRouter,
    shard_view_groups,
    stable_hash,
)
from repro.relational.expressions import BaseRelation, Join, ViewDefinition
from repro.relational.parser import parse_view
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.schemas import paper_views_example3, paper_world


def clusters(n, views_per=1):
    """n relation-disjoint components, each with `views_per` views."""
    defs = []
    for i in range(n):
        for j in range(views_per):
            defs.append(
                ViewDefinition(
                    f"V{i:03d}_{j}",
                    Join(
                        BaseRelation(f"rel{i}a"), BaseRelation(f"rel{i}b")
                    ),
                )
            )
    return defs


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("shard0#1") == stable_hash("shard0#1")

    def test_spread(self):
        values = {stable_hash(f"k{i}") for i in range(100)}
        assert len(values) == 100


class TestShardRouter:
    def test_rejects_bad_fleet(self):
        with pytest.raises(MergeError):
            ShardRouter([])
        with pytest.raises(MergeError):
            ShardRouter(["a", "a"])
        with pytest.raises(MergeError):
            ShardRouter(["a"], replicas=0)
        with pytest.raises(MergeError):
            ShardRouter(["a"], load_slack=-0.1)

    def test_deterministic_placement(self):
        groups = [tuple(sorted(g)) for g in (("A", "B"), ("C",), ("D",))]
        one = ShardRouter(["s0", "s1"]).assign(groups)
        two = ShardRouter(["s0", "s1"]).assign(list(reversed(groups)))
        assert one == two

    def test_every_group_placed(self):
        groups = [(f"V{i:03d}",) for i in range(50)]
        placement = ShardRouter(["s0", "s1", "s2"]).assign(groups)
        assert set(placement) == set(groups)
        assert set(placement.values()) <= {"s0", "s1", "s2"}

    def test_cost_bounded_balance(self):
        """16 equal-cost groups over 8 shards: capacity (1.25 * 16/8 = 2.5)
        forces exactly two groups per shard."""
        groups = [(f"V{i:03d}",) for i in range(16)]
        costs = {f"V{i:03d}": 1.0 for i in range(16)}
        router = ShardRouter([f"s{i}" for i in range(8)])
        per_shard = {}
        for _group, shard in router.assign(groups, costs).items():
            per_shard[shard] = per_shard.get(shard, 0) + 1
        assert sorted(per_shard.values()) == [2] * 8

    def test_balances_cost_not_count(self):
        """One shard must not take all the heavy groups: the bounded-load
        walk fills by summed cost."""
        heavy = [(f"H{i}",) for i in range(4)]
        light = [(f"L{i:02d}",) for i in range(12)]
        costs = {g[0]: 10.0 for g in heavy}
        costs.update({g[0]: 1.0 for g in light})
        router = ShardRouter(["s0", "s1"], load_slack=0.1)
        placement = router.assign(heavy + light, costs)
        cost_per_shard = {"s0": 0.0, "s1": 0.0}
        for group, shard in placement.items():
            cost_per_shard[shard] += costs[group[0]]
        total = sum(cost_per_shard.values())
        assert max(cost_per_shard.values()) <= 1.1 * total / 2 + 10.0

    def test_stability_under_shard_add(self):
        """A fleet with one shard more moves only groups whose ring interval
        changed — far fewer than a modulo-hash reshuffle (~ (n-1)/n)."""
        groups = [(f"V{i:03d}",) for i in range(200)]
        fleet = [f"s{i}" for i in range(5)]
        before = ShardRouter(fleet[:4], load_slack=10.0).assign(groups)
        after = ShardRouter(fleet, load_slack=10.0).assign(groups)
        moved = sum(1 for g in groups if before[g] != after[g])
        # the new shard owns ~1/5 of the ring; allow generous slop but
        # require far less churn than the ~4/5 modulo hashing causes.
        assert moved < 100
        # groups that moved went to the new shard (pure ring lookup, since
        # the huge slack disables the load bound).
        assert all(after[g] == "s4" for g in groups if before[g] != after[g])

    def test_stability_under_group_churn(self):
        """Dropping one group never moves the others (huge slack: pure
        consistent hashing)."""
        groups = [(f"V{i:03d}",) for i in range(50)]
        router = ShardRouter(["s0", "s1", "s2"], load_slack=10.0)
        before = router.assign(groups)
        after = router.assign(groups[1:])
        assert all(after[g] == before[g] for g in groups[1:])

    def test_assignments_rollup(self):
        groups = [("A", "B"), ("C",)]
        costs = {"A": 1.0, "B": 2.0, "C": 4.0}
        rollup = ShardRouter(["s0"]).assignments(groups, costs)
        assert len(rollup) == 1
        assert rollup[0].shard == "s0"
        assert rollup[0].views == ("A", "B", "C")
        assert rollup[0].cost == pytest.approx(7.0)


class TestShardViewGroups:
    def test_rejects_bad_shards(self):
        with pytest.raises(MergeError):
            shard_view_groups(clusters(2), shards=0)

    def test_single_shard_merges_everything(self):
        defs = clusters(5)
        groups = shard_view_groups(defs, shards=1)
        assert len(groups) == 1
        assert len(groups[0]) == 5

    def test_coverage_and_disjointness(self):
        defs = clusters(20, views_per=2)
        groups = shard_view_groups(defs, shards=4)
        assert 1 <= len(groups) <= 4
        names = [v for g in groups for v in g]
        assert sorted(names) == sorted(d.name for d in defs)
        assert len(set(names)) == len(names)

    def test_respects_component_boundaries(self):
        """Views of one connected component always land on one shard."""
        defs = clusters(10, views_per=3)
        components = partition_views(defs)
        by_view = view_to_group_map(shard_view_groups(defs, shards=4))
        for component in components:
            shards_hit = {by_view[v] for v in component}
            assert len(shards_hit) == 1

    def test_more_shards_than_components(self):
        defs = clusters(3)
        groups = shard_view_groups(defs, shards=8)
        assert 1 <= len(groups) <= 3

    def test_single_component_short_circuit(self):
        defs = [
            parse_view("A = SELECT * FROM X JOIN Y"),
            parse_view("B = SELECT * FROM Y JOIN Z"),
        ]
        assert shard_view_groups(defs, shards=4) == [("A", "B")]


class TestBuilderIntegration:
    def test_hash_router_round_trips_through_builder(self):
        """SystemConfig(merge_router='hash') wires the router's placement
        into view_to_merge."""
        config = SystemConfig(
            manager_kind="complete",
            merge_algorithm="spa",
            merge_groups=2,
            merge_router="hash",
        )
        system = WarehouseSystem(
            paper_world(), paper_views_example3(), config
        )
        expected = shard_view_groups(system.definitions, shards=2)
        by_view = view_to_group_map(expected)
        # builder's routing map matches the router's placement: views in
        # the same router group share a merge process, cross-group views
        # never do.
        for first in by_view:
            for second in by_view:
                same_merge = (
                    system.view_to_merge[first]
                    == system.view_to_merge[second]
                )
                assert same_merge == (by_view[first] == by_view[second])
        assert len(system.merge_processes) == len(expected)
