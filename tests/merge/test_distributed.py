"""Tests for §6.1 view partitioning."""

import pytest

from repro.errors import MergeError
from repro.merge.distributed import (
    estimate_plan_cost,
    partition_views,
    view_to_group_map,
)
from repro.relational.expressions import BaseRelation, Join, ViewDefinition
from repro.relational.parser import parse_view


def views(*texts):
    return [parse_view(t) for t in texts]


class TestPartition:
    def test_figure3_partition(self):
        """V1=R./S and V2=S./T share S; V3=Q stands alone."""
        defs = views(
            "V1 = SELECT * FROM R JOIN S",
            "V2 = SELECT * FROM S JOIN T",
            "V3 = SELECT * FROM Q",
        )
        assert partition_views(defs) == [("V1", "V2"), ("V3",)]

    def test_fully_disjoint(self):
        defs = views("A = SELECT * FROM X", "B = SELECT * FROM Y")
        assert partition_views(defs) == [("A",), ("B",)]

    def test_fully_connected(self):
        defs = views(
            "A = SELECT * FROM X JOIN Y",
            "B = SELECT * FROM Y JOIN Z",
            "C = SELECT * FROM Z",
        )
        assert partition_views(defs) == [("A", "B", "C")]

    def test_transitive_sharing(self):
        defs = views(
            "A = SELECT * FROM X",
            "B = SELECT * FROM X JOIN Y",
            "C = SELECT * FROM Y",
            "D = SELECT * FROM W",
        )
        assert partition_views(defs) == [("A", "B", "C"), ("D",)]

    def test_empty_rejected(self):
        with pytest.raises(MergeError):
            partition_views([])

    def test_duplicate_names_rejected(self):
        defs = views("A = SELECT * FROM X", "A = SELECT * FROM Y")
        with pytest.raises(MergeError):
            partition_views(defs)

    def test_single_5000_view_component(self):
        """Regression: a ~5k-view connected component must not recurse.

        The old recursive ``_UnionFind.find`` compressed one parent hop
        per stack frame, so a single long chain of views sharing
        relations pairwise blew Python's recursion limit (~1000).
        """
        n = 5000
        defs = [
            ViewDefinition(
                f"V{i:04d}",
                Join(BaseRelation(f"rel{i}"), BaseRelation(f"rel{i + 1}")),
            )
            for i in range(n)
        ]
        groups = partition_views(defs)
        assert len(groups) == 1
        assert len(groups[0]) == n


class TestCoalesce:
    def test_max_groups_merges_smallest(self):
        defs = views(
            "A = SELECT * FROM X",
            "B = SELECT * FROM Y",
            "C = SELECT * FROM Z",
        )
        groups = partition_views(defs, max_groups=2)
        assert len(groups) == 2
        assert sorted(v for g in groups for v in g) == ["A", "B", "C"]

    def test_max_groups_one_merges_all(self):
        defs = views("A = SELECT * FROM X", "B = SELECT * FROM Y")
        assert partition_views(defs, max_groups=1) == [("A", "B")]

    def test_max_groups_larger_than_partition_is_noop(self):
        defs = views("A = SELECT * FROM X", "B = SELECT * FROM Y")
        assert len(partition_views(defs, max_groups=10)) == 2


class TestEstimatePlanCost:
    def test_join_outweighs_scan(self):
        scan = views("A = SELECT * FROM Q")[0]
        join = views("B = SELECT * FROM R JOIN S")[0]
        assert estimate_plan_cost(join) > estimate_plan_cost(scan)

    def test_weights_accumulate(self):
        # Join(2.0) + two BaseRelations(1.0 each) = 4.0
        join = views("B = SELECT * FROM R JOIN S")[0]
        assert estimate_plan_cost(join) == pytest.approx(4.0)
        # Project(0.2) + Select(0.2) on top of the join
        spj = views("C = SELECT A FROM R JOIN S WHERE A < 3")[0]
        assert estimate_plan_cost(spj) == pytest.approx(4.4)

    def test_deeper_tree_costs_more(self):
        two_way = views("A = SELECT * FROM R JOIN S")[0]
        three_way = views("B = SELECT * FROM R JOIN S JOIN T")[0]
        assert estimate_plan_cost(three_way) > estimate_plan_cost(two_way)


class TestCostKeyedCoalesce:
    def test_heavy_groups_not_paired(self):
        """Two heavy join components must not be merged while cheap
        scan components exist — the heap is keyed by estimated cost,
        not view count."""
        defs = views(
            # heavy singleton components (three-way joins, cost 8.2 each)
            "H1 = SELECT * FROM R1 JOIN R2 JOIN R3",
            "H2 = SELECT * FROM S1 JOIN S2 JOIN S3",
            # cheap singleton components (bare scans, cost 1.0 each)
            "C1 = SELECT * FROM Q1",
            "C2 = SELECT * FROM Q2",
            "C3 = SELECT * FROM Q3",
        )
        groups = partition_views(defs, max_groups=3)
        assert len(groups) == 3
        by_view = view_to_group_map(groups)
        # the cheap scans coalesced together; each heavy view kept its
        # own merge process.
        assert by_view["H1"] == ("H1",)
        assert by_view["H2"] == ("H2",)
        assert by_view["C1"] == ("C1", "C2", "C3")


class TestViewToGroupMap:
    def test_round_trip(self):
        groups = [("A", "B"), ("C",)]
        mapping = view_to_group_map(groups)
        assert mapping == {"A": ("A", "B"), "B": ("A", "B"), "C": ("C",)}

    def test_empty(self):
        assert view_to_group_map([]) == {}

