"""Tests for the pass-through merge and the weakest-level selection rule."""

import pytest

from repro.errors import MergeError, ReproError
from repro.merge.complete_n import CompleteNMerge
from repro.merge.pa import PaintingAlgorithm
from repro.merge.passthrough import PassThroughMerge
from repro.merge.selection import select_algorithm, weakest_level
from repro.merge.spa import SimplePaintingAlgorithm
from repro.system.config import SystemConfig

from tests.conftest import empty_al, make_al, unit_summary


class TestPassThrough:
    def test_forwards_immediately(self):
        merge = PassThroughMerge(("V1",))
        units = merge.receive_action_list(make_al("V1", [1]))
        assert unit_summary(units) == [((1,), ("V1",))]

    def test_ignores_rels(self):
        merge = PassThroughMerge(("V1",))
        assert merge.receive_rel(1, frozenset({"V1"})) == []

    def test_accepts_out_of_order_lists(self):
        """Convergent managers may emit several lists per update."""
        merge = PassThroughMerge(("V1",))
        merge.receive_action_list(make_al("V1", [2], manager="m"))
        units = merge.receive_action_list(make_al("V1", [2], manager="m", tag=1))
        assert len(units) == 1

    def test_drops_empty_lists(self):
        merge = PassThroughMerge(("V1",))
        assert merge.receive_action_list(empty_al("V1", [1])) == []

    def test_always_idle(self):
        assert PassThroughMerge(("V1",)).idle()


class TestWeakestLevel:
    def test_ordering(self):
        assert weakest_level(["complete", "strong"]) == "strong"
        assert weakest_level(["strong", "convergent"]) == "convergent"
        assert weakest_level(["complete"]) == "complete"
        assert weakest_level(["complete", "complete-n"]) == "complete-n"
        assert weakest_level(["broken", "complete"]) == "broken"

    def test_empty_rejected(self):
        with pytest.raises(MergeError):
            weakest_level([])

    def test_unknown_level_rejected(self):
        with pytest.raises(MergeError):
            weakest_level(["amazing"])


def select(*kinds, algorithm="auto"):
    """The algorithm a merge group of one view per manager kind gets."""
    views = tuple(f"V{i}" for i in range(1, len(kinds) + 1))
    config = SystemConfig(manager_kinds=dict(zip(views, kinds)),
                          merge_algorithm=algorithm, block_size=3)
    return select_algorithm(views, config, name="m")


class TestChooseAlgorithm:
    """The algorithm `select_algorithm` chooses for one merge group."""

    def test_all_complete_gives_spa(self):
        assert isinstance(select("complete", "complete"), SimplePaintingAlgorithm)

    def test_any_strong_gives_pa(self):
        assert isinstance(select("complete", "strong"), PaintingAlgorithm)

    def test_complete_n_gives_pa(self):
        """A group of complete-N managers alone keeps its blocks; mixed
        with any other level, PA treats a block as a batch."""
        alone = select("complete-n", "complete-n")
        assert isinstance(alone, CompleteNMerge) and alone.n == 3
        assert isinstance(select("complete", "complete-n"), PaintingAlgorithm)
        assert isinstance(select("complete-n", "strong"), PaintingAlgorithm)

    def test_any_convergent_gives_passthrough(self):
        assert isinstance(select("strong", "convergent"), PassThroughMerge)

    def test_naive_gets_passthrough_or_any_explicit_algorithm(self):
        assert isinstance(select("naive", "complete"), PassThroughMerge)
        assert isinstance(select("naive", algorithm="spa"), SimplePaintingAlgorithm)

    def test_explicit_algorithm_above_a_manager_refused(self):
        with pytest.raises(ReproError, match="below the complete"):
            select("complete", "strong", algorithm="spa")
        assert isinstance(select("complete", algorithm="pa"), PaintingAlgorithm)
