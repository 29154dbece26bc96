"""Action lists held for their REL: the per-manager order check runs on arrival.

A list that arrives before its ``REL`` is held (§4).  Its overlap with an
earlier list from the same manager must be refused when it arrives, not
when it is released: a duplicate accepted into the held set would apply
after the first copy purged the row, and fail with the emitted unit lost.
"""

import pytest

from repro.errors import MergeError
from repro.merge.complete_n import CompleteNMerge
from repro.merge.pa import PaintingAlgorithm
from repro.merge.spa import SimplePaintingAlgorithm

from tests.conftest import make_al, unit_summary

VIEWS = ("V1", "V2")
ALGORITHMS = {
    "spa": lambda: SimplePaintingAlgorithm(VIEWS),
    "pa": lambda: PaintingAlgorithm(VIEWS),
    "complete-n": lambda: CompleteNMerge(VIEWS, n=1),
}


@pytest.mark.parametrize("kind", ALGORITHMS)
def test_duplicate_of_a_held_list_is_refused_on_arrival(kind):
    merge = ALGORITHMS[kind]()
    assert merge.receive_action_list(make_al("V1", [1])) == []
    before = (merge.vut.snapshot(), merge.pending_action_lists)
    with pytest.raises(MergeError, match="overlaps an earlier list"):
        merge.receive_action_list(make_al("V1", [1]))
    assert (merge.vut.snapshot(), merge.pending_action_lists) == before
    # The held original still applies once, when its REL arrives.
    units = merge.receive_rel(1, frozenset({"V1"}))
    assert unit_summary(units) == [((1,), ("V1",))]
    assert merge.idle()


@pytest.mark.parametrize("kind", ALGORITHMS)
def test_later_list_from_the_same_manager_is_held_behind_it(kind):
    merge = ALGORITHMS[kind]()
    merge.receive_action_list(make_al("V1", [1]))
    merge.receive_action_list(make_al("V1", [2]))
    assert merge.pending_action_lists == 2
    assert unit_summary(merge.receive_rel(1, frozenset({"V1"}))) == [((1,), ("V1",))]
    assert unit_summary(merge.receive_rel(2, frozenset({"V1"}))) == [((2,), ("V1",))]
    assert merge.idle()
