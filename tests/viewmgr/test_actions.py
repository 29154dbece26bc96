"""Tests for actions and action lists."""

import pytest

from repro.errors import ViewManagerError
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.viewmgr.actions import Action, ActionKind, ActionList


class TestAction:
    def test_apply_delta(self):
        action = Action("V", ActionKind.APPLY_DELTA, Delta.insert(Row(a=1)))
        rel = Relation()
        action.apply_to(rel)
        assert Row(a=1) in rel

    def test_replace(self):
        action = Action(
            "V", ActionKind.REPLACE, replacement=Relation(rows=[Row(a=7)] * 2)
        )
        rel = Relation(rows=[Row(a=1)])
        action.apply_to(rel)
        assert rel.sorted_rows() == [Row(a=7), Row(a=7)]


class TestActionList:
    def test_from_delta(self):
        al = ActionList.from_delta("V", "m", (3,), Delta.insert(Row(a=1)))
        assert al.last_update == 3
        assert al.covered == (3,)
        assert not al.is_empty

    def test_from_empty_delta_still_a_list(self):
        al = ActionList.from_delta("V", "m", (3,), Delta())
        assert al.is_empty
        assert al.covered == (3,)

    def test_covered_must_be_increasing(self):
        with pytest.raises(ViewManagerError):
            ActionList("V", "m", 2, (2, 1), ())
        with pytest.raises(ViewManagerError):
            ActionList("V", "m", 2, (1, 1, 2), ())

    def test_covered_nonempty(self):
        with pytest.raises(ViewManagerError):
            ActionList("V", "m", 0, (), ())

    def test_last_update_must_match(self):
        with pytest.raises(ViewManagerError):
            ActionList("V", "m", 5, (1, 2), ())

    def test_actions_for_other_view_rejected(self):
        action = Action("Other", ActionKind.APPLY_DELTA, Delta.insert(Row(a=1)))
        with pytest.raises(ViewManagerError):
            ActionList("V", "m", 1, (1,), (action,))

    def test_replacement_constructor(self):
        contents = Relation(rows=[Row(a=1), Row(a=1)])
        al = ActionList.replacement("V", "m", (1, 2), contents)
        rel = Relation(rows=[Row(a=9)])
        for action in al.actions:
            action.apply_to(rel)
        assert rel == contents

    def test_net_delta(self):
        al = ActionList.from_delta("V", "m", (1,), Delta({Row(a=1): 2}))
        assert al.net_delta() == Delta({Row(a=1): 2})
        empty = ActionList.from_delta("V", "m", (1,), Delta())
        assert empty.net_delta().is_empty()

    def test_str(self):
        al = ActionList.from_delta("V", "m", (1, 3), Delta.insert(Row(a=1)))
        assert "U{1,3}" in str(al)
