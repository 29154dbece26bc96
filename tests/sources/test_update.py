"""Tests for updates and their delta semantics."""

import pickle

import pytest

from repro.errors import SourceError
from repro.relational.delta import Delta
from repro.relational.rows import Row
from repro.sources.update import Update, UpdateKind


class TestConstruction:
    def test_insert(self):
        update = Update.insert("R", {"a": 1})
        assert update.kind is UpdateKind.INSERT
        assert update.row == Row(a=1)

    def test_delete(self):
        assert Update.delete("R", Row(a=1)).kind is UpdateKind.DELETE

    def test_modify(self):
        update = Update.modify("R", {"a": 1}, {"a": 2})
        assert update.kind is UpdateKind.MODIFY
        assert update.new_row == Row(a=2)

    def test_modify_requires_new_row(self):
        with pytest.raises(SourceError):
            Update("R", UpdateKind.MODIFY, Row(a=1))

    def test_insert_forbids_new_row(self):
        with pytest.raises(SourceError):
            Update("R", UpdateKind.INSERT, Row(a=1), Row(a=2))


class TestSemantics:
    def test_insert_delta(self):
        assert Update.insert("R", {"a": 1}).as_delta() == Delta.insert(Row(a=1))

    def test_delete_delta(self):
        assert Update.delete("R", {"a": 1}).as_delta() == Delta.delete(Row(a=1))

    def test_modify_delta(self):
        delta = Update.modify("R", {"a": 1}, {"a": 2}).as_delta()
        assert delta == Delta({Row(a=1): -1, Row(a=2): 1})

    def test_touched_rows(self):
        assert Update.insert("R", {"a": 1}).touched_rows() == (Row(a=1),)
        assert Update.modify("R", {"a": 1}, {"a": 2}).touched_rows() == (
            Row(a=1),
            Row(a=2),
        )

    def test_str(self):
        assert "insert R" in str(Update.insert("R", {"a": 1}))
        assert "->" in str(Update.modify("R", {"a": 1}, {"a": 2}))


UPDATES = [
    Update.insert("R", {"a": 1}),
    Update.delete("R", {"a": 1, "b": "x"}),
    Update.modify("R", {"a": 1}, {"a": 2}),
]


class FourFieldPickle:
    """Pickles an update the way the dataclass did before ``as_delta``
    kept its result: a bare instance plus the four field values."""

    def __init__(self, update):
        self.update = update

    def __reduce__(self):
        u = self.update
        return object.__new__, (Update,), [u.relation, u.kind, u.row, u.new_row]


class TestDeltaIsBuiltOnce:
    @pytest.mark.parametrize("update", UPDATES, ids=str)
    def test_as_delta_returns_the_same_object(self, update):
        fresh = Update(update.relation, update.kind, update.row, update.new_row)
        first = fresh.as_delta()
        assert fresh.as_delta() is first
        assert first == Update(fresh.relation, fresh.kind, fresh.row,
                               fresh.new_row).as_delta()

    @pytest.mark.parametrize("update", UPDATES, ids=str)
    def test_the_kept_delta_is_not_part_of_the_value(self, update):
        fresh = Update(update.relation, update.kind, update.row, update.new_row)
        before = (repr(fresh), hash(fresh), fresh.__reduce_ex__(4))
        fresh.as_delta()
        assert (repr(fresh), hash(fresh), fresh.__reduce_ex__(4)) == before
        assert fresh.__reduce_ex__(4)[2] == [
            fresh.relation, fresh.kind, fresh.row, fresh.new_row
        ]
        assert fresh == update and "_delta" not in repr(fresh)

    @pytest.mark.parametrize("update", UPDATES, ids=str)
    def test_pickle_round_trip_leaves_the_delta_behind(self, update):
        update.as_delta()
        loaded = pickle.loads(pickle.dumps(update))
        assert loaded == update and hash(loaded) == hash(update)
        delta = loaded.as_delta()
        assert delta == update.as_delta() and delta is not update.as_delta()

    @pytest.mark.parametrize("update", UPDATES, ids=str)
    def test_a_four_field_pickle_still_loads(self, update):
        loaded = pickle.loads(pickle.dumps(FourFieldPickle(update)))
        assert type(loaded) is Update and loaded == update
        assert loaded.as_delta() == update.as_delta()
        assert loaded.as_delta() is loaded.as_delta()
