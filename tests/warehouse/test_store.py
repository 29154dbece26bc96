"""Tests for the view store and warehouse state history."""

import pytest

from repro.errors import WarehouseError
from repro.relational.delta import Delta
from repro.relational.parser import parse_view
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.viewmgr.actions import ActionList
from repro.warehouse.store import ViewStore
from repro.warehouse.txn import WarehouseTransaction

SCHEMAS = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}
DEFS = [
    parse_view("V1 = SELECT * FROM R JOIN S"),
    parse_view("V2 = SELECT B FROM S"),
]


def delta_txn(txn_id, view, delta, row):
    lists = (ActionList.from_delta(view, view, (row,), delta),)
    return WarehouseTransaction(txn_id, "merge", lists, (row,))


@pytest.fixture
def store() -> ViewStore:
    return ViewStore(DEFS, SCHEMAS)


class TestSetup:
    def test_views_created_with_inferred_schema(self, store):
        assert store.view("V1").schema.names == ("A", "B", "C")
        assert store.view_names == ("V1", "V2")

    def test_duplicate_view_rejected(self):
        with pytest.raises(WarehouseError):
            ViewStore(DEFS + [DEFS[0]], SCHEMAS)

    def test_unknown_view(self, store):
        with pytest.raises(WarehouseError):
            store.view("Zed")
        with pytest.raises(WarehouseError):
            store.definition("Zed")

    def test_initialize_view(self, store):
        contents = Relation(rows=[Row(A=1, B=2, C=3)])
        store.initialize_view("V1", contents)
        assert store.view("V1") == contents
        assert store.history[0].view("V1") == contents

    def test_initialize_after_commit_rejected(self, store):
        store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 1.0)
        with pytest.raises(WarehouseError):
            store.initialize_view("V1", Relation())


class TestApply:
    def test_apply_records_state(self, store):
        state = store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 2.5)
        assert state.index == 1
        assert state.txn_id == 1
        assert state.time == 2.5
        assert state.covered_rows == (1,)
        assert Row(B=1) in store.view("V2")

    def test_history_snapshots_are_immutable_copies(self, store):
        store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 1.0)
        store.apply(delta_txn(2, "V2", Delta.insert(Row(B=2)), 2), 2.0)
        assert len(store.history[1].view("V2")) == 1
        assert len(store.history[2].view("V2")) == 2

    def test_atomic_rollback_on_failure(self, store):
        store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 1.0)
        bad = WarehouseTransaction(
            2,
            "merge",
            (
                ActionList.from_delta("V2", "m", (2,), Delta.insert(Row(B=5))),
                ActionList.from_delta("V1", "m", (2,), Delta.delete(Row(A=9, B=9, C=9))),
            ),
            (2,),
        )
        with pytest.raises(Exception):
            store.apply(bad, 2.0)
        # The successful first list was rolled back with the failing one.
        assert Row(B=5) not in store.view("V2")
        assert len(store.history) == 2  # no new state recorded

    def test_replace_action(self, store):
        replacement = Relation(rows=[Row(B=7), Row(B=8)])
        lists = (ActionList.replacement("V2", "m", (1,), replacement),)
        store.apply(WarehouseTransaction(1, "merge", lists, (1,)), 1.0)
        assert store.view("V2") == replacement

    def test_states_of_view(self, store):
        store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 1.0)
        sequence = store.states_of_view("V2")
        assert len(sequence) == 2
        assert len(sequence[0]) == 0 and len(sequence[1]) == 1


class TestHistoryToggle:
    def test_record_history_off_keeps_first_and_last(self):
        store = ViewStore(DEFS, SCHEMAS, record_history=False)
        for i in range(1, 4):
            store.apply(delta_txn(i, "V2", Delta.insert(Row(B=i)), i), float(i))
        assert len(store.history) == 2
        assert store.history[0].txn_id == -1
        assert store.history[-1].txn_id == 3
        assert store.current_state.txn_id == 3

    def test_commit_log_is_kept_without_history(self):
        store = ViewStore(DEFS, SCHEMAS, record_history=False)
        for i in range(1, 4):
            store.apply(delta_txn(i, "V2", Delta.insert(Row(B=i)), i), float(i))
        assert store.commit_log == ((1, 1.0, (1,)), (2, 2.0, (2,)), (3, 3.0, (3,)))
        assert store.commit_log[0].covered_rows == (1,)


V3_DEFS = DEFS + [parse_view("V3 = SELECT A FROM R")]


def contents(state):
    return {name: dict(rel.counts()) for name, rel in state.views.items()}


class TestSharedSnapshots:
    """State i re-copies the views of its transaction and shares the rest."""

    TXNS = [
        ("V2", Delta.insert(Row(B=1))),
        ("V3", Delta.insert(Row(A=1))),
        ("V2", Delta.insert(Row(B=2))),
        ("V1", Delta.insert(Row(A=1, B=2, C=3))),
        ("V2", Delta.delete(Row(B=1))),
    ]

    @pytest.mark.parametrize("record_history", [True, False])
    def test_untouched_views_are_shared_touched_ones_copied(self, record_history):
        store = ViewStore(V3_DEFS, SCHEMAS, record_history=record_history)
        previous = store.current_state
        for i, (view, delta) in enumerate(self.TXNS, start=1):
            state = store.apply(delta_txn(i, view, delta, i), float(i))
            for name in store.view_names:
                if name == view:
                    assert state.view(name) is not previous.view(name)
                    assert state.view(name) is not store.view(name)
                else:
                    assert state.view(name) is previous.view(name)
            # The full-copy oracle: every view equals the live store's.
            assert contents(state) == {
                n: dict(store.view(n).counts()) for n in store.view_names
            }
            previous = state

    def test_earlier_states_do_not_change_after_later_commits(self):
        store = ViewStore(V3_DEFS, SCHEMAS)
        frozen = [contents(store.current_state)]
        for i, (view, delta) in enumerate(self.TXNS, start=1):
            store.apply(delta_txn(i, view, delta, i), float(i))
            frozen.append(contents(store.current_state))
            assert [contents(state) for state in store.history] == frozen

    def test_multi_view_transaction_copies_each_of_its_views_once(self, store):
        lists = (
            ActionList.from_delta("V1", "m", (1,), Delta.insert(Row(A=1, B=2, C=3))),
            ActionList.from_delta("V2", "m", (1,), Delta.insert(Row(B=2))),
            ActionList.from_delta("V2", "m", (1,), Delta.insert(Row(B=3))),
        )
        before = store.current_state
        state = store.apply(WarehouseTransaction(1, "merge", lists, (1,)), 1.0)
        assert state.view("V1") is not before.view("V1")
        assert len(state.view("V2")) == 2 and len(before.view("V2")) == 0

    def test_rollback_leaves_shared_snapshots_alone(self):
        store = ViewStore(V3_DEFS, SCHEMAS)
        store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 1.0)
        before = store.current_state
        snapshot = contents(before)
        bad = WarehouseTransaction(
            2,
            "merge",
            (
                ActionList.from_delta("V2", "m", (2,), Delta.insert(Row(B=5))),
                ActionList.from_delta("V3", "m", (2,), Delta.delete(Row(A=9))),
            ),
            (2,),
        )
        with pytest.raises(Exception):
            store.apply(bad, 2.0)
        assert store.current_state is before and contents(before) == snapshot
        assert len(store.commit_log) == 1
        # The next commit still shares the untouched views with that state.
        after = store.apply(delta_txn(3, "V3", Delta.insert(Row(A=4)), 3), 3.0)
        assert after.view("V2") is before.view("V2")
        assert after.view("V1") is before.view("V1")
        assert contents(after)["V2"] == snapshot["V2"] == {Row(B=1): 1}
        assert contents(before) == snapshot

    def test_initialize_view_takes_a_full_copy(self, store):
        first = store.current_state
        store.initialize_view("V2", Relation(rows=[Row(B=9)]))
        state = store.current_state
        assert all(state.view(n) is not first.view(n) for n in store.view_names)
        assert all(state.view(n) is not store.view(n) for n in store.view_names)
