"""Tests for the view store and warehouse state history."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RelationError, SchemaError, WarehouseError
from repro.relational.delta import Delta
from repro.relational.parser import parse_view
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.viewmgr.actions import Action, ActionKind, ActionList
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
        sequence = [state.view("V2") for state in store.history]
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


def live_contents(store):
    return {n: dict(store.view(n).counts()) for n in store.view_names}


class TestSharedSnapshots:
    """State i re-copies the views of its transaction and shares the rest."""

    TXNS = [
        ("V2", Delta.insert(Row(B=1))),
        ("V3", Delta.insert(Row(A=1))),
        ("V2", Delta.insert(Row(B=2))),
        ("V1", Delta.insert(Row(A=1, B=2, C=3))),
        ("V2", Delta.delete(Row(B=1))),
    ]

    def test_untouched_views_are_shared_touched_ones_copied(self):
        store = ViewStore(V3_DEFS, SCHEMAS)
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
            assert contents(state) == live_contents(store)
            previous = state

    def test_without_history_a_state_reads_until_it_is_superseded(self):
        store = ViewStore(V3_DEFS, SCHEMAS, record_history=False)
        states, frozen = [], []
        for i, (view, delta) in enumerate(self.TXNS, start=1):
            state = store.apply(delta_txn(i, view, delta, i), float(i))
            assert state.index == i and state is store.current_state
            if i % 2:  # read while current: a full copy of the live views
                assert contents(state) == live_contents(store)
                assert all(
                    state.view(n) is not store.view(n) for n in store.view_names
                )
            states.append(state)
            frozen.append(live_contents(store))
        for i, state in enumerate(states, start=1):
            if i % 2:  # read in time: still what it was, never later contents
                assert contents(state) == frozen[i - 1]
            else:  # superseded unread: nothing was logged to rebuild it from
                with pytest.raises(WarehouseError, match="record_history"):
                    state.views
        assert contents(store.history[0]) == {"V1": {}, "V2": {}, "V3": {}}

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

    def test_initialize_view_recopies_only_its_view(self, store):
        first = store.current_state
        store.initialize_view("V2", Relation(rows=[Row(B=9)]))
        state = store.current_state
        # A new ws_0 that equals a full re-copy of the live views ...
        assert state is not first and contents(first)["V2"] == {}
        assert contents(state) == live_contents(store)
        # ... copies the named view, shares the others with the old ws_0,
        # and never aliases a live relation.
        assert state.view("V2") is not first.view("V2")
        assert state.view("V1") is first.view("V1")
        assert all(state.view(n) is not store.view(n) for n in store.view_names)

    def test_initialize_every_view_copies_each_once(self, monkeypatch):
        store = ViewStore(V3_DEFS, SCHEMAS)
        copies = []
        original = Relation.copy
        monkeypatch.setattr(
            Relation, "copy", lambda rel: copies.append(rel) or original(rel)
        )
        for n, name in enumerate(store.view_names):
            store.initialize_view(name, Relation(rows=[row_of(name, n)]))
        assert len(copies) == len(store.view_names)  # was views ** 2
        assert contents(store.current_state) == {
            name: {row_of(name, n): 1}
            for n, name in enumerate(store.view_names)
        }


ATTRS = {"V1": ("A", "B", "C"), "V2": ("B",), "V3": ("A",)}


def row_of(view, value):
    return Row(**{attr: value for attr in ATTRS[view]})


@st.composite
def transactions(draw):
    """Per transaction, 1-3 action lists of ``(view, kind, number)``: a batch
    may name a view twice; the interpreter below turns ``kind`` into an
    insert, a delete of a row that is there, or a REPLACE."""
    action_list = st.tuples(
        st.sampled_from(sorted(ATTRS)),
        st.sampled_from(["insert", "insert", "delete", "replace", "empty"]),
        st.integers(0, 1000),
    )
    return draw(st.lists(st.lists(action_list, min_size=1, max_size=3),
                         min_size=1, max_size=12))


def build_txn(store, txn_id, spec):
    """The transaction for ``spec``, against a scratch copy of the store."""
    scratch = {n: store.view(n).copy() for n in store.view_names}
    lists = []
    for view, kind, number in spec:
        present = sorted(scratch[view].counts())
        if kind == "replace":
            rows = Relation(rows=[row_of(view, number % 5 + k) for k in range(number % 3)])
            action_list = ActionList.replacement(view, "m", (txn_id,), rows)
        else:
            if kind == "insert":
                delta = Delta.insert(row_of(view, number % 5), number % 2 + 1)
            elif kind == "delete" and present:
                delta = Delta.delete(present[number % len(present)][0])
            else:
                delta = Delta()
            action_list = ActionList.from_delta(view, "m", (txn_id,), delta)
        for action in action_list.actions:
            action.apply_to(scratch[view])
        lists.append(action_list)
    return WarehouseTransaction(txn_id, "merge", tuple(lists), (txn_id,))


@given(specs=transactions(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_history_read_in_any_order_matches_eager_copies(specs, data):
    """The full-copy oracle of TestSharedSnapshots against the delta log:
    REPLACE actions, batched transactions, reads in any order and between
    commits, what a late-built state shares, and that it never changes."""
    store = ViewStore(V3_DEFS, SCHEMAS)
    eager = [live_contents(store)]  # the deleted per-commit full copy
    touched = [set()]  # touched[i]: the views of the commit that made state i
    built = {0: store.history[0]}

    def read(index):
        state = store.history[index]
        assert contents(state) == eager[index]
        if index not in built:
            base = max(i for i in built if i < index)
            named = set().union(*touched[base + 1:index + 1])
            for name in store.view_names:
                shared = state.view(name) is built[base].view(name)
                assert shared == (name not in named)
                assert state.view(name) is not store.view(name)
            built[index] = state
        assert store.history[index] is built[index]

    for txn_id, spec in enumerate(specs, start=1):
        state = store.apply(build_txn(store, txn_id, spec), float(txn_id))
        assert state.index == txn_id and state is store.history[txn_id]
        eager.append(live_contents(store))
        touched.append({view for view, _kind, _number in spec})
        for index in data.draw(st.lists(st.integers(0, txn_id), max_size=2)):
            read(index)
    for index in data.draw(st.permutations(range(len(eager)))):
        read(index)
    assert [contents(state) for state in store.history] == eager


class TestFailedTransaction:
    """A transaction whose k-th action fails leaves no trace."""

    @pytest.mark.parametrize("record_history", [True, False])
    @pytest.mark.parametrize("fail_at", [0, 1, 2, 3])
    def test_rollback_keeps_relations_indexes_and_columnar_twins(
        self, fail_at, record_history
    ):
        store = ViewStore(V3_DEFS, SCHEMAS, record_history=record_history)
        for i, (view, delta) in enumerate(TestSharedSnapshots.TXNS, start=1):
            store.apply(delta_txn(i, view, delta, i), float(i))
        live = {n: store.view(n) for n in store.view_names}
        twins = {n: rel.columnar() for n, rel in live.items()}
        indexes = {n: twins[n].index_on(ATTRS[n][:1]) for n in live}
        before = live_contents(store)
        history, log = store.history, store.commit_log

        good = [
            ActionList.from_delta("V2", "m", (9,), Delta({Row(B=2): -1, Row(B=7): 2})),
            ActionList.replacement("V3", "m", (9,), Relation(rows=[Row(A=5)])),
            ActionList.from_delta("V2", "m", (9,), Delta.delete(Row(B=7))),
        ]
        underflow = ActionList.from_delta(
            "V1", "m", (9,), Delta({Row(A=8, B=8, C=8): 1, Row(A=9, B=9, C=9): -1})
        )
        lists = good[:fail_at] + [underflow] + good[fail_at:]
        with pytest.raises(RelationError):
            store.apply(WarehouseTransaction(9, "merge", tuple(lists), (9,)), 9.0)

        assert live_contents(store) == before
        assert store.history == history and store.commit_log == log
        for name, relation in live.items():
            assert store.view(name) is relation
            rebuilt = relation.copy()
            if name == "V3" and fail_at >= 2:
                continue  # a REPLACE drops indexes and twin, as it always did
            assert relation.columnar() is twins[name]
            assert relation.columnar().index_on(ATTRS[name][:1]) is indexes[name]
            assert relation.columnar() == rebuilt.columnar()
            fresh = rebuilt.columnar().index_on(ATTRS[name][:1])
            assert indexes[name].table() == fresh.table()
        # The store still commits, and a history-on store still shares.
        after = store.apply(delta_txn(10, "V2", Delta.insert(Row(B=3)), 10), 10.0)
        assert after.index == 6 and contents(after) == live_contents(store)

    def test_a_row_that_does_not_fit_the_schema_fails_before_any_change(self, store):
        store.apply(delta_txn(1, "V2", Delta.insert(Row(B=1)), 1), 1.0)
        for bad in (
            Delta({(1,): -1, (2,): 1, ("3",): 1}, ("B",)),
            Delta({(1,): -1, (2,): 1}, ("Z",)),
            Delta({Row(Z=3): 1}),
        ):
            with pytest.raises(SchemaError):
                store.apply(delta_txn(2, "V2", bad, 2), 2.0)
        assert live_contents(store)["V2"] == {Row(B=1): 1}
        assert len(store.commit_log) == 1

    def test_a_replace_that_fails_half_way_puts_the_old_rows_back(self):
        store = ViewStore(V3_DEFS, SCHEMAS)
        store.apply(delta_txn(1, "V3", Delta.insert(Row(A=1), 2), 1), 1.0)
        half = Action(
            "V3",
            ActionKind.REPLACE,
            replacement=Relation(rows=[Row(A=5), Row(A="x")]),
        )
        lists = (ActionList("V3", "m", 2, (2,), (half,)),)
        with pytest.raises(SchemaError):
            store.apply(WarehouseTransaction(2, "merge", lists, (2,)), 2.0)
        assert live_contents(store)["V3"] == {Row(A=1): 2}
        assert len(store.history) == 2
