"""Tests for state replay and the vector-valued MVC checkers."""

from repro.consistency.mvc import (
    check_mvc_complete,
    check_mvc_convergent,
    check_mvc_strong,
    classify_mvc,
)
from repro.consistency.states import (
    replay_source_states,
    source_view_values,
)
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.parser import parse_view
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.viewmgr.actions import ActionList
from repro.warehouse.store import ViewStore
from repro.warehouse.txn import WarehouseTransaction

SCHEMAS = {"R": Schema(["A"])}
DEFS = [parse_view("V = SELECT * FROM R")]


def initial() -> Database:
    db = Database()
    db.create_relation("R", SCHEMAS["R"])
    return db


def txns(*updates):
    return [SourceTransaction.single("src", u) for u in updates]


class TestReplay:
    def test_replay_produces_prefix_states(self):
        states = replay_source_states(
            initial(),
            txns(Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})),
        )
        assert [len(s.relation("R")) for s in states] == [0, 1, 2]

    def test_replay_leaves_initial_untouched(self):
        first = initial()
        replay_source_states(first, txns(Update.insert("R", {"A": 1})))
        assert len(first.relation("R")) == 0

    def test_source_view_values(self):
        states = replay_source_states(
            initial(), txns(Update.insert("R", {"A": 1}))
        )
        values = source_view_values(states, DEFS)
        assert len(values) == 2
        assert len(values[1]["V"]) == 1
        assert values[0]["V"].distinct_count() == 0


class TestMvcCheckers:
    def _store_with(self, *deltas):
        store = ViewStore(DEFS, SCHEMAS)
        for i, delta in enumerate(deltas, start=1):
            lists = (ActionList.from_delta("V", "m", (i,), delta),)
            store.apply(WarehouseTransaction(i, "m", lists, (i,)), float(i))
        return store

    def test_complete_run(self):
        states = replay_source_states(
            initial(),
            txns(Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})),
        )
        store = self._store_with(
            Delta.insert(Row(A=1)), Delta.insert(Row(A=2))
        )
        assert check_mvc_complete(store.history, states, DEFS)
        assert check_mvc_strong(store.history, states, DEFS)
        assert check_mvc_convergent(store.history, states, DEFS)
        assert classify_mvc(store.history, states, DEFS) == "complete"

    def test_skipping_state_is_strong(self):
        states = replay_source_states(
            initial(),
            txns(Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})),
        )
        store = self._store_with(Delta({Row(A=1): 1, Row(A=2): 1}))
        assert not check_mvc_complete(store.history, states, DEFS)
        assert check_mvc_strong(store.history, states, DEFS)
        assert classify_mvc(store.history, states, DEFS) == "strong"

    def test_wrong_intermediate_is_convergent(self):
        states = replay_source_states(
            initial(),
            txns(Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})),
        )
        store = self._store_with(
            Delta.insert(Row(A=2)),
            Delta.insert(Row(A=1)),
        )
        assert classify_mvc(store.history, states, DEFS) == "convergent"

    def test_diverged_is_inconsistent(self):
        states = replay_source_states(
            initial(), txns(Update.insert("R", {"A": 1}))
        )
        store = self._store_with(Delta.insert(Row(A=9)))
        assert classify_mvc(store.history, states, DEFS) == "inconsistent"
