"""Tests for state replay and the value-sequence verdicts of the replay.

With one view the §2.3 vector of views is that view, so the single-view
entries of :class:`Replay` (``check_view`` / ``classify_view``, the §2.2
definitions on the two collapsed value sequences) are the vector-valued
MVC checkers these cases were written against.
"""

from repro.consistency import Replay
from repro.consistency.states import replay_source_states
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


def replay_of(store, *updates):
    numbered = [(i, txn, float(i)) for i, txn in enumerate(txns(*updates), start=1)]
    return Replay(store.history, initial(), numbered, DEFS)


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
        """``V(ss_i)`` per view, adjacent duplicates collapsed."""
        values = replay_of(
            ViewStore(DEFS, SCHEMAS),
            Update.insert("R", {"A": 1}),
            Update.insert("R", {"A": 1}),
            Update.delete("R", {"A": 1}),
        ).source_values["V"]
        assert [len(value) for value in values] == [0, 1, 2, 1]
        assert values[0].distinct_count() == 0
        unmoved = replay_of(
            ViewStore(DEFS + [parse_view("W = SELECT * FROM R WHERE A > 5")], SCHEMAS),
            Update.insert("R", {"A": 1}),
        )
        assert [len(value) for value in unmoved.source_values["V"]] == [0, 1]


class TestMvcCheckers:
    def _store_with(self, *deltas):
        store = ViewStore(DEFS, SCHEMAS)
        for i, delta in enumerate(deltas, start=1):
            lists = (ActionList.from_delta("V", "m", (i,), delta),)
            store.apply(WarehouseTransaction(i, "m", lists, (i,)), float(i))
        return store

    def test_complete_run(self):
        updates = (Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2}))
        store = self._store_with(
            Delta.insert(Row(A=1)), Delta.insert(Row(A=2))
        )
        replay = replay_of(store, *updates)
        assert replay.check_view("V", "complete")
        assert replay.check_view("V", "strong")
        assert replay.check_view("V", "convergent")
        assert replay.check("convergent")
        assert replay.classify_view("V") == "complete"
        assert replay.classify() == "complete"

    def test_skipping_state_is_strong(self):
        updates = (Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2}))
        store = self._store_with(Delta({Row(A=1): 1, Row(A=2): 1}))
        replay = replay_of(store, *updates)
        assert not replay.check_view("V", "complete")
        assert replay.check_view("V", "strong")
        assert replay.classify_view("V") == "strong"
        # The value sequence skips a state, which is all §2.2 sees; the
        # schedule says the transaction covered update 1 only, so the
        # joint verdict, which follows the schedule, is weaker.
        assert replay.classify() == "convergent"

    def test_wrong_intermediate_is_convergent(self):
        updates = (Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2}))
        store = self._store_with(
            Delta.insert(Row(A=2)),
            Delta.insert(Row(A=1)),
        )
        replay = replay_of(store, *updates)
        assert replay.classify_view("V") == "convergent"
        assert replay.classify() == "convergent"
        assert replay.diverged["V"][0] == 1  # the first state already differs

    def test_diverged_is_inconsistent(self):
        store = self._store_with(Delta.insert(Row(A=9)))
        replay = replay_of(store, Update.insert("R", {"A": 1}))
        assert replay.classify_view("V") == "inconsistent"
        assert replay.classify() == "inconsistent"
        assert not replay.check("convergent")
