"""Tests for the order-aware MVC checkers."""

import pytest

from repro.consistency.ordered import (
    Replay,
    check_mvc_ordered,
    classify_mvc_ordered,
    reconstruct_schedule,
)
from repro.errors import ReproError, WarehouseError
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.parser import parse_view
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.viewmgr.actions import ActionList
from repro.warehouse.store import ViewStore
from repro.warehouse.txn import WarehouseTransaction

SCHEMAS = {"R": Schema(["A"]), "S": Schema(["B"])}
DEFS = [parse_view("VR = SELECT * FROM R"), parse_view("VS = SELECT * FROM S")]


def initial() -> Database:
    db = Database()
    db.create_relation("R", SCHEMAS["R"])
    db.create_relation("S", SCHEMAS["S"])
    return db


def numbered(*updates):
    return [
        (i + 1, SourceTransaction.single("src", u), float(i))
        for i, u in enumerate(updates)
    ]


def run_store(apply_order):
    """Build a ViewStore history applying (row_id, view, delta) tuples."""
    store = ViewStore(DEFS, SCHEMAS)
    for txn_id, entries in enumerate(apply_order, start=1):
        lists = tuple(
            ActionList.from_delta(view, view, (row,), delta)
            for row, view, delta in entries
        )
        rows = tuple(sorted({row for row, _v, _d in entries}))
        store.apply(WarehouseTransaction(txn_id, "m", lists, rows), float(txn_id))
    return store


class TestReconstruction:
    def test_schedule_concatenates_covered_rows(self):
        store = run_store(
            [
                [(2, "VS", Delta.insert(Row(B=1)))],
                [(1, "VR", Delta.insert(Row(A=1)))],
            ]
        )
        assert reconstruct_schedule(store.history) == [2, 1]


class TestOrderedCheck:
    def test_in_order_complete(self):
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("S", {"B": 1})
        )
        store = run_store(
            [
                [(1, "VR", Delta.insert(Row(A=1)))],
                [(2, "VS", Delta.insert(Row(B=1)))],
            ]
        )
        report = check_mvc_ordered(store.history, initial(), updates, DEFS, "complete")
        assert report, report.reason

    def test_commuting_reorder_is_complete(self):
        """Applying U2 (on S) before U1 (on R) is legal — they commute."""
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("S", {"B": 1})
        )
        store = run_store(
            [
                [(2, "VS", Delta.insert(Row(B=1)))],
                [(1, "VR", Delta.insert(Row(A=1)))],
            ]
        )
        assert check_mvc_ordered(store.history, initial(), updates, DEFS, "complete")

    def test_same_relation_reorder_rejected(self):
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})
        )
        store = run_store(
            [
                [(2, "VR", Delta.insert(Row(A=2)))],
                [(1, "VR", Delta.insert(Row(A=1)))],
            ]
        )
        report = check_mvc_ordered(store.history, initial(), updates, DEFS, "strong")
        assert not report
        assert "out of order" in report.reason

    def test_wrong_contents_rejected(self):
        updates = numbered(Update.insert("R", {"A": 1}))
        store = run_store([[(1, "VR", Delta.insert(Row(A=99)))]])
        report = check_mvc_ordered(store.history, initial(), updates, DEFS, "strong")
        assert not report

    def test_partial_atomicity_rejected(self):
        """One update's changes applied to one view but not the other."""
        defs = [
            parse_view("VR = SELECT * FROM R"),
            parse_view("VR2 = SELECT * FROM R"),
        ]
        store = ViewStore(defs, SCHEMAS)
        lists = (ActionList.from_delta("VR", "m", (1,), Delta.insert(Row(A=1))),)
        store.apply(WarehouseTransaction(1, "m", lists, (1,)), 1.0)
        updates = numbered(Update.insert("R", {"A": 1}))
        report = check_mvc_ordered(store.history, initial(), updates, defs, "strong")
        assert not report

    def test_batched_transaction_is_strong_not_complete(self):
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})
        )
        combined = Delta({Row(A=1): 1, Row(A=2): 1})
        store = run_store([[(1, "VR", Delta()), (2, "VR", combined)]])
        # One transaction covering rows (1, 2).
        history = store.history
        assert check_mvc_ordered(history, initial(), updates, DEFS, "strong")
        report = check_mvc_ordered(history, initial(), updates, DEFS, "complete")
        assert not report
        assert "completeness" in report.reason

    def test_duplicate_application_rejected(self):
        updates = numbered(Update.insert("R", {"A": 1}))
        store = run_store(
            [
                [(1, "VR", Delta.insert(Row(A=1)))],
                [(1, "VR", Delta())],
            ]
        )
        report = check_mvc_ordered(store.history, initial(), updates, DEFS, "strong")
        assert not report
        assert "twice" in report.reason

    def test_skipped_invisible_update_ok(self):
        """An update never applied must be value-invisible — deletes+insert
        cancelling out counts."""
        updates = numbered(
            Update.insert("R", {"A": 1}),
            Update.insert("S", {"B": 7}),  # never shipped to the warehouse
        )
        # VS never changes because... S DID change; final check must fail.
        store = run_store([[(1, "VR", Delta.insert(Row(A=1)))]])
        report = check_mvc_ordered(store.history, initial(), updates, DEFS, "strong")
        assert not report
        assert "final" in report.reason

    def test_unknown_update_rejected(self):
        updates = numbered(Update.insert("R", {"A": 1}))
        store = run_store([[(9, "VR", Delta.insert(Row(A=1)))]])
        report = check_mvc_ordered(store.history, initial(), updates, DEFS, "strong")
        assert not report


class TestClassify:
    def test_complete_classification(self):
        updates = numbered(Update.insert("R", {"A": 1}))
        store = run_store([[(1, "VR", Delta.insert(Row(A=1)))]])
        assert classify_mvc_ordered(store.history, initial(), updates, DEFS) == "complete"

    def test_convergent_classification(self):
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("R", {"A": 2})
        )
        # A wrong intermediate state that nevertheless converges.
        store = run_store(
            [
                [(1, "VR", Delta.insert(Row(A=2)))],
                [(2, "VR", Delta({Row(A=2): 0, Row(A=1): 1}))],
            ]
        )
        assert classify_mvc_ordered(store.history, initial(), updates, DEFS) == "convergent"

    def test_inconsistent_classification(self):
        updates = numbered(Update.insert("R", {"A": 1}))
        store = run_store([[(1, "VR", Delta.insert(Row(A=42)))]])
        assert classify_mvc_ordered(store.history, initial(), updates, DEFS) == "inconsistent"


class TestReplayScopes:
    """One replay answers for every set of views; what is wrong with the
    schedule only counts against the scopes that can see it."""

    def test_unreplayable_update_diverges_its_views_only(self):
        """U1 was never covered (its view delta was empty when it was
        propagated), so U2, which deletes the row U1 inserted, cannot be
        applied to the replayed state: an answer, not a RelationError."""
        updates = numbered(
            Update.insert("R", {"A": 1}),
            Update.delete("R", {"A": 1}),
            Update.insert("S", {"B": 1}),
        )
        store = run_store(
            [
                [(2, "VR", Delta())],
                [(3, "VS", Delta.insert(Row(B=1)))],
            ]
        )
        replay = Replay(store.history, initial(), updates, DEFS)
        report = replay.check("strong")
        assert not report
        assert "U2" in report.reason and "cannot be applied" in report.reason
        assert replay.diverged.keys() == {"VR"}
        assert replay.classify() == "convergent"  # R ends empty either way
        assert replay.check("complete", ["VS"])
        assert classify_mvc_ordered(store.history, initial(), updates, DEFS) == "convergent"

    def test_duplicate_only_counts_where_it_is_seen(self):
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("S", {"B": 1})
        )
        store = run_store(
            [
                [(1, "VR", Delta.insert(Row(A=1)))],
                [(1, "VR", Delta())],
                [(2, "VS", Delta.insert(Row(B=1)))],
            ]
        )
        replay = Replay(store.history, initial(), updates, DEFS)
        assert "twice" in replay.check("strong", ["VR"]).reason
        assert "twice" in replay.check("strong").reason
        assert replay.check("complete", ["VS"])
        assert replay.check("convergent")

    def test_order_break_in_a_relation_the_scope_does_not_read(self):
        """U1 over {R, T} and U2 over {T, S} meet in T; a scope reading R
        and S sees both updates, so their order is its business."""
        schemas = {**SCHEMAS, "T": Schema(["C"])}
        db = initial()
        db.create_relation("T", schemas["T"])
        updates = [
            (1, SourceTransaction("src", (Update.insert("R", {"A": 1}),
                                          Update.insert("T", {"C": 1}))), 0.0),
            (2, SourceTransaction("src", (Update.insert("T", {"C": 2}),
                                          Update.insert("S", {"B": 1}))), 1.0),
        ]
        store = run_store(
            [
                [(2, "VS", Delta.insert(Row(B=1)))],
                [(1, "VR", Delta.insert(Row(A=1)))],
            ]
        )
        replay = Replay(store.history, db, updates, DEFS)
        assert "out of order" in replay.check("strong").reason
        assert replay.check("complete", ["VR"])
        assert replay.check("complete", ["VS"])
        assert replay.classify() == "convergent"

    def test_truncated_history_answers_convergence_only(self):
        """What record_history=False leaves: ws_0 and the latest state."""
        updates = numbered(
            Update.insert("R", {"A": 1}), Update.insert("S", {"B": 1})
        )
        store = run_store(
            [
                [(1, "VR", Delta.insert(Row(A=1)))],
                [(2, "VS", Delta.insert(Row(B=1)))],
            ]
        )
        history = (store.history[0], store.history[2])
        replay = Replay(history, initial(), updates, DEFS)
        assert replay.check("convergent")
        assert replay.check_view("VR", "convergent")
        for ask in (
            lambda: replay.check("strong"),
            lambda: replay.check("complete", ["VS"]),
            lambda: replay.check_view("VR", "strong"),
            replay.classify,
            lambda: replay.classify_view("VS"),
        ):
            with pytest.raises(WarehouseError, match="record_history=True"):
                ask()

    def test_unknown_level_rejected(self):
        replay = Replay(ViewStore(DEFS, SCHEMAS).history, initial(), [], DEFS)
        assert replay.classify() == "complete"
        with pytest.raises(ReproError, match="unknown MVC level"):
            replay.check("complete-n")
