"""Tests for the standalone MaterializedView helper."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConsistencyViolation
from repro.relational import columnar
from repro.relational.algebra import evaluate
from repro.relational.columnar import AggregateKernel
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.maintain import MaterializedView
from repro.relational.parser import parse_view
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.system.test_setup import count_calls


def make_db() -> Database:
    db = Database()
    db.create_relation("R", Schema(["A", "B"]), [Row(A=1, B=2)])
    db.create_relation("S", Schema(["B", "C"]), [Row(B=2, C=3)])
    return db


JOIN = parse_view("V = SELECT * FROM R JOIN S")


class TestBasics:
    def test_initial_materialization(self):
        view = MaterializedView(JOIN, make_db())
        assert view.contents.sorted_rows() == [Row(A=1, B=2, C=3)]
        assert len(view) == 1
        assert view.name == "V"

    def test_apply_updates_base_and_view(self):
        db = make_db()
        view = MaterializedView(JOIN, db)
        delta = view.apply({"R": Delta.insert(Row(A=7, B=2))})
        assert delta.count(Row(A=7, B=2, C=3)) == 1
        assert len(db.relation("R")) == 2
        assert len(view) == 2
        view.verify()

    def test_failed_apply_leaves_both_untouched(self):
        db = make_db()
        view = MaterializedView(JOIN, db)
        with pytest.raises(Exception):
            view.apply({"R": Delta.delete(Row(A=9, B=9))})
        assert len(db.relation("R")) == 1
        view.verify()

    def test_verify_detects_drift(self):
        view = MaterializedView(JOIN, make_db())
        view.contents.insert(Row(A=5, B=5, C=5))  # sabotage
        with pytest.raises(ConsistencyViolation, match="drifted"):
            view.verify()

    def test_refresh_repairs(self):
        view = MaterializedView(JOIN, make_db())
        view.contents.insert(Row(A=5, B=5, C=5))
        view.refresh()
        view.verify()

    def test_counters(self):
        view = MaterializedView(JOIN, make_db())
        view.apply({"R": Delta.insert(Row(A=7, B=2))})
        view.apply({"S": Delta.delete(Row(B=2, C=3))})
        assert view.deltas_applied == 2
        assert view.rows_changed == 3  # +1 row, then -2 rows

    def test_aggregate_view(self):
        db = make_db()
        agg = parse_view("T = SELECT B, count(*) AS n FROM R GROUP BY B")
        view = MaterializedView(agg, db)
        view.apply({"R": Delta.insert(Row(A=9, B=2))})
        assert view.contents.sorted_rows() == [Row(B=2, n=2)]
        view.verify()

    def test_contents_come_off_the_plan(self, monkeypatch):
        """An aggregate over a join is joined and folded once, by the plan's
        compile, at construction and per ``refresh``: the contents are read
        off its group states."""
        db = make_db()
        totals = parse_view(
            "T = SELECT B, count(*) AS n, sum(C) AS total FROM R JOIN S GROUP BY B"
        )
        with monkeypatch.context() as patch:
            joins = count_calls(patch, columnar, "join_counts_columnar")
            folds = count_calls(patch, AggregateKernel, "accumulate")
            view = MaterializedView(totals, db)
            assert (len(joins), len(folds)) == (1, 1)
            view.refresh()
            assert (len(joins), len(folds)) == (2, 2)
        assert view.contents.sorted_rows() == [Row(B=2, n=1, total=3)]
        view.verify()


VALUES = st.integers(min_value=0, max_value=3)


@given(
    steps=st.lists(
        st.tuples(st.sampled_from(["R", "S"]), VALUES, VALUES),
        min_size=1,
        max_size=15,
    )
)
@settings(max_examples=60, deadline=None)
def test_long_maintenance_runs_never_drift(steps):
    db = make_db()
    view = MaterializedView(JOIN, db)
    for relation, x, y in steps:
        row = Row(A=x, B=y) if relation == "R" else Row(B=x, C=y)
        view.apply({relation: Delta.insert(row)})
    view.verify()


VIEWS = [
    JOIN,
    parse_view("P = SELECT A, C FROM R JOIN S WHERE A >= 1"),
    parse_view("T = SELECT B, count(*) AS n, sum(A) AS total FROM R GROUP BY B"),
]


@given(
    view=st.sampled_from(VIEWS),
    rounds=st.lists(
        st.lists(
            st.tuples(st.sampled_from(["R", "S"]), VALUES, VALUES, st.booleans()),
            max_size=5,
        ),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60, deadline=None)
def test_refresh_equals_the_oracle_after_out_of_band_changes(view, rounds):
    """The initial contents and every ``refresh`` come from the columnar
    evaluation; the row-dict ``evaluate`` is the independent reference."""
    db = make_db()
    materialized = MaterializedView(view, db)
    assert materialized.contents == evaluate(view.expression, db)
    for changes in rounds:
        for relation, x, y, delete in changes:  # behind the view's back
            row = Row(A=x, B=y) if relation == "R" else Row(B=x, C=y)
            target = db.relation(relation)
            if not delete:
                target.insert(row)
            elif row in target:
                target.delete(row)
        materialized.refresh()
        assert materialized.contents == evaluate(view.expression, db)
        assert materialized.contents.schema == view.expression.infer_schema(
            db.schemas
        )
        materialized.apply({"R": Delta.insert(Row(A=2, B=2))})  # plan rebuilt too
        materialized.verify()
