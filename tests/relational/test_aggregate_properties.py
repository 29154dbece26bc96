"""Property tests: aggregate delta propagation equals recomputation."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.delta import Delta, propagate_delta
from repro.relational.expressions import Aggregate, AggregateSpec, BaseRelation, Select
from repro.relational.predicates import compare
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.relational.oracle import reference_delta

VALUES = st.integers(min_value=0, max_value=3)


def rows():
    return st.builds(lambda g, q: Row(g=g, q=q), VALUES, VALUES)


@st.composite
def databases(draw) -> Database:
    db = Database()
    db.create_relation("M", Schema(["g", "q"]), draw(st.lists(rows(), max_size=8)))
    return db


@st.composite
def aggregate_exprs(draw) -> Aggregate:
    group_by = draw(st.sampled_from([(), ("g",)]))
    specs = draw(
        st.sampled_from(
            [
                (AggregateSpec("count", "n"),),
                (AggregateSpec("sum", "s", "q"),),
                (AggregateSpec("count", "n"), AggregateSpec("sum", "s", "q")),
            ]
        )
    )
    child = BaseRelation("M")
    if draw(st.booleans()):
        child = Select(compare("q", ">=", draw(VALUES)), child)
    return Aggregate(group_by, specs, child)


@st.composite
def applicable_deltas(draw, db: Database):
    counts: dict[Row, int] = {}
    for row in draw(st.lists(rows(), max_size=4)):
        counts[row] = counts.get(row, 0) + 1
    live = list(db.relation("M"))
    if live:
        for victim in draw(
            st.lists(st.sampled_from(live), max_size=min(4, len(live)))
        ):
            available = db.relation("M").multiplicity(victim) + counts.get(victim, 0)
            if available + counts.get(victim, 0) > 0 and available > 0:
                counts[victim] = counts.get(victim, 0) - 1
                if db.relation("M").multiplicity(victim) + counts[victim] < 0:
                    counts[victim] += 1  # undo: would underflow
    return {"M": Delta(counts)} if counts else {}


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_aggregate_incremental_equals_recompute(data):
    db = data.draw(databases())
    expr = data.draw(aggregate_exprs())
    deltas = data.draw(applicable_deltas(db))

    before = evaluate(expr, db)
    view_delta = propagate_delta(expr, db, deltas)
    assert view_delta == reference_delta(expr, db, deltas)
    db.apply_deltas(deltas)
    after = evaluate(expr, db)

    materialized = before.copy()
    view_delta.apply_to(materialized)
    assert materialized == after


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_aggregate_deltas_compose(data):
    db = data.draw(databases())
    expr = data.draw(aggregate_exprs())
    d1 = data.draw(applicable_deltas(db))

    view0 = evaluate(expr, db)
    vd1 = propagate_delta(expr, db, d1)
    db.apply_deltas(d1)
    d2 = data.draw(applicable_deltas(db))
    vd2 = propagate_delta(expr, db, d2)
    db.apply_deltas(d2)

    stepwise = view0.copy()
    vd1.apply_to(stepwise)
    vd2.apply_to(stepwise)
    assert stepwise == evaluate(expr, db)
