"""Property-based tests: incremental deltas must equal recomputation.

For ANY select-project-join expression over R(A,B), S(B,C) and ANY batch
of base updates, applying the propagated view delta to the old view must
yield exactly the recomputed new view.  This is the correctness contract
every view manager relies on.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.delta import Delta, propagate_delta
from repro.relational.expressions import (
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.predicates import compare
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.relational.oracle import reference_delta

VALUES = st.integers(min_value=0, max_value=4)


def rows_for(names: tuple[str, ...]):
    return st.builds(
        lambda vals: Row(dict(zip(names, vals))),
        st.tuples(*([VALUES] * len(names))),
    )


def relation_contents(names: tuple[str, ...]):
    return st.lists(rows_for(names), max_size=6)


@st.composite
def databases(draw) -> Database:
    db = Database()
    db.create_relation("R", Schema(["A", "B"]), draw(relation_contents(("A", "B"))))
    db.create_relation("S", Schema(["B", "C"]), draw(relation_contents(("B", "C"))))
    return db


@st.composite
def expressions(draw) -> Expression:
    """A random SPJ expression over R and S."""
    base = draw(
        st.sampled_from(
            [
                BaseRelation("R"),
                BaseRelation("S"),
                Join(BaseRelation("R"), BaseRelation("S")),
            ]
        )
    )
    expr: Expression = base
    if draw(st.booleans()):
        attr = draw(st.sampled_from(["A", "B"] if "R" in expr.base_relations() else ["B", "C"]))
        op = draw(st.sampled_from(["=", "<", ">=", "!="]))
        expr = Select(compare(attr, op, draw(VALUES)), expr)
    if draw(st.booleans()):
        schema = expr.infer_schema(
            {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}
        )
        names = list(schema.names)
        keep = draw(st.integers(min_value=1, max_value=len(names)))
        expr = Project(tuple(names[:keep]), expr)
    return expr


@st.composite
def base_deltas(draw, db: Database):
    """Random applicable deltas: inserts anywhere, deletes of live rows."""
    deltas: dict[str, Delta] = {}
    for name, attrs in (("R", ("A", "B")), ("S", ("B", "C"))):
        counts: dict[Row, int] = {}
        for row in draw(st.lists(rows_for(attrs), max_size=3)):
            counts[row] = counts.get(row, 0) + 1
        live = list(db.relation(name))
        if live:
            victims = draw(
                st.lists(st.sampled_from(live), max_size=min(3, len(live)))
            )
            # Delete at most the available multiplicity of each row.
            budget: dict[Row, int] = {}
            for victim in victims:
                budget[victim] = budget.get(victim, 0) + 1
            for row, wanted in budget.items():
                available = db.relation(name).multiplicity(row) + counts.get(row, 0)
                take = min(wanted, available)
                if take:
                    counts[row] = counts.get(row, 0) - take
        if counts:
            deltas[name] = Delta(counts)
    return deltas


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_incremental_equals_recomputation(data):
    db = data.draw(databases())
    expr = data.draw(expressions())
    deltas = data.draw(base_deltas(db))

    view_before = evaluate(expr, db)
    view_delta = propagate_delta(expr, db, deltas)
    assert view_delta == reference_delta(expr, db, deltas)

    db.apply_deltas(deltas)
    view_after = evaluate(expr, db)

    materialized = view_before.copy()
    view_delta.apply_to(materialized)
    assert materialized == view_after


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_delta_composition(data):
    """Applying d1 then d2 equals applying d1.combined(d2)."""
    db = data.draw(databases())
    expr = data.draw(expressions())
    d1 = data.draw(base_deltas(db))

    view0 = evaluate(expr, db)
    vd1 = propagate_delta(expr, db, d1)
    db.apply_deltas(d1)

    d2 = data.draw(base_deltas(db))
    vd2 = propagate_delta(expr, db, d2)
    db.apply_deltas(d2)
    final = evaluate(expr, db)

    stepwise = view0.copy()
    vd1.apply_to(stepwise)
    vd2.apply_to(stepwise)
    assert stepwise == final

    combined = view0.copy()
    vd1.combined(vd2).apply_to(combined)
    assert combined == final


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_negated_delta_undoes(data):
    db = data.draw(databases())
    expr = data.draw(expressions())
    deltas = data.draw(base_deltas(db))
    before = evaluate(expr, db)
    view_delta = propagate_delta(expr, db, deltas)
    roundtrip = before.copy()
    view_delta.apply_to(roundtrip)
    view_delta.negated().apply_to(roundtrip)
    assert roundtrip == before
