"""Property test: the compiled plan equals the unindexed rules and recompute.

For ANY supported expression over R(A,B), S(B,C) — SPJ chains and
count/sum aggregates, including derived (materialized) join inputs — and
ANY sequence of mixed insert/delete/modify batches, the plan's propagated
delta must equal both ``propagate_delta`` and the recomputation difference
``evaluate(expr, post) - evaluate(expr, pre)``, at every step of the
sequence (so the plan's auxiliary state is exercised *after* it has been
advanced, not just from a fresh compile).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.plan import MaintenancePlan
from repro.relational.predicates import compare
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.relational.oracle import assert_matches_oracles

VALUES = st.integers(min_value=0, max_value=4)
SCHEMAS = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}


def rows_for(names: tuple[str, ...]):
    return st.builds(
        lambda vals: Row(dict(zip(names, vals))),
        st.tuples(*([VALUES] * len(names))),
    )


@st.composite
def databases(draw) -> Database:
    db = Database()
    db.create_relation(
        "R", SCHEMAS["R"], draw(st.lists(rows_for(("A", "B")), max_size=6))
    )
    db.create_relation(
        "S", SCHEMAS["S"], draw(st.lists(rows_for(("B", "C")), max_size=6))
    )
    return db


@st.composite
def sides(draw, name: str) -> Expression:
    """A join operand: bare base (indexed probe) or derived (aux mat)."""
    expr: Expression = BaseRelation(name)
    if draw(st.booleans()):
        attr = draw(st.sampled_from(["A", "B"] if name == "R" else ["B", "C"]))
        op = draw(st.sampled_from(["=", "<", ">=", "!="]))
        expr = Select(compare(attr, op, draw(VALUES)), expr)
    return expr


@st.composite
def expressions(draw) -> Expression:
    shape = draw(st.sampled_from(["base", "join", "mixed_join"]))
    if shape == "base":
        expr: Expression = draw(sides(draw(st.sampled_from(["R", "S"]))))
    elif shape == "join":
        expr = Join(BaseRelation("R"), BaseRelation("S"))
    else:
        # Distinct operands so shared non-join attributes stay unambiguous.
        expr = Join(draw(sides("R")), draw(sides("S")), on=("B",))
    schema = expr.infer_schema(SCHEMAS)
    names = list(schema.names)
    if draw(st.booleans()):
        attr = draw(st.sampled_from(names))
        op = draw(st.sampled_from(["=", "<", ">=", "!="]))
        expr = Select(compare(attr, op, draw(VALUES)), expr)
    wrap = draw(st.sampled_from(["none", "project", "aggregate"]))
    if wrap == "project":
        keep = draw(st.integers(min_value=1, max_value=len(names)))
        expr = Project(tuple(names[:keep]), expr)
    elif wrap == "aggregate":
        group_by = tuple(names[: draw(st.integers(min_value=0, max_value=min(2, len(names) - 1)))])
        summed = draw(st.sampled_from(names))
        specs = (AggregateSpec("count", "cnt"), AggregateSpec("sum", "tot", summed))
        expr = Aggregate(group_by, specs, expr)
    return expr


@st.composite
def base_deltas(draw, db: Database):
    """Applicable mixed deltas: inserts anywhere, deletes of live rows."""
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
def test_plan_equals_legacy_and_recompute(data):
    db = data.draw(databases())
    expr = data.draw(expressions())
    plan = MaintenancePlan(expr, db)
    materialized = evaluate(expr, db)

    for _step in range(data.draw(st.integers(min_value=1, max_value=3))):
        deltas = data.draw(base_deltas(db))
        planned = plan.propagate(deltas)
        assert_matches_oracles(expr, db, deltas, planned)

        db.apply_deltas(deltas)
        plan.advance()
        planned.apply_to(materialized)
        assert materialized == evaluate(expr, db)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_plan_aggregate_group_restriction_path(data):
    """Pin the aggregate arm (legacy: the group-restricted pushdown)."""
    db = data.draw(databases())
    group_by = data.draw(st.sampled_from([(), ("B",), ("A", "B")]))
    expr = Aggregate(
        group_by,
        (AggregateSpec("count", "cnt"), AggregateSpec("sum", "tot", "A")),
        BaseRelation("R"),
    )
    plan = MaintenancePlan(expr, db)
    for _step in range(2):
        deltas = data.draw(base_deltas(db))
        assert_matches_oracles(expr, db, deltas, plan.propagate(deltas))
        db.apply_deltas(deltas)
        plan.advance()
