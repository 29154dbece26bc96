"""Property tests: the columnar engine is bag-for-bag the row-dict one.

Facade-equivalence contract for the columnar core (see docs/engine.md):
for ANY supported expression over R(A,B), S(B,C) and ANY applicable mixed
delta sequence,

* ``evaluate_columnar`` equals the row-dict ``evaluate``;
* the plan's propagated delta, through both entries (``propagate`` with
  ``Delta``s and ``propagate_counts`` with raw tuple mappings), equals the
  stateless ``propagate_delta`` AND the recompute difference — at every
  step of a multi-batch sequence, so the columnar auxiliary state (aux
  materializations, aggregate group states) is exercised after
  advancing, not just from a fresh compile;
* a ``Delta`` built from rows and one built from the same bag's value
  tuples are one value.

Deterministic edge cases ride along: empty relations, all-delete deltas
that empty the database, and duplicate-row multiplicities.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.relational.algebra import evaluate
from repro.relational.columnar import evaluate_columnar
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
from repro.relational.relation import Relation
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
def databases(draw, min_size: int = 0) -> Database:
    # small value domain + up to 6 rows per relation => duplicate rows
    # (multiplicity > 1) appear routinely
    db = Database()
    db.create_relation(
        "R",
        SCHEMAS["R"],
        draw(st.lists(rows_for(("A", "B")), min_size=min_size, max_size=6)),
    )
    db.create_relation(
        "S",
        SCHEMAS["S"],
        draw(st.lists(rows_for(("B", "C")), min_size=min_size, max_size=6)),
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
        group_by = tuple(
            names[: draw(st.integers(min_value=0, max_value=min(2, len(names) - 1)))]
        )
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
def test_evaluate_columnar_equals_row_dict_evaluate(data):
    db = data.draw(databases())
    expr = data.draw(expressions())
    assert evaluate_columnar(expr, db) == evaluate(expr, db)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_columnar_plan_equals_recompute_and_legacy(data):
    db = data.draw(databases())
    expr = data.draw(expressions())
    # an identical twin database drives the all-tuple ingestion path, so
    # auxiliary state on both sides evolves from the same batches
    # independently
    db_t = Database()
    for name in ("R", "S"):
        db_t.create_relation(name, SCHEMAS[name], list(db.relation(name)))

    plan = MaintenancePlan(expr, db)
    plan_t = MaintenancePlan(expr, db_t)

    for _step in range(data.draw(st.integers(min_value=1, max_value=3))):
        deltas = data.draw(base_deltas(db))
        out = plan.propagate(deltas)
        assert_matches_oracles(expr, db, deltas, out)
        out_t = plan_t.propagate_counts({
            name: dict(delta.tuple_counts()) for name, delta in deltas.items()
        })
        assert out_t == out and hash(out_t) == hash(out)
        db.apply_deltas(deltas)
        db_t.apply_deltas(deltas)
        plan.advance()
        plan_t.advance()


SIGNED_BAGS = st.dictionaries(
    rows_for(("A", "B")), st.integers(min_value=-3, max_value=3), max_size=6
)


def as_tuples(bag: dict[Row, int]) -> dict[tuple, int]:
    return {(row["A"], row["B"]): count for row, count in bag.items()}


@given(bag=SIGNED_BAGS, other=SIGNED_BAGS)
@settings(max_examples=150, deadline=None)
def test_row_built_and_tuple_built_deltas_are_one_value(bag, other):
    by_row, by_tuple = Delta(bag), Delta(as_tuples(bag), ("A", "B"))
    assert by_row == by_tuple and hash(by_row) == hash(by_tuple)
    assert len(by_row) == len(by_tuple) == sum(map(abs, bag.values()))
    assert by_tuple.counts() == {row: c for row, c in bag.items() if c}
    assert by_row.negated() == by_tuple.negated() == Delta(
        {row: -c for row, c in bag.items()}
    )
    summed = {row: bag.get(row, 0) + other.get(row, 0) for row in {**bag, **other}}
    assert (
        by_row.combined(Delta(as_tuples(other), ("A", "B")))
        == by_tuple.combined(Delta(other))
        == Delta(summed)
    )
    for delta in (by_row, by_tuple):
        copy = pickle.loads(pickle.dumps(delta))
        assert copy == delta and copy.layout == delta.layout
    # applied to a relation holding what the bag deletes, both leave the
    # bag's insertions (and a relation lacking a row refuses both)
    held = {row: -c for row, c in bag.items() if c < 0}
    results = []
    for delta in (by_row, by_tuple):
        relation = Relation.from_counts(held, SCHEMAS["R"])
        delta.apply_to(relation)
        results.append(relation)
    assert results[0] == results[1] == Relation.from_counts(
        {row: c for row, c in bag.items() if c > 0}, SCHEMAS["R"]
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_all_delete_deltas_drain_to_empty(data):
    """Edge: a delta that deletes *everything* leaves the plan at the
    empty view — exercises group death and aux-materialization draining."""
    db = data.draw(databases(min_size=1))
    expr = data.draw(expressions())
    plan = MaintenancePlan(expr, db)
    materialized = evaluate(expr, db)

    wipe = {
        name: Delta({row: -count for row, count in db.relation(name).counts()})
        for name in ("R", "S")
        if len(db.relation(name))
    }
    planned = plan.propagate(wipe)
    assert_matches_oracles(expr, db, wipe, planned)
    db.apply_deltas(wipe)
    plan.advance()
    planned.apply_to(materialized)
    assert materialized == evaluate(expr, db)
    assert len(db.relation("R")) == 0 and len(db.relation("S")) == 0
    # the engine keeps working after total drain
    refill = {"R": Delta.insert(Row(A=1, B=1), 2)}
    assert_matches_oracles(expr, db, refill, plan.propagate(refill))


def test_empty_relations_everywhere():
    """Edge: propagation over a fully empty database is the empty delta."""
    db = Database()
    db.create_relation("R", SCHEMAS["R"])
    db.create_relation("S", SCHEMAS["S"])
    expr = Project(
        ("A", "C"),
        Select(compare("C", "<", 3), Join(BaseRelation("R"), BaseRelation("S"))),
    )
    plan = MaintenancePlan(expr, db)
    assert plan.propagate({}) == Delta()
    deltas = {"R": Delta.insert(Row(A=1, B=1))}
    assert plan.propagate(deltas) == Delta()  # still no S side to join
    db.apply_deltas(deltas)
    plan.advance()


def test_duplicate_row_multiplicities_multiply_through_joins():
    """Edge: counts multiply — 2 copies of the R row x 3 copies of the S
    row must produce 6 copies of the joined row."""
    db = Database()
    db.create_relation("R", SCHEMAS["R"], [Row(A=1, B=1)] * 2)
    db.create_relation("S", SCHEMAS["S"], [Row(B=1, C=1)] * 3)
    expr = Join(BaseRelation("R"), BaseRelation("S"))
    plan = MaintenancePlan(expr, db)

    deltas = {"R": Delta.insert(Row(A=1, B=1), 2)}
    out = plan.propagate(deltas)
    assert_matches_oracles(expr, db, deltas, out)
    assert out.count(Row(A=1, B=1, C=1)) == 6
