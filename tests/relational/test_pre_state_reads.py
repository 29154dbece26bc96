"""Property tests: ``pre_state_reads`` covers what the delta rules read.

A query-back view manager fetches, loads and compensates only the base
relations ``pre_state_reads(expr, changed)`` names.  For ANY expression
(joins, selects, projects, aggregates and nests of them) over the
Example 2 and star schemas, ANY non-empty change set and ANY pre-state,
``propagate_delta`` must read no other relation, and its delta over a
pre-state holding just those relations must equal its delta over the
full one.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.relational.database import Database
from repro.relational.delta import Delta, pre_state_reads, propagate_delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.predicates import Attr, Comparison, Const, compare
from repro.relational.schema import AttrType, Schema
from repro.workloads.schemas import paper_world, star_world

WORLDS = {
    "example2": paper_world(seed_rows=False).schemas,
    "star": star_world(products=0, stores=0).schemas,
}


def values(attr_type: AttrType):
    if attr_type is AttrType.STR:
        return st.sampled_from(["a", "b"])
    return st.integers(min_value=0, max_value=3)


@st.composite
def expressions(draw, schemas, depth: int = 3) -> Expression:
    """A random expression over ``schemas``: a base relation, or a select,
    project, natural join or aggregate of smaller ones."""
    shapes = ["base"] + (["select", "project", "join", "aggregate"] if depth else [])
    shape = draw(st.sampled_from(shapes))
    if shape == "base":
        return BaseRelation(draw(st.sampled_from(sorted(schemas))))
    child = draw(expressions(schemas, depth - 1))
    heading = child.infer_schema(schemas)
    if shape == "join":
        return Join(child, draw(expressions(schemas, depth - 1)))
    if shape == "select":
        attr = draw(st.sampled_from(heading.attributes))
        op = draw(st.sampled_from(["=", "!="] if attr.type is AttrType.STR
                                  else ["=", "<", ">=", "!="]))
        value = Const(draw(values(attr.type)))  # a bare str would be a name
        return Select(Comparison(Attr(attr.name), op, value), child)
    names = list(heading.names)
    if shape == "project":
        keep = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        return Project(tuple(keep), child)
    group_by = draw(st.lists(st.sampled_from(names), max_size=1))
    specs = [AggregateSpec("count", "n")]
    numeric = [a.name for a in heading.attributes
               if a.type is AttrType.INT and a.name not in group_by]
    if numeric and draw(st.booleans()):
        specs.append(AggregateSpec("sum", "total", draw(st.sampled_from(numeric))))
    if set(group_by) & {"n", "total"}:
        return child
    return Aggregate(tuple(group_by), tuple(specs), child)


def rows(schema: Schema):
    return st.tuples(*[values(a.type) for a in schema.attributes]).map(
        lambda vals: dict(zip(schema.names, vals))
    )


@st.composite
def databases(draw, schemas) -> Database:
    db = Database()
    for name, schema in sorted(schemas.items()):
        db.create_relation(name, schema, draw(st.lists(rows(schema), max_size=5)))
    return db


@st.composite
def changes(draw, db: Database, changed) -> dict[str, Delta]:
    """An applicable delta for each relation of ``changed``: inserts,
    and deletes of rows the pre-state holds."""
    deltas = {}
    for name in sorted(changed):
        relation = db.relation(name)
        store = relation.columnar()
        inserts = draw(st.lists(rows(relation.schema), min_size=1, max_size=3))
        counts: dict[tuple, int] = {}
        for row in inserts:
            key = tuple(row[n] for n in store.layout)
            counts[key] = counts.get(key, 0) + 1
        live = sorted(store.counts_view())
        if live:
            for victim in draw(st.lists(st.sampled_from(live), max_size=2, unique=True)):
                counts[victim] = counts.get(victim, 0) - 1
        deltas[name] = Delta(counts, store.layout)
    return deltas


class Recording:
    """A ``DatabaseLike`` over ``db`` that notes each relation read, and
    refuses any relation outside ``allowed`` (when given)."""

    def __init__(self, db: Database, allowed: frozenset[str] | None = None):
        self.schemas = db.schemas
        self.db, self.allowed, self.read = db, allowed, set()

    def relation(self, name: str):
        assert self.allowed is None or name in self.allowed, name
        self.read.add(name)
        return self.db.relation(name)


@given(data=st.data(), world=st.sampled_from(sorted(WORLDS)))
@settings(max_examples=300, deadline=None)
def test_reads_stay_inside_the_read_set(data, world):
    schemas = WORLDS[world]
    expr = data.draw(expressions(schemas))
    db = data.draw(databases(schemas))
    changed = frozenset(data.draw(
        st.lists(st.sampled_from(sorted(schemas)), min_size=1, unique=True)
    ))
    deltas = data.draw(changes(db, changed))
    reads = pre_state_reads(expr, changed)

    full = Recording(db)
    expected = propagate_delta(expr, full, deltas)
    assert full.read <= reads
    assert reads <= expr.base_relations()

    narrowed = Recording(db, allowed=reads)
    assert propagate_delta(expr, narrowed, deltas) == expected


def test_read_set_examples():
    """The rules on the views the benchmarks maintain by query-back."""
    r, s, t, q = (BaseRelation(n) for n in "RSTQ")
    v2 = Join(Join(s, t), q)
    assert pre_state_reads(q, frozenset("Q")) == frozenset()
    assert pre_state_reads(Join(r, s), frozenset("S")) == {"R"}
    assert pre_state_reads(Join(r, s), frozenset("RS")) == {"R", "S"}
    assert pre_state_reads(v2, frozenset("S")) == {"T", "Q"}
    assert pre_state_reads(v2, frozenset("R")) == frozenset()
    total = Aggregate(("B",), (AggregateSpec("count", "n"),), Select(
        compare("A", ">=", 1), r
    ))
    assert pre_state_reads(total, frozenset("R")) == {"R"}
    assert pre_state_reads(total, frozenset("S")) == frozenset()
