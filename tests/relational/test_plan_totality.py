"""The plan compiler is total: every node class, every shipped view.

``MaintenancePlan`` is the only engine that maintains standing state, so
an ``Expression`` it cannot compile is a view the system cannot run.  A
node class added to ``repro.relational.expressions`` without a plan node
fails here, by name, instead of at the first update of some run.
"""

from __future__ import annotations

import pytest

from repro.relational import expressions
from repro.relational.database import Database
from repro.relational.delta import Delta, updates_to_deltas
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
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec
from repro.workloads.schemas import (
    bank_views,
    bank_world,
    clustered_views,
    clustered_world,
    paper_views_example1,
    paper_views_example2,
    paper_world,
    star_views,
    star_world,
)
from tests.relational.oracle import assert_matches_oracles

R, S = BaseRelation("R"), BaseRelation("S")
#: one expression rooted at each node class
SAMPLES: dict[type, Expression] = {
    BaseRelation: R,
    Select: Select(compare("A", "<", 6), R),
    Project: Project(("B",), R),
    Join: Join(R, S),
    Aggregate: Aggregate(
        ("B",), (AggregateSpec("count", "n"), AggregateSpec("sum", "tot", "A")), R
    ),
}
#: the classes the module exports: ``__subclasses__`` also lists the
#: pre-``slots=True`` twin of each dataclass and other tests' own subclasses
NODE_CLASSES = [
    cls for cls in Expression.__subclasses__()
    if vars(expressions).get(cls.__name__) is cls
]


@pytest.mark.parametrize("node_class", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_expression_node_class_compiles(node_class):
    assert node_class in SAMPLES, (
        f"{node_class.__name__} has no sample here: give it a plan node in "
        f"repro.relational.plan and an entry in SAMPLES"
    )
    expr = SAMPLES[node_class]
    db = Database()
    db.create_relation("R", Schema(["A", "B"]), [Row(A=i, B=i % 3) for i in range(9)])
    db.create_relation("S", Schema(["B", "C"]), [Row(B=i % 3, C=i) for i in range(5)])
    deltas = {
        "R": Delta({Row(A=1, B=1): -1, Row(A=20, B=2): 2}),
        "S": Delta.insert(Row(B=2, C=9)),
    }
    plan = MaintenancePlan(expr, db)
    assert_matches_oracles(expr, db, deltas, plan.propagate(deltas))


SUITES = {
    "paper": (paper_world, lambda: paper_views_example1() + paper_views_example2()),
    "bank": (lambda: bank_world(customers=6), bank_views),
    "star": (star_world, lambda: star_views(selective=True, aggregates=True)),
    "clustered": (clustered_world, lambda: clustered_views(per_cluster=3)),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_shipped_view_compiles_and_first_propagate_is_right(suite):
    make_world, make_views = SUITES[suite]
    world = make_world()
    db = Database()
    for name, schema in world.schemas.items():
        db.create_relation(name, schema, world.current.relation(name))
    stream = UpdateStreamGenerator(
        world, WorkloadSpec(updates=60, value_range=4, seed=7)
    ).transactions()
    for _time, txn in stream[:45]:  # fill the relations that start empty
        db.apply_deltas(txn.deltas())
    batch = updates_to_deltas(u for _time, txn in stream[45:] for u in txn.updates)
    changed = 0
    for view in make_views():
        view_delta = MaintenancePlan(view.expression, db).propagate(batch)
        assert_matches_oracles(view.expression, db, batch, view_delta)
        changed += bool(view_delta)
    assert changed  # the batch reached at least one view: not a vacuous pass
