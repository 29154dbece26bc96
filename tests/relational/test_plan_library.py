"""Multi-query optimization: PlanLibrary sharing across compiled plans.

Same-shard views sharing a select/project/join prefix must share the
compiled nodes — one delta probe per batch feeds every reader — while
staying bag-for-bag identical to independent plans, the unindexed delta
rules, and full recomputation.
"""

import pytest

from repro.errors import ExpressionError
from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Join,
    Project,
    Select,
)
from repro.relational.plan import MaintenancePlan, PlanLibrary
from repro.relational.predicates import compare
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.relational.oracle import assert_matches_oracles


def make_db() -> Database:
    db = Database()
    db.create_relation(
        "R", Schema(["A", "B"]), [Row(A=i, B=i % 4) for i in range(12)]
    )
    db.create_relation(
        "S", Schema(["B", "C"]), [Row(B=i % 4, C=i) for i in range(8)]
    )
    return db


JOIN = Join(BaseRelation("R"), BaseRelation("S"))
#: three views over the same join prefix — the MQO target shape.
SHARED_PREFIX = {
    "V_join": JOIN,
    "V_spj": Project(("A", "C"), Select(compare("C", "<", 6), JOIN)),
    "V_agg": Aggregate(
        ("B",),
        (AggregateSpec("count", "n"), AggregateSpec("sum", "total", "C")),
        JOIN,
    ),
}

BATCHES = [
    {"R": Delta.insert(Row(A=50, B=1))},
    {"S": Delta.insert(Row(B=1, C=99), 3)},
    {"R": Delta.modify(Row(A=50, B=1), Row(A=50, B=2))},
    {
        "R": Delta.delete(Row(A=0, B=0)),
        "S": Delta.delete(Row(B=0, C=0)),
    },
    {"S": Delta.modify(Row(B=1, C=1), Row(B=3, C=1))},
]


def drive(library_db, views=SHARED_PREFIX, batches=BATCHES):
    """Run a library over batches; assert equivalence with legacy delta
    rules and full recomputation at every step.  Returns the library."""
    library = PlanLibrary(library_db)
    for name, expr in views.items():
        library.compile(name, expr)
    materialized = {
        name: evaluate(expr, library_db) for name, expr in views.items()
    }
    for deltas in batches:
        planned = library.propagate_all(deltas)
        assert planned.keys() == views.keys()
        for name, expr in views.items():
            assert_matches_oracles(expr, library_db, deltas, planned[name])
        library_db.apply_deltas(deltas)
        library.advance_all()
        for name, expr in views.items():
            planned[name].apply_to(materialized[name])
            assert materialized[name] == evaluate(expr, library_db)
    return library


class TestEquivalence:
    def test_shared_prefix_views_agree_with_legacy_and_recompute(self):
        drive(make_db())

    def test_disjoint_views_share_nothing_but_still_agree(self):
        views = {
            "V_r": BaseRelation("R"),
            "V_s": Select(compare("C", "<", 5), BaseRelation("S")),
        }
        library = drive(make_db(), views=views)
        assert library.report()["shared_subexpressions"] == 0

    def test_library_plan_matches_independent_plan(self):
        db_lib, db_solo = make_db(), make_db()
        library = PlanLibrary(db_lib)
        lib_plans = {
            name: library.compile(name, expr)
            for name, expr in SHARED_PREFIX.items()
        }
        solo_plans = {
            name: MaintenancePlan(expr, db_solo)
            for name, expr in SHARED_PREFIX.items()
        }
        for deltas in BATCHES:
            lib_out = library.propagate_all(deltas)
            for name, plan in solo_plans.items():
                assert lib_out[name] == plan.propagate(deltas)
            db_lib.apply_deltas(deltas)
            db_solo.apply_deltas(deltas)
            library.advance_all()
            for plan in solo_plans.values():
                plan.advance()
        assert lib_plans  # plans stayed registered


class TestSharing:
    def test_nodes_are_literally_shared(self):
        library = PlanLibrary(make_db())
        join_plan = library.compile("V_join", SHARED_PREFIX["V_join"])
        spj_plan = library.compile("V_spj", SHARED_PREFIX["V_spj"])
        shared_ids = {id(n) for n in join_plan._nodes} & {
            id(n) for n in spj_plan._nodes
        }
        assert shared_ids  # the join subtree is one set of objects

    def test_probe_reduction_versus_independent_plans(self):
        """One delta probe feeds many views: the library probes the base
        relations strictly fewer times than independent plans do."""
        db_lib, db_solo = make_db(), make_db()
        library = PlanLibrary(db_lib)
        for name, expr in SHARED_PREFIX.items():
            library.compile(name, expr)
        solo = [
            MaintenancePlan(expr, db_solo)
            for expr in SHARED_PREFIX.values()
        ]
        for deltas in BATCHES:
            library.propagate_all(deltas)
            db_lib.apply_deltas(deltas)
            library.advance_all()
            for plan in solo:
                plan.propagate(deltas)
            db_solo.apply_deltas(deltas)
            for plan in solo:
                plan.advance()
        assert library.probe_count() < sum(p.probe_count() for p in solo)

    def test_shared_state_advances_exactly_once(self):
        """The regression MQO must not hit: a shared aux materialization
        advanced once per *reader* would double-apply deltas.  drive()
        checks recompute equality after every batch, so surviving many
        batches over a shared aggregate + join is the proof; here we also
        pin the aggregate's group state directly."""
        db = make_db()
        library = drive(db)
        agg_plan = library.plans["V_agg"]
        assert agg_plan.propagate({}) == Delta()  # clean state, no residue

    def test_report_contents(self):
        library = PlanLibrary(make_db())
        for name, expr in SHARED_PREFIX.items():
            library.compile(name, expr)
        report = library.report()
        assert report["plans"] == 3
        assert report["nodes_saved"] > 0
        assert report["total_nodes"] == report["unique_nodes"] + report[
            "nodes_saved"
        ]
        assert report["shared_subexpressions"] >= 1
        top = report["shared"][0]
        assert top["readers"] >= 2

    def test_duplicate_name_rejected(self):
        library = PlanLibrary(make_db())
        library.compile("V", JOIN)
        with pytest.raises(ExpressionError):
            library.compile("V", JOIN)
