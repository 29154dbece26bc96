"""Compiled maintenance plans: equivalence, aux state, and wiring.

The plan path must be observably *used* (indexed probes, aux
materializations, self-maintained aggregates) while staying bag-for-bag
identical to both the unindexed delta rules and full recomputation.
"""

import pytest

from repro.errors import ConsistencyViolation
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
    ViewDefinition,
)
from repro.relational.maintain import MaterializedView
from repro.relational.plan import MaintenancePlan, PlanUnsupported
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
SPJ = Project(("A", "C"), Select(compare("C", "<", 6), JOIN))
TOTALS = Aggregate(
    ("B",),
    (AggregateSpec("count", "n"), AggregateSpec("sum", "total", "C")),
    JOIN,
)


def check_sequence(expr: Expression, db: Database, delta_batches) -> MaintenancePlan:
    """Drive ``expr`` through plan + legacy + recompute; all must agree."""
    plan = MaintenancePlan(expr, db)
    materialized = evaluate(expr, db)
    for deltas in delta_batches:
        planned = plan.propagate(deltas)
        assert_matches_oracles(expr, db, deltas, planned)
        db.apply_deltas(deltas)
        plan.advance()
        planned.apply_to(materialized)
        assert materialized == evaluate(expr, db)
    return plan


class TestPlanEquivalence:
    def test_join_insert_delete_modify(self):
        # the join, a select/project over it and a group-by over it
        for expr in (JOIN, SPJ, TOTALS):
            check_sequence(
                expr,
                make_db(),
                [
                    {"R": Delta.insert(Row(A=50, B=1))},
                    {"S": Delta.insert(Row(B=1, C=99), 3)},
                    {"R": Delta.modify(Row(A=50, B=1), Row(A=50, B=2))},
                    {"R": Delta.delete(Row(A=0, B=0)),
                     "S": Delta.delete(Row(B=0, C=0))},
                    {"S": Delta.modify(Row(B=1, C=1), Row(B=3, C=1))},
                ],
            )

    def test_spj_pushes_delta_through_select_project(self):
        db = make_db()
        check_sequence(
            SPJ,
            db,
            [
                {"S": Delta.insert(Row(B=2, C=3))},     # passes the filter
                {"S": Delta.insert(Row(B=2, C=300))},   # rejected by it
                {"R": Delta.insert(Row(A=7, B=2), 2)},
            ],
        )

    def test_aggregate_group_birth_change_death(self):
        db = make_db()
        check_sequence(
            TOTALS,
            db,
            [
                {"S": Delta.insert(Row(B=1, C=10))},            # value change
                {"R": Delta.insert(Row(A=60, B=9))},            # joins nothing
                {"S": Delta.insert(Row(B=9, C=1))},             # group birth
                {"S": Delta.delete(Row(B=9, C=1))},             # group death
                {"R": Delta.modify(Row(A=1, B=1), Row(A=1, B=3))},
            ],
        )

    def test_aggregate_without_group_by(self):
        grand = Aggregate((), (AggregateSpec("sum", "total", "C"),), JOIN)
        db = make_db()
        check_sequence(
            grand,
            db,
            [
                {"S": Delta.insert(Row(B=0, C=5))},
                {"S": Delta.delete(Row(B=0, C=5))},
            ],
        )

    def test_derived_join_input_is_materialized(self):
        # Join of two *derived* sides: both must become aux materializations.
        expr = Join(
            Project(("A", "B"), Select(compare("A", ">=", 2), BaseRelation("R"))),
            Select(compare("C", "!=", 3), BaseRelation("S")),
        )
        db = make_db()
        plan = check_sequence(
            expr,
            db,
            [
                {"R": Delta.insert(Row(A=1, B=1))},   # filtered out of the aux
                {"R": Delta.insert(Row(A=30, B=1))},
                {"S": Delta.insert(Row(B=1, C=3))},   # filtered out of the aux
                {"S": Delta.insert(Row(B=1, C=4))},
            ],
        )
        assert plan.describe().count("aux materialization") == 2

    def test_aggregate_as_join_input(self):
        # The aggregate output feeds a join: aux-materialized and probed.
        per_b = Aggregate(("B",), (AggregateSpec("count", "n"),), BaseRelation("R"))
        expr = Join(per_b, BaseRelation("S"))
        db = make_db()
        plan = check_sequence(
            expr,
            db,
            [
                {"R": Delta.insert(Row(A=70, B=0))},
                {"R": Delta.delete(Row(A=0, B=0))},
                {"S": Delta.insert(Row(B=0, C=55))},
            ],
        )
        assert "aux materialization" in plan.describe()


class TestPlanMechanics:
    def test_propagate_is_pure_until_advance(self):
        db = make_db()
        plan = MaintenancePlan(JOIN, db)
        deltas = {"R": Delta.insert(Row(A=50, B=1))}
        first = plan.propagate(deltas)
        assert plan.propagate(deltas) == first  # no hidden state advanced

    def test_abandoned_batch_is_superseded(self):
        db = make_db()
        plan = MaintenancePlan(TOTALS, db)
        plan.propagate({"R": Delta.insert(Row(A=50, B=1))})  # never advanced
        deltas = {"S": Delta.insert(Row(B=1, C=10))}
        assert_matches_oracles(TOTALS, db, deltas, plan.propagate(deltas))

    def test_unsupported_expression_raises(self):
        class Exotic(Expression):
            __slots__ = ()

            def base_relations(self):
                return frozenset()

            def infer_schema(self, base_schemas):
                return Schema(["A"])

        with pytest.raises(PlanUnsupported):
            MaintenancePlan(Exotic(), make_db())

    def test_schema_cached_at_compile(self):
        db = make_db()
        plan = MaintenancePlan(SPJ, db)
        assert plan.schema.names == ("A", "C")


class TestMaterializedViewPlan:
    def test_plan_used_by_default_and_verifies(self):
        db = make_db()
        view = MaterializedView(ViewDefinition("V", TOTALS), db)
        assert view.plan is not None
        view.apply({"S": Delta.insert(Row(B=1, C=10))})
        view.apply({"R": Delta.delete(Row(A=1, B=1))})
        assert view.plan.propagations == 2
        view.verify()

    def test_applied_delta_matches_the_oracles(self):
        db, pre = make_db(), make_db()
        view = MaterializedView(ViewDefinition("V", SPJ), db)
        for deltas in (
            {"R": Delta.insert(Row(A=21, B=3))},
            {"S": Delta.insert(Row(B=3, C=2))},
        ):
            assert_matches_oracles(SPJ, pre, deltas, view.apply(deltas))
            pre.apply_deltas(deltas)
        assert view.contents == evaluate(SPJ, db)

    @pytest.mark.parametrize(
        "expr",
        [
            JOIN,
            # an aux-store input and an aggregate's group states: both are
            # plan state the out-of-band insert leaves stale
            Join(Select(compare("A", ">=", 0), BaseRelation("R")),
                 BaseRelation("S")),
            TOTALS,
        ],
        ids=["join", "select-join", "totals"],
    )
    def test_refresh_rebuilds_plan_state(self, expr):
        db = make_db()
        view = MaterializedView(ViewDefinition("V", expr), db)
        db.apply_deltas({"R": Delta.insert(Row(A=90, B=2))})  # out-of-band
        with pytest.raises(ConsistencyViolation):
            view.verify()
        view.refresh()
        view.verify()
        view.apply({"S": Delta.insert(Row(B=2, C=77))})
        view.verify()

    def test_failed_apply_leaves_everything_untouched(self):
        db = make_db()
        view = MaterializedView(ViewDefinition("V", JOIN), db)
        before = view.contents.copy()
        bad = {
            "R": Delta.insert(Row(A=91, B=1)),
            "S": Delta.delete(Row(B=0, C=0), 5),  # underflows
        }
        with pytest.raises(Exception):
            view.apply(bad)
        assert view.contents == before
        view.verify()  # db also untouched: atomic apply_deltas
        view.apply({"R": Delta.insert(Row(A=91, B=1))})
        view.verify()


class TestCachedManagerUsesPlan:
    def test_seed_replica_compiles_plan(self):
        from repro.sim.kernel import Simulator
        from repro.viewmgr.complete import CompleteViewManager

        schemas = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}
        db = Database()
        db.create_relation("R", schemas["R"], [Row(A=1, B=2)])
        db.create_relation("S", schemas["S"])
        manager = CompleteViewManager(
            Simulator(), ViewDefinition("V", JOIN), schemas
        )
        manager.seed_replica(db)
        assert manager._plan is not None
        assert manager._plan.propagations == 0
