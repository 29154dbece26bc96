"""Unit tests for the columnar core and its row-dict facade contract.

Covers the storage (ColumnarRelation / ColumnIndex), the
compiled kernels (filters, projections, joins, aggregate folds), the
facade hooks (Row.values_tuple, Relation.columnar), vectorized
full evaluation, and the plan built from them against the two other
engines there are (the stateless delta rules and full recomputation).
"""

import pytest

from repro.errors import ExpressionError, RelationError, SchemaError
from repro.relational.algebra import evaluate
from repro.relational.columnar import (
    AggregateKernel,
    ColumnarRelation,
    ColumnIndex,
    compile_filter,
    compile_join,
    compile_projection,
    compile_row_builder,
    evaluate_columnar,
    layout_of,
    make_key,
)
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
from repro.relational.plan import MaintenancePlan
from repro.relational.predicates import TRUE, Predicate, compare
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.relational.oracle import assert_matches_oracles


def row_of(layout, values) -> Row:
    """The facade row of a layout-positioned value tuple."""
    return compile_row_builder(layout)(values)


def make_db() -> Database:
    db = Database()
    db.create_relation(
        "R", Schema(["A", "B"]), [Row(A=i, B=i % 4) for i in range(12)]
    )
    db.create_relation(
        "S", Schema(["B", "C"]), [Row(B=i % 4, C=i) for i in range(8)]
    )
    return db


class TestLayoutAndRows:
    def test_layout_is_sorted(self):
        assert layout_of(("C", "A", "B")) == ("A", "B", "C")

    def test_row_of_round_trips(self):
        layout = layout_of(("B", "A"))
        row = Row(A=1, B=2)
        assert row_of(layout, row.values_tuple(layout)) == row

    def test_values_tuple_fast_path_matches_fallback(self):
        row = Row(A=1, B=2, C=3)
        assert row.values_tuple(("A", "B", "C")) == (1, 2, 3)
        # a non-sorted / partial layout exercises the per-name fallback
        assert row.values_tuple(("C", "A")) == (3, 1)

    def test_values_tuple_missing_attribute_raises(self):
        with pytest.raises(SchemaError):
            Row(A=1).values_tuple(("A", "Z"))


class TestColumnarRelation:
    def test_bag_semantics_and_lengths(self):
        table = ColumnarRelation(("A", "B"))
        table.insert((1, 2), 3)
        table.insert((4, 5))
        assert len(table) == 4
        assert table.distinct_count() == 2
        assert table.multiplicity((1, 2)) == 3
        table.delete((1, 2), 2)
        assert table.multiplicity((1, 2)) == 1
        table.delete((1, 2))
        assert (1, 2) not in table

    def test_delete_underflow_raises(self):
        table = ColumnarRelation(("A",), {(1,): 1})
        with pytest.raises(RelationError):
            table.delete((1,), 2)
        with pytest.raises(RelationError):
            table.delete((9,))

    def test_negative_multiplicity_rejected_at_construction(self):
        with pytest.raises(RelationError):
            ColumnarRelation(("A",), {(1,): -1})

    def test_apply_signed_is_atomic_on_underflow(self):
        table = ColumnarRelation(("A",), {(1,): 2, (2,): 1})
        with pytest.raises(RelationError):
            table.apply_signed({(3,): 5, (2,): -4})
        # the failed batch left nothing behind — not even the insert
        assert dict(table.counts_view()) == {(1,): 2, (2,): 1}

    def test_apply_signed_deletes_before_inserts(self):
        table = ColumnarRelation(("A",), {(1,): 1})
        table.apply_signed({(1,): -1, (2,): 1})
        assert dict(table.counts_view()) == {(2,): 1}

    def test_column_vectors_align_with_multiplicities(self):
        table = ColumnarRelation(("A", "B"), {(1, 10): 2, (3, 30): 1})
        columns, mults = table.column_vectors()
        rebuilt = {
            (columns[0][j], columns[1][j]): mults[j]
            for j in range(len(mults))
        }
        assert rebuilt == {(1, 10): 2, (3, 30): 1}

    def test_row_facade_round_trip(self):
        counts = {Row(A=1, B=2): 2, Row(A=3, B=4): 1}
        table = ColumnarRelation(
            ("A", "B"), {row.values_tuple(("A", "B")): c for row, c in counts.items()}
        )
        assert table.to_rows() == counts


class TestColumnIndex:
    def test_scalar_and_tuple_key_conventions(self):
        layout = ("A", "B", "C")
        assert make_key(layout, ("B",))((1, 2, 3)) == 2
        assert make_key(layout, ("A", "C"))((1, 2, 3)) == (1, 3)
        assert make_key(layout, ())((1, 2, 3)) == ()

    def test_buckets_track_mutations_in_lockstep(self):
        table = ColumnarRelation(("A", "B"), {(1, 0): 1, (2, 0): 1, (3, 1): 1})
        index = table.index_on(("B",))
        assert dict(index.bucket(0)) == {(1, 0): 1, (2, 0): 1}
        table.insert((4, 0))
        table.delete((1, 0))
        assert dict(index.bucket(0)) == {(2, 0): 1, (4, 0): 1}
        assert dict(index.bucket(7)) == {}

    def test_empty_key_buckets_everything(self):
        table = ColumnarRelation(("A",), {(1,): 2, (2,): 1})
        index = table.index_on(())
        assert dict(index.bucket(())) == {(1,): 2, (2,): 1}

    def test_index_is_cached_per_attrs(self):
        table = ColumnarRelation(("A", "B"))
        assert table.index_on(("B",)) is table.index_on(("B",))
        assert isinstance(table.index_on(("B",)), ColumnIndex)


class TestCompiledKernels:
    LAYOUT = ("A", "B")

    def test_true_predicate_compiles_to_none(self):
        assert compile_filter(TRUE, self.LAYOUT) is None

    def test_filter_matches_interpreted_semantics(self):
        pred = compare("A", "<", 3)
        kernel = compile_filter(pred, self.LAYOUT)
        counts = {(1, 9): 2, (3, 9): 1, (2, 0): -1}
        expected = {
            t: c for t, c in counts.items()
            if pred.evaluate(row_of(self.LAYOUT, t))
        }
        assert kernel(counts) == expected

    def test_filter_type_error_becomes_expression_error(self):
        kernel = compile_filter(compare("A", "<", 3), self.LAYOUT)
        with pytest.raises(ExpressionError):
            kernel({("not-an-int", 0): 1})

    def test_filter_unknown_attribute_raises_at_compile(self):
        with pytest.raises(ExpressionError):
            compile_filter(compare("Z", "=", 1), self.LAYOUT)

    def test_unknown_predicate_subclass_falls_back_to_evaluate(self):
        class OddA(Predicate):
            def evaluate(self, row):
                return row["A"] % 2 == 1

            def __str__(self):
                return "odd(A)"

        kernel = compile_filter(OddA(), self.LAYOUT)
        assert kernel({(1, 0): 1, (2, 0): 1, (3, 0): 2}) == {(1, 0): 1, (3, 0): 2}

    def test_projection_folds_multiplicities(self):
        out_layout, kernel = compile_projection(("A", "B"), ("B",))
        assert out_layout == ("B",)
        assert kernel({(1, 7): 2, (2, 7): 3, (3, 8): 1}) == {(7,): 5, (8,): 1}

    def test_projection_drops_cancelled_tuples(self):
        _, kernel = compile_projection(("A", "B"), ("B",))
        assert kernel({(1, 7): 2, (2, 7): -2}) == {}

    def test_projection_missing_attribute_raises(self):
        with pytest.raises(ExpressionError):
            compile_projection(("A", "B"), ("Z",))

    def test_aggregate_kernel_counts_and_sums(self):
        expr = Aggregate(
            ("B",),
            (AggregateSpec("count", "n"), AggregateSpec("sum", "tot", "A")),
            BaseRelation("R"),
        )
        kernel = AggregateKernel(expr, ("A", "B"))
        out = kernel.aggregate({(1, 7): 2, (4, 7): 1, (5, 8): 1})
        # layout is sorted: (B, n, tot)
        assert kernel.layout == ("B", "n", "tot")
        assert out == {(7, 3, 6): 1, (8, 1, 5): 1}

    def test_aggregate_kernel_global_group(self):
        expr = Aggregate(
            (), (AggregateSpec("count", "n"),), BaseRelation("R")
        )
        kernel = AggregateKernel(expr, ("A", "B"))
        assert kernel.aggregate({(1, 2): 3, (4, 5): 2}) == {(5,): 1}

    def test_aggregate_kernel_dead_group_emits_nothing(self):
        expr = Aggregate(("B",), (AggregateSpec("count", "n"),), BaseRelation("R"))
        kernel = AggregateKernel(expr, ("A", "B"))
        assert kernel.aggregate({(1, 7): 1, (2, 7): -1}) == {}


def evaluated_join(left_layout, left, right_layout, right, on):
    """``left |><| right`` by :func:`algebra.evaluate`: each signed bag is
    split into its positive and negative parts, and the join is the signed
    sum of the four joins of those parts as relations."""
    def parts(counts):
        return [(sign, {t: sign * c for t, c in counts.items() if sign * c > 0})
                for sign in (1, -1)]

    total: dict[tuple, int] = {}
    for left_sign, left_part in parts(left):
        for right_sign, right_part in parts(right):
            db = Database()
            db.create_relation("L", Schema(left_layout), Relation.from_tuple_counts(
                left_layout, left_part, Schema(left_layout)))
            db.create_relation("R", Schema(right_layout), Relation.from_tuple_counts(
                right_layout, right_part, Schema(right_layout)))
            joined = evaluate(Join(BaseRelation("L"), BaseRelation("R"), on), db)
            for t, c in joined.columnar().counts_view().items():
                total[t] = total.get(t, 0) + left_sign * right_sign * c
    return {t: c for t, c in total.items() if c}


class TestJoinKernel:
    """``compile_join`` against the row-dict join, one case per row."""

    CASES = {
        "one-attribute key": (
            ("A", "B"), {(1, 0): 1, (2, 0): 2, (3, 1): 1, (4, 9): 1},
            ("B", "C"), {(0, 5): 1, (0, 6): 3, (1, 7): 1},
            ("B",),
        ),
        "two-attribute key": (
            ("A", "B", "C"), {(1, 0, 0): 1, (2, 0, 1): 2, (3, 0, 0): 1},
            ("B", "C", "D"), {(0, 0, 7): 2, (0, 1, 8): 1, (1, 0, 9): 1},
            ("B", "C"),
        ),
        "cross product": (
            ("A", "B"), {(1, 0): 1, (2, 0): 2},
            ("C", "D"), {(5, 5): 1, (6, 5): 3, (7, 7): 1},
            (),
        ),
        "one-attribute output": (
            ("A",), {(1,): 2, (2,): 1, (3,): 1},
            ("A",), {(1,): 3, (3,): 1, (4,): 5},
            ("A",),
        ),
        "signed counts on both sides": (
            ("A", "B"), {(1, 0): -1, (2, 0): 2, (3, 1): -3},
            ("B", "C"), {(0, 5): -2, (0, 6): 1, (1, 7): 4},
            ("B",),
        ),
        "empty left": (("A", "B"), {}, ("B", "C"), {(0, 5): 1}, ("B",)),
        "empty right": (("A", "B"), {(1, 0): -1}, ("B", "C"), {}, ("B",)),
    }

    @pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
    def test_equals_the_row_dict_join(self, case):
        left_layout, left, right_layout, right, on = case
        layout, join = compile_join(left_layout, right_layout, on)
        assert layout == layout_of(set(left_layout) | set(right_layout))
        assert join(left, right) == evaluated_join(
            left_layout, left, right_layout, right, on
        )

    @pytest.mark.parametrize("case", CASES.values(), ids=list(CASES))
    def test_left_larger_and_right_larger_give_equal_bags(self, case):
        """The smaller bag is indexed: with the operands swapped the other
        half of the kernel runs (the left operand indexed where the right
        one was, or the reverse) and gives an equal bag."""
        left_layout, left, right_layout, right, on = case
        _, join = compile_join(left_layout, right_layout, on)
        _, swapped = compile_join(right_layout, left_layout, on)
        assert join(left, right) == swapped(right, left)

    def test_merge_takes_shared_attributes_from_left(self):
        out_layout, join = compile_join(("A", "B"), ("B", "C"), ("B",))
        assert out_layout == ("A", "B", "C")
        assert join({(1, 2): 1}, {(2, 3): 1}) == {(1, 2, 3): 1}

    def test_is_compiled_once_per_layouts_and_key(self):
        assert compile_join(("A", "B"), ("B", "C"), ("B",)) is compile_join(
            ("A", "B"), ("B", "C"), ("B",)
        )

    def test_a_shared_attribute_outside_the_key_is_refused(self):
        with pytest.raises(ExpressionError, match="shared attributes"):
            compile_join(("A", "B"), ("B", "C"), ())

    def test_a_plan_batch_changing_both_sides_equals_a_recompute(self):
        """A plan's join node sums its two probe terms and the cross term."""
        expr = Join(BaseRelation("R"), BaseRelation("S"))
        db = make_db()
        plan = MaintenancePlan(expr, db)
        deltas = {
            "R": Delta({Row(A=50, B=1): 2, Row(A=0, B=0): -1, Row(A=1, B=1): -1}),
            "S": Delta({Row(B=1, C=70): 1, Row(B=0, C=0): -1, Row(B=1, C=1): -1}),
        }
        before = evaluate(expr, db)
        view_delta = plan.propagate(deltas)
        assert_matches_oracles(expr, db, deltas, view_delta)
        db.apply_deltas(deltas)
        plan.advance()
        view_delta.apply_to(before)
        assert before == evaluate(expr, db)


class TestRelationFacade:
    def test_columnar_store_is_lazy_and_cached(self):
        rel = make_db().relation("R")
        store = rel.columnar()
        assert store is rel.columnar()
        assert store.to_rows() == dict(rel.counts_view())

    def test_store_tracks_insert_and_delete(self):
        rel = make_db().relation("R")
        store = rel.columnar()
        rel.insert(Row(A=99, B=0), 2)
        rel.delete(Row(A=0, B=0))
        assert store.to_rows() == dict(rel.counts_view())

    def test_clear_drops_store(self):
        rel = make_db().relation("R")
        first = rel.columnar()
        rel.replace_all([Row(A=7, B=7)])
        second = rel.columnar()
        assert second is not first
        assert second.to_rows() == {Row(A=7, B=7): 1}

    def test_copy_does_not_carry_store(self):
        rel = make_db().relation("R")
        rel.columnar()
        dup = rel.copy()
        dup.insert(Row(A=1, B=1))  # must not touch the original's store
        assert rel.columnar().to_rows() == dict(rel.counts_view())

    def test_schemaless_relation_has_no_columnar_store(self):
        """...of its own kind: its store is laid out by its first row."""
        assert Relation().columnar().layout == ()
        rel = Relation(None, [Row(B=2, A=1)])
        assert rel.columnar().layout == ("A", "B")
        assert dict(rel.columnar().counts_view()) == {(1, 2): 1}


class TestEvaluateColumnar:
    EXPRS = [
        BaseRelation("R"),
        Select(compare("A", ">=", 6), BaseRelation("R")),
        Project(("B",), BaseRelation("R")),
        Join(BaseRelation("R"), BaseRelation("S")),
        Project(
            ("A", "C"),
            Select(compare("C", "<", 6), Join(BaseRelation("R"), BaseRelation("S"))),
        ),
        Aggregate(
            ("B",),
            (AggregateSpec("count", "n"), AggregateSpec("sum", "tot", "C")),
            Join(BaseRelation("R"), BaseRelation("S")),
        ),
    ]

    @pytest.mark.parametrize("expr", EXPRS, ids=[str(e) for e in EXPRS])
    def test_matches_row_dict_evaluate(self, expr):
        db = make_db()
        assert evaluate_columnar(expr, db) == evaluate(expr, db)

    def test_empty_database(self):
        db = Database()
        db.create_relation("R", Schema(["A", "B"]))
        db.create_relation("S", Schema(["B", "C"]))
        for expr in self.EXPRS:
            assert evaluate_columnar(expr, db) == evaluate(expr, db)


class TestPlanEngines:
    def test_engines_emit_equal_deltas_over_a_batch_sequence(self):
        expr = Project(
            ("A", "C"),
            Select(compare("C", "<", 6), Join(BaseRelation("R"), BaseRelation("S"))),
        )
        db = make_db()
        plan = MaintenancePlan(expr, db)
        batches = [
            {"R": Delta.insert(Row(A=50, B=1))},
            {"S": Delta.insert(Row(B=1, C=2), 3)},
            {"R": Delta.delete(Row(A=0, B=0)),
             "S": Delta.delete(Row(B=0, C=0))},
        ]
        for deltas in batches:
            assert_matches_oracles(expr, db, deltas, plan.propagate(deltas))
            db.apply_deltas(deltas)
            plan.advance()

    def test_columnar_plan_survives_out_of_band_replace_all(self):
        """replace_all drops the columnar store; probes must re-resolve."""
        expr = Join(BaseRelation("R"), BaseRelation("S"))
        db = make_db()
        plan = MaintenancePlan(expr, db)
        plan.propagate({"R": Delta.insert(Row(A=77, B=1))})  # warm the probes
        db.relation("S").replace_all([Row(B=1, C=123)])
        deltas = {"R": Delta.insert(Row(A=78, B=1))}
        assert_matches_oracles(expr, db, deltas, plan.propagate(deltas))
