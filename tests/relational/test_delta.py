"""Tests for deltas and incremental propagation."""

import pytest

from repro.errors import ExpressionError, RelationError, SchemaError
from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational import delta as delta_module
from repro.relational.delta import Delta, propagate_delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Join,
    Project,
    Select,
)
from repro.relational.parser import parse_view
from repro.relational.predicates import compare
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from tests.relational.oracle import assert_matches_oracles


class TestDelta:
    def test_insert_delete_modify(self):
        assert Delta.insert(Row(a=1)).counts() == {Row(a=1): 1}
        assert Delta.delete(Row(a=1)).counts() == {Row(a=1): -1}
        assert Delta.modify(Row(a=1), Row(a=2)).counts() == {
            Row(a=1): -1,
            Row(a=2): 1,
        }

    def test_modify_identity_is_empty(self):
        assert Delta.modify(Row(a=1), Row(a=1)).is_empty()

    def test_zero_counts_dropped(self):
        assert Delta({Row(a=1): 0}).is_empty()

    def test_combined_cancels(self):
        combined = Delta.insert(Row(a=1)).combined(Delta.delete(Row(a=1)))
        assert combined.is_empty()

    def test_negated(self):
        delta = Delta({Row(a=1): 2, Row(a=2): -1})
        assert delta.negated().counts() == {Row(a=1): -2, Row(a=2): 1}

    def test_len_is_total_magnitude(self):
        assert len(Delta({Row(a=1): 2, Row(a=2): -3})) == 5

    def test_insertions_deletions_split(self):
        delta = Delta({Row(a=1): 2, Row(a=2): -3})
        assert delta.insertions() == [(Row(a=1), 2)]
        assert delta.deletions() == [(Row(a=2), 3)]

    def test_between(self):
        old = Relation(rows=[Row(a=1), Row(a=2)])
        new = Relation(rows=[Row(a=2), Row(a=2), Row(a=3)])
        delta = Delta.between(old, new)
        scratch = old.copy()
        delta.apply_to(scratch)
        assert scratch == new

    def test_apply_to(self):
        rel = Relation(rows=[Row(a=1)])
        Delta({Row(a=1): -1, Row(a=2): 1}).apply_to(rel)
        assert rel.sorted_rows() == [Row(a=2)]

    def test_apply_underflow_raises_before_mutating(self):
        rel = Relation(rows=[Row(a=1)])
        with pytest.raises(RelationError):
            Delta({Row(a=1): -2, Row(a=9): 1}).apply_to(rel)
        assert rel.sorted_rows() == [Row(a=1)]  # untouched

    def test_equality_and_hash(self):
        assert Delta.insert(Row(a=1)) == Delta({Row(a=1): 1})
        assert hash(Delta.insert(Row(a=1))) == hash(Delta({Row(a=1): 1}))


class TestTupleBuiltDelta:
    """The same bag given as ``layout``-positioned value tuples."""

    def test_row_built_equals_tuple_built(self):
        by_row = Delta({Row(A=1, B=2): 2, Row(A=3, B=4): -1})
        by_tuple = Delta({(1, 2): 2, (3, 4): -1}, ("A", "B"))
        assert by_row == by_tuple and hash(by_row) == hash(by_tuple)
        assert by_row.layout == by_tuple.layout == ("A", "B")
        assert by_tuple.counts() == {Row(A=1, B=2): 2, Row(A=3, B=4): -1}
        assert dict(by_row.tuple_counts()) == {(1, 2): 2, (3, 4): -1}
        assert len(by_tuple) == 3
        assert repr(by_row) == repr(by_tuple)
        assert by_tuple != Delta({(1, 2): 2, (3, 4): -1}, ("A", "C"))

    def test_zero_counts_dropped(self):
        assert Delta({(1,): 0}, ("A",)).is_empty()
        assert Delta({(1,): 0}, ("A",)) == Delta() == Delta({Row(B=1): 0})

    def test_combined_cancels(self):
        a = Delta({(1,): 2}, ("A",))
        b = Delta({(1,): -2, (2,): 1}, ("A",))
        assert a.combined(b) == Delta({(2,): 1}, ("A",)) == Delta.insert(Row(A=2))
        assert a.combined(Delta()) == a == Delta().combined(a)
        with pytest.raises(SchemaError):
            a.combined(Delta.insert(Row(B=1)))

    def test_apply_to_batches_through_validation(self):
        relation = Relation(Schema(["A"]), [Row(A=1)])
        index = relation.columnar().index_on(("A",))
        Delta({(1,): -1, (5,): 2}, ("A",)).apply_to(relation)
        assert relation.counts_view() == {Row(A=5): 2}
        with pytest.raises(RelationError):
            Delta({(7,): 1, (5,): -3}, ("A",)).apply_to(relation)
        assert relation.counts_view() == {Row(A=5): 2}
        assert dict(index.bucket(5)) == {(5,): 2} and not index.bucket(7)


class TestMalformedDelta:
    """A malformed delta fails typed: at construction what the delta alone
    shows, at application what only the relation can tell."""

    @pytest.mark.parametrize("count", [True, 1.5, 2.0, "1", None])
    def test_a_count_that_is_not_an_int_is_refused_at_construction(self, count):
        with pytest.raises(RelationError):
            Delta({Row(a=1): count})
        with pytest.raises(RelationError):
            Delta({(1,): 1, (2,): count}, ("a",))

    def test_rows_of_differing_headings_are_refused_at_construction(self):
        with pytest.raises(SchemaError):
            Delta({Row(a=1): 1, Row(b=2): 1})
        with pytest.raises(SchemaError):
            Delta({Row(a=1): 1, Row(a=2, b=2): -1})

    @pytest.mark.parametrize(
        "counts, layout",
        [
            pytest.param({(1,): 1}, ("a", "b"), id="short"),
            pytest.param({(1, 2, 3): 1}, ("a", "b"), id="long"),
            pytest.param({(1, "x"): 1}, ("a", "b"), id="str-in-int"),
            pytest.param({(1, True): 1, (1, 2): -1}, ("a", "b"), id="bool-in-int"),
            pytest.param({(1, 2): 1}, ("b", "a"), id="unsorted-layout"),
            pytest.param({(1, 2): -1}, ("a", "c"), id="other-names"),
            pytest.param({Row(a=1): 1}, None, id="row-missing-b"),
            pytest.param({Row(a=1, b=2, c=3): -1}, None, id="row-extra-c"),
        ],
    )
    def test_a_misfit_is_a_schema_error_at_apply_and_changes_nothing(
        self, counts, layout
    ):
        relation = Relation(Schema(["a", "b"]), [Row(a=1, b=2)])
        with pytest.raises(SchemaError):
            Delta(counts, layout).apply_to(relation)
        assert relation.counts_view() == {Row(a=1, b=2): 1}

    def test_a_schemaless_relation_holds_one_heading(self):
        relation = Relation(rows=[Row(a=1, b=2)])
        for delta in (
            Delta({(1,): 1}, ("a", "b")),
            Delta({(1, 2): 1}, ("a", "c")),
            Delta.insert(Row(a=1)),
        ):
            with pytest.raises(SchemaError):
                delta.apply_to(relation)
        assert relation.counts_view() == {Row(a=1, b=2): 1}
        Delta().apply_to(relation)  # an empty delta fits anything
        Delta({(1, 2): 1}, ("a", "b")).apply_to(relation)
        assert relation.counts_view() == {Row(a=1, b=2): 2}


class TestCheckedOncePerSchema:
    """A delta keeps the schema it last fitted; only that schema, or an
    equal one, skips the check."""

    def test_an_equal_schema_is_not_checked_again(self, monkeypatch):
        delta = Delta({(1, 2): 1}, ("a", "b"))
        schema = Schema(["a", "b"])
        relations = Relation(schema), Relation(schema), Relation(Schema(["a", "b"]))
        calls = []
        validate = Schema.validate_columns
        monkeypatch.setattr(Schema, "validate_columns", lambda self, *args: (
            calls.append(self), validate(self, *args))[1])
        for relation in relations:
            delta.apply_to(relation)
            assert relation.counts_view() == {Row(a=1, b=2): 1}
        assert calls == [schema]

    def test_same_names_another_type_is_still_refused(self):
        from repro.relational.schema import Attribute, AttrType

        delta = Delta({(1, 2): 1}, ("a", "b"))
        delta.apply_to(Relation(Schema(["a", "b"])))
        other = Relation(Schema([Attribute("a"), Attribute("b", AttrType.STR)]))
        with pytest.raises(SchemaError):
            delta.apply_to(other)
        assert not other.counts_view()

    def test_a_schemaless_relation_of_another_layout_is_still_refused(self):
        delta = Delta({(1, 2): 1}, ("a", "b"))
        delta.apply_to(Relation(Schema(["a", "b"])))
        schemaless = Relation(rows=[Row(a=1, c=2)])
        with pytest.raises(SchemaError):
            delta.apply_to(schemaless)
        assert schemaless.counts_view() == {Row(a=1, c=2): 1}

    def test_the_memo_is_not_pickled(self):
        import pickle

        delta = Delta({(1, 2): 1}, ("a", "b"))
        before = pickle.dumps(delta)
        delta.apply_to(Relation(Schema(["a", "b"])))
        assert pickle.dumps(delta) == before
        assert pickle.loads(before) == delta


def _db() -> Database:
    db = Database()
    db.create_relation("R", Schema(["A", "B"]), [Row(A=1, B=2), Row(A=3, B=4)])
    db.create_relation("S", Schema(["B", "C"]), [Row(B=2, C=5)])
    return db


class TestPropagation:
    def test_base_delta_passthrough(self):
        delta = propagate_delta(
            BaseRelation("R"), _db(), {"R": Delta.insert(Row(A=9, B=9))}
        )
        assert delta == Delta.insert(Row(A=9, B=9))

    def test_unrelated_relation_empty(self):
        delta = propagate_delta(
            BaseRelation("R"), _db(), {"S": Delta.insert(Row(B=1, C=1))}
        )
        assert delta.is_empty()

    def test_select_filters_delta(self):
        expr = Select(compare("A", ">", 2), BaseRelation("R"))
        deltas = {"R": Delta({Row(A=1, B=9): 1, Row(A=5, B=9): 1})}
        delta = propagate_delta(expr, _db(), deltas)
        assert delta == Delta.insert(Row(A=5, B=9))

    def test_project_merges_counts(self):
        expr = Project(("B",), BaseRelation("R"))
        deltas = {"R": Delta({Row(A=8, B=7): 1, Row(A=9, B=7): 1})}
        delta = propagate_delta(expr, _db(), deltas)
        assert delta == Delta({Row(B=7): 2})

    def test_project_cancellation(self):
        expr = Project(("B",), BaseRelation("R"))
        deltas = {"R": Delta({Row(A=8, B=7): 1, Row(A=9, B=7): -1})}
        assert propagate_delta(expr, _db(), deltas).is_empty()

    def test_join_one_side(self):
        expr = Join(BaseRelation("R"), BaseRelation("S"))
        deltas = {"S": Delta.insert(Row(B=4, C=8))}
        delta = propagate_delta(expr, _db(), deltas)
        assert delta == Delta.insert(Row(A=3, B=4, C=8))

    def test_join_both_sides_includes_cross_term(self):
        expr = Join(BaseRelation("R"), BaseRelation("S"))
        deltas = {
            "R": Delta.insert(Row(A=9, B=9)),
            "S": Delta.insert(Row(B=9, C=9)),
        }
        delta = propagate_delta(expr, _db(), deltas)
        # New R row joins new S row (the dL x dS term only).
        assert delta == Delta.insert(Row(A=9, B=9, C=9))

    def test_delete_propagates_negative(self):
        expr = Join(BaseRelation("R"), BaseRelation("S"))
        deltas = {"R": Delta.delete(Row(A=1, B=2))}
        delta = propagate_delta(expr, _db(), deltas)
        assert delta == Delta.delete(Row(A=1, B=2, C=5))

    def test_cross_product_delta(self):
        db = Database()
        db.create_relation("X", Schema(["x"]), [Row(x=1)])
        db.create_relation("Y", Schema(["y"]), [Row(y=10), Row(y=20)])
        expr = Join(BaseRelation("X"), BaseRelation("Y"))
        delta = propagate_delta(expr, db, {"X": Delta.insert(Row(x=2))})
        assert delta == Delta({Row(x=2, y=10): 1, Row(x=2, y=20): 1})

    def test_self_join_delta(self):
        """R natural-joined with itself: both delta sides fire at once."""
        db = Database()
        db.create_relation("W", Schema(["k"]), [Row(k=1)])
        expr = Join(BaseRelation("W"), BaseRelation("W"))
        before = evaluate(expr, db)
        deltas = {"W": Delta.insert(Row(k=1))}
        delta = propagate_delta(expr, db, deltas)
        db.apply_deltas(deltas)
        after = evaluate(expr, db)
        materialized = before.copy()
        delta.apply_to(materialized)
        assert materialized == after
        assert after.multiplicity(Row(k=1)) == 4  # 2 copies squared

    def test_incremental_equals_recompute(self):
        """The fundamental delta-correctness identity on a worked case."""
        db = _db()
        view = parse_view("V = SELECT A, C FROM R JOIN S WHERE A <= 3")
        before = evaluate(view.expression, db)
        deltas = {
            "R": Delta({Row(A=2, B=2): 1, Row(A=1, B=2): -1}),
            "S": Delta.insert(Row(B=4, C=0)),
        }
        delta = propagate_delta(view.expression, db, deltas)
        db.apply_deltas(deltas)
        after = evaluate(view.expression, db)
        materialized = before.copy()
        delta.apply_to(materialized)
        assert materialized == after


def _sales() -> Database:
    db = Database()
    db.create_relation("F", Schema(["id", "g", "q"]), [
        Row(id=1, g=1, q=5), Row(id=2, g=1, q=7), Row(id=3, g=2, q=1),
    ])
    db.create_relation("D", Schema(["g", "zone"]), [
        Row(g=1, zone=0), Row(g=2, zone=1), Row(g=3, zone=1),
    ])
    return db


TOTALS = Aggregate(
    ("zone",),
    (AggregateSpec("count", "n"), AggregateSpec("sum", "total", "q")),
    Join(BaseRelation("F"), BaseRelation("D")),
)


class TestCompiledRules:
    """The tuple rules against the ``Row`` rules and the recompute, on the
    cases that exercise each term of them."""

    def check(self, expr, db, deltas):
        view_delta = propagate_delta(expr, db, deltas)
        assert_matches_oracles(expr, db, deltas, view_delta)
        return view_delta

    def test_deltas_on_both_join_sides(self):
        deltas = {
            "R": Delta({Row(A=9, B=2): 1, Row(A=1, B=2): -1, Row(A=7, B=6): 1}),
            "S": Delta({Row(B=2, C=5): -1, Row(B=4, C=6): 1, Row(B=6, C=0): 2}),
        }
        delta = self.check(Join(BaseRelation("R"), BaseRelation("S")), _db(), deltas)
        assert delta == Delta({
            Row(A=1, B=2, C=5): -1,  # a deleted R row meets a deleted S row
            Row(A=3, B=4, C=6): 1,  # an old R row meets a new S row
            Row(A=7, B=6, C=0): 2,  # a new R row meets a new S row, twice
        })

    def test_a_modify_that_stays_within_its_group(self):
        deltas = {"F": Delta.modify(Row(id=1, g=1, q=5), Row(id=1, g=1, q=6))}
        delta = self.check(TOTALS, _sales(), deltas)
        assert delta == Delta({Row(zone=0, n=2, total=12): -1,
                               Row(zone=0, n=2, total=13): 1})

    def test_a_modify_that_changes_nothing_visible_cancels(self):
        expr = Aggregate(("g",), (AggregateSpec("count", "n"),), BaseRelation("F"))
        deltas = {"F": Delta.modify(Row(id=1, g=1, q=5), Row(id=1, g=1, q=6))}
        assert self.check(expr, _sales(), deltas).is_empty()

    def test_group_death_and_birth(self):
        deltas = {"F": Delta({Row(id=3, g=2, q=1): -1, Row(id=4, g=3, q=2): 1})}
        delta = self.check(TOTALS, _sales(), deltas)
        assert delta == Delta({Row(zone=1, n=1, total=1): -1,
                               Row(zone=1, n=1, total=2): 1})
        deltas = {"F": Delta.delete(Row(id=3, g=2, q=1))}
        assert self.check(TOTALS, _sales(), deltas) == Delta.delete(
            Row(zone=1, n=1, total=1)
        )

    def test_a_projection_whose_counts_cancel(self):
        expr = Project(("C",), Join(BaseRelation("R"), BaseRelation("S")))
        deltas = {"R": Delta({Row(A=1, B=2): -1, Row(A=8, B=2): 1})}
        assert self.check(expr, _db(), deltas).is_empty()

    @pytest.mark.parametrize("misfit", [
        Delta({(9, 9, 9): 1}, ("A", "B", "C")),
        Delta({(9,): 1}, ("A",)),
        Delta.insert(Row(A=9, D=9)),
    ], ids=["wider", "narrower", "renamed"])
    def test_a_delta_laid_out_otherwise_than_its_relation(self, misfit):
        for expr in (BaseRelation("R"), Join(BaseRelation("R"), BaseRelation("S"))):
            with pytest.raises(SchemaError, match="laid out"):
                propagate_delta(expr, _db(), {"R": misfit})

    def test_a_pre_state_without_a_relation_the_expression_reads(self):
        db = Database()
        db.create_relation("R", Schema(["A", "B"]), [])
        with pytest.raises(ExpressionError, match="'S'"):
            propagate_delta(Join(BaseRelation("R"), BaseRelation("S")), db,
                            {"R": Delta.insert(Row(A=1, B=2))})

    def test_rules_are_compiled_once_per_expression_and_layouts(self, monkeypatch):
        compiled = []
        original = delta_module._compile_rules
        monkeypatch.setattr(delta_module, "_RULES", {})
        monkeypatch.setattr(
            delta_module, "_compile_rules",
            lambda expr, schemas: compiled.append(expr) or original(expr, schemas),
        )
        expr = Join(BaseRelation("R"), BaseRelation("S"))
        for update in (Delta.insert(Row(A=5, B=2)), Delta.delete(Row(A=1, B=2))):
            propagate_delta(expr, _db(), {"R": update})
        parts = [expr, BaseRelation("R"), BaseRelation("S")]
        assert compiled == parts
        other = Database()
        other.create_relation("R", Schema(["A", "B", "E"]), [])
        other.create_relation("S", Schema(["B", "C"]), [])
        propagate_delta(expr, other, {"R": Delta.insert(Row(A=5, B=2, E=0))})
        assert compiled == parts + parts
