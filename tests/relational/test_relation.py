"""Tests for multiset relations."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RelationError, SchemaError
from repro.relational.columnar import counts_to_rows, layout_of
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Attribute, AttrType, Schema


@pytest.fixture
def rel() -> Relation:
    return Relation(Schema(["a", "b"]))


class TestBasics:
    def test_empty(self, rel):
        assert len(rel) == 0
        assert not rel

    def test_insert_and_len(self, rel):
        rel.insert(Row(a=1, b=2))
        rel.insert(Row(a=1, b=2))
        assert len(rel) == 2
        assert rel.distinct_count() == 1

    def test_insert_mapping_coerced(self, rel):
        rel.insert({"a": 1, "b": 2})
        assert Row(a=1, b=2) in rel

    def test_insert_with_count(self, rel):
        rel.insert(Row(a=1, b=2), count=3)
        assert rel.multiplicity(Row(a=1, b=2)) == 3

    def test_insert_bad_count(self, rel):
        with pytest.raises(RelationError):
            rel.insert(Row(a=1, b=2), count=0)

    def test_schema_validation(self, rel):
        with pytest.raises(SchemaError):
            rel.insert(Row(a=1))

    def test_schemaless_relation_accepts_anything(self):
        """...of one heading: the first row it is given fixes the layout."""
        rel = Relation()
        rel.insert(Row(x=1))
        assert rel.columnar().layout == ("x",)
        with pytest.raises(SchemaError, match="heading"):
            rel.insert(Row(y=2))
        with pytest.raises(SchemaError, match="heading"):
            Delta.insert(Row(x=2, y=2)).apply_to(rel)
        assert Row(y=2) not in rel and rel.multiplicity(Row(x=1, y=2)) == 0
        with pytest.raises(RelationError, match="only 0 present"):
            rel.delete(Row(y=2))
        assert rel.sorted_rows() == [Row(x=1)]
        rel.clear()  # forgets the inferred heading
        rel.insert(Row(y=2))
        assert rel.sorted_rows() == [Row(y=2)]

    def test_empty_relations_are_equal_whatever_their_layout(self):
        emptied = Relation(rows=[Row(x=1)])
        emptied.delete(Row(x=1))
        assert emptied == Relation() == Relation(Schema(["a", "b"]))
        assert hash(emptied) == hash(Relation())
        assert Relation(rows=[Row(x=1)]) != Relation(rows=[Row(y=1)])

    def test_iteration_respects_multiplicity(self, rel):
        rel.insert(Row(a=1, b=2), count=2)
        assert sum(1 for _ in rel) == 2


class TestDelete:
    def test_delete(self, rel):
        rel.insert(Row(a=1, b=2), count=2)
        rel.delete(Row(a=1, b=2))
        assert rel.multiplicity(Row(a=1, b=2)) == 1

    def test_delete_last_copy_removes_row(self, rel):
        rel.insert(Row(a=1, b=2))
        rel.delete(Row(a=1, b=2))
        assert Row(a=1, b=2) not in rel

    def test_delete_absent_raises(self, rel):
        with pytest.raises(RelationError, match="only 0 present"):
            rel.delete(Row(a=1, b=2))

    def test_delete_more_than_present_raises(self, rel):
        rel.insert(Row(a=1, b=2))
        with pytest.raises(RelationError):
            rel.delete(Row(a=1, b=2), count=2)


class TestModify:
    def test_modify(self, rel):
        rel.insert(Row(a=1, b=2))
        rel.modify(Row(a=1, b=2), Row(a=1, b=9))
        assert Row(a=1, b=9) in rel
        assert Row(a=1, b=2) not in rel

    def test_modify_rolls_back_on_bad_new_row(self, rel):
        rel.insert(Row(a=1, b=2))
        with pytest.raises(SchemaError):
            rel.modify(Row(a=1, b=2), Row(a=1))
        assert Row(a=1, b=2) in rel  # rollback kept the old row


class TestEqualityAndCopy:
    def test_bag_equality(self):
        left = Relation(rows=[Row(a=1), Row(a=1), Row(a=2)])
        right = Relation(rows=[Row(a=2), Row(a=1), Row(a=1)])
        assert left == right

    def test_bag_inequality_on_counts(self):
        left = Relation(rows=[Row(a=1)])
        right = Relation(rows=[Row(a=1), Row(a=1)])
        assert left != right

    def test_copy_is_independent(self):
        original = Relation(rows=[Row(a=1)])
        dup = original.copy()
        dup.insert(Row(a=2))
        assert len(original) == 1
        assert len(dup) == 2

    def test_from_counts(self):
        rel = Relation.from_counts({Row(a=1): 2, Row(a=2): 0})
        assert len(rel) == 2
        assert rel.distinct_count() == 1

    def test_from_counts_negative_raises(self):
        with pytest.raises(RelationError):
            Relation.from_counts({Row(a=1): -1})

    @pytest.mark.parametrize("count", [1.5, 2.0, True, "2", None])
    def test_from_counts_rejects_a_non_integer_multiplicity(self, count):
        # 1.5 used to make len() a float, True passed for 1: both surfaced
        # as a bare TypeError (or not at all) far from here.
        with pytest.raises(RelationError, match="multiplicity") as caught:
            Relation.from_counts({Row(a=1): 1, Row(a=7): count})
        assert "a=7" in str(caught.value) and repr(count) in str(caught.value)

    def test_sorted_rows_deterministic(self):
        rel = Relation(rows=[Row(a=2), Row(a=1), Row(a=1)])
        assert rel.sorted_rows() == [Row(a=1), Row(a=1), Row(a=2)]

    def test_hashable(self):
        assert hash(Relation(rows=[Row(a=1)])) == hash(Relation(rows=[Row(a=1)]))


class TestReplaceAll:
    def test_replace_all(self):
        rel = Relation(rows=[Row(a=1)])
        rel.replace_all([Row(a=7), Row(a=8)])
        assert rel.sorted_rows() == [Row(a=7), Row(a=8)]

    def test_clear(self):
        rel = Relation(rows=[Row(a=1)])
        rel.clear()
        assert not rel


class TestSeedingFromARelation:
    """A relation with an equal schema is adopted; anything else is validated."""

    SCHEMA = Schema(["a", Attribute("b", AttrType.STR)])
    ROWS = [Row(a=1, b="x"), Row(a=1, b="x"), Row(a=2, b="y")]

    @pytest.fixture
    def validations(self, monkeypatch):
        seen = []
        original = Schema.validate
        monkeypatch.setattr(
            Schema, "validate",
            lambda self, values: seen.append(values) or original(self, values),
        )
        return seen

    def test_equal_schema_is_adopted_without_revalidation(self, validations):
        source = Relation(self.SCHEMA, self.ROWS)
        del validations[:]
        twin = Relation(Schema(["a", Attribute("b", AttrType.STR)]), source)
        target = Relation(self.SCHEMA, [Row(a=9, b="z")])
        twin_store = target.columnar()
        del validations[:]
        target.replace_all(source)
        assert validations == []
        assert twin == source == target and len(target) == 3
        assert target.columnar() is not twin_store  # rebuilt, as after clear()
        assert target.columnar().to_rows() == dict(source.counts_view())
        source.insert(Row(a=3, b="w"))  # independent copies
        assert len(twin) == len(target) == 3

    def test_other_schema_or_none_is_validated_row_by_row(self, validations):
        untyped = Relation(rows=self.ROWS)
        assert Relation(self.SCHEMA, untyped) == untyped
        assert len(validations) == 3
        other = Relation(Schema(["a", "b"]), [Row(a=1, b=2)])
        with pytest.raises(SchemaError):
            Relation(self.SCHEMA, other)
        with pytest.raises(SchemaError):
            Relation(self.SCHEMA, [Row(a=1, b="x")]).replace_all(other)


# ---------------------------------------------------------------------------
# the bulk constructor: one column-wise check instead of one per row
# ---------------------------------------------------------------------------

class Money(int):
    """A subclass: fits wherever ``isinstance`` says its base does."""


FITTING = {
    AttrType.INT: st.one_of(st.integers(-3, 3), st.just(Money(7))),
    AttrType.FLOAT: st.one_of(st.floats(-3, 3), st.integers(-3, 3)),
    AttrType.STR: st.text(max_size=2),
    AttrType.BOOL: st.booleans(),
}
#: per attribute type, one value of each class it must reject
MISFITS = {
    AttrType.INT: [True, 1.0, "1", None],
    AttrType.FLOAT: [False, "1.0", None],
    AttrType.STR: [1, 1.0, True, None, b"x"],
    AttrType.BOOL: [0, 1, 1.0, "True", None],
}


@st.composite
def typed_bags(draw, min_size=0):
    """(schema, sorted layout, {value tuple: multiplicity})."""
    pairs = draw(st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from(AttrType)),
        min_size=1, max_size=4, unique_by=lambda pair: pair[0],
    ))
    schema = Schema([Attribute(n, t) for n, t in pairs])
    layout = layout_of(schema.names)
    tuples = st.tuples(*(FITTING[schema[name].type] for name in layout))
    counts = draw(st.dictionaries(
        tuples, st.integers(1, 3), min_size=min_size, max_size=8
    ))
    return schema, layout, counts


def row_by_row(layout, counts, schema):
    """What the bulk constructor replaced; validates every row."""
    return Relation.from_counts(counts_to_rows(layout, counts), schema)


@given(typed_bags())
@settings(max_examples=200, deadline=None)
def test_bulk_load_equals_the_row_by_row_load(case):
    schema, layout, counts = case
    bulk = Relation.from_tuple_counts(layout, counts, schema)
    reference = row_by_row(layout, counts, schema)
    assert bulk == reference and bulk.schema is schema
    assert len(bulk) == len(reference) == sum(counts.values())
    assert type(len(bulk)) is int
    assert dict(bulk.columnar().counts_view()) == counts  # the one store
    assert bulk.columnar().counts_view() is not counts
    for row, count in bulk.counts():
        twin = Row(dict(row))  # built the slow way
        assert row == twin and hash(row) == hash(twin)
        assert row.sorted_names() == layout and list(row) == list(layout)
        assert reference.multiplicity(twin) == count


DEFECTS = (
    "value", "negative count", "float count", "bool count",
    "missing attribute", "extra attribute",
)


@given(typed_bags(min_size=1), st.sampled_from(DEFECTS), st.data())
@settings(max_examples=300, deadline=None)
def test_bulk_load_rejects_what_the_row_by_row_load_rejects(case, defect, data):
    """One defect in one row, anywhere in the bag (the last row as likely
    as the first, so a check that samples the bag lets it through)."""
    schema, layout, counts = case
    items = list(counts.items())
    at = data.draw(st.integers(0, len(items) - 1), label="defective row")
    victim, count = items[at]
    if defect == "value":
        position = data.draw(st.integers(0, len(layout) - 1))
        attr = schema[layout[position]]
        bad = data.draw(st.sampled_from(MISFITS[attr.type]))
        victim = victim[:position] + (bad,) + victim[position + 1:]
    elif defect.endswith("count"):
        count = {"negative": -count, "float": count + 0.5, "bool": True}[
            defect.split()[0]
        ]
    items[at] = (victim, count)
    if defect == "missing attribute":
        if len(layout) == 1:
            return
        layout = layout[1:]
        items = [(t[1:], c) for t, c in items]
    elif defect == "extra attribute":
        layout = layout + ("zz",)
        items = [(t + (0,), c) for t, c in items]
    broken = dict(items)
    if len(broken) != len(items):
        return  # the defective tuple collided with a sound one
    with pytest.raises((SchemaError, RelationError)) as expected:
        row_by_row(layout, broken, schema)
    with pytest.raises(type(expected.value)) as caught:
        Relation.from_tuple_counts(layout, broken, schema)
    if defect in ("value", "missing attribute", "extra attribute"):
        assert str(caught.value) == str(expected.value)
    else:
        assert repr(victim) in str(caught.value)
        assert repr(count) in str(caught.value)


class TestBulkLoadRejectsWhatRowByRowCannotSee:
    """Shapes ``counts_to_rows`` turns into a wrong row or an IndexError."""

    SCHEMA = Schema(["a", Attribute("b", AttrType.STR)])

    def load(self, layout, counts):
        return Relation.from_tuple_counts(layout, counts, self.SCHEMA)

    def test_sound_input_loads(self):
        rel = self.load(("a", "b"), {(1, "x"): 2, (2, "y"): 1})
        assert rel.sorted_rows() == [Row(a=1, b="x")] * 2 + [Row(a=2, b="y")]

    def test_empty_bag(self):
        assert not self.load(("a", "b"), {})
        with pytest.raises(SchemaError, match="missing attributes"):
            self.load(("a",), {})

    def test_unsorted_layout(self):
        # the tuples would line up with the wrong attributes
        with pytest.raises(SchemaError, match="sorted attribute names"):
            self.load(("b", "a"), {("x", 1): 1})

    @pytest.mark.parametrize("bad", [(1,), (1, "x", 9), (), "1x", 7])
    def test_wrong_arity_or_not_a_tuple(self, bad):
        with pytest.raises(SchemaError, match="is not a tuple of the 2 values"):
            self.load(("a", "b"), {(1, "x"): 1, (2, "y"): 1, bad: 1})

    def test_zero_multiplicity(self):
        # from_counts skips a zero; nothing that loads in bulk produces one
        with pytest.raises(RelationError, match="multiplicity 0 .* not positive"):
            self.load(("a", "b"), {(1, "x"): 1, (2, "y"): 0})

    def test_the_message_names_attribute_type_value_and_class(self):
        with pytest.raises(SchemaError) as caught:
            self.load(("a", "b"), {(1, "x"): 1, (True, "y"): 1})
        assert str(caught.value) == "attribute 'a' expects int, got True (bool)"
