"""Tests for multiset relations."""

import pytest

from repro.errors import RelationError, SchemaError
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
        rel = Relation()
        rel.insert(Row(x=1))
        rel.insert(Row(y=2))
        assert len(rel) == 2

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
