"""Tests for immutable rows."""

import pytest

from repro.errors import SchemaError
from repro.relational.rows import Row


class TestConstruction:
    def test_from_mapping(self):
        assert Row({"a": 1})["a"] == 1

    def test_from_kwargs(self):
        assert Row(a=1, b=2)["b"] == 2

    def test_mixed_duplicate_rejected(self):
        with pytest.raises(SchemaError):
            Row({"a": 1}, a=2)

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Row({})

    def test_order_insensitive_equality(self):
        assert Row(a=1, b=2) == Row(b=2, a=1)

    def test_hash_consistent_with_equality(self):
        assert hash(Row(a=1, b=2)) == hash(Row(b=2, a=1))


class TestMappingProtocol:
    def test_len_iter_contains(self):
        row = Row(a=1, b=2)
        assert len(row) == 2
        assert set(row) == {"a", "b"}
        assert "a" in row and "z" not in row

    def test_missing_attribute_raises(self):
        with pytest.raises(SchemaError):
            Row(a=1)["z"]

    def test_names(self):
        assert set(Row(a=1, b=2).names) == {"a", "b"}


class TestDerivation:
    def test_project(self):
        assert Row(a=1, b=2, c=3).project(["a", "c"]) == Row(a=1, c=3)

    def test_project_missing_raises(self):
        with pytest.raises(SchemaError):
            Row(a=1).project(["z"])

    def test_merge_disjoint(self):
        assert Row(a=1).merge(Row(b=2)) == Row(a=1, b=2)

    def test_merge_agreeing_shared(self):
        assert Row(a=1, b=2).merge(Row(b=2, c=3)) == Row(a=1, b=2, c=3)

    def test_merge_conflict_raises(self):
        with pytest.raises(SchemaError, match="conflicts"):
            Row(b=1).merge(Row(b=2))

    def test_replace(self):
        assert Row(a=1, b=2).replace(b=9) == Row(a=1, b=9)

    def test_replace_unknown_raises(self):
        with pytest.raises(SchemaError):
            Row(a=1).replace(z=9)

    def test_replace_returns_new_object(self):
        row = Row(a=1)
        assert row.replace(a=2) is not row
        assert row["a"] == 1


class TestOrdering:
    def test_rows_sortable(self):
        rows = [Row(a=2), Row(a=1)]
        assert sorted(rows) == [Row(a=1), Row(a=2)]

    def test_mixed_value_types_sortable(self):
        # Different value types must not raise during sorting.
        rows = [Row(a="x"), Row(a=1)]
        assert len(sorted(rows)) == 2

    def test_repr_round_trips_values(self):
        assert "a=1" in repr(Row(a=1))
