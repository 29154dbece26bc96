"""Probe indexes on a relation: lazy build, lockstep maintenance.

``Relation.columnar().index_on(attrs)`` is the one probe structure (a
:class:`~repro.relational.columnar.ColumnIndex` over layout-positioned
tuples, here ``(A, B)``); these cases drive it through the ``Relation``
facade, which is how the maintenance plan's base nodes reach it.
"""

import pytest

from repro.errors import RelationError
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema


class TestRelationIndexes:
    def make(self):
        return Relation(
            Schema(["A", "B"]),
            [Row(A=i, B=i % 3) for i in range(9)],
        )

    def test_lazy_build_and_identity(self):
        rel = self.make()
        index = rel.columnar().index_on(("B",))
        assert rel.columnar().index_on(("B",)) is index  # registered, not rebuilt
        assert dict(index.bucket(0)) == {(0, 0): 1, (3, 0): 1, (6, 0): 1}

    def test_maintained_through_insert_delete(self):
        rel = self.make()
        index = rel.columnar().index_on(("B",))
        rel.insert(Row(A=100, B=0))
        rel.delete(Row(A=0, B=0))
        assert dict(index.bucket(0)) == {(3, 0): 1, (6, 0): 1, (100, 0): 1}

    def test_multiplicity_tracked(self):
        rel = self.make()
        index = rel.columnar().index_on(("B",))
        rel.insert(Row(A=3, B=0), 4)
        assert index.bucket(0)[(3, 0)] == 5

    def test_modify_keeps_index_consistent(self):
        rel = self.make()
        index = rel.columnar().index_on(("B",))
        rel.modify(Row(A=1, B=1), Row(A=1, B=2))
        assert (1, 1) not in index.bucket(1)
        assert index.bucket(2)[(1, 2)] == 1

    def test_clear_drops_indexes(self):
        rel = self.make()
        rel.columnar().index_on(("B",))
        rel.clear()
        rel.insert(Row(A=1, B=0))
        # A fresh probe sees only the post-clear contents.
        assert dict(rel.columnar().index_on(("B",)).bucket(0)) == {(1, 0): 1}

    def test_replace_all_rebuilds(self):
        rel = self.make()
        rel.columnar().index_on(("B",))
        rel.replace_all([Row(A=50, B=7)])
        assert dict(rel.columnar().index_on(("B",)).bucket(7)) == {(50, 7): 1}

    def test_copy_does_not_share_indexes(self):
        rel = self.make()
        rel.columnar().index_on(("B",))
        dup = rel.copy()
        dup.insert(Row(A=200, B=0))
        assert (200, 0) not in rel.columnar().index_on(("B",)).bucket(0)
        assert (200, 0) in dup.columnar().index_on(("B",)).bucket(0)

    def test_counts_view_is_zero_copy_and_readonly(self):
        """Read-only still; built at call time, so no longer live."""
        rel = self.make()
        view = rel.counts_view()
        assert view[Row(A=0, B=0)] == 1
        rel.insert(Row(A=99, B=0))
        assert Row(A=99, B=0) not in view  # as of the call
        assert rel.counts_view()[Row(A=99, B=0)] == 1
        with pytest.raises(TypeError):
            view[Row(A=5, B=5)] = 3  # type: ignore[index]

    def test_delete_underflow_leaves_index_intact(self):
        rel = self.make()
        index = rel.columnar().index_on(("B",))
        with pytest.raises(RelationError):
            rel.delete(Row(A=0, B=0), 5)
        assert index.bucket(0)[(0, 0)] == 1
