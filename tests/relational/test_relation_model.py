"""A ``Relation`` against the bag it stands for.

One state machine drives a relation and a plain ``dict[Row, int]`` through
random ``insert`` / ``delete`` / ``modify`` / ``clear`` / ``replace_all`` /
``copy`` / ``Delta.apply_to`` sequences, failing ones included.  After
every step the relation must hold exactly the model's bag, report its
size, and every index built on its store since the last fresh store must
equal one rebuilt from scratch.  A failed step must raise the class the
model predicts and change nothing.

The relation keeps its bag once, as the value tuples of its columnar
store; this is the test that the ``Row`` facade in front of that store
behaves like the ``Row``-keyed dictionary it replaced.  It runs twice:
with a schema, and without one (where the first row given fixes the
heading until ``clear()``).
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import RelationError, SchemaError
from repro.relational.columnar import ColumnIndex
from repro.relational.delta import Delta
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Attribute, AttrType, Schema

SCHEMA = Schema(["a", Attribute("b", AttrType.STR)])
FITTING = st.builds(Row, a=st.integers(0, 2), b=st.sampled_from("xy"))
#: one row per way of not fitting SCHEMA (and, headings apart, each other)
MISFITS = st.sampled_from([
    Row(a=1), Row(a=1, b="x", c=0), Row(a="1", b="x"), Row(a=True, b="x"),
    Row(a=1, b=2),
])
ROWS = st.one_of(FITTING, FITTING, MISFITS)
INDEXES = st.sampled_from([("a",), ("b",), ("a", "b"), ()])


class RelationMachine(RuleBasedStateMachine):
    schema: Schema | None = SCHEMA

    @initialize()
    def start(self):
        self.rel = Relation(self.schema)
        self.model: dict[Row, int] = {}
        self.heading: tuple[str, ...] | None = None  # schemaless only
        self.indexes: dict[tuple, ColumnIndex] = {}
        self.left_behind: list[tuple[Relation, dict[Row, int]]] = []

    # -- the model's verdict on a row ---------------------------------------
    def misfit(self, row: Row) -> bool:
        """Whether giving ``row`` to the relation is a ``SchemaError``; as
        in the relation, the first row given fixes a missing heading."""
        if self.schema is not None:
            try:
                self.schema.validate(dict(row))
            except SchemaError:
                return True
            return False
        if self.heading is None:
            self.heading = tuple(sorted(row))
        return tuple(sorted(row)) != self.heading

    def expect(self, error, action) -> None:
        if error is None:
            action()
        else:
            with pytest.raises(error):
                action()

    def add(self, row: Row, count: int) -> None:
        left = self.model.get(row, 0) + count
        if left:
            self.model[row] = left
        else:
            del self.model[row]

    # -- rules ----------------------------------------------------------------
    @rule(row=ROWS, count=st.integers(-1, 3))
    def insert(self, row, count):
        error = RelationError if count <= 0 else (
            SchemaError if self.misfit(row) else None
        )
        self.expect(error, lambda: self.rel.insert(row, count))
        if error is None:
            self.add(row, count)

    @rule(row=ROWS, count=st.integers(-1, 3))
    def delete(self, row, count):
        short = count <= 0 or self.model.get(row, 0) < count
        self.expect(RelationError if short else None,
                    lambda: self.rel.delete(row, count))
        if not short:
            self.add(row, -count)

    @rule(old=FITTING, new=ROWS)
    def modify(self, old, new):
        if old not in self.model:
            error = RelationError
        else:
            error = SchemaError if self.misfit(new) else None
        self.expect(error, lambda: self.rel.modify(old, new))
        if error is None:
            self.add(old, -1)
            self.add(new, 1)

    @rule(counts=st.dictionaries(ROWS, st.integers(-2, 2), max_size=4))
    def apply_delta(self, counts):
        if len({tuple(sorted(row)) for row in counts}) > 1:
            with pytest.raises(SchemaError):  # one delta, one heading
                Delta(counts)
            return
        delta = Delta(counts)
        rows = delta.counts()
        held = self.schema.layout if self.schema is not None else self.heading
        # The fit is checked before anything is applied: the heading
        # whatever the signs, the values of the rows that go in.
        if rows and held not in (None, delta.layout):
            error = SchemaError
        elif any(c > 0 and self.misfit(row) for row, c in rows.items()):
            error = SchemaError
        elif any(self.model.get(row, 0) < -c for row, c in rows.items()):
            error = RelationError
        else:
            error = None
        self.expect(error, lambda: delta.apply_to(self.rel))
        if error is None:
            for row, count in rows.items():
                self.add(row, count)

    @rule()
    def clear(self):
        self.rel.clear()
        self.model.clear()
        self.heading = None
        self.indexes.clear()  # a fresh store: the old indexes are not its

    @rule(rows=st.lists(FITTING, max_size=4), as_relation=st.booleans())
    def replace_all(self, rows, as_relation):
        self.rel.replace_all(Relation(self.schema, rows) if as_relation else rows)
        self.model.clear()
        self.indexes.clear()
        self.heading = ("a", "b") if rows else None
        for row in rows:
            self.add(row, 1)

    @rule()
    def continue_on_a_copy(self):
        """The copy carries the bag on; the original must stay as it was."""
        self.left_behind.append((self.rel, dict(self.model)))
        self.rel = self.rel.copy()
        self.indexes.clear()  # indexes are not copied

    @precondition(lambda self: self.schema is not None)
    @rule(attrs=INDEXES)
    def index_on(self, attrs):
        self.indexes[attrs] = self.rel.columnar().index_on(attrs)

    # -- what must hold after every step ----------------------------------------
    @invariant()
    def same_bag(self):
        rel, model = self.rel, self.model
        assert dict(rel.counts()) == dict(rel.counts_view()) == model
        assert len(rel) == sum(model.values()) == sum(1 for _ in rel)
        assert rel.distinct_count() == len(model) and bool(rel) == bool(model)
        assert all(rel.multiplicity(row) == n and row in rel
                   for row, n in model.items())
        assert rel == Relation.from_counts(model, self.schema)
        # (Sorted from the relation's own rows: a schemaless relation may
        # hold ``a=1`` where the model kept the equal ``a=True``, and the
        # two sort apart.)
        assert rel.sorted_rows() == sorted(rel)

    @invariant()
    def indexes_equal_a_rebuild(self):
        store = self.rel.columnar()
        for attrs, index in self.indexes.items():
            assert store.index_on(attrs) is index
            rebuilt = ColumnIndex(store.layout, attrs)
            rebuilt.build(store.counts_view())
            assert index.table() == rebuilt.table(), attrs

    @invariant()
    def originals_of_copies_are_untouched(self):
        for original, model in self.left_behind:
            assert dict(original.counts()) == model


class SchemalessMachine(RelationMachine):
    schema = None


TestRelationAgainstItsModel = RelationMachine.TestCase
TestRelationAgainstItsModel.settings = settings(
    max_examples=150, stateful_step_count=30, deadline=None
)
TestSchemalessRelationAgainstItsModel = SchemalessMachine.TestCase
TestSchemalessRelationAgainstItsModel.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
