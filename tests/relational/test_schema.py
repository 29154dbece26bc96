"""Tests for schemas and attribute types."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Attribute, AttrType, Schema


class TestAttrType:
    def test_int_accepts_int(self):
        assert AttrType.INT.accepts(5)

    def test_int_rejects_bool(self):
        assert not AttrType.INT.accepts(True)

    def test_int_rejects_float(self):
        assert not AttrType.INT.accepts(5.0)

    def test_float_accepts_int_and_float(self):
        assert AttrType.FLOAT.accepts(5)
        assert AttrType.FLOAT.accepts(5.5)

    def test_float_rejects_bool(self):
        assert not AttrType.FLOAT.accepts(False)

    def test_str_accepts_str_only(self):
        assert AttrType.STR.accepts("x")
        assert not AttrType.STR.accepts(1)

    def test_bool_accepts_bool_only(self):
        assert AttrType.BOOL.accepts(True)
        assert not AttrType.BOOL.accepts(1)

    def test_python_type(self):
        assert AttrType.INT.python_type is int
        assert AttrType.STR.python_type is str


class TestAttribute:
    def test_default_type_is_int(self):
        assert Attribute("a").type is AttrType.INT

    def test_rejects_non_identifier_name(self):
        with pytest.raises(SchemaError):
            Attribute("not a name")

    def test_rejects_empty_name(self):
        with pytest.raises(SchemaError):
            Attribute("")

    def test_str_rendering(self):
        assert str(Attribute("a", AttrType.STR)) == "a:str"


class TestSchema:
    def test_accepts_bare_strings(self):
        schema = Schema(["a", "b"])
        assert schema.names == ("a", "b")

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Schema(["a", "a"])

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_contains_and_getitem(self):
        schema = Schema(["a", "b"])
        assert "a" in schema
        assert "z" not in schema
        assert schema["b"].name == "b"

    def test_getitem_unknown_raises(self):
        with pytest.raises(SchemaError):
            Schema(["a"])["z"]

    def test_equality_and_hash(self):
        assert Schema(["a", "b"]) == Schema(["a", "b"])
        assert Schema(["a", "b"]) != Schema(["b", "a"])
        assert hash(Schema(["a"])) == hash(Schema(["a"]))

    def test_validate_accepts_matching_row(self):
        Schema(["a", "b"]).validate({"a": 1, "b": 2})

    def test_validate_missing_attribute(self):
        with pytest.raises(SchemaError, match="missing"):
            Schema(["a", "b"]).validate({"a": 1})

    def test_validate_extra_attribute(self):
        with pytest.raises(SchemaError, match="not in schema"):
            Schema(["a"]).validate({"a": 1, "z": 2})

    def test_validate_wrong_type(self):
        with pytest.raises(SchemaError, match="expects int"):
            Schema(["a"]).validate({"a": "text"})

    def test_project_keeps_order_given(self):
        schema = Schema(["a", "b", "c"])
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_common_names(self):
        left = Schema(["a", "b"])
        right = Schema(["b", "c"])
        assert left.common_names(right) == ("b",)

    def test_natural_join_schema(self):
        joined = Schema(["a", "b"]).natural_join(Schema(["b", "c"]))
        assert joined.names == ("a", "b", "c")

    def test_natural_join_type_conflict(self):
        left = Schema([Attribute("b", AttrType.INT)])
        right = Schema([Attribute("b", AttrType.STR), Attribute("c")])
        with pytest.raises(SchemaError, match="type mismatch"):
            left.natural_join(right)

    def test_iteration_order(self):
        schema = Schema(["x", "a"])
        assert [a.name for a in schema] == ["x", "a"]

    def test_len(self):
        assert len(Schema(["a", "b", "c"])) == 3


def reference_validate(self: Schema, values: dict) -> None:
    """``Schema.validate`` as it stood before it stopped building the
    ``missing`` / ``extra`` lists on every call, verbatim: the reference
    for verdicts and messages."""
    missing = [n for n in self.names if n not in values]
    if missing:
        raise SchemaError(f"row is missing attributes {missing}")
    extra = [n for n in values if n not in self._by_name]
    if extra:
        raise SchemaError(f"row has attributes {extra} not in schema")
    for attr in self._attributes:
        value = values[attr.name]
        if not attr.type.accepts(value):
            raise SchemaError(
                f"attribute {attr.name!r} expects {attr.type.value}, "
                f"got {value!r} ({type(value).__name__})"
            )


class Celsius(float):
    """A subclass: accepted wherever ``isinstance`` accepts its base."""


#: per attribute type, values it accepts and values of every other class
FITTING = {
    AttrType.INT: st.integers(-5, 5),
    AttrType.FLOAT: st.one_of(
        st.floats(-5, 5), st.integers(-5, 5), st.just(Celsius(1.5))
    ),
    AttrType.STR: st.text(max_size=3),
    AttrType.BOOL: st.booleans(),
}
ANY_VALUE = st.one_of(*FITTING.values(), st.none())

SCHEMAS = st.lists(
    st.tuples(st.sampled_from("abcde"), st.sampled_from(AttrType)),
    min_size=1, max_size=4, unique_by=lambda pair: pair[0],
).map(lambda pairs: Schema([Attribute(n, t) for n, t in pairs]))


@st.composite
def schemas_and_rows(draw):
    """A schema and a row that fits it, or misses attributes, or has extra
    ones, or holds a value of any class (``True`` in an INT column too)."""
    schema = draw(SCHEMAS)
    values = {a.name: draw(FITTING[a.type]) for a in schema}
    for name in draw(st.sets(st.sampled_from(schema.names))):
        values[name] = draw(ANY_VALUE)
    for name in draw(st.sets(st.sampled_from(schema.names))):
        del values[name]
    for name in draw(st.sets(st.sampled_from("abcdexyz"), max_size=2)):
        values.setdefault(name, draw(ANY_VALUE))
    return schema, values


def outcome(check, *args):
    try:
        check(*args)
    except SchemaError as exc:
        return str(exc)
    return None


@given(schemas_and_rows())
@settings(max_examples=400, deadline=None)
def test_validate_equals_its_reference(case):
    schema, values = case
    assert outcome(schema.validate, values) == outcome(
        reference_validate, schema, dict(values)
    )
    if values:
        # Relation._check was ``validate(dict(row))``; it now hands over
        # the row's own dict, which must come back as it went in.
        row = Row(values)
        assert outcome(Relation(schema)._check, row) == outcome(
            reference_validate, schema, dict(row)
        )
        assert row == Row(values) and list(row) == sorted(values)
