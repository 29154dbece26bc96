"""``Relation.replace_all`` loads column-wise and answers as the per-row
loader it replaced (``tests/relational/reference.py``) did: the same bag
in the same order, and for a defective row the same exception class and,
for a :class:`SchemaError`, the same message."""

from types import MappingProxyType

from hypothesis import assume, given, settings, strategies as st

from repro.errors import SchemaError
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Attribute, AttrType, Schema
from tests.relational import reference
from tests.relational.test_relation import FITTING, MISFITS


@st.composite
def loads(draw, min_rows=0):
    """(schema or None, attribute pairs, rows): rows of one heading, each a
    ``dict`` or a ``Row``, drawn from at most four value sets so that
    duplicates (and equal values of different classes, 1 and 1.0) are
    common."""
    pairs = draw(st.lists(
        st.tuples(st.sampled_from("abcde"), st.sampled_from(AttrType)),
        min_size=1, max_size=4, unique_by=lambda pair: pair[0],
    ))
    values = st.fixed_dictionaries({name: FITTING[kind] for name, kind in pairs})
    distinct = draw(st.lists(values, min_size=1, max_size=4))
    picks = draw(st.lists(
        st.tuples(st.sampled_from(distinct), st.booleans()),
        min_size=min_rows, max_size=12,
    ))
    rows = [Row(value) if as_row else dict(value) for value, as_row in picks]
    schema = Schema([Attribute(n, t) for n, t in pairs])
    return draw(st.sampled_from([schema, None])), pairs, rows


def outcome(load, schema, rows):
    """What loading ``rows`` into a fresh relation gives: the store with
    every value's class, the rows in iteration order and sorted, or the
    exception class and, for a ``SchemaError``, its message."""
    relation = Relation(schema)
    try:
        load(relation, rows)
    except Exception as exc:  # noqa: BLE001 - the class is the answer
        return type(exc), str(exc) if isinstance(exc, SchemaError) else None
    store = relation.columnar()
    typed = [
        (tuple((type(v), v) for v in values), count)
        for values, count in store.counts_view().items()
    ]
    return store.layout, typed, list(relation), relation.sorted_rows()


@settings(deadline=None)
@given(loads())
def test_a_load_equals_the_per_row_load(case):
    schema, _pairs, rows = case
    loaded = outcome(Relation.replace_all, schema, rows)
    assert loaded == outcome(reference.replace_all, schema, rows)
    assert len(loaded[2]) == len(rows)


DEFECTS = (
    "missing", "extra", "misfit", "bool-in-int", "empty", "other-heading-row"
)


@settings(deadline=None)
@given(loads(min_rows=1), st.sampled_from(DEFECTS), st.data())
def test_one_defect_fails_as_the_per_row_load_fails(case, defect, data):
    """A schema'd load must fail; a schemaless one fails (on a second
    heading) or loads exactly as the per-row loader does."""
    schema, pairs, rows = case
    at = data.draw(st.integers(0, len(rows) - 1))
    values = dict(rows[at])
    names = [name for name, _kind in pairs]
    if defect == "missing":
        del values[data.draw(st.sampled_from(names))]
    elif defect == "extra":
        values["z"] = 0
    elif defect == "misfit":
        name, kind = data.draw(st.sampled_from(pairs))
        values[name] = data.draw(st.sampled_from(MISFITS[kind]))
    elif defect == "bool-in-int":
        ints = [name for name, kind in pairs if kind is AttrType.INT]
        assume(ints)
        values[data.draw(st.sampled_from(ints))] = True
    elif defect == "empty":
        values = {}
    else:
        values["z"] = values.pop(data.draw(st.sampled_from(names)))
    if values and (defect == "other-heading-row" or isinstance(rows[at], Row)):
        values = Row(values)
    rows[at] = values
    expected = outcome(reference.replace_all, schema, rows)
    assert outcome(Relation.replace_all, schema, rows) == expected
    if schema is not None:
        assert expected[0] is SchemaError


@settings(deadline=None)
@given(loads(min_rows=2), st.data())
def test_a_second_heading_in_a_schemaless_load_fails_alike(case, data):
    _schema, _pairs, rows = case
    at = data.draw(st.integers(1, len(rows) - 1))
    rows[at] = data.draw(st.sampled_from([dict, Row]))({**rows[at], "z": 0})
    expected = outcome(reference.replace_all, None, rows)
    assert expected[0] is SchemaError and "heading" in expected[1]
    assert outcome(Relation.replace_all, None, rows) == expected


def test_a_row_given_as_another_mapping_or_as_pairs_is_loaded_as_a_row():
    schema = Schema(["a", "b"])
    rows = [
        (("a", 1), ("b", 2)), MappingProxyType({"a": 1, "b": 2}),
        {"b": 2, "a": 1}, Row(a=1, b=2),
    ]
    relation = Relation(schema, rows)
    assert relation.sorted_rows() == [Row(a=1, b=2)] * 4
    assert outcome(Relation.replace_all, schema, rows) == outcome(
        reference.replace_all, schema, rows
    )
