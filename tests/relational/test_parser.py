"""Tests for the view-definition parser."""

import pytest

from repro.errors import ParseError
from repro.relational.expressions import BaseRelation, Join, Project, Select
from repro.relational.parser import _Parser, parse_view
from repro.relational.predicates import And, Comparison, Const, Not, Or


def parse_query(text):
    """Parse a bare ``SELECT`` query (no ``name =`` prefix)."""
    parser = _Parser(text)
    expr = parser.query()
    token = parser._peek()
    if token is not None:
        raise ParseError(f"trailing input {token.text!r} at offset {token.position}")
    return expr


class TestBasics:
    def test_select_star(self):
        view = parse_view("V = SELECT * FROM R")
        assert view.name == "V"
        assert view.expression == BaseRelation("R")

    def test_projection(self):
        view = parse_view("V = SELECT a, b FROM R")
        assert isinstance(view.expression, Project)
        assert view.expression.names == ("a", "b")

    def test_natural_join(self):
        view = parse_view("V = SELECT * FROM R JOIN S")
        assert view.expression == Join(BaseRelation("R"), BaseRelation("S"))

    def test_join_chain_left_deep(self):
        view = parse_view("V = SELECT * FROM R JOIN S JOIN T")
        expr = view.expression
        assert isinstance(expr, Join)
        assert isinstance(expr.left, Join)

    def test_join_on(self):
        view = parse_view("V = SELECT * FROM R JOIN S ON (B)")
        assert view.expression == Join(BaseRelation("R"), BaseRelation("S"), ("B",))

    def test_join_on_multiple(self):
        view = parse_view("V = SELECT * FROM R JOIN S ON (B, C)")
        assert view.expression.on == ("B", "C")

    def test_keywords_case_insensitive(self):
        view = parse_view("V = select * from R join S where B = 1")
        assert isinstance(view.expression, Select)


class TestPredicates:
    def test_comparison_operators(self):
        for op in ("=", "!=", "<", "<=", ">", ">="):
            view = parse_view(f"V = SELECT * FROM R WHERE a {op} 5")
            assert isinstance(view.expression, Select)
            assert view.expression.predicate.op == op

    def test_numbers(self):
        view = parse_view("V = SELECT * FROM R WHERE a = -3")
        assert view.expression.predicate.rhs == Const(-3)
        view = parse_view("V = SELECT * FROM R WHERE a = 2.5")
        assert view.expression.predicate.rhs == Const(2.5)

    def test_string_literal(self):
        view = parse_view("V = SELECT * FROM R WHERE name = 'west'")
        assert view.expression.predicate.rhs == Const("west")

    def test_escaped_quote(self):
        view = parse_view(r"V = SELECT * FROM R WHERE name = 'o\'brien'")
        assert view.expression.predicate.rhs == Const("o'brien")

    def test_booleans(self):
        view = parse_view("V = SELECT * FROM R WHERE flag = true")
        assert view.expression.predicate.rhs == Const(True)

    def test_and_or_precedence(self):
        view = parse_view("V = SELECT * FROM R WHERE a = 1 OR b = 2 AND c = 3")
        pred = view.expression.predicate
        assert isinstance(pred, Or)
        assert isinstance(pred.right, And)

    def test_parentheses(self):
        view = parse_view("V = SELECT * FROM R WHERE (a = 1 OR b = 2) AND c = 3")
        pred = view.expression.predicate
        assert isinstance(pred, And)
        assert isinstance(pred.left, Or)

    def test_not(self):
        view = parse_view("V = SELECT * FROM R WHERE NOT a = 1")
        assert isinstance(view.expression.predicate, Not)

    def test_attr_vs_attr(self):
        view = parse_view("V = SELECT * FROM R WHERE a = b")
        pred = view.expression.predicate
        assert isinstance(pred, Comparison)


class TestStructure:
    def test_projection_above_selection(self):
        view = parse_view("V = SELECT a FROM R WHERE b = 1")
        assert isinstance(view.expression, Project)
        assert isinstance(view.expression.child, Select)

    def test_parse_query_without_name(self):
        expr = parse_query("SELECT * FROM R JOIN S")
        assert isinstance(expr, Join)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "V = SELECT FROM R",
            "V = SELECT * R",
            "V SELECT * FROM R",
            "V = SELECT * FROM R WHERE",
            "V = SELECT * FROM R extra",
            "V = SELECT * FROM R WHERE a ==",
            "V = SELECT * FROM",
            "",
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            parse_view(text)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_view("V = SELECT * FROM R WHERE a = #")

    def test_trailing_input_reported(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_view("V = SELECT * FROM R SELECT")
