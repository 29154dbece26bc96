"""A small SQL-flavoured parser for view definitions.

Grammar (case-insensitive keywords)::

    view      := NAME "=" query
    query     := "SELECT" columns "FROM" source ("WHERE" predicate)?
    columns   := "*" | NAME ("," NAME)*
    source    := NAME ("JOIN" NAME ("ON" "(" NAME ("," NAME)* ")")?)*
    predicate := disjunct ("OR" disjunct)*
    disjunct  := conjunct ("AND" conjunct)*
    conjunct  := "NOT" conjunct | "(" predicate ")" | operand CMP operand
    operand   := NAME | NUMBER | 'string' | TRUE | FALSE
    CMP       := "=" | "!=" | "<" | "<=" | ">" | ">="

``JOIN`` without ``ON`` is a natural join (the paper's ``./``).  Examples::

    parse_view("V1 = SELECT * FROM R JOIN S")
    parse_view("Hot = SELECT item, qty FROM Sales WHERE qty >= 10 AND region = 'west'")
"""

from __future__ import annotations

import re

from repro.errors import ParseError
from repro.record import Record
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
    ViewDefinition,
)
from repro.relational.predicates import (
    And,
    Attr,
    Comparison,
    Const,
    Not,
    Or,
    Predicate,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>-?\d+\.\d+|-?\d+)
  | (?P<string>'(?:[^'\\]|\\.)*')
  | (?P<cmp><=|>=|!=|=|<|>)
  | (?P<punct>[(),*])
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = frozenset(
    {
        "select", "from", "where", "join", "on", "and", "or", "not",
        "true", "false", "group", "by", "as", "count", "sum", "having",
    }
)


class _Token(Record):
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int) -> None:
        self.kind = kind  # "number" | "string" | "cmp" | "punct" | "name" | "kw"
        self.text = text
        self.position = position


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        kind = match.lastgroup or ""
        if kind == "ws":
            continue
        value = match.group()
        if kind == "name" and value.lower() in _KEYWORDS:
            tokens.append(_Token("kw", value.lower(), match.start()))
        else:
            tokens.append(_Token(kind, value, match.start()))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = _tokenize(text)
        self._index = 0

    # -- token stream helpers ----------------------------------------------
    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"unexpected end of input in {self._text!r}")
        self._index += 1
        return token

    def _accept(self, kind: str, text: str | None = None) -> _Token | None:
        token = self._peek()
        if token and token.kind == kind and (text is None or token.text == text):
            self._index += 1
            return token
        return None

    def _expect(self, kind: str, text: str | None = None) -> _Token:
        token = self._accept(kind, text)
        if token is None:
            got = self._peek()
            want = text or kind
            where = f"at offset {got.position}" if got else "at end of input"
            raise ParseError(
                f"expected {want!r} {where} in {self._text!r}, "
                f"got {got.text if got else 'EOF'!r}"
            )
        return token

    # -- grammar ---------------------------------------------------------
    def view(self) -> ViewDefinition:
        name = self._expect("name").text
        self._expect("cmp", "=")
        expr = self.query()
        if self._peek() is not None:
            token = self._peek()
            raise ParseError(
                f"trailing input {token.text!r} at offset {token.position}"
            )
        return ViewDefinition(name, expr)

    def query(self) -> Expression:
        self._expect("kw", "select")
        items = self._select_list()
        self._expect("kw", "from")
        expr = self._source()
        if self._accept("kw", "where"):
            expr = Select(self._predicate(), expr)
        group_by: tuple[str, ...] | None = None
        if self._accept("kw", "group"):
            self._expect("kw", "by")
            names = [self._expect("name").text]
            while self._accept("punct", ","):
                names.append(self._expect("name").text)
            group_by = tuple(names)
        having: Predicate | None = None
        if self._accept("kw", "having"):
            if group_by is None:
                raise ParseError("HAVING requires a GROUP BY clause")
            having = self._predicate()
        shaped = self._shape_output(items, group_by, expr)
        if having is not None:
            # HAVING filters aggregate output rows; it sits above the
            # Aggregate but below any reordering projection.
            if isinstance(shaped, Project):
                shaped = Project(shaped.names, Select(having, shaped.child))
            else:
                shaped = Select(having, shaped)
        return shaped

    def _select_list(self) -> list["str | AggregateSpec"] | None:
        """The select list: None for ``*``, else names and aggregates."""
        if self._accept("punct", "*"):
            return None
        items: list[str | AggregateSpec] = [self._select_item()]
        while self._accept("punct", ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> "str | AggregateSpec":
        for fn in ("count", "sum"):
            if self._accept("kw", fn):
                self._expect("punct", "(")
                attr: str | None = None
                if self._accept("punct", "*"):
                    pass
                elif fn == "sum":
                    attr = self._expect("name").text
                self._expect("punct", ")")
                if self._accept("kw", "as"):
                    alias = self._expect("name").text
                elif fn == "count":
                    alias = "count"
                else:
                    alias = f"sum_{attr}"
                return AggregateSpec(fn, alias, attr)
        return self._expect("name").text

    def _shape_output(
        self,
        items: list["str | AggregateSpec"] | None,
        group_by: tuple[str, ...] | None,
        expr: Expression,
    ) -> Expression:
        """Wrap the FROM/WHERE tree per the select list and GROUP BY."""
        if items is None:
            if group_by is not None:
                raise ParseError("GROUP BY requires an explicit select list")
            return expr
        aggregates = tuple(i for i in items if isinstance(i, AggregateSpec))
        plain = tuple(i for i in items if isinstance(i, str))
        if not aggregates:
            if group_by is not None:
                raise ParseError("GROUP BY without aggregates is not supported")
            return Project(plain, expr)
        keys = group_by if group_by is not None else plain
        if set(plain) != set(keys):
            raise ParseError(
                f"non-aggregated columns {sorted(plain)} must match "
                f"GROUP BY {sorted(keys)}"
            )
        result: Expression = Aggregate(tuple(keys), aggregates, expr)
        # Reorder via projection if the select list interleaves columns.
        canonical = tuple(keys) + tuple(a.alias for a in aggregates)
        listed = tuple(
            i if isinstance(i, str) else i.alias for i in items
        )
        if listed != canonical:
            result = Project(listed, result)
        return result

    def _source(self) -> Expression:
        expr: Expression = BaseRelation(self._expect("name").text)
        while self._accept("kw", "join"):
            right = BaseRelation(self._expect("name").text)
            on: tuple[str, ...] | None = None
            if self._accept("kw", "on"):
                self._expect("punct", "(")
                names = [self._expect("name").text]
                while self._accept("punct", ","):
                    names.append(self._expect("name").text)
                self._expect("punct", ")")
                on = tuple(names)
            expr = Join(expr, right, on)
        return expr

    def _predicate(self) -> Predicate:
        pred = self._conjunction()
        while self._accept("kw", "or"):
            pred = Or(pred, self._conjunction())
        return pred

    def _conjunction(self) -> Predicate:
        pred = self._negation()
        while self._accept("kw", "and"):
            pred = And(pred, self._negation())
        return pred

    def _negation(self) -> Predicate:
        if self._accept("kw", "not"):
            return Not(self._negation())
        if self._accept("punct", "("):
            pred = self._predicate()
            self._expect("punct", ")")
            return pred
        return self._comparison()

    def _comparison(self) -> Predicate:
        lhs = self._operand()
        op = self._expect("cmp").text
        rhs = self._operand()
        return Comparison(lhs, op, rhs)

    def _operand(self):
        token = self._next()
        if token.kind == "name":
            return Attr(token.text)
        if token.kind == "number":
            text = token.text
            return Const(float(text) if "." in text else int(text))
        if token.kind == "string":
            body = token.text[1:-1]
            return Const(body.replace("\\'", "'").replace("\\\\", "\\"))
        if token.kind == "kw" and token.text in ("true", "false"):
            return Const(token.text == "true")
        raise ParseError(
            f"expected an operand at offset {token.position} in {self._text!r}, "
            f"got {token.text!r}"
        )


def parse_view(text: str) -> ViewDefinition:
    """Parse ``"Name = SELECT ... FROM ... [WHERE ...]"`` into a definition."""
    return _Parser(text).view()
