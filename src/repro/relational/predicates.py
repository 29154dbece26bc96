"""Selection predicates over rows.

A small boolean AST: comparisons between attributes and constants, combined
with AND / OR / NOT.  Besides evaluation, predicates support
``restrict_to(attrs)`` — a sound weakening used for the irrelevant-update
filtering of Blakeley et al. that the paper cites ([7]): an update to
relation R cannot affect a view ``select p (... R ...)`` if the part of
``p`` that mentions only R's attributes already rejects the updated row.
"""

from __future__ import annotations

import operator
from typing import Callable, Mapping

from repro.errors import ExpressionError
from repro.record import Node
from repro.relational.rows import Row


# ---------------------------------------------------------------------------
# operands
# ---------------------------------------------------------------------------

class Attr(Node):
    """A reference to a named attribute of the input row."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._init(name)

    def value(self, row: Mapping[str, object]) -> object:
        if self.name not in row:
            raise ExpressionError(f"row {dict(row)!r} has no attribute {self.name!r}")
        return row[self.name]

    def attributes(self) -> frozenset[str]:
        return frozenset((self.name,))

    def __str__(self) -> str:
        return self.name


class Const(Node):
    """A literal constant."""

    __slots__ = ("literal",)

    def __init__(self, literal: object) -> None:
        self._init(literal)

    def value(self, row: Mapping[str, object]) -> object:
        return self.literal

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def __str__(self) -> str:
        return repr(self.literal)


Operand = Attr | Const

_OPS: dict[str, Callable[[object, object], bool]] = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# ---------------------------------------------------------------------------
# predicate AST
# ---------------------------------------------------------------------------

class Predicate:
    """Base class for boolean conditions on rows."""

    __slots__ = ()

    def evaluate(self, row: Mapping[str, object]) -> bool:
        raise NotImplementedError

    def attributes(self) -> frozenset[str]:
        """All attribute names the predicate mentions."""
        raise NotImplementedError

    def restrict_to(self, attrs: frozenset[str]) -> "Predicate":
        """Weaken the predicate to one testable on ``attrs`` alone.

        The result is implied by the original predicate for any row
        extension, so ``restrict_to(attrs).evaluate(partial_row) == False``
        soundly proves no extension of ``partial_row`` satisfies the
        original.  Comparisons mentioning other attributes weaken to TRUE.
        """
        raise NotImplementedError

    # boolean combinators, for a fluent construction style
    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate, Node):
    """The always-true predicate (selection with no condition)."""

    __slots__ = ()

    def __init__(self) -> None:
        self._init()

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return True

    def attributes(self) -> frozenset[str]:
        return frozenset()

    def restrict_to(self, attrs: frozenset[str]) -> Predicate:
        return self

    def __str__(self) -> str:
        return "true"


TRUE = TruePredicate()


class Comparison(Predicate, Node):
    """``lhs op rhs`` where operands are attributes or constants."""

    __slots__ = ("lhs", "op", "rhs")

    def __init__(self, lhs: Operand, op: str, rhs: Operand) -> None:
        if op not in _OPS:
            raise ExpressionError(f"unknown comparison operator {op!r}")
        self._init(lhs, op, rhs)

    def evaluate(self, row: Mapping[str, object]) -> bool:
        left = self.lhs.value(row)
        right = self.rhs.value(row)
        try:
            return _OPS[self.op](left, right)
        except TypeError as exc:
            raise ExpressionError(
                f"cannot compare {left!r} {self.op} {right!r}"
            ) from exc

    def attributes(self) -> frozenset[str]:
        return self.lhs.attributes() | self.rhs.attributes()

    def restrict_to(self, attrs: frozenset[str]) -> Predicate:
        if self.attributes() <= attrs:
            return self
        return TRUE

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"


class And(Predicate, Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self._init(left, right)

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return self.left.evaluate(row) and self.right.evaluate(row)

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def restrict_to(self, attrs: frozenset[str]) -> Predicate:
        left = self.left.restrict_to(attrs)
        right = self.right.restrict_to(attrs)
        if isinstance(left, TruePredicate):
            return right
        if isinstance(right, TruePredicate):
            return left
        return And(left, right)

    def __str__(self) -> str:
        return f"({self.left} and {self.right})"


class Or(Predicate, Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self._init(left, right)

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return self.left.evaluate(row) or self.right.evaluate(row)

    def attributes(self) -> frozenset[str]:
        return self.left.attributes() | self.right.attributes()

    def restrict_to(self, attrs: frozenset[str]) -> Predicate:
        left = self.left.restrict_to(attrs)
        right = self.right.restrict_to(attrs)
        # A disjunction is only a sound restriction if *both* branches
        # remained informative; otherwise the whole OR weakens to TRUE.
        if isinstance(left, TruePredicate) or isinstance(right, TruePredicate):
            return TRUE
        return Or(left, right)

    def __str__(self) -> str:
        return f"({self.left} or {self.right})"


class Not(Predicate, Node):
    __slots__ = ("child",)

    def __init__(self, child: Predicate) -> None:
        self._init(child)

    def evaluate(self, row: Mapping[str, object]) -> bool:
        return not self.child.evaluate(row)

    def attributes(self) -> frozenset[str]:
        return self.child.attributes()

    def restrict_to(self, attrs: frozenset[str]) -> Predicate:
        # NOT cannot be weakened piecewise; keep it only if fully covered.
        if self.attributes() <= attrs:
            return self
        return TRUE

    def __str__(self) -> str:
        return f"(not {self.child})"


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def _operand(value: object) -> Operand:
    if isinstance(value, (Attr, Const)):
        return value
    if isinstance(value, str) and value.isidentifier():
        # Bare identifiers in the fluent API are attribute references; use
        # Const("text") explicitly for string literals.
        return Attr(value)
    return Const(value)


def compare(lhs: object, op: str, rhs: object) -> Comparison:
    """Build a comparison, coercing bare names to ``Attr`` and values to ``Const``."""
    return Comparison(_operand(lhs), op, _operand(rhs))


def eq(lhs: object, rhs: object) -> Comparison:
    return compare(lhs, "=", rhs)


def satisfiable_on(predicate: Predicate, row: Row, attrs: frozenset[str]) -> bool:
    """Could some extension of ``row`` (defined on ``attrs``) satisfy ``predicate``?

    This is the irrelevance test of [7]: for an update touching only the
    attributes in ``attrs``, a ``False`` answer proves the update cannot
    contribute any row to the selection, so the view is irrelevant to it.
    """
    return predicate.restrict_to(attrs).evaluate(row)
