"""Relational expressions: the select-project-join view algebra.

Expressions form an immutable AST over named base relations.  A
:class:`ViewDefinition` names an expression — that pair is what the
integrator, view managers and consistency checkers all share.

The engine supports:

* ``BaseRelation(name)`` — a leaf referring to a source relation.
* ``Select(predicate, child)`` — bag selection.
* ``Project(names, child)`` — bag projection (duplicates preserved).
* ``Join(left, right, on=None)`` — natural join on shared attribute names
  (``on=None``) or an explicit equi-join attribute list.

Schema inference walks the AST given the base-relation schemas.
"""

from __future__ import annotations

from typing import Mapping

from repro.errors import ExpressionError
from repro.record import Node
from repro.relational.predicates import Predicate
from repro.relational.schema import Schema


class Expression:
    """Base class for relational expressions."""

    __slots__ = ()

    def base_relations(self) -> frozenset[str]:
        """Names of every base relation the expression reads."""
        raise NotImplementedError

    def infer_schema(self, base_schemas: Mapping[str, Schema]) -> Schema:
        """Compute the output schema given the base relations' schemas."""
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


class BaseRelation(Expression, Node):
    """A reference to a named base relation at some source."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self._init(name)

    def base_relations(self) -> frozenset[str]:
        return frozenset((self.name,))

    def infer_schema(self, base_schemas: Mapping[str, Schema]) -> Schema:
        try:
            return base_schemas[self.name]
        except KeyError:
            raise ExpressionError(f"unknown base relation {self.name!r}") from None

    def __str__(self) -> str:
        return self.name


class Select(Expression, Node):
    """Bag selection ``sigma_predicate(child)``."""

    __slots__ = ("predicate", "child")

    def __init__(self, predicate: Predicate, child: Expression) -> None:
        self._init(predicate, child)

    def base_relations(self) -> frozenset[str]:
        return self.child.base_relations()

    def infer_schema(self, base_schemas: Mapping[str, Schema]) -> Schema:
        schema = self.child.infer_schema(base_schemas)
        unknown = self.predicate.attributes() - set(schema.names)
        if unknown:
            raise ExpressionError(
                f"selection predicate mentions {sorted(unknown)} "
                f"not produced by {self.child}"
            )
        return schema

    def __str__(self) -> str:
        return f"select[{self.predicate}]({self.child})"


class Project(Expression, Node):
    """Bag projection onto ``names`` (duplicates preserved)."""

    __slots__ = ("names", "child")

    def __init__(self, names: tuple[str, ...], child: Expression) -> None:
        if not names:
            raise ExpressionError("projection needs at least one attribute")
        if len(set(names)) != len(names):
            raise ExpressionError(f"duplicate projection attributes: {names}")
        self._init(names, child)

    def base_relations(self) -> frozenset[str]:
        return self.child.base_relations()

    def infer_schema(self, base_schemas: Mapping[str, Schema]) -> Schema:
        schema = self.child.infer_schema(base_schemas)
        missing = [n for n in self.names if n not in schema]
        if missing:
            raise ExpressionError(
                f"projection attributes {missing} not produced by {self.child}"
            )
        return schema.project(self.names)

    def __str__(self) -> str:
        return f"project[{', '.join(self.names)}]({self.child})"


class Join(Expression, Node):
    """Equi-join of two sub-expressions.

    With ``on=None`` this is a natural join over all shared attribute
    names (the paper's ``R ./ S``); with an explicit tuple it joins on
    exactly those attributes.  If the operands share no attributes the
    join degenerates to a cross product.
    """

    __slots__ = ("left", "right", "on")

    def __init__(self, left: Expression, right: Expression,
                 on: tuple[str, ...] | None = None) -> None:
        self._init(left, right, on)

    def base_relations(self) -> frozenset[str]:
        return self.left.base_relations() | self.right.base_relations()

    def join_attributes(self, base_schemas: Mapping[str, Schema]) -> tuple[str, ...]:
        """The attribute names the join matches on."""
        left = self.left.infer_schema(base_schemas)
        right = self.right.infer_schema(base_schemas)
        if self.on is None:
            return left.common_names(right)
        for name in self.on:
            if name not in left or name not in right:
                raise ExpressionError(
                    f"join attribute {name!r} missing from an operand of {self}"
                )
        return self.on

    def infer_schema(self, base_schemas: Mapping[str, Schema]) -> Schema:
        left = self.left.infer_schema(base_schemas)
        right = self.right.infer_schema(base_schemas)
        if self.on is not None:
            # Explicit join attributes must exist on both sides; any other
            # shared names would be ambiguous in the output.
            self.join_attributes(base_schemas)
            ambiguous = set(left.common_names(right)) - set(self.on)
            if ambiguous:
                raise ExpressionError(
                    f"attributes {sorted(ambiguous)} appear on both sides of "
                    f"{self} but are not join attributes"
                )
        return left.natural_join(right)

    def __str__(self) -> str:
        on = "" if self.on is None else f"[{', '.join(self.on)}]"
        return f"({self.left} join{on} {self.right})"


_AGG_FUNCTIONS = ("count", "sum")


class AggregateSpec(Node):
    """One aggregate output column: ``fn(attr) AS alias``.

    ``count`` ignores ``attr`` (row count, multiplicities included);
    ``sum`` requires a numeric attribute.
    """

    __slots__ = ("fn", "alias", "attr")

    def __init__(self, fn: str, alias: str, attr: str | None = None) -> None:
        if fn not in _AGG_FUNCTIONS:
            raise ExpressionError(
                f"unknown aggregate function {fn!r}; "
                f"supported: {_AGG_FUNCTIONS}"
            )
        if not alias.isidentifier():
            raise ExpressionError(f"bad aggregate alias {alias!r}")
        if fn == "sum" and attr is None:
            raise ExpressionError("sum() needs an attribute")
        if fn == "count" and attr is not None:
            raise ExpressionError("count() takes no attribute (use count(*))")
        self._init(fn, alias, attr)

    def __str__(self) -> str:
        inner = "*" if self.attr is None else self.attr
        return f"{self.fn}({inner}) AS {self.alias}"


class Aggregate(Expression, Node):
    """Group-by aggregation with self-maintainable aggregates.

    Output schema: the ``group_by`` attributes followed by one column per
    :class:`AggregateSpec`.  Groups with no rows are absent (including the
    group of a group-by-less aggregate over an empty input) — that keeps
    incremental maintenance uniform: groups appear and disappear via
    ordinary insertions/deletions.

    Only *self-maintainable* aggregates (count, sum) are offered: they can
    be maintained under both insertions and deletions from the delta plus
    the old aggregate value alone.  MIN/MAX are deliberately absent —
    maintaining them under deletions needs auxiliary state, which is the
    paper's [12]/[8] auxiliary-view territory.
    """

    __slots__ = ("group_by", "aggregates", "child")

    def __init__(self, group_by: tuple[str, ...], aggregates: tuple[AggregateSpec, ...],
                 child: Expression) -> None:
        if not aggregates:
            raise ExpressionError("an Aggregate needs at least one aggregate")
        names = list(group_by) + [a.alias for a in aggregates]
        if len(set(names)) != len(names):
            raise ExpressionError(f"duplicate output columns: {names}")
        self._init(group_by, aggregates, child)

    def base_relations(self) -> frozenset[str]:
        return self.child.base_relations()

    def infer_schema(self, base_schemas: Mapping[str, Schema]) -> Schema:
        from repro.relational.schema import Attribute, AttrType

        child = self.child.infer_schema(base_schemas)
        missing = [n for n in self.group_by if n not in child]
        if missing:
            raise ExpressionError(
                f"group-by attributes {missing} not produced by {self.child}"
            )
        columns = [child[name] for name in self.group_by]
        for spec in self.aggregates:
            if spec.fn == "count":
                columns.append(Attribute(spec.alias, AttrType.INT))
            else:
                assert spec.attr is not None
                if spec.attr not in child:
                    raise ExpressionError(
                        f"sum attribute {spec.attr!r} not produced by "
                        f"{self.child}"
                    )
                attr_type = child[spec.attr].type
                if attr_type not in (AttrType.INT, AttrType.FLOAT):
                    raise ExpressionError(
                        f"sum({spec.attr}) needs a numeric attribute, "
                        f"got {attr_type.value}"
                    )
                columns.append(Attribute(spec.alias, attr_type))
        return Schema(columns)

    def __str__(self) -> str:
        aggs = ", ".join(str(a) for a in self.aggregates)
        by = ", ".join(self.group_by) or "()"
        return f"aggregate[{by}; {aggs}]({self.child})"


def join_all(*exprs: Expression) -> Expression:
    """Left-deep natural join of several expressions (``R ./ S ./ T``)."""
    if not exprs:
        raise ExpressionError("join_all needs at least one expression")
    result = exprs[0]
    for expr in exprs[1:]:
        result = Join(result, expr)
    return result


class ViewDefinition(Node):
    """A named materialized-view definition: ``name = expression``."""

    __slots__ = ("name", "expression")

    def __init__(self, name: str, expression: Expression) -> None:
        if not name or not name.isidentifier():
            raise ExpressionError(f"view name {name!r} is not an identifier")
        self._init(name, expression)

    def base_relations(self) -> frozenset[str]:
        return self.expression.base_relations()

    def __str__(self) -> str:
        return f"{self.name} = {self.expression}"
