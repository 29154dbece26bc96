"""Full evaluation of relational expressions against a database state.

``evaluate(expr, db)`` computes the bag result of a select-project-join
expression.  It is the reference semantics against which the incremental
delta rules in :mod:`repro.relational.delta` are property-tested, and the
oracle the consistency checkers use to compute ``V(ss_i)`` — "the result
of evaluating the expression of V at source state ss_i" (paper, §2.2).

Oracle only: it builds one :class:`Row` per intermediate row and
validates its result row by row.  Its callers in ``src/`` are
``MaterializedView.verify`` and :mod:`repro.consistency`; every production
recompute (a view's initial contents, a periodic refresh,
``MaterializedView.refresh``) runs
:func:`repro.relational.columnar.evaluate_columnar`, which is tested
against this module and must therefore not be built on it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.errors import ExpressionError
from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema


def evaluate(expr: Expression, db: "DatabaseLike") -> Relation:
    """Evaluate ``expr`` against ``db`` and return the result relation.

    ``db`` is anything with ``relation(name) -> Relation`` and
    ``schemas -> Mapping[str, Schema]`` (duck-typed so both
    :class:`~repro.relational.database.Database` and plain snapshots work).
    """
    schema = expr.infer_schema(db.schemas)
    counts = _eval_counts(expr, db)
    return Relation.from_counts(counts, schema)


class DatabaseLike:
    """Protocol sketch for evaluation targets (documentation only)."""

    schemas: Mapping[str, Schema]

    def relation(self, name: str) -> Relation:  # pragma: no cover - protocol
        raise NotImplementedError


def _eval_counts(expr: Expression, db: "DatabaseLike") -> Mapping[Row, int]:
    if isinstance(expr, BaseRelation):
        # Zero-copy: every consumer treats the result as read-only.
        return db.relation(expr.name).counts_view()
    if isinstance(expr, Select):
        child = _eval_counts(expr.child, db)
        return {row: c for row, c in child.items() if expr.predicate.evaluate(row)}
    if isinstance(expr, Project):
        child = _eval_counts(expr.child, db)
        out: dict[Row, int] = defaultdict(int)
        for row, count in child.items():
            out[row.project(expr.names)] += count
        return dict(out)
    if isinstance(expr, Join):
        left = _eval_counts(expr.left, db)
        right = _eval_counts(expr.right, db)
        on = expr.join_attributes(db.schemas)
        return join_counts(left, right, on)
    if isinstance(expr, Aggregate):
        child = _eval_counts(expr.child, db)
        return aggregate_counts(expr, child)
    raise ExpressionError(f"cannot evaluate expression of type {type(expr).__name__}")


def aggregate_counts(
    expr: "Aggregate", child: Mapping[Row, int]
) -> dict[Row, int]:
    """Group ``child`` (a signed- or unsigned-count bag) and aggregate.

    Accumulates per-group (count, sums) honouring multiplicities, then
    emits one output row (count 1) per group whose row count is non-zero.
    With signed inputs this computes the *net* aggregates — exactly what
    the delta rules need.
    """
    groups: dict[tuple, list] = {}
    for row, count in child.items():
        key = tuple(row[a] for a in expr.group_by)
        state = groups.setdefault(key, [0] + [0] * len(expr.aggregates))
        state[0] += count
        for index, spec in enumerate(expr.aggregates, start=1):
            if spec.fn == "count":
                state[index] += count
            else:
                assert spec.attr is not None
                state[index] += count * row[spec.attr]
    out: dict[Row, int] = {}
    for key, state in groups.items():
        if state[0] == 0:
            continue  # the group vanished (or never existed)
        values = dict(zip(expr.group_by, key))
        for index, spec in enumerate(expr.aggregates, start=1):
            values[spec.alias] = state[index]
        out[Row(values)] = 1
    return out


def join_counts(
    left: Mapping[Row, int],
    right: Mapping[Row, int],
    on: tuple[str, ...],
) -> dict[Row, int]:
    """Hash-join two signed- or unsigned-count bags on attributes ``on``.

    Multiplicities multiply, which is exactly what counting-based
    incremental maintenance requires (signed counts included).  An empty
    ``on`` yields a cross product.
    """
    out: dict[Row, int] = defaultdict(int)
    if not left or not right:
        return {}
    # Build the hash table on the smaller side.
    build, probe, build_is_left = (
        (left, right, True) if len(left) <= len(right) else (right, left, False)
    )
    table: dict[tuple, list[tuple[Row, int]]] = defaultdict(list)
    for row, count in build.items():
        table[tuple(row[a] for a in on)].append((row, count))
    for row, count in probe.items():
        key = tuple(row[a] for a in on)
        for other, other_count in table.get(key, ()):  # matching build rows
            merged = other.merge(row) if build_is_left else row.merge(other)
            out[merged] += count * other_count
    return {row: c for row, c in out.items() if c != 0}
