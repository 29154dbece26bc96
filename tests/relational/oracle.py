"""The one oracle every maintenance-plan test holds a delta against.

Besides the recompute difference, it keeps the stateless counting rules
over ``Row`` dicts that ``repro.relational.delta.propagate_delta`` ran
before it moved onto the columnar kernels: an independent reference,
written against ``Row``s and the ``algebra`` module, sharing no kernel
with the code it checks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping

from repro.errors import ExpressionError
from repro.relational.algebra import (
    DatabaseLike,
    _eval_counts,
    aggregate_counts,
    evaluate,
    join_counts,
)
from repro.relational.database import Database
from repro.relational.delta import Delta, propagate_delta
from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.rows import Row


def assert_matches_oracles(
    expr: Expression,
    pre: Database,
    deltas: Mapping[str, Delta],
    view_delta: Delta,
) -> None:
    """``view_delta`` is what maintaining ``expr`` must emit for ``deltas``.

    Three independent references, all computed from ``pre`` (the base
    state *before* ``deltas``, left untouched): the stateless counting
    rules on tuples (``propagate_delta``), the same rules on ``Row``s
    (:func:`reference_delta`), and the difference of two full
    recomputations.
    """
    assert view_delta == propagate_delta(expr, pre, deltas)
    assert view_delta == reference_delta(expr, pre, deltas)
    post = Database()
    for name in pre.relation_names:
        post.create_relation(name, pre.schemas[name], pre.relation(name))
    post.apply_deltas(deltas)
    assert view_delta == Delta.between(evaluate(expr, pre), evaluate(expr, post))


def reference_delta(
    expr: Expression,
    pre_state: "DatabaseLike",
    base_deltas: Mapping[str, Delta],
) -> Delta:
    """The view delta by the ``Row`` rules below (``propagate_delta``'s
    contract, built one ``Row`` per distinct row)."""
    return Delta(_propagate(expr, pre_state, base_deltas))


def _propagate(
    expr: Expression,
    pre: "DatabaseLike",
    deltas: Mapping[str, Delta],
) -> Mapping[Row, int]:
    if isinstance(expr, BaseRelation):
        delta = deltas.get(expr.name)
        # The view is read-only downstream, so no defensive copy is needed.
        return delta.counts() if delta else {}
    if isinstance(expr, Select):
        child = _propagate(expr.child, pre, deltas)
        return {r: c for r, c in child.items() if expr.predicate.evaluate(r)}
    if isinstance(expr, Project):
        child = _propagate(expr.child, pre, deltas)
        out: dict[Row, int] = defaultdict(int)
        for row, count in child.items():
            out[row.project(expr.names)] += count
        return {r: c for r, c in out.items() if c}
    if isinstance(expr, Join):
        on = expr.join_attributes(pre.schemas)
        d_left = _propagate(expr.left, pre, deltas)
        d_right = _propagate(expr.right, pre, deltas)
        # Skip evaluating an old side entirely when the opposite delta is
        # empty — the common case when an update touches one relation.
        out: dict[Row, int] = defaultdict(int)
        if d_left:
            right_old = _eval_counts(expr.right, pre)
            for row, count in join_counts(d_left, right_old, on).items():
                out[row] += count
        if d_right:
            left_old = _eval_counts(expr.left, pre)
            for row, count in join_counts(left_old, d_right, on).items():
                out[row] += count
        if d_left and d_right:
            for row, count in join_counts(d_left, d_right, on).items():
                out[row] += count
        return {r: c for r, c in out.items() if c}
    if isinstance(expr, Aggregate):
        return _propagate_aggregate(expr, pre, deltas)
    raise ExpressionError(f"cannot propagate through {type(expr).__name__}")


def _propagate_aggregate(
    expr: Aggregate,
    pre: "DatabaseLike",
    deltas: Mapping[str, Delta],
) -> dict[Row, int]:
    """Delta rule for count/sum group-bys.

    Only the groups touched by the child delta can change.  For those
    groups, re-derive the old and new aggregate rows (the new ones from
    the old child restricted to affected groups plus the child delta —
    count/sum are self-maintainable, so no other rows are needed) and emit
    ``new - old``.  This handles group birth, death, and value-only
    changes (e.g. a modify that leaves the group's row count intact).
    """
    d_child = _propagate(expr.child, pre, deltas)
    if not d_child:
        return {}
    def key(row: Row) -> tuple:
        return tuple(row[a] for a in expr.group_by)

    affected = {key(row) for row in d_child}
    old_child = _eval_counts_group_restricted(
        expr.child, pre, expr.group_by, affected
    )
    old_affected = {
        row: count for row, count in old_child.items() if key(row) in affected
    }
    new_affected = dict(old_affected)
    for row, count in d_child.items():
        new_affected[row] = new_affected.get(row, 0) + count

    old_agg = aggregate_counts(expr, old_affected)
    new_agg = aggregate_counts(expr, new_affected)
    out: dict[Row, int] = defaultdict(int)
    for row, count in new_agg.items():
        out[row] += count
    for row, count in old_agg.items():
        out[row] -= count
    return {r: c for r, c in out.items() if c}


def _eval_counts_group_restricted(
    expr: Expression,
    pre: "DatabaseLike",
    group_by: tuple[str, ...],
    affected: set[tuple],
) -> Mapping[Row, int]:
    """Evaluate ``expr`` keeping only rows whose group key is ``affected``.

    The group-key restriction is pushed down as far as possible so the
    aggregate delta rule does not pay for re-joining and re-scanning
    unaffected groups: any sub-expression whose output carries *all* the
    group-by attributes gets filtered eagerly (sound because a dropped row
    can only produce output rows with the same group key — group-by
    attributes pass through selection, projection and join unchanged).
    Sub-expressions missing some group attribute are evaluated in full.
    """
    if not group_by:
        return _eval_counts(expr, pre)

    def keep(row: Row) -> bool:
        return tuple(row[a] for a in group_by) in affected

    def walk(node: Expression, can_filter: bool) -> Mapping[Row, int]:
        if isinstance(node, BaseRelation):
            counts = pre.relation(node.name).counts_view()
            if can_filter and all(
                a in pre.schemas[node.name] for a in group_by
            ):
                counts = {r: c for r, c in counts.items() if keep(r)}
            return counts
        if isinstance(node, Select):
            child = walk(node.child, can_filter)
            return {r: c for r, c in child.items() if node.predicate.evaluate(r)}
        if isinstance(node, Project):
            # Group attributes survive the projection (they are in the
            # aggregate's input schema), so filtering below is sound.
            child = walk(node.child, can_filter)
            out: dict[Row, int] = defaultdict(int)
            for row, count in child.items():
                out[row.project(node.names)] += count
            return dict(out)
        if isinstance(node, Join):
            on = node.join_attributes(pre.schemas)
            left = walk(node.left, can_filter)
            right = walk(node.right, can_filter)
            return join_counts(left, right, on)
        # Nested aggregates (or anything exotic): no pushdown below here.
        return _eval_counts(node, pre)

    counts = walk(expr, True)
    return {r: c for r, c in counts.items() if keep(r)}

