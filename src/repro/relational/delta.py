"""Incremental (counting-style) delta propagation for SPJ expressions.

A :class:`Delta` is a signed-count bag of rows: positive counts are
insertions, negative counts are deletions.  ``propagate_delta`` pushes base
relation deltas through an expression using the classic counting rules
(Gupta & Mumick; Griffin & Libkin for bags):

* ``d(sigma_p(E))   = sigma_p(d(E))``
* ``d(pi_A(E))      = pi_A(d(E))``          (counts add)
* ``d(L join R)     = dL join R_old  +  L_old join dR  +  dL join dR``

The join rule is exact for arbitrary mixes of insertions and deletions
thanks to signed multiplicities.

``propagate_delta`` here is the *stateless* implementation: it re-derives
each join's old sides and re-evaluates aggregate inputs
(``_eval_counts_group_restricted``) against the pre-state on every call,
so it costs O(|base|) per update and needs nothing kept between calls.
That makes it the path for a pre-state that exists for one batch only —
the ``snapshot`` / ``compensate`` / ``naive`` view-manager modes, which
fetch theirs per batch — and the reference the test suite and the
benchmarks hold the plan against.  Standing state (cached-mode replicas,
:class:`~repro.relational.maintain.MaterializedView`) is maintained by the
compiled :class:`~repro.relational.plan.MaintenancePlan` (columnar
kernels, indexed probes, self-maintained aggregate state — see
``docs/engine.md``), never by this module.
"""

from __future__ import annotations

from collections import defaultdict
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import ExpressionError, RelationError
from repro.relational.algebra import (
    DatabaseLike,
    _eval_counts,
    aggregate_counts,
    join_counts,
)
from repro.relational.columnar import rows_to_counts
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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sources.update import Update


class Delta:
    """A signed multiset of rows (insertions > 0, deletions < 0)."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[Row, int] | None = None) -> None:
        self._counts: dict[Row, int] = {}
        if counts:
            for row, count in counts.items():
                if count:
                    self._counts[row] = count

    # -- constructors ------------------------------------------------------
    @classmethod
    def insert(cls, row: Row, count: int = 1) -> "Delta":
        return cls({row: count})

    @classmethod
    def delete(cls, row: Row, count: int = 1) -> "Delta":
        return cls({row: -count})

    @classmethod
    def modify(cls, old: Row, new: Row) -> "Delta":
        if old == new:
            return cls()
        return cls({old: -1, new: 1})

    @classmethod
    def between(cls, old: Relation, new: Relation) -> "Delta":
        """The delta that transforms ``old`` into ``new``."""
        counts: dict[Row, int] = defaultdict(int)
        for row, count in new.counts():
            counts[row] += count
        for row, count in old.counts():
            counts[row] -= count
        return cls(counts)

    # -- inspection ----------------------------------------------------------
    def counts(self) -> Mapping[Row, int]:
        """Zero-copy read-only view of the signed row->count mapping.

        Deltas are immutable after construction, so the view is stable;
        callers that need an independent ``dict`` must copy explicitly.
        """
        return MappingProxyType(self._counts)

    def tuple_counts(self, layout: tuple[str, ...]) -> dict[tuple, int]:
        """The signed counts keyed by ``layout``-positioned value tuples:
        the form stores and plans consume (a fresh dict; each row hands
        back the value tuple it remembers)."""
        return rows_to_counts(layout, self._counts)

    def count(self, row: Row) -> int:
        return self._counts.get(row, 0)

    def insertions(self) -> list[tuple[Row, int]]:
        """(row, count) pairs with positive counts, deterministic order."""
        return [(r, c) for r, c in sorted(self._counts.items()) if c > 0]

    def deletions(self) -> list[tuple[Row, int]]:
        """(row, count) pairs as positive deletion counts, deterministic order."""
        return [(r, -c) for r, c in sorted(self._counts.items()) if c < 0]

    def is_empty(self) -> bool:
        return not self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __len__(self) -> int:
        """Total magnitude: rows inserted plus rows deleted."""
        return sum(abs(c) for c in self._counts.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        parts = [
            f"{'+' if c > 0 else ''}{c}*{row!r}"
            for row, c in sorted(self._counts.items())
        ]
        return f"Delta({', '.join(parts)})"

    # -- algebra ---------------------------------------------------------------
    def combined(self, other: "Delta") -> "Delta":
        """The delta equivalent to applying self then ``other``."""
        counts = defaultdict(int, self._counts)
        for row, count in other._counts.items():
            counts[row] += count
        return Delta(counts)

    def negated(self) -> "Delta":
        return Delta({row: -c for row, c in self._counts.items()})

    def check_applicable(self, relation: Relation) -> None:
        """Raise unless the whole delta can be applied: :class:`RelationError`
        on underflow, :class:`~repro.errors.SchemaError` for an inserted row
        that does not fit the relation's schema.

        Split out from :meth:`apply_to` so multi-relation appliers (e.g.
        ``Database.apply_deltas``) can validate every delta before
        mutating anything, instead of dry-running on a full copy.  Nothing
        else can fail, so an applied delta is all or nothing — which is
        what lets ``ViewStore.apply`` undo a failed transaction with
        :meth:`negated` deltas instead of a pre-copy.
        """
        for row, count in self._counts.items():
            if count > 0:
                relation._check(row)
            elif relation.multiplicity(row) < -count:
                raise RelationError(
                    f"delta deletes {-count} copies of {row} but relation "
                    f"holds {relation.multiplicity(row)}"
                )

    def apply_to(self, relation: Relation) -> None:
        """Mutate ``relation`` by this delta.

        Deletions are applied first so a modify (delete+insert of rows that
        may collide) never spuriously underflows.  Raises
        :class:`RelationError` if a deletion exceeds the multiplicity
        present — that always indicates a maintenance bug upstream.
        """
        self.check_applicable(relation)
        self._apply_unchecked(relation)

    def _apply_unchecked(self, relation: Relation) -> None:
        """Apply without re-validating — caller ran ``check_applicable``."""
        store = relation.columnar()
        layout = store.layout
        for row, count in self._counts.items():
            if count < 0:
                store.delete(row.values_tuple(layout), -count)
        for row, count in self._counts.items():
            if count > 0:
                store.insert(row.values_tuple(layout), count)


def propagate_delta(
    expr: Expression,
    pre_state: "DatabaseLike",
    base_deltas: Mapping[str, Delta],
) -> Delta:
    """Compute the view delta induced by ``base_deltas`` on ``expr``.

    ``pre_state`` must expose the base relations *before* the deltas were
    applied.  Relations not mentioned in ``base_deltas`` are unchanged.
    """
    counts = _propagate(expr, pre_state, base_deltas)
    return Delta(counts)


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


def updates_to_deltas(updates: Iterable["Update"]) -> dict[str, Delta]:
    """Fold a sequence of base-table updates into per-relation net deltas.

    ``updates`` are objects with ``relation`` (str) and ``as_delta()``
    (:class:`Delta`) — see :class:`repro.sources.update.Update`.  The
    fold stays a step-wise ``combined``: the dict orders it produces reach
    action lists, and so the trace digests.
    """
    merged: dict[str, Delta] = {}
    for update in updates:
        existing = merged.get(update.relation, Delta())
        merged[update.relation] = existing.combined(update.as_delta())
    return merged
