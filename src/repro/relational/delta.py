"""Incremental (counting-style) delta propagation for SPJ expressions.

A :class:`Delta` is a signed-count bag (of value tuples, read as rows at
this API's edge): positive counts are insertions, negative counts are
deletions.  ``propagate_delta`` pushes base
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

from repro.errors import ExpressionError, SchemaError
from repro.relational.algebra import (
    DatabaseLike,
    _eval_counts,
    aggregate_counts,
    join_counts,
)
from repro.relational.columnar import counts_to_rows
from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
)
from repro.relational.relation import Relation, _check_counts
from repro.relational.rows import Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sources.update import Update


class Delta:
    """A signed bag of value tuples over one sorted ``layout``: insertions
    carry positive counts, deletions negative ones, and no count is zero.

    The one change-set form: stores apply it, plans propagate it, action
    lists and artifacts carry it.  It is built from ``layout``-positioned
    tuples or, at the API edge, from :class:`Row`s of one heading (then
    the layout); it keeps tuples either way and builds ``Row``s when read
    row-wise, as a :class:`Relation` does.  Deltas are immutable; empty
    ones are equal whatever their layouts.
    """

    __slots__ = ("layout", "_counts")

    def __init__(
        self,
        counts: Mapping[Row, int] | Mapping[tuple, int] | None = None,
        layout: tuple[str, ...] | None = None,
    ) -> None:
        """``counts`` maps rows to signed counts or, with ``layout`` given,
        value tuples positioned by it.  A count that is not an ``int`` is a
        :class:`RelationError`, rows of differing headings a
        :class:`SchemaError`; whether the tuples fit a relation is decided
        when the delta meets one (:meth:`apply_to`)."""
        if layout is None:
            layout, tuples = (), {}
            for row, count in (counts or {}).items():
                names = row.sorted_names()
                if names != layout:
                    if layout:
                        raise SchemaError(
                            f"{row} does not have the heading {layout} of "
                            f"the other rows of the delta"
                        )
                    layout = names
                tuples[row.values_tuple(names)] = count
        else:
            layout, tuples = tuple(layout), dict(counts or {})
        _check_counts(tuples, positive=False)
        if 0 in tuples.values():
            tuples = {t: c for t, c in tuples.items() if c}
        self.layout = layout
        self._counts = tuples

    @classmethod
    def _adopt(cls, layout: tuple[str, ...], counts: dict[tuple, int]) -> "Delta":
        """Wrap, without copying, a dict nothing will write to again:
        ``layout`` sorted, ``counts`` zero-free ``int``s (what kernels and
        the algebra below produce)."""
        delta = object.__new__(cls)
        delta.layout = layout
        delta._counts = counts
        return delta

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
        before, after = old.columnar(), new.columnar()
        added = cls._adopt(after.layout, dict(after.counts_view()))
        held = cls._adopt(before.layout, dict(before.counts_view()))
        return added.combined(held.negated())

    # -- inspection ----------------------------------------------------------
    def tuple_counts(self) -> Mapping[tuple, int]:
        """Zero-copy read-only view of the signed counts, keyed by the
        ``layout``-positioned value tuples."""
        return MappingProxyType(self._counts)

    def counts(self) -> Mapping[Row, int]:
        """The signed row->count mapping, read-only; the rows are built
        at the call."""
        return MappingProxyType(counts_to_rows(self.layout, self._counts))

    def count(self, row: Row) -> int:
        if row.sorted_names() != self.layout:
            return 0
        return self._counts.get(row.values_tuple(self.layout), 0)

    def insertions(self) -> list[tuple[Row, int]]:
        """(row, count) pairs with positive counts, deterministic order."""
        return [(r, c) for r, c in sorted(self.counts().items()) if c > 0]

    def deletions(self) -> list[tuple[Row, int]]:
        """(row, count) pairs as positive deletion counts, deterministic order."""
        return [(r, -c) for r, c in sorted(self.counts().items()) if c < 0]

    def is_empty(self) -> bool:
        return not self._counts

    def __bool__(self) -> bool:
        return bool(self._counts)

    def __len__(self) -> int:
        """Total magnitude: rows inserted plus rows deleted."""
        return sum(map(abs, self._counts.values()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._counts == other._counts and (
            self.layout == other.layout or not self._counts
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        parts = [
            f"{'+' if c > 0 else ''}{c}*{row!r}"
            for row, c in sorted(self.counts().items())
        ]
        return f"Delta({', '.join(parts)})"

    # -- algebra ---------------------------------------------------------------
    def combined(self, other: "Delta") -> "Delta":
        """The delta equivalent to applying self then ``other``."""
        if not other._counts:
            return self
        if not self._counts:
            return other
        if self.layout != other.layout:
            raise SchemaError(
                f"cannot combine deltas over {self.layout} and {other.layout}"
            )
        counts = dict(self._counts)
        for t, count in other._counts.items():
            count += counts.get(t, 0)
            if count:
                counts[t] = count
            else:
                del counts[t]
        return Delta._adopt(self.layout, counts)

    def negated(self) -> "Delta":
        return Delta._adopt(self.layout, {t: -c for t, c in self._counts.items()})

    def apply_to(self, relation: Relation) -> None:
        """Mutate ``relation`` by this delta, or raise and leave it alone.

        :class:`~repro.errors.SchemaError` unless the delta fits the
        relation (its layout; the arity and domains of the tuples it
        inserts), decided before anything is written;
        :class:`RelationError` if a deletion exceeds the multiplicity held
        (always a maintenance bug upstream), which the store's pass finds
        itself and rolls back.  All or nothing either way, which is what
        lets ``Database.apply_deltas`` and ``ViewStore.apply`` undo a
        failed batch with :meth:`negated` deltas instead of a pre-copy.
        """
        if self._counts:
            relation._check_columns(
                self.layout, [t for t, c in self._counts.items() if c > 0]
            )
        self._apply_unchecked(relation)

    def _apply_unchecked(self, relation: Relation) -> None:
        """Apply without the schema check: a delta that was applied
        before (a replay), or the negation of one (an undo)."""
        relation.columnar().apply_signed(self._counts)


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
        delta, earlier = update.as_delta(), merged.get(update.relation)
        merged[update.relation] = (
            delta if earlier is None else earlier.combined(delta)
        )
    return merged
