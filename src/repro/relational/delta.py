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
each join's old sides, and each touched aggregate group's old rows, from
the pre-state on every call, so it costs O(|base|) per update and needs
nothing kept between calls.  That makes it the path for a pre-state that
exists for one batch only — the ``snapshot`` / ``compensate`` / ``naive``
view-manager modes, which fetch theirs per batch (only the relations
``pre_state_reads`` names: the old sides the rules probe).  It runs on the
columnar kernels: the rules are compiled once per (expression, base
relation layouts) from ``compile_filter`` / ``compile_projection`` /
``compile_join`` (run through ``join_counts_columnar``) /
``AggregateKernel``, an old side is read off the pre-state's stores
through ``_eval_columnar`` (one memo per call), and the result is adopted
as a :class:`Delta`: no ``Row`` is built.  The same rules over ``Row``
dicts live on in ``tests/relational/oracle.py`` as the independent
reference.  Standing state (cached-mode replicas,
:class:`~repro.relational.maintain.MaterializedView`) is maintained by the
compiled :class:`~repro.relational.plan.MaintenancePlan` (indexed probes,
self-maintained aggregate state — see ``docs/engine.md``), never by this
module.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.errors import ExpressionError, SchemaError
from repro.relational.algebra import DatabaseLike
from repro.relational.columnar import (
    EMPTY_COUNTS,
    AggregateKernel,
    _eval_columnar,
    compile_filter,
    compile_join,
    compile_projection,
    counts_to_rows,
    join_counts_columnar,
    make_key,
)
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
    applied.  Relations not mentioned in ``base_deltas`` are unchanged; a
    delta laid out otherwise than its relation is a :class:`SchemaError`.
    """
    compiled = _RULES.get(expr)
    if compiled is None:
        compiled = _RULES[expr] = (sorted(expr.base_relations()), {})
    names, by_layouts = compiled
    schemas = pre_state.schemas
    try:
        layouts = tuple([schemas[name].layout for name in names])
    except KeyError as missing:
        raise ExpressionError(f"unknown base relation {missing}") from None
    rules = by_layouts.get(layouts)
    if rules is None:
        rules = by_layouts[layouts] = _compile_rules(expr, schemas)
    layout, rule = rules
    counts = rule(base_deltas, pre_state, {})
    return Delta._adopt(layout, counts) if counts else EMPTY_DELTA


#: the one empty delta every propagation without an effect returns
EMPTY_DELTA = Delta()

#: expression -> (its base relations, {their layouts: (layout, rule)})
_RULES: dict[Expression, tuple[list[str], dict[tuple, tuple]]] = {}


@cache
def pre_state_reads(expr: Expression, changed: frozenset[str]) -> frozenset[str]:
    """The base relations whose pre-state ``propagate_delta(expr, ...)`` may
    read when the deltas name relations of ``changed``: a join's side
    opposite a changed side, an aggregate's child when that changed.  An
    over-approximation (a delta may be empty), memoised per argument pair."""
    if isinstance(expr, BaseRelation):
        return frozenset()
    if isinstance(expr, (Select, Project)):
        return pre_state_reads(expr.child, changed)
    if isinstance(expr, Join):
        reads = frozenset()
        for side, other in ((expr.left, expr.right), (expr.right, expr.left)):
            reads |= pre_state_reads(side, changed)
            if not changed.isdisjoint(side.base_relations()):
                reads |= other.base_relations()
        return reads
    if isinstance(expr, Aggregate):
        below = expr.child.base_relations()
        return frozenset() if changed.isdisjoint(below) else below
    raise ExpressionError(f"cannot propagate through {type(expr).__name__}")


def _compile_rules(expr: Expression, schemas) -> tuple[tuple[str, ...], Callable]:
    """``(layout, rule)``: ``rule(deltas, pre, memo)`` is the delta of
    ``expr`` as a zero-free tuple bag, old sides read off ``pre``."""
    if isinstance(expr, BaseRelation):
        name, layout = expr.name, schemas[expr.name].layout

        def base(deltas, pre, memo):
            delta = deltas.get(name)
            if delta and delta.layout != layout:
                raise SchemaError(
                    f"delta for {name!r} is laid out as {delta.layout}, "
                    f"the relation as {layout}"
                )
            return delta._counts if delta else EMPTY_COUNTS

        return layout, base
    if isinstance(expr, (Select, Project)):
        layout, child = _compile_rules(expr.child, schemas)
        if isinstance(expr, Select):
            kernel = compile_filter(expr.predicate, layout)
            if kernel is None:
                return layout, child
        else:
            layout, kernel = compile_projection(layout, expr.names)
        return layout, lambda deltas, pre, memo: (
            kernel(counts) if (counts := child(deltas, pre, memo)) else EMPTY_COUNTS
        )
    if isinstance(expr, Join):
        return _compile_join(expr, schemas)
    if isinstance(expr, Aggregate):
        return _compile_aggregate(expr, schemas)
    raise ExpressionError(f"cannot propagate through {type(expr).__name__}")


def _compile_join(expr: Join, schemas) -> tuple[tuple[str, ...], Callable]:
    """d(L join R) = dL join R_old + L_old join dR + dL join dR, an old
    side evaluated only when the opposite delta is not empty."""
    on = expr.join_attributes(schemas)
    left_layout, left = _compile_rules(expr.left, schemas)
    right_layout, right = _compile_rules(expr.right, schemas)
    layout, kernel = compile_join(left_layout, right_layout, on)

    def join(deltas, pre, memo):
        d_left, d_right = left(deltas, pre, memo), right(deltas, pre, memo)
        terms = []
        if d_left:
            old = _eval_columnar(expr.right, pre, memo)[1]
            terms.append(join_counts_columnar(d_left, old, kernel))
        if d_right:
            old = _eval_columnar(expr.left, pre, memo)[1]
            terms.append(join_counts_columnar(old, d_right, kernel))
        if len(terms) < 2:  # one side changed (the common case), or none
            return terms[0] if terms else EMPTY_COUNTS
        terms.append(join_counts_columnar(d_left, d_right, kernel))
        out: dict[tuple, int] = defaultdict(int)
        for term in terms:
            for t, count in term.items():
                out[t] += count
        return {t: c for t, c in out.items() if c}

    return layout, join


def _compile_aggregate(expr: Aggregate, schemas) -> tuple[tuple[str, ...], Callable]:
    """Only the groups the child delta touches change: their old rows are
    folded into group states, and the kernel's delta pass emits old-row
    deletions and new-row insertions (birth, death, value-only change)."""
    child_layout, child = _compile_rules(expr.child, schemas)
    kernel = AggregateKernel(expr, child_layout)
    group_of = make_key(child_layout, expr.group_by)
    bare = len(expr.group_by) == 1  # make_key's key is the value itself

    def aggregate(deltas, pre, memo):
        touched: dict[tuple, list] = {}
        kernel.accumulate(touched, child(deltas, pre, memo))
        if not touched:
            return EMPTY_COUNTS
        affected = {k[0] for k in touched} if bare else touched.keys()
        old = _eval_columnar(expr.child, pre, memo)[1].items()
        groups: dict[tuple, list] = {}
        kernel.accumulate(groups, {t: c for t, c in old if group_of(t) in affected})
        out, _ = kernel.delta_pass(groups, touched)
        return {t: c for t, c in out.items() if c}

    return kernel.layout, aggregate


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
