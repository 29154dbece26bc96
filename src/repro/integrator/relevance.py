"""Relevant-view computation, §3.2.

"A view is relevant to U_i if it needs to be modified because of U_i.
For example, ... the integrator can determine the source relation R that
was modified by U_i.  Then it can include in REL_i all views that use R in
their definition.  We could be more discerning by using selection
conditions in the view definitions to rule out irrelevant updates [7]."

Both levels are implemented:

* the **base-relation test** — view reads the updated relation;
* the **selection-condition test** of Blakeley et al. [7] — additionally
  require that some touched row could satisfy the view's selection
  predicates restricted to the updated relation's attributes.  A modify
  whose old and new rows both fail the restricted predicate, or an
  insert/delete whose row fails it, provably cannot change the view.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.relational.expressions import (
    Aggregate,
    BaseRelation,
    Expression,
    Join,
    Project,
    Select,
    ViewDefinition,
)
from repro.relational.predicates import And, Predicate, TRUE
from repro.relational.schema import Schema
from repro.sources.update import Update


def _contains_aggregate(expr: Expression) -> bool:
    if isinstance(expr, Aggregate):
        return True
    if isinstance(expr, Select):
        return _contains_aggregate(expr.child)
    if isinstance(expr, Project):
        return _contains_aggregate(expr.child)
    if isinstance(expr, Join):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    return False


def _collect_selections(expr: Expression) -> Predicate:
    """Conjunction of the selection predicates that apply to *base rows*.

    A predicate sitting above an :class:`Aggregate` constrains aggregate
    outputs, not base rows — and an aggregate alias may shadow a base
    attribute name — so collection stops at aggregates (only predicates
    *below* them are gathered).
    """
    if isinstance(expr, Select):
        inner = _collect_selections(expr.child)
        if _contains_aggregate(expr.child):
            return inner
        return expr.predicate if inner is TRUE else And(expr.predicate, inner)
    if isinstance(expr, Project):
        return _collect_selections(expr.child)
    if isinstance(expr, Aggregate):
        return _collect_selections(expr.child)
    if isinstance(expr, Join):
        left = _collect_selections(expr.left)
        right = _collect_selections(expr.right)
        if left is TRUE:
            return right
        if right is TRUE:
            return left
        return And(left, right)
    if isinstance(expr, BaseRelation):
        return TRUE
    return TRUE


class RelevanceFilter:
    """Decides which views each update is relevant to."""

    def __init__(
        self,
        definitions: Sequence[ViewDefinition],
        base_schemas: Mapping[str, Schema],
        use_selections: bool = False,
    ) -> None:
        self.definitions = tuple(definitions)
        self.use_selections = use_selections
        self._by_name = {d.name: d for d in self.definitions}
        self._by_relation: dict[str, list[ViewDefinition]] = {}
        # view -> each relation it reads -> its restricted predicate, worked
        # out once per definition: a relevance check is then two lookups.
        self._restricted: dict[str, dict[str, Predicate]] = {}
        for definition in self.definitions:
            selections = _collect_selections(definition.expression)
            restricted = self._restricted[definition.name] = {}
            for relation in definition.base_relations():
                names = frozenset(base_schemas[relation].names)
                restricted[relation] = selections.restrict_to(names)
                self._by_relation.setdefault(relation, []).append(definition)

    def restricted_predicate(self, view: str, relation: str) -> Predicate:
        """The view's selection conjunction, restricted to ``relation``.

        This is both the routing test for updates on ``relation`` and the
        invariant a cached-mode manager's replica of ``relation`` must
        satisfy (``replica = sigma_restricted(relation)``): a row the
        predicate rejects can never contribute to the view, so dropping it
        from routing *and* from the replica keeps deltas exact — including
        modifies that move a row across the selection boundary.
        """
        return self._restricted[view][relation]

    def views_reading(self, relation: str) -> tuple[str, ...]:
        """Views whose definition mentions ``relation`` (base-relation test)."""
        return tuple(d.name for d in self._by_relation.get(relation, ()))

    def is_relevant(self, definition: ViewDefinition, update: Update) -> bool:
        """Could ``update`` change ``definition``'s contents (now or later)?"""
        predicate = self._restricted[definition.name].get(update.relation)
        if predicate is None:
            return False
        if not self.use_selections:
            return True
        return any(predicate.evaluate(row) for row in update.touched_rows())

    def relevant_views(self, updates: Iterable[Update]) -> frozenset[str]:
        """``REL_i`` for a (possibly multi-update, §6.2) transaction."""
        relevant: set[str] = set()
        for update in updates:
            for definition in self._by_relation.get(update.relation, ()):
                if definition.name in relevant:
                    continue
                if self.is_relevant(definition, update):
                    relevant.add(definition.name)
        return frozenset(relevant)

    def relevant_updates_for_view(
        self, view: str, updates: Iterable[Update]
    ) -> tuple[Update, ...]:
        """The subset of a transaction's updates that ``view`` must see."""
        definition = self._by_name[view]
        return tuple(
            u for u in updates if self.is_relevant(definition, u)
        )


def relevant_views(
    definitions: Sequence[ViewDefinition],
    base_schemas: Mapping[str, Schema],
    updates: Iterable[Update],
    use_selections: bool = False,
) -> frozenset[str]:
    """One-shot convenience wrapper around :class:`RelevanceFilter`."""
    filt = RelevanceFilter(definitions, base_schemas, use_selections)
    return filt.relevant_views(updates)
