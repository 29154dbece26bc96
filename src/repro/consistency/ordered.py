"""One replay of a finished run; every scope's verdict is read off it.

The painting algorithms may apply independent updates out of numbering
order (§4.1), and §2 judges consistency against the state sequence of
**any** serial schedule equivalent to the real one.  §2.3 gets MVC from
the single-view definitions by "replacing = by ≈": views are mutually
consistent at a warehouse state exactly when *each* equals its definition
on the *same* source state.  Over one replayed schedule the verdict for
any set of views is therefore a conjunction of per-view facts, and
:class:`Replay` gathers them in two passes (``docs/consistency.md``):

* over the schedule ``R`` the warehouse applied (each transaction's
  covered update ids, concatenated), which must be conflict-equivalent to
  the commit schedule ``S``: updates touching a common base relation in
  numbering order, cross-relation ones commute.  What breaks that counts
  against the views over the relation, so a scope only answers for what
  it reads;
* over ``S`` in numbering order, for each view's source value sequence.
  Its last element decides the final comparison, which catches an unsound
  relevance filter: updates missing from ``R`` must have been
  value-invisible for the final states to agree.

The cost is two ``evaluate`` calls per (update, view over a relation it
touches) plus one per view for ``ss_0``, however many scopes are asked
about afterwards.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.consistency.checker import (
    ConsistencyReport,
    check_complete,
    check_convergent,
    check_strong,
)
from repro.consistency.states import scratch_copy
from repro.errors import ReproError, WarehouseError
from repro.merge.selection import CHECKED_LEVELS, achieved_level
from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.expressions import ViewDefinition
from repro.relational.relation import Relation
from repro.sources.transactions import SourceTransaction
from repro.warehouse.store import WarehouseState

_OUT_OF_ORDER = "updates U{} and U{} both touch {!r} but were applied out of order"

#: the §2.2 definition of each checked level, over one view's two sequences
_SINGLE_VIEW = dict(
    zip(CHECKED_LEVELS, (check_complete, check_strong, check_convergent))
)


def reconstruct_schedule(history: Sequence[WarehouseState]) -> list[int]:
    """``R``: update ids in warehouse application order."""
    return [update_id for state in history for update_id in state.covered_rows]


class Replay:
    """The facts of one finished run that every consistency verdict needs.

    ``source_values[view]`` and ``warehouse_values[view]`` are the view's
    collapsed value sequences (``V(ss_0) .. V(ss_f)`` in numbering order,
    and its contents over ``history``).  ``diverged[view]`` is the first
    history position, with the reason, from which the view no longer
    follows a legal schedule: it differs from its definition over the
    replayed prefix, or an update on one of its relations was unknown,
    applied twice, out of order, or could not be applied.
    """

    def __init__(
        self,
        history: Sequence[WarehouseState],
        initial: Database,
        numbered: Sequence[tuple[int, SourceTransaction, float]],
        definitions: Sequence[ViewDefinition],
    ) -> None:
        self._expressions = {d.name: d.expression for d in definitions}
        self._relations = {d.name: d.base_relations() for d in definitions}
        self._views_over: dict[str, list[str]] = {}
        for name, relations in self._relations.items():
            for relation in relations:
                self._views_over.setdefault(relation, []).append(name)
        self._empty = not history
        # record_history=False keeps ws_0 and the latest state only.
        gaps = (s.index for at, s in enumerate(history) if s.index != at)
        self._gap = next(gaps, None)
        transactions = {update_id: txn for update_id, txn, _time in numbered}
        start = self._evaluate_over(self._views_over, initial)

        self.source_values = {name: [value] for name, value in start.items()}
        source = scratch_copy(initial)
        for update_id in sorted(transactions):
            txn = transactions[update_id]
            source.apply_deltas(txn.deltas())
            for name, value in self._evaluate_over(txn.relations, source).items():
                if value != self.source_values[name][-1]:
                    self.source_values[name].append(value)

        self._walk(history, transactions, scratch_copy(initial), start)
        self.final_ok = {
            name: bool(values) and values[-1] == self.source_values[name][-1]
            for name, values in self.warehouse_values.items()
        }

    def _evaluate_over(
        self, relations: Iterable[str], state: Database
    ) -> dict[str, Relation]:
        """The views a change to ``relations`` can move, evaluated on ``state``."""
        views = {v for r in relations for v in self._views_over.get(r, ())}
        return {name: evaluate(self._expressions[name], state) for name in views}

    def _off_schedule(self, relations: Iterable[str], at: int, reason: str) -> None:
        for relation in relations:
            for name in self._views_over.get(relation, ()):
                self.diverged.setdefault(name, (at, reason))

    def _walk(
        self,
        history: Sequence[WarehouseState],
        transactions: dict[int, SourceTransaction],
        replayed: Database,
        expected: dict[str, Relation],
    ) -> None:
        """``R``: every update goes into one scratch state at its first
        occurrence, only the views over its relations are re-evaluated, and
        a view is compared (exactly) with its expectation only where it was
        written or the expectation moved."""
        self.warehouse_values: dict[str, list[Relation]] = {
            name: [] for name in self._expressions
        }
        self.diverged: dict[str, tuple[int, str]] = {}
        # What a scope re-examines against its own relations: updates over
        # several relations, and transactions covering several updates.
        self._spanning: list[tuple[int, frozenset[str]]] = []
        self._batches: list[tuple[int, int, list[frozenset[str]]]] = []
        seen: set[int] = set()
        last_seen: dict[str, int] = {}
        previous: dict[str, Relation] = {}
        for at, state in enumerate(history):
            covered = []
            moved: set[str] = set()
            for update_id in state.covered_rows:
                where = f"update U{update_id} of warehouse state #{state.index}"
                txn = transactions.get(update_id)
                if txn is None:  # it may touch anything
                    self._off_schedule(self._views_over, at, f"{where} is unknown")
                    continue
                covered.append(txn.relations)
                if update_id in seen:
                    self._off_schedule(txn.relations, at, f"{where} was applied twice")
                    continue
                seen.add(update_id)
                if len(txn.relations) > 1:
                    self._spanning.append((update_id, txn.relations))
                for relation, delta in txn.deltas().items():
                    earlier = last_seen.get(relation, update_id)
                    last_seen[relation] = update_id
                    if earlier > update_id:
                        reason = _OUT_OF_ORDER.format(earlier, update_id, relation)
                        self._off_schedule([relation], at, reason)
                    try:
                        replayed.apply_delta(relation, delta)
                    except ReproError as error:
                        self._off_schedule(
                            [relation], at,
                            f"{where} cannot be applied to the replayed "
                            f"{relation!r}: {error}",
                        )
                fresh = self._evaluate_over(txn.relations, replayed)
                expected.update(fresh)
                moved.update(fresh)
            if len(covered) > 1:
                self._batches.append((at, state.txn_id, covered))
            for name, values in self.warehouse_values.items():
                value = state.view(name)
                # A relation shared with the state before was not written;
                # if its expectation did not move either, the comparison
                # made there still stands.
                written = value is not previous.get(name)
                previous[name] = value
                if written and (not values or values[-1] != value):
                    values.append(value)
                if (written or name in moved) and value != expected[name]:
                    self.diverged.setdefault(
                        name,
                        (at, f"view {name!r} at warehouse state #{state.index} "
                         f"(after txn {state.txn_id}) does not match its "
                         f"definition over the replayed schedule prefix"),
                    )

    # -- verdicts --------------------------------------------------------------
    def _scope(self, level: str, views: Iterable[str] | None) -> tuple[str, ...]:
        if level not in CHECKED_LEVELS:
            raise ReproError(f"unknown MVC level {level!r}")
        if level != "convergent" and self._gap is not None:
            raise WarehouseError(
                f"history jumps to warehouse state #{self._gap}: {level!r} "
                f"needs every state, i.e. a run with record_history=True"
            )
        return tuple(self._expressions if views is None else views)

    def check(
        self, level: str, views: Iterable[str] | None = None
    ) -> ConsistencyReport:
        """The joint (§2.3) verdict for ``views`` (default: all) at ``level``."""
        reason = self._broken(level, self._scope(level, views))
        return ConsistencyReport(reason is None, f"mvc-{level}", reason or "")

    def check_view(self, view: str, level: str) -> ConsistencyReport:
        """The single-view (§2.2) verdict on the view's two value sequences."""
        self._scope(level, (view,))
        sequences = self.warehouse_values[view], self.source_values[view]
        return _SINGLE_VIEW[level](*sequences)

    def classify(self, views: Iterable[str] | None = None) -> str:
        """The strongest level ``views`` (default: all) jointly achieved."""
        return achieved_level(lambda level: self.check(level, views))

    def classify_view(self, view: str) -> str:
        """The strongest single-view level ``view`` achieved."""
        return achieved_level(lambda level: self.check_view(view, level))

    def _broken(self, level: str, views: tuple[str, ...]) -> str | None:
        """Why ``views`` are not jointly ``level``; None when they are."""
        if self._empty:
            return "empty warehouse history"
        if level != "convergent":
            relations = frozenset().union(*(self._relations[v] for v in views))
            reason = self._spanning_disorder(relations)
            if reason is not None:
                return reason
            at, reason = min(
                (self.diverged[v] for v in views if v in self.diverged),
                default=(None, None),
            )
            # Completeness: one source state per warehouse state, so no
            # transaction up to there may carry two updates the views see
            # (one of another merge group may batch what they cannot).
            for batch, txn_id, covered in self._batches if level == "complete" else ():
                if reason is not None and batch > at:
                    break
                relevant = sum(not r.isdisjoint(relations) for r in covered)
                if relevant > 1:
                    return (
                        f"transaction {txn_id} advances the checked views "
                        f"by {relevant} updates; completeness requires "
                        f"one source state per warehouse state"
                    )
            if reason is not None:
                return reason
        stale = [v for v in views if not self.final_ok[v]]
        if stale:
            return (
                f"final warehouse state of {stale} does not reflect the final "
                f"source state (a skipped update was not value-invisible)"
            )
        return None

    def _spanning_disorder(self, relations: frozenset[str]) -> str | None:
        """Two updates a scope reading ``relations`` sees may also meet in
        a relation it does not read; only updates over several can."""
        last_seen: dict[str, int] = {}
        for update_id, touched in self._spanning:
            if not touched.isdisjoint(relations):
                for relation in touched:
                    earlier = last_seen.get(relation, update_id)
                    last_seen[relation] = update_id
                    if earlier > update_id:
                        return _OUT_OF_ORDER.format(earlier, update_id, relation)
        return None


def check_mvc_ordered(
    history: Sequence[WarehouseState],
    initial: Database,
    numbered: Sequence[tuple[int, SourceTransaction, float]],
    definitions: Sequence[ViewDefinition],
    level: str = "strong",
) -> ConsistencyReport:
    """Verify MVC at ``level`` against the schedule ``history`` applied."""
    return Replay(history, initial, numbered, definitions).check(level)


def classify_mvc_ordered(
    history: Sequence[WarehouseState],
    initial: Database,
    numbered: Sequence[tuple[int, SourceTransaction, float]],
    definitions: Sequence[ViewDefinition],
) -> str:
    """Strongest level achieved: complete > strong > convergent > inconsistent."""
    return Replay(history, initial, numbered, definitions).classify()
