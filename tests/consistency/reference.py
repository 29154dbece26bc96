"""The per-scope order-aware checker the one replay replaced, kept verbatim.

Not a test module: ``check_mvc_ordered`` and ``classify_mvc_ordered`` below
are the bodies of ``repro.consistency.ordered`` as of the commit before
:class:`repro.consistency.Replay`.  They replay the schedule once per call
and re-evaluate every checked view at every state, which is what made the
oracle cost more than the run; they stay here as the reference the replay
is compared against (``test_ordered_properties.py``,
``tests/conformance/test_oracle.py``), one scope and one level at a time.
Below them, verbatim as well, is the ``check_run`` that drove them: every
view evaluated at every source state, one schedule replay per pair, per
shard and for the fleet; only where it reads the promise from changed
(:func:`repro.merge.selection.promise`).
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Sequence

from repro.conformance.oracle import Violation
from repro.consistency.checker import (
    ConsistencyReport,
    check_complete,
    check_convergent,
    check_strong,
)
from repro.consistency.ordered import reconstruct_schedule
from repro.merge.selection import promise, weakest_level
from repro.merge.sharding import groups_by_shard
from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.expressions import ViewDefinition
from repro.relational.relation import Relation
from repro.sources.transactions import SourceTransaction
from repro.warehouse.store import WarehouseState


def _conflict_order_ok(
    schedule: Sequence[int],
    transactions: Mapping[int, SourceTransaction],
) -> str | None:
    """Check same-relation updates keep numbering order; None if ok."""
    last_seen: dict[str, int] = {}
    for update_id in schedule:
        for relation in transactions[update_id].relations:
            previous = last_seen.get(relation)
            if previous is not None and previous > update_id:
                return (
                    f"updates U{previous} and U{update_id} both touch "
                    f"{relation!r} but were applied out of order"
                )
            last_seen[relation] = update_id
    return None


def _evaluate_views(
    state: Database, definitions: Sequence[ViewDefinition]
) -> tuple:
    return tuple(evaluate(d.expression, state) for d in definitions)


def _warehouse_vector(
    state: WarehouseState, definitions: Sequence[ViewDefinition]
) -> tuple:
    return tuple(state.view(d.name) for d in definitions)


def check_mvc_ordered(
    history: Sequence[WarehouseState],
    initial: Database,
    numbered: Sequence[tuple[int, SourceTransaction, float]],
    definitions: Sequence[ViewDefinition],
    level: str = "strong",
) -> ConsistencyReport:
    """Verify MVC at ``level`` ("strong" or "complete") against schedule R."""
    transactions = {update_id: txn for update_id, txn, _time in numbered}
    schedule = reconstruct_schedule(history)
    label = f"mvc-{level}"
    checked_relations = frozenset().union(
        *(frozenset(d.base_relations()) for d in definitions)
    )

    unknown = [u for u in schedule if u not in transactions]
    if unknown:
        return ConsistencyReport(
            False, label, f"warehouse applied unknown updates {unknown}"
        )
    # Transactions from other merge groups (§6.1 sharding) may cover
    # updates touching none of the checked views' base relations — e.g. a
    # convergent shard splitting a modify across two warehouse
    # transactions.  Those updates are value-invisible to the checked
    # views, so they are excluded from the order checks and the replay
    # (the completeness walk below already filters the same way).
    visible = [
        u
        for u in schedule
        if not checked_relations.isdisjoint(transactions[u].relations)
    ]
    if len(set(visible)) != len(visible):
        return ConsistencyReport(
            False, label, f"some update applied twice in schedule {visible}"
        )
    reason = _conflict_order_ok(visible, transactions)
    if reason is not None:
        return ConsistencyReport(False, label, reason)

    # Replay R prefix by prefix and compare against each warehouse state.
    scratch = initial.snapshot()
    scratch._frozen = False
    if not history:
        return ConsistencyReport(False, label, "empty warehouse history")
    if _warehouse_vector(history[0], definitions) != _evaluate_views(
        scratch, definitions
    ):
        return ConsistencyReport(
            False, label, "initial warehouse state does not reflect ss_0"
        )
    applied = 0
    for state in history[1:]:
        if level == "complete":
            relevant = [
                u
                for u in state.covered_rows
                if not checked_relations.isdisjoint(transactions[u].relations)
            ]
            if len(relevant) > 1:
                return ConsistencyReport(
                    False,
                    label,
                    f"transaction {state.txn_id} advances the checked views "
                    f"by {len(relevant)} updates; completeness requires "
                    f"one source state per warehouse state",
                )
        for update_id in state.covered_rows:
            if checked_relations.isdisjoint(transactions[update_id].relations):
                continue  # value-invisible (see the `visible` filter above)
            scratch.apply_deltas(transactions[update_id].deltas())
            applied += 1
        expected = _evaluate_views(scratch, definitions)
        got = _warehouse_vector(state, definitions)
        if got != expected:
            return ConsistencyReport(
                False,
                label,
                f"warehouse state #{state.index} (after txn {state.txn_id}, "
                f"{applied} updates applied) does not match the replayed "
                f"schedule prefix",
            )

    # Final check against the *full* commit schedule: updates never applied
    # at the warehouse must have been value-invisible.
    full = initial.snapshot()
    full._frozen = False
    for update_id in sorted(transactions):
        full.apply_deltas(transactions[update_id].deltas())
    if _warehouse_vector(history[-1], definitions) != _evaluate_views(
        full, definitions
    ):
        return ConsistencyReport(
            False,
            label,
            "final warehouse state does not reflect the final source state "
            "(a skipped update was not value-invisible)",
        )
    return ConsistencyReport(True, label)


def classify_mvc_ordered(
    history: Sequence[WarehouseState],
    initial: Database,
    numbered: Sequence[tuple[int, SourceTransaction, float]],
    definitions: Sequence[ViewDefinition],
) -> str:
    """Strongest level achieved: complete > strong > convergent > inconsistent."""
    if check_mvc_ordered(history, initial, numbered, definitions, "complete"):
        return "complete"
    if check_mvc_ordered(history, initial, numbered, definitions, "strong"):
        return "strong"
    # Convergence: final state only.
    full = initial.snapshot()
    full._frozen = False
    for _update_id, txn, _time in sorted(numbered):
        full.apply_deltas(txn.deltas())
    if history and _warehouse_vector(history[-1], definitions) == _evaluate_views(
        full, definitions
    ):
        return "convergent"
    return "inconsistent"


# -- the parent's conformance.oracle.check_run and what it called -----------


def source_view_values(
    states: Sequence[Database],
    definitions: Sequence[ViewDefinition],
) -> list[dict[str, Relation]]:
    """``V(ss_i)`` for every view and source state."""
    return [
        {d.name: evaluate(d.expression, state) for d in definitions}
        for state in states
    ]


def _warehouse_vectors(
    history: Sequence[WarehouseState],
    definitions: Sequence[ViewDefinition],
) -> list[tuple]:
    names = tuple(d.name for d in definitions)
    return [tuple(state.view(name) for name in names) for state in history]


def _source_vectors(
    source_states: Sequence[Database],
    definitions: Sequence[ViewDefinition],
) -> list[tuple]:
    names = tuple(d.name for d in definitions)
    values = source_view_values(source_states, definitions)
    return [tuple(per_state[name] for name in names) for per_state in values]


def check_mvc_convergent(
    history: Sequence[WarehouseState],
    source_states: Sequence[Database],
    definitions: Sequence[ViewDefinition],
) -> ConsistencyReport:
    """All views eventually equal their final source evaluation."""
    return check_convergent(
        _warehouse_vectors(history, definitions),
        _source_vectors(source_states, definitions),
    )


def _check_single_view(level, warehouse_values, source_values):
    if level == "complete":
        return check_complete(warehouse_values, source_values)
    if level == "strong":
        return check_strong(warehouse_values, source_values)
    return check_convergent(warehouse_values, source_values)


def _joint_violations(
    system, source_states, scope: str, definitions, level: str
) -> list[Violation]:
    """``definitions`` checked together at ``level`` (empty = it holds):
    convergence compares final states, the stronger levels go through the
    order-aware checker."""
    if level == "convergent":
        report = check_mvc_convergent(system.history, source_states, definitions)
    else:
        report = check_mvc_ordered(
            system.history,
            system.initial_state,
            system.integrator.numbered,
            definitions,
            level,
        )
    return [] if report else [Violation(scope, level, report.reason)]


def check_run(system) -> list[Violation]:
    """Every broken promise in a finished run (empty = conformant).

    The system must have been run to completion (``system.run()`` with no
    horizon) so the history covers the full update stream.
    """
    violations: list[Violation] = []
    view_levels, fleet_level = promise(system)
    definitions = {d.name: d for d in system.definitions}

    # 1. per-view §2 checks on value sequences.
    source_states = system.source_states()
    per_state = source_view_values(source_states, system.definitions)
    for view, level in view_levels.items():
        if level is None:
            continue
        warehouse_values = [state.view(view) for state in system.history]
        source_values = [values[view] for values in per_state]
        report = _check_single_view(level, warehouse_values, source_values)
        if not report:
            violations.append(Violation(f"view:{view}", level, report.reason))

    # 2. pairwise MVC (order-aware for strong/complete).
    checked = [v for v, lvl in view_levels.items() if lvl is not None]
    for first, second in combinations(checked, 2):
        level = weakest_level((view_levels[first], view_levels[second]))
        pair = [definitions[first], definitions[second]]
        violations += _joint_violations(
            system, source_states, f"pair:{first},{second}", pair, level
        )

    # 2b. per shard: each merge process's views jointly at the shard's
    # weakest promised level.  §6.1 argues shards never interact; this is
    # the executable form of that argument — a violation scoped
    # ``shard:mergeN`` means the partitioning itself leaked consistency.
    if len(system.merge_processes) > 1:
        shards = groups_by_shard(system.view_to_merge)
        for merge_name, shard_views in shards.items():
            promised = [view_levels[view] for view in shard_views]
            if None in promised or len(shard_views) < 2:
                continue  # no joint promise, or covered by the per-view check
            level = weakest_level(promised)
            shard_defs = [definitions[v] for v in sorted(shard_views)]
            violations += _joint_violations(
                system, source_states, f"shard:{merge_name}", shard_defs, level
            )

    # 3. fleet-wide at the weakest promised level.
    if fleet_level is not None:
        violations += _joint_violations(
            system, source_states, "fleet", system.definitions, fleet_level
        )

    return violations
