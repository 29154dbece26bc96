"""Building the reference source-state sequence.

Consistency is judged against *a* consistent source state sequence — any
serial schedule equivalent to the real one (§2.1).  We replay the
transactions **in integrator numbering order**: same-source transactions
keep their commit order (FIFO reporting), and transactions from different
sources touch disjoint relations and therefore commute, so the replayed
sequence is equivalent to the commit-order schedule while matching the
numbering that every VUT row, action list and warehouse transaction uses.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.relational.database import Database
from repro.sources.transactions import SourceTransaction


def scratch_copy(initial: Database) -> Database:
    """A private copy of ``initial`` to mutate step by step."""
    scratch = initial.snapshot()
    scratch._frozen = False
    return scratch


def replay_source_states(
    initial: Database,
    transactions: Iterable[SourceTransaction],
) -> list[Database]:
    """``ss_0 .. ss_f``: snapshots after each transaction, in given order."""
    states = [initial.snapshot()]
    current = scratch_copy(initial)
    for transaction in transactions:
        current.apply_deltas(transaction.deltas())
        states.append(current.snapshot())
    return states


def collapse_consecutive(values: Sequence[object]) -> list[object]:
    """Drop adjacent duplicates.

    Two adjacent identical states are indistinguishable to any reader, so
    all checkers compare *collapsed* sequences: a warehouse transaction
    with no net effect does not create (or require) a new logical state.
    """
    collapsed: list[object] = []
    for value in values:
        if not collapsed or collapsed[-1] != value:
            collapsed.append(value)
    return collapsed


