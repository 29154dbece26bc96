"""Property tests for the order-aware checker itself.

The checker is the oracle for the whole suite, so it gets validated both
ways: correct-by-construction histories must always be accepted, and a
random single-state corruption must always be rejected.  And since every
scope is now read off one :class:`Replay`, the replay is held to the
per-scope checker it replaced (``reference.py``): equal ``ok`` for every
set of views at every level, on legal and on broken histories alike.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import given, settings, strategies as st

from repro.consistency.ordered import Replay, check_mvc_ordered
from repro.relational.database import Database
from repro.relational.delta import propagate_delta
from repro.relational.parser import parse_view
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.viewmgr.actions import ActionList
from repro.warehouse.store import ViewStore
from repro.warehouse.txn import WarehouseTransaction

from tests.consistency import reference

SCHEMAS = {"R": Schema(["A"]), "S": Schema(["B"]), "T": Schema(["C"])}
ATTRIBUTE = {"R": "A", "S": "B", "T": "C"}
DEFS = [
    parse_view("VR = SELECT * FROM R"),
    parse_view("VS = SELECT * FROM S"),
    parse_view("VB = SELECT * FROM R JOIN S"),  # cross product: reads both
    parse_view("VT = SELECT * FROM T"),
]
SCOPES = [
    scope
    for size in range(1, len(DEFS) + 1)
    for scope in combinations(DEFS, size)
]
UNKNOWN_ID = 99


def initial() -> Database:
    db = Database()
    for name, schema in SCHEMAS.items():
        db.create_relation(name, schema)
    return db


@st.composite
def workloads(draw):
    """Random insert-only transactions over R, S and T; some span two
    relations (§6.2), and values repeat, so the bags carry counts."""
    count = draw(st.integers(min_value=1, max_value=8))
    transactions = []
    for _ in range(count):
        width = draw(st.sampled_from([1, 1, 1, 2]))
        relations = draw(st.permutations(sorted(SCHEMAS)))[:width]
        transactions.append(
            SourceTransaction(
                "src",
                tuple(
                    Update.insert(
                        relation,
                        {ATTRIBUTE[relation]: draw(st.integers(0, 3))},
                    )
                    for relation in relations
                ),
            )
        )
    return transactions


@st.composite
def legal_orders(draw, transactions):
    """A permutation preserving per-relation order (conflict-legal)."""
    remaining = list(range(1, len(transactions) + 1))
    order = []
    while remaining:
        ready = [
            i
            for i in remaining
            if not any(
                j < i and transactions[j - 1].relations & transactions[i - 1].relations
                for j in remaining
            )
        ]
        pick = draw(st.sampled_from(ready))
        order.append(pick)
        remaining.remove(pick)
    return order


def build_history(transactions, plan):
    """Commit one warehouse transaction per entry of ``plan`` (a list of
    covered update ids), with the view deltas its updates really have at
    that point of the plan.  An update covered a second time, or unknown
    to the sources, is covered and changes nothing."""
    store = ViewStore(DEFS, SCHEMAS)
    db = initial()
    applied = set()
    for txn_id, covered in enumerate(plan, start=1):
        lists = []
        for update_id in covered:
            if update_id in applied or update_id == UNKNOWN_ID:
                continue
            applied.add(update_id)
            txn = transactions[update_id - 1]
            deltas = txn.deltas()
            for definition in DEFS:
                if txn.relations & definition.base_relations():
                    view_delta = propagate_delta(definition.expression, db, deltas)
                    lists.append(
                        ActionList.from_delta(
                            definition.name, definition.name,
                            (update_id,), view_delta,
                        )
                    )
            db.apply_deltas(deltas)
        store.apply(
            WarehouseTransaction(txn_id, "m", tuple(lists), tuple(covered)),
            float(txn_id),
        )
    return store


def numbered(transactions):
    return [(i, txn, float(i)) for i, txn in enumerate(transactions, start=1)]


def poisoned(data, history):
    """``history`` with one view's contents wrong at one recorded state."""
    history = list(history)
    victim_index = data.draw(
        st.integers(min_value=1, max_value=len(history) - 1)
    )
    victim = history[victim_index]
    view = data.draw(st.sampled_from(DEFS))
    poisoned_views = {n: r.copy() for n, r in victim.views.items()}
    poisoned_views[view.name].insert(
        Row(**{ATTRIBUTE[r]: -1 for r in sorted(view.base_relations())})
    )
    history[victim_index] = type(victim)(
        index=victim.index,
        txn_id=victim.txn_id,
        time=victim.time,
        covered_rows=victim.covered_rows,
        views=poisoned_views,
    )
    return history


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_correct_histories_always_accepted(data):
    transactions = data.draw(workloads())
    order = data.draw(legal_orders(transactions))
    store = build_history(transactions, [(u,) for u in order])
    report = check_mvc_ordered(
        store.history, initial(), numbered(transactions), DEFS, "complete"
    )
    assert report, report.reason


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_corrupted_histories_always_rejected(data):
    transactions = data.draw(workloads())
    order = data.draw(legal_orders(transactions))
    store = build_history(transactions, [(u,) for u in order])
    # Corrupt exactly one recorded state: poison one view's contents.
    history = poisoned(data, store.history)
    report = check_mvc_ordered(
        history, initial(), numbered(transactions), DEFS, "strong"
    )
    assert not report


MUTATIONS = ("duplicate", "skip", "unknown", "swap", "batch", "corrupt")


def mutate(data, plan, mutation):
    """Break (or, for some draws of ``swap`` and ``batch``, merely
    rearrange) the application plan."""
    at = data.draw(st.integers(0, len(plan) - 1))
    if mutation == "duplicate":
        later = data.draw(st.integers(at + 1, len(plan)))
        plan.insert(later, plan[at])
    elif mutation == "skip":
        del plan[at]
    elif mutation == "unknown":
        plan.insert(at, (UNKNOWN_ID,))
    elif mutation == "swap":
        other = data.draw(st.integers(0, len(plan) - 1))
        plan[at], plan[other] = plan[other], plan[at]
    elif mutation == "batch" and at + 1 < len(plan):
        merged = tuple(sorted({*plan[at], *plan[at + 1]}))
        plan[at:at + 2] = [merged]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_replay_agrees_with_the_reference_on_every_scope(data):
    """Legal reorderings, a corrupted state, a duplicated, skipped, unknown
    or out-of-order update, a batched transaction, multi-relation
    transactions: whatever the history, each of the 15 sets of views gets
    the verdict the per-scope checker gives it, at every level."""
    transactions = data.draw(workloads())
    plan = [(u,) for u in data.draw(legal_orders(transactions))]
    mutations = data.draw(st.lists(st.sampled_from(MUTATIONS), max_size=2))
    for mutation in mutations:
        if plan:
            mutate(data, plan, mutation)
    history = build_history(transactions, plan).history
    if "corrupt" in mutations and len(history) > 1:
        history = poisoned(data, history)
    source = numbered(transactions)

    replay = Replay(history, initial(), source, DEFS)
    for scope in SCOPES:
        names = [d.name for d in scope]
        where = f"{names} under {mutations} with plan {plan}"
        for level in ("complete", "strong"):
            expected = reference.check_mvc_ordered(
                history, initial(), source, scope, level
            )
            got = replay.check(level, names)
            assert got.ok == expected.ok, (
                f"{where} at {level}: replay says {got.reason!r}, "
                f"reference {expected.reason!r}"
            )
        assert replay.classify(names) == reference.classify_mvc_ordered(
            history, initial(), source, scope
        ), where
