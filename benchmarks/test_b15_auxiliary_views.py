"""B15 — Auxiliary views require MVC (§1.1's second motivation).

"MVC is required by some view maintenance algorithms.  For example, in
the multiple view maintenance problem described in [12, 8], auxiliary
views are stored in order to maintain primary views efficiently.  For
example, in order to maintain V = R ./ S ./ T, the algorithm might choose
to materialize relations R ./ S and S ./ T and compute V from them.  The
two sub-views must be consistent with each other whenever V is computed."

This experiment materializes the two auxiliary views A1 = R ./ S and
A2 = S ./ T at the warehouse and, after every warehouse state, derives
V = A1 ./ A2.  The derived V is *legitimate* if it equals R ./ S ./ T
evaluated at some consistent source state.

* With MVC coordination (SPA), every derived V is legitimate.
* With pass-through maintenance, derived Vs contain phantom join rows
  that never existed at any source state — the paper's warning realised.

Paper question: §1.1's second motivation — auxiliary views must be
mutually consistent for derived-view computation to be legitimate.
Reads: warehouse ``history`` states, derived-view equality, and
``check_mvc`` / ``classify()`` verdicts.
"""

from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.expressions import BaseRelation, Join
from repro.relational.parser import parse_view
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.schemas import paper_world

from benchmarks.conftest import fmt_table

AUX_VIEWS = [
    parse_view("A1 = SELECT * FROM R JOIN S"),
    parse_view("A2 = SELECT * FROM S JOIN T"),
]
PRIMARY = parse_view("V = SELECT * FROM R JOIN S JOIN T")
DERIVE = Join(BaseRelation("A1"), BaseRelation("A2"))


def derive_v(state):
    """Compute V = A1 ./ A2 from one warehouse state's contents."""
    scratch = Database()
    a1, a2 = state.view("A1"), state.view("A2")
    scratch.create_relation("A1", a1.schema, iter(a1))
    scratch.create_relation("A2", a2.schema, iter(a2))
    return evaluate(DERIVE, scratch)


def scripted_updates():
    """Inserts with S rows unique on (B, C).

    (R ./ S) ./ (S ./ T) equals R ./ S ./ T only when S has no duplicate
    rows (duplicates square their multiplicity through the double join) —
    the [12, 8] algorithms assume keyed relations, so the workload does
    too.
    """
    updates = []
    for index in range(20):
        updates.append(Update.insert("R", {"A": 100 + index, "B": index % 4}))
        updates.append(Update.insert("S", {"B": index % 4, "C": index}))
        updates.append(Update.insert("T", {"C": index, "D": index % 3}))
    return updates


def run(kind: str):
    world = paper_world()
    system = WarehouseSystem(world, AUX_VIEWS, SystemConfig(manager_kind=kind))
    # A2's delta computation is slower than A1's (realistic: different
    # view complexity) — the uncoordinated configuration then leaves long
    # windows where the auxiliaries disagree; SPA hides them entirely.
    system.view_managers["A2"].compute_cost = (5.0, 0.0, 0.0)
    for index, update in enumerate(scripted_updates()):
        system.post_update(update, at=0.5 + 0.4 * index)
    system.run()

    # Legitimate V values: R ./ S ./ T at every consistent source state
    # of every equivalent serial schedule.  Checking against the
    # integrator-order prefix states plus single-swap neighbours would be
    # exponential; instead use the sound criterion that matters for the
    # derived-view algorithm: V derived from a *mutually consistent* pair
    # equals the evaluation at the pair's common source state, so compare
    # against the set of evaluations at all integrator-order states and
    # at all states of the warehouse's own reconstructed schedule.
    from repro.consistency.ordered import reconstruct_schedule

    legitimate = set()
    states = system.source_states()
    for state in states:
        legitimate.add(evaluate(PRIMARY.expression, state))
    # SPA may apply commuting updates out of numbering order, so its
    # legitimate states also include the reconstructed schedule's
    # prefixes.  The pass-through run's "schedule" repeats covered rows
    # (split action lists), so it gets no such extension — which can only
    # overcount its phantoms' legitimacy, never undercount.
    schedule = reconstruct_schedule(system.history)
    if len(set(schedule)) == len(schedule):
        transactions = {i: txn for i, txn, _t in system.integrator.numbered}
        replay = system._initial_state.snapshot()
        replay._frozen = False
        legitimate.add(evaluate(PRIMARY.expression, replay))
        for update_id in schedule:
            replay.apply_deltas(transactions[update_id].deltas())
            legitimate.add(evaluate(PRIMARY.expression, replay))

    phantom_states = sum(
        1 for state in system.history if derive_v(state) not in legitimate
    )
    return system, phantom_states


def test_b15_auxiliary_views(benchmark, report):
    (coordinated, phantom_c), (uncoordinated, phantom_u) = benchmark.pedantic(
        lambda: (run("complete"), run("convergent")), rounds=1, iterations=1
    )

    rows = [
        [
            "coordinated (SPA)",
            len(coordinated.history),
            phantom_c,
            coordinated.classify(),
        ],
        [
            "uncoordinated (pass-through)",
            len(uncoordinated.history),
            phantom_u,
            uncoordinated.classify(),
        ],
    ]
    report("B15 — deriving V = (R./S) ./ (S./T) from auxiliary views:")
    report(fmt_table(
        ["configuration", "warehouse states", "phantom derivations",
         "MVC level"],
        rows,
    ))
    report("")
    report("Shape: with MVC every derived V equals R./S./T at a real "
           "source state; without it, derivations see phantom (or missing) "
           "join rows — the [12,8] auxiliary-view algorithms would compute "
           "garbage.")

    assert phantom_c == 0
    assert phantom_u > 0
    assert coordinated.check_mvc("complete")
