"""The integrator's route table against a fresh relevance computation.

A route is everything §3.2's steps 2-4 derive from the relations a
transaction touches (and, under selection filtering, from its ``REL``).
Each transaction is handled twice here, the second time from the table,
and both times its messages must be the ones the relevance filter
prescribes when asked afresh.
"""

from __future__ import annotations

import itertools

import pytest

from repro.errors import IntegratorError
from repro.integrator.integrator import Integrator
from repro.merge.distributed import partition_views
from repro.messages import NumberedUpdate, RelMessage, UpdateForView, UpdateNotification
from repro.sim.kernel import Simulator
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec
from repro.workloads.schemas import (
    clustered_views,
    clustered_world,
    paper_views_example2,
    paper_world,
    star_views,
    star_world,
)

WORLDS = {
    "paper": (paper_world, paper_views_example2,
              {"m1": ("V1",), "m2": ("V2", "V3")}),
    "clustered": (lambda: clustered_world(3), lambda: clustered_views(3, 3), None),
    "star": (star_world, lambda: star_views(selective=True), None),
}


def integrator_for(world_name: str, filtering: bool = False,
                   send_empty_rels: bool = False):
    make_world, make_views, groups = WORLDS[world_name]
    world, views = make_world(), make_views()
    if groups is None:
        groups = {f"m{i}": group for i, group in enumerate(partition_views(views))}
    integrator = Integrator(
        Simulator(), views, world.schemas, merge_groups=groups,
        use_selection_filtering=filtering, send_empty_rels=send_empty_rels,
    )
    sent: list = []
    integrator.send = lambda destination, message: sent.append((destination, message))
    return world, integrator, sent


def fresh(integrator: Integrator, update_id: int, updates: tuple) -> list:
    """The messages of ``update_id``, relevance worked out afresh."""
    filt = integrator.filter
    relevant = filt.relevant_views(updates)
    integrator.check_one_group(updates, relevant)
    messages = [("basedata", NumberedUpdate(update_id, updates))]
    for merge, group in sorted(integrator.merge_groups.items()):
        if relevant & group or integrator.send_empty_rels:
            messages.append((merge, RelMessage(update_id, relevant & group)))
    for view in sorted(relevant):
        messages.append((integrator.view_manager_names[view], UpdateForView(
            update_id, view, filt.relevant_updates_for_view(view, updates))))
    return messages


def handled(integrator: Integrator, sent: list, updates: tuple) -> list:
    sent.clear()
    transaction = SourceTransaction("src", updates)
    integrator.handle(UpdateNotification(transaction, 1.0), None)
    return list(sent)


def check_both_ways(integrator: Integrator, sent: list, updates: tuple) -> None:
    for _ in range(2):  # built, then looked up
        try:
            expected = fresh(integrator, integrator.updates_numbered + 1, updates)
        except IntegratorError:
            with pytest.raises(IntegratorError):
                handled(integrator, sent, updates)
            continue
        assert handled(integrator, sent, updates) == expected


@pytest.mark.parametrize("world_name", sorted(WORLDS))
@pytest.mark.parametrize("send_empty_rels", [False, True])
def test_every_relation_tuple_routes_as_computed_afresh(world_name, send_empty_rels):
    world, integrator, sent = integrator_for(world_name, send_empty_rels=send_empty_rels)
    updates = {
        name: Update.insert(name, {attr: 0 for attr in schema.names})
        for name, schema in world.schemas.items()
    }
    for size in (1, 2, 3):
        for relations in itertools.product(sorted(updates), repeat=size):
            check_both_ways(integrator, sent, tuple(updates[r] for r in relations))
    assert integrator._routes  # the table was used


@pytest.mark.parametrize("world_name", sorted(WORLDS))
@pytest.mark.parametrize("filtering", [False, True])
def test_generated_streams_route_as_computed_afresh(world_name, filtering):
    world, integrator, sent = integrator_for(world_name, filtering=filtering)
    spec = WorkloadSpec(updates=150, rate=2.0, seed=5, mix=(0.5, 0.25, 0.25),
                        value_range=12, multi_update_fraction=0.3)
    for _time, transaction in UpdateStreamGenerator(world, spec).transactions():
        check_both_ways(integrator, sent, transaction.updates)
    if filtering and world_name == "star":
        assert integrator.filtered_out > 0


def test_the_row_test_picks_within_a_transaction():
    """Two sales of one transaction: BigTickets (qty >= 8) sees the big one."""
    _world, integrator, sent = integrator_for("star", filtering=True)
    small, big = (Update.insert("Sales", {"sale": i, "prod": 1, "store": 1, "qty": qty})
                  for i, qty in ((1, 2), (2, 9)))
    for updates in ((small, big), (big, small), (small, big)):
        check_both_ways(integrator, sent, updates)
        copies = {m.view: m.updates for _, m in sent if isinstance(m, UpdateForView)}
        assert copies["BigTickets"] == (big,) and len(copies["SaleDetail"]) == 2
    check_both_ways(integrator, sent, (small, small))
    assert "BigTickets" not in {m.view for _, m in sent if isinstance(m, UpdateForView)}


def test_a_cross_group_transaction_is_refused_on_every_post():
    _world, integrator, sent = integrator_for("paper")
    # R feeds V1 (merge m1), S feeds V1 and V2 (m1 and m2)
    updates = (Update.insert("S", {"B": 1, "C": 2}),)
    for _ in range(2):
        with pytest.raises(IntegratorError, match="several merge groups"):
            handled(integrator, sent, updates)
    assert integrator.updates_numbered == 0 and not integrator._routes
    assert handled(integrator, sent, (Update.insert("R", {"A": 1, "B": 2}),))


def test_selection_filtering_keeps_the_b6_numbers():
    """B6's star workload: the row test still decides each routing."""
    from repro.system.builder import WarehouseSystem
    from repro.system.config import SystemConfig
    from repro.workloads.generator import post_stream

    observed = {}
    for filtering in (False, True):
        world = star_world()
        system = WarehouseSystem(world, star_views(selective=True), SystemConfig(
            manager_kind="complete", use_selection_filtering=filtering))
        spec = WorkloadSpec(updates=120, rate=2.0, seed=19, mix=(0.7, 0.15, 0.15),
                            value_range=12, arrivals="poisson")
        post_stream(system, UpdateStreamGenerator(world, spec).transactions())
        system.run()
        integrator = system.integrator
        observed[filtering] = (integrator.update_copies_sent, integrator.filtered_out,
                               system.merge_processes[0].messages_handled)
    # recorded before the route table, when each update was routed afresh
    assert observed == {False: (284, 0, 524), True: (247, 37, 487)}
