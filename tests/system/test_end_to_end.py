"""End-to-end runs of the full Figure-1 system against the MVC oracles."""

import pytest

from repro.errors import IntegratorError
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    bank_views,
    bank_world,
    paper_views_example1,
    paper_views_example2,
    paper_views_example3,
    paper_world,
    star_views,
    star_world,
)


def run_paper_system(config, updates=40, seed=7, views=None, world=None):
    world = world or paper_world()
    spec = WorkloadSpec(
        updates=updates, rate=2.0, seed=seed,
        mix=(0.5, 0.25, 0.25), arrivals="poisson",
    )
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(world, views or paper_views_example2(), config)
    post_stream(system, stream)
    system.run()
    return system


class TestTable1:
    """Example 1 / Table 1 end to end."""

    def test_both_views_update_atomically(self):
        world = paper_world()
        system = WarehouseSystem(world, paper_views_example1())
        system.post_update(Update.insert("S", {"B": 2, "C": 3}), at=1.0)
        system.run()
        # Exactly one warehouse transaction; both views move together.
        assert len(system.history) == 2
        final = system.history[-1]
        assert final.view("V1").sorted_rows() == [{"A": 1, "B": 2, "C": 3}] or \
            [dict(r) for r in final.view("V1").sorted_rows()] == [
                {"A": 1, "B": 2, "C": 3}
            ]
        assert len(final.view("V2")) == 1
        assert system.check_mvc("complete")


class TestGuarantees:
    def test_complete_managers_spa_is_mvc_complete(self):
        system = run_paper_system(SystemConfig(manager_kind="complete"))
        report = system.check_mvc("complete")
        assert report, report.reason
        assert system.classify() == "complete"

    def test_strong_managers_pa_is_mvc_strong(self):
        system = run_paper_system(SystemConfig(manager_kind="strong"))
        assert system.check_mvc("strong")

    def test_snapshot_mode(self):
        system = run_paper_system(
            SystemConfig(manager_kind="complete", manager_mode="snapshot"),
            updates=25,
        )
        assert system.check_mvc("complete")

    def test_compensate_mode(self):
        system = run_paper_system(
            SystemConfig(manager_kind="strong", manager_mode="compensate"),
            updates=25,
        )
        assert system.check_mvc("strong")

    def test_batching_degrades_to_strong(self):
        system = run_paper_system(
            SystemConfig(manager_kind="complete", submission_policy="batching")
        )
        assert system.check_mvc("strong")

    def test_convergent_fleet_converges(self):
        system = run_paper_system(SystemConfig(manager_kind="convergent"))
        assert system.check_mvc("convergent")

    def test_mixed_fleet_weakest_level(self):
        system = run_paper_system(
            SystemConfig(manager_kind="complete", manager_kinds={"V2": "strong"})
        )
        assert system.expected_level() == "strong"
        assert system.check_mvc("strong")

    def test_complete_n_fleet(self):
        system = run_paper_system(
            SystemConfig(manager_kind="complete-n", block_size=5), updates=23
        )
        # Partial trailing block is flushed by run(); result is strong.
        assert system.check_mvc("strong")
        assert system.warehouse.commits <= 6

    def test_periodic_fleet(self):
        system = run_paper_system(
            SystemConfig(manager_kind="periodic", refresh_period=15.0),
            updates=30,
        )
        assert system.check_mvc("strong")


class TestHazards:
    def test_eager_policy_with_parallel_warehouse_breaks_mvc(self):
        """The §4.3 commit-order hazard, reproduced end to end."""
        system = run_paper_system(
            SystemConfig(
                manager_kind="complete",
                submission_policy="eager",
                warehouse_executors=4,
                warehouse_action_cost=2.0,
            ),
            updates=40,
        )
        assert system.classify() in ("convergent", "inconsistent")

    def test_dbms_dependencies_fix_the_hazard(self):
        system = run_paper_system(
            SystemConfig(
                manager_kind="complete",
                submission_policy="dbms-dependency",
                warehouse_executors=4,
                warehouse_action_cost=2.0,
            ),
            updates=40,
        )
        assert system.check_mvc("complete")


class TestDistributedMerge:
    def test_two_merges_preserve_completeness(self):
        system = run_paper_system(
            SystemConfig(manager_kind="complete", merge_groups=4),
            views=paper_views_example3(),
        )
        assert len(system.merge_processes) == 2
        assert system.check_mvc("complete")

    def test_transaction_ids_globally_unique(self):
        system = run_paper_system(
            SystemConfig(manager_kind="complete", merge_groups=4),
            views=paper_views_example3(),
        )
        ids = [s.txn_id for s in system.history[1:]]
        assert len(ids) == len(set(ids))


class TestMultiSource:
    def test_global_transaction_atomic_across_views(self):
        world = paper_world()
        system = WarehouseSystem(world, paper_views_example1())
        system.post_global(
            [Update.insert("R", {"A": 5, "B": 6}),
             Update.insert("T", {"C": 8, "D": 9})],
            at=1.0,
        )
        system.post_update(Update.insert("S", {"B": 6, "C": 8}), at=2.0)
        system.run()
        assert system.check_mvc("complete")
        # The global txn got one VUT row / one warehouse transaction.
        assert system.history[1].covered_rows == (1,)

    def test_transaction_spanning_merge_groups_refused_at_post(self):
        """§6.1 meets §6.2: a global transaction whose updates two merge
        groups would apply is refused when posted, before anything runs,
        and the rest of the stream keeps its promise."""
        world = paper_world()
        system = WarehouseSystem(world, paper_views_example3(),
                                 SystemConfig(merge_groups=2))
        assert len(system.merge_processes) == 2
        post_stream(system, UpdateStreamGenerator(world, WorkloadSpec(
            updates=20, rate=2.0, seed=5)).transactions())
        with pytest.raises(IntegratorError, match="several merge groups"):
            system.post_global([Update.insert("S", {"B": 2, "C": 7}),
                                Update.insert("Q", {"D": 4, "E": 1})], at=3.0)
        # Within one group, a global transaction is accepted.
        system.post_global([Update.insert("R", {"A": 9, "B": 2}),
                            Update.insert("T", {"C": 2, "D": 9})], at=4.0)
        system.run()
        assert system.integrator.updates_numbered == 21
        assert system.check_mvc("auto")

    def test_multi_update_stream(self):
        world = paper_world()
        spec = WorkloadSpec(
            updates=30, rate=2.0, seed=11, multi_update_fraction=0.5
        )
        stream = UpdateStreamGenerator(world, spec).transactions()
        system = WarehouseSystem(world, paper_views_example2(),
                                 SystemConfig(manager_kind="complete"))
        post_stream(system, stream)
        system.run()
        assert system.check_mvc("complete")


class TestAggregateViews:
    def test_aggregate_views_maintained_mvc_complete(self):
        """Summary views ride the same machinery, incrementally (§1.2)."""
        world = star_world()
        spec = WorkloadSpec(updates=40, rate=1.5, seed=31, value_range=10,
                            mix=(0.6, 0.2, 0.2))
        stream = UpdateStreamGenerator(world, spec).transactions()
        system = WarehouseSystem(
            world, star_views(aggregates=True),
            SystemConfig(manager_kind="complete"),
        )
        post_stream(system, stream)
        system.run()
        assert system.check_mvc("complete")

    def test_aggregate_views_under_strong_managers(self):
        world = star_world()
        spec = WorkloadSpec(updates=40, rate=3.0, seed=33, value_range=10)
        stream = UpdateStreamGenerator(world, spec).transactions()
        system = WarehouseSystem(
            world, star_views(aggregates=True),
            SystemConfig(manager_kind="strong"),
        )
        post_stream(system, stream)
        system.run()
        assert system.check_mvc("strong")


class TestOtherWorkloads:
    def test_bank_world_runs_complete(self):
        world = bank_world(customers=5)
        spec = WorkloadSpec(updates=30, rate=1.0, seed=3, value_range=6)
        stream = UpdateStreamGenerator(world, spec).transactions()
        system = WarehouseSystem(world, bank_views(),
                                 SystemConfig(manager_kind="complete"))
        post_stream(system, stream)
        system.run()
        assert system.check_mvc("complete")

    def test_filtering_survives_modify_across_selection_boundary(self):
        """Regression: a row inserted below a view's selection threshold
        and later modified above it must not underflow the sigma-restricted
        replica (the filtered insert never reached the manager)."""
        world = star_world()
        system = WarehouseSystem(
            world, star_views(),
            SystemConfig(manager_kind="complete", use_selection_filtering=True),
        )
        low = {"sale": 1, "prod": 0, "store": 0, "qty": 2}
        high = dict(low, qty=9)
        system.post_update(Update.insert("Sales", low), at=1.0)
        system.post_update(Update.modify("Sales", low, high), at=2.0)
        system.post_update(Update.modify("Sales", high, low), at=3.0)
        system.run()
        assert system.check_mvc("complete")
        assert len(system.store.view("BigTickets")) == 0

    def test_star_world_with_selection_filtering(self):
        world = star_world()
        spec = WorkloadSpec(updates=40, rate=1.0, seed=5, value_range=12)
        stream = UpdateStreamGenerator(world, spec).transactions()
        system = WarehouseSystem(
            world, star_views(),
            SystemConfig(manager_kind="complete", use_selection_filtering=True),
        )
        post_stream(system, stream)
        system.run()
        assert system.check_mvc("complete")
        assert system.integrator.filtered_out > 0
