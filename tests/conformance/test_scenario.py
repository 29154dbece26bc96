"""ScenarioSpec: validation, JSON round-trips, deterministic builds."""

import pytest

from repro.cache.store import CacheConfig
from repro.conformance.scenario import _OVERRIDABLE, SCENARIO_CONFIG, ScenarioSpec
from repro.errors import ReproError
from repro.faults.plan import CrashSpec, FaultPlan
from repro.sim.scheduler import (
    DelayInjectingScheduler,
    RandomScheduler,
    Scheduler,
)
from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import SCHEMAS


def workload(**fields) -> WorkloadSpec:
    """A scenario's default workload with ``fields`` changed."""
    return WorkloadSpec(**{"updates": 20, "rate": 2.0, "arrivals": "poisson", **fields})


class TestValidation:
    def test_unknown_schema_rejected(self):
        with pytest.raises(ReproError, match="schema"):
            ScenarioSpec(schema="nope")

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ReproError, match="scheduler"):
            ScenarioSpec(scheduler="chaotic")

    def test_negative_views_rejected(self):
        with pytest.raises(ReproError, match="views"):
            ScenarioSpec(views=-1)

    def test_too_many_views_rejected_at_materialize(self):
        with pytest.raises(ReproError, match="cannot take"):
            ScenarioSpec(schema="paper", views=99).materialize()

    @pytest.mark.parametrize("name", ["seed", "scheduler", "trace_kinds", "slo"])
    def test_per_run_fields_are_not_overrides(self, name):
        with pytest.raises(ReproError, match=name):
            ScenarioSpec(config={name: None})

    def test_build_observes_only(self):
        with pytest.raises(ReproError, match="manager_kind"):
            ScenarioSpec().build(0, manager_kind="strong")


class TestMaterialize:
    def test_every_schema_materializes(self):
        for name in SCHEMAS:
            world, views = ScenarioSpec(schema=name).materialize()
            assert views
            assert world.schemas

    def test_views_prefix(self):
        _world, views = ScenarioSpec(schema="paper-wide", views=2).materialize()
        assert [v.name for v in views] == ["V1", "V2"]

    def test_zero_means_all(self):
        _world, views = ScenarioSpec(schema="paper-wide", views=0).materialize()
        assert len(views) == 4

    def test_views_file_replaces_the_suite(self, tmp_path):
        catalog = tmp_path / "views.cat"
        catalog.write_text("W = SELECT * FROM R JOIN S\n")
        _world, views = ScenarioSpec(views=str(catalog)).materialize()
        assert [v.name for v in views] == ["W"]


class TestSerialization:
    def test_round_trip_plain(self):
        spec = ScenarioSpec(schema="paper", workload=workload(updates=9, rate=1.5))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_round_trip_with_faults_and_fleet(self):
        spec = ScenarioSpec(
            schema="paper-wide",
            views=3,
            config={
                **SCENARIO_CONFIG,
                "manager_kinds": {"V1": "complete", "V2": "naive"},
                "fault_plan": FaultPlan(
                    seed=5,
                    drop_rate=0.1,
                    duplicate_rate=0.02,
                    crashes=(CrashSpec(process="merge", at=4.0, restart_after=2.0),),
                    reliable=True,
                ),
                "cache": CacheConfig(stale_refs=True, namespace="scenario"),
            },
            scheduler="random",
            vary_workload=False,
        )
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.config["fault_plan"].crashes[0].process == "merge"
        assert again.config["cache"].namespace == "scenario"

    def test_every_config_value_round_trips(self):
        """Every value a spec may override is data: set to something other
        than its default, each comes back equal through JSON."""
        config = {
            "manager_kind": "strong",
            "manager_kinds": {"V1": "complete", "V2": "naive"},
            "manager_mode": "snapshot",
            "block_size": 3,
            "refresh_period": 15.0,
            "compute_cost": (2.0, 0.5, 0.25),
            "merge_algorithm": "pa",
            "merge_groups": 2,
            "merge_router": "hash",
            "submission_policy": "batching",
            "submission_batch_size": 6,
            "merge_message_cost": 0.35,
            "use_selection_filtering": True,
            "service_query_cost": 0.5,
            "warehouse_executors": 3,
            "warehouse_txn_overhead": 0.5,
            "warehouse_action_cost": 0.1,
            "fault_plan": FaultPlan(
                seed=5, drop_rate=0.1,
                crashes=(CrashSpec(process="merge", at=4.0, restart_after=2.0),),
                reliable=True,
            ),
            "cache": CacheConfig(max_artifacts=8, namespace="scenario"),
            "record_history": False,
        }
        assert set(config) == _OVERRIDABLE
        default = SystemConfig()
        assert all(value != getattr(default, name) for name, value in config.items())
        again = ScenarioSpec.from_json(ScenarioSpec(config=config).to_json())
        assert SystemConfig(**again.config) == SystemConfig(**config)

    def test_unknown_field_rejected(self):
        data = ScenarioSpec().to_dict()
        data["warp_factor"] = 9
        with pytest.raises(ReproError, match="warp_factor"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("config, match", [
        ({"compute_cost": lambda n, d: 1.0}, "function"),
        ({"manager_kinds": {1: "strong"}}, "dict"),
        ({"cache": CacheConfig(root="artifacts")}, "cache root"),
    ])
    def test_what_cannot_be_encoded_raises(self, config, match):
        spec = ScenarioSpec(config=config)
        with pytest.raises(ReproError, match=match):
            spec.to_json()


class TestSchedulers:
    def test_kinds(self):
        assert type(ScenarioSpec(scheduler="fifo").make_scheduler(1)) is Scheduler
        assert isinstance(
            ScenarioSpec(scheduler="random").make_scheduler(1), RandomScheduler
        )
        delay = ScenarioSpec(scheduler="delay").make_scheduler(7)
        assert isinstance(delay, DelayInjectingScheduler)
        assert delay.seed == 7


class TestBuild:
    def test_run_seed_varies_the_workload(self):
        spec = ScenarioSpec(workload=workload(updates=6))
        assert spec.workload_for(0).seed != spec.workload_for(1).seed

    def test_pinned_workload_ignores_run_seed(self):
        spec = ScenarioSpec(
            workload=workload(updates=6, seed=11), vary_workload=False
        )
        assert spec.workload_for(0).seed == spec.workload_for(1).seed == 11

    def test_fault_seed_derived_per_run(self):
        spec = ScenarioSpec(
            workload=workload(updates=1),
            config={**SCENARIO_CONFIG, "fault_plan": FaultPlan(seed=2, drop_rate=0.1)},
        )

        def plan_seed(run_seed):
            system = spec.build(run_seed)
            system.close()
            return system.config.fault_plan.seed

        assert len({plan_seed(s) for s in range(4)}) == 4
        assert plan_seed(3) == plan_seed(3)

    def test_build_runs_to_completion(self):
        spec = ScenarioSpec(workload=workload(updates=6), scheduler="fifo")
        system = spec.build(run_seed=0)
        system.run()
        assert len(system.history) >= 1
        assert system.check_mvc("complete").ok

    def test_same_run_seed_same_run(self):
        spec = ScenarioSpec(workload=workload(updates=8), scheduler="delay")
        one = spec.build(run_seed=5, trace_kinds=None)
        one.run()
        two = spec.build(run_seed=5, trace_kinds=None)
        two.run()
        assert one.sim.trace.digest() == two.sim.trace.digest()

    def test_config_is_the_overrides_plus_the_run(self):
        spec = ScenarioSpec(config={"manager_kind": "strong", "merge_groups": 2})
        system = spec.build(4, freshness_tick=2.0)
        system.close()
        assert system.config == SystemConfig(
            manager_kind="strong", merge_groups=2,
            scheduler=system.config.scheduler, freshness_tick=2.0,
        )
