"""Tests for system assembly and configuration."""

import pytest

from repro.errors import ReproError
from repro.merge.complete_n import CompleteNMerge
from repro.merge.pa import PaintingAlgorithm
from repro.merge.passthrough import PassThroughMerge
from repro.merge.selection import ALGORITHMS
from repro.merge.spa import SimplePaintingAlgorithm
from repro.merge.submission import (
    POLICIES,
    BatchingPolicy,
    DbmsDependencyPolicy,
    DependencySequencedPolicy,
    EagerPolicy,
    SequentialPolicy,
)
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import (
    MANAGER_KINDS,
    MERGE_ALGORITHMS,
    SUBMISSION_POLICIES,
    SystemConfig,
)
from repro.viewmgr import MANAGERS
from repro.viewmgr.complete_n import CompleteNViewManager
from repro.viewmgr.strong import StrongViewManager
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    paper_views_example1,
    paper_views_example2,
    paper_views_example3,
    paper_world,
)


class TestConfigValidation:
    def test_defaults_valid(self):
        SystemConfig()

    @pytest.mark.parametrize(
        "field", ["runtime", "workers", "mailbox_capacity", "runtime_timeout"]
    )
    def test_removed_runtime_fields_are_unknown_keywords(self, field):
        # the DES kernel is the one runtime: no field, alias or shim is left
        with pytest.raises(TypeError, match=field):
            SystemConfig(**{field: 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"manager_kind": "psychic"},
            {"merge_algorithm": "nope"},
            {"submission_policy": "yolo"},
            {"merge_groups": 0},
            {"block_size": 0},
            {"manager_kinds": {"V1": "psychic"}},
            # forwarded unchecked before the validation table: each was a
            # ViewManagerError / MergeError / WarehouseError at build, or
            # (a negative cost) a SimulationError in the middle of the run
            {"manager_mode": "bogus"},
            {"manager_mode": "naive"},  # the anomaly is manager_kind="naive"
            {"merge_router": "random"},
            {"submission_batch_size": 0},
            {"warehouse_executors": 0},
            {"refresh_period": 0.0},
            {"merge_message_cost": -1.0},
            {"service_query_cost": -0.5},
            {"warehouse_txn_overhead": -1.0},
            {"warehouse_action_cost": -0.1},
            {"compute_cost": (1.0, -0.05, 0.1)},
            {"compute_cost": (1.0, float("inf"), 0.1)},
            {"compute_cost": (1.0, 0.05)},
            {"compute_cost": lambda n, d: 1.0},  # a cost model is data
            {"trace_kinds": "wh_commit"},  # was split into its letters
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"cache": "x"}, "cache must be a CacheConfig, got str"),
        ({"fault_plan": 1}, "fault_plan must be a FaultPlan, got int"),
        ({"slo": "tight"}, "slo must be a SloPolicy, got str"),
    ])
    def test_opt_in_fields_type_checked(self, kwargs, message):
        with pytest.raises(ReproError, match=message):
            SystemConfig(**kwargs)

    def test_manager_levels(self):
        config = SystemConfig(
            manager_kind="complete", manager_kinds={"V2": "strong"}
        )
        assert config.manager_levels(("V1", "V2")) == ["complete", "strong"]

    def test_optional_and_modelled_values_pass_the_range_rules(self):
        config = SystemConfig(freshness_tick=None, compute_cost=[2.0, 0, 0.5])
        assert config.compute_cost == (2.0, 0, 0.5)  # a JSON list, stored
        assert SystemConfig(compute_cost=[1.0, 0.05, 0.1]) == SystemConfig()


class TestRegistries:
    """A configuration name is a registry key; the builder constructs
    exactly the class registered under it."""

    def test_name_tuples_are_the_registries_in_order(self):
        assert MANAGER_KINDS == tuple(MANAGERS) == (
            "complete", "strong", "complete-n", "periodic", "convergent", "naive"
        )
        assert MERGE_ALGORITHMS == tuple(ALGORITHMS) == (
            "auto", "spa", "pa", "passthrough", "complete-n"
        )
        assert SUBMISSION_POLICIES == tuple(POLICIES) == (
            "eager", "sequential", "dependency-sequenced", "dbms-dependency",
            "batching",
        )
        assert all(cls.kind == kind for kind, cls in MANAGERS.items())
        assert all(cls.name == name for name, cls in POLICIES.items())

    def test_builder_constructs_the_registered_class(self):
        def build(**kwargs):
            return WarehouseSystem(
                paper_world(), paper_views_example1(), SystemConfig(**kwargs)
            )

        for kind, cls in MANAGERS.items():
            managers = build(manager_kind=kind).view_managers.values()
            assert {type(m) for m in managers} == {cls}, kind
        for name, cls in ALGORITHMS.items():
            if cls is not None:  # "auto" is the weakest-level rule
                merge = build(merge_algorithm=name).merge_processes[0]
                assert type(merge.algorithm) is cls, name
        for name, cls in POLICIES.items():
            merge = build(submission_policy=name).merge_processes[0]
            assert type(merge.policy) is cls, name

    def test_registered_manager_needs_no_other_edit(self, monkeypatch):
        """The docs/extending.md recipe, executed: declare, register, run."""

        class PairwiseManager(StrongViewManager):
            """Processes its relevant updates at most two at a time."""

            kind = "pairwise"
            level = "strong"

            def select_batch(self):
                return [
                    self._buffer.popleft()
                    for _ in range(min(2, len(self._buffer)))
                ]

        with pytest.raises(ReproError):
            SystemConfig(manager_kind="pairwise")
        monkeypatch.setitem(MANAGERS, PairwiseManager.kind, PairwiseManager)
        config = SystemConfig(manager_kinds={"V2": "pairwise"}, seed=7)
        assert config.manager_levels(("V1", "V2")) == ["complete", "strong"]
        world = paper_world()
        system = WarehouseSystem(world, paper_views_example1(), config)
        assert type(system.view_managers["V2"]) is PairwiseManager
        assert isinstance(system.merge_processes[0].algorithm, PaintingAlgorithm)
        assert system.expected_level() == "strong"
        spec = WorkloadSpec(updates=30, rate=4.0, seed=7, mix=(0.6, 0.2, 0.2))
        post_stream(system, UpdateStreamGenerator(world, spec).transactions())
        system.run()
        assert system.check_mvc("strong").ok
        assert system.view_managers["V2"].action_lists_sent < 30  # it batched


    def test_what_a_manager_needs_is_read_off_its_class(self, monkeypatch):
        """Block markers are declared by the manager class: a kind
        registered under any name gets the integrator's markers that
        ``complete-n`` gets."""

        class BlockwiseManager(CompleteNViewManager):
            kind = "blockwise"

        monkeypatch.setitem(MANAGERS, "blockwise", BlockwiseManager)

        def integrator(**kwargs):
            config = SystemConfig(block_size=4, **kwargs)
            return WarehouseSystem(
                paper_world(), paper_views_example3(), config
            ).integrator

        assert integrator().block_size is None
        for asks in ({"manager_kinds": {"V1": "blockwise"}},
                     {"manager_kind": "complete-n"},
                     {"merge_algorithm": "complete-n",
                      "manager_kind": "complete-n"}):
            assert integrator(**asks).block_size == 4, asks
            assert integrator(**asks).send_empty_rels, asks


class TestRequiredLevel:
    """``MergeAlgorithm.requires_level`` is checked when the system is
    built, not discovered by a MergeError in the middle of the run."""

    @pytest.mark.parametrize(
        "kind,algorithm",
        [
            ("strong", "spa"),
            ("periodic", "spa"),
            ("complete-n", "spa"),
            ("strong", "complete-n"),
            ("convergent", "pa"),
        ],
    )
    def test_manager_below_the_algorithm_is_rejected(self, kind, algorithm):
        config = SystemConfig(
            manager_kinds={"V2": kind}, merge_algorithm=algorithm
        )
        cls = ALGORITHMS[algorithm]
        with pytest.raises(ReproError) as error:
            WarehouseSystem(paper_world(), paper_views_example1(), config)
        for named in ("'V2'", repr(kind), MANAGERS[kind].level,
                      repr(algorithm), cls.requires_level):
            assert named in str(error.value)

    @pytest.mark.parametrize("algorithm", [a for a in ALGORITHMS if a != "auto"])
    def test_naive_managers_run_under_any_algorithm(self, algorithm):
        system = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kind="naive", merge_algorithm=algorithm),
        )
        assert type(system.merge_processes[0].algorithm) is ALGORITHMS[algorithm]

    def test_stronger_managers_are_accepted(self):
        system = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kind="complete", merge_algorithm="passthrough"),
        )
        assert system.expected_level() == "convergent"


class TestAssembly:
    def test_figure1_components(self):
        system = WarehouseSystem(paper_world(), paper_views_example2())
        assert set(system.view_managers) == {"V1", "V2", "V3"}
        assert len(system.merge_processes) == 1
        assert system.merge_processes[0].name == "merge"
        assert system.warehouse.name == "warehouse"
        assert len(system.sources) == 4

    def test_algorithm_selection_auto(self):
        complete = WarehouseSystem(paper_world(), paper_views_example1())
        assert isinstance(
            complete.merge_processes[0].algorithm, SimplePaintingAlgorithm
        )
        strong = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kind="strong"),
        )
        assert isinstance(strong.merge_processes[0].algorithm, PaintingAlgorithm)
        mixed = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kinds={"V2": "convergent"}),
        )
        assert isinstance(mixed.merge_processes[0].algorithm, PassThroughMerge)
        blocks = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kind="complete-n", block_size=3),
        )
        assert isinstance(blocks.merge_processes[0].algorithm, CompleteNMerge)

    def test_explicit_algorithm_override(self):
        system = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(merge_algorithm="pa"),
        )
        assert isinstance(system.merge_processes[0].algorithm, PaintingAlgorithm)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("eager", EagerPolicy),
            ("sequential", SequentialPolicy),
            ("dependency-sequenced", DependencySequencedPolicy),
            ("dbms-dependency", DbmsDependencyPolicy),
            ("batching", BatchingPolicy),
        ],
    )
    def test_policy_selection(self, name, cls):
        system = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(submission_policy=name),
        )
        assert isinstance(system.merge_processes[0].policy, cls)

    def test_distributed_merge_partitioning(self):
        system = WarehouseSystem(
            paper_world(), paper_views_example3(),
            SystemConfig(merge_groups=4),
        )
        names = [m.name for m in system.merge_processes]
        assert names == ["merge0", "merge1"]
        assert system.merge_processes[0].algorithm.views == ("V1", "V2")
        assert system.merge_processes[1].algorithm.views == ("V3",)

    def test_distributed_merges_pick_per_group_algorithms(self):
        """§6.3's weakest-level rule applies per merge group: the group
        with only complete managers keeps SPA while the group containing
        a strong manager gets PA."""
        system = WarehouseSystem(
            paper_world(), paper_views_example3(),
            SystemConfig(
                manager_kind="complete",
                manager_kinds={"V3": "strong"},  # V3 is its own group
                merge_groups=4,
            ),
        )
        algorithms = {
            m.name: type(m.algorithm).__name__ for m in system.merge_processes
        }
        assert algorithms["merge0"] == "SimplePaintingAlgorithm"  # V1,V2
        assert algorithms["merge1"] == "PaintingAlgorithm"  # V3

    def test_views_materialized_at_initial_state(self):
        world = paper_world()  # R={[1,2]}, T={[3,4]}, S=Q empty
        system = WarehouseSystem(world, paper_views_example1())
        assert len(system.store.view("V1")) == 0
        assert len(system.store.view("V2")) == 0

    def test_needs_views(self):
        with pytest.raises(ReproError):
            WarehouseSystem(paper_world(), [])

    def test_post_unknown_source(self):
        from repro.sources.transactions import SourceTransaction

        system = WarehouseSystem(paper_world(), paper_views_example1())
        txn = SourceTransaction.single("ghost", Update.insert("R", {"A": 1, "B": 1}))
        with pytest.raises(ReproError):
            system.post(txn, 1.0)

    def test_expected_level(self):
        complete = WarehouseSystem(paper_world(), paper_views_example1())
        assert complete.expected_level() == "complete"
        strong = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kind="strong"),
        )
        assert strong.expected_level() == "strong"
        batching = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(submission_policy="batching"),
        )
        assert batching.expected_level() == "strong"
        convergent = WarehouseSystem(
            paper_world(), paper_views_example1(),
            SystemConfig(manager_kind="convergent"),
        )
        assert convergent.expected_level() == "convergent"
