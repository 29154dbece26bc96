"""Explorer end-to-end: hunts, negative oracles, shrinking, replay."""

import pytest

from repro.conformance.explorer import Explorer, Reproducer, replay
from repro.conformance.oracle import Violation, check_run
from repro.conformance.scenario import SCENARIO_CONFIG, ScenarioSpec
from repro.errors import ReproError
from repro.merge.selection import promise
from repro.sim.scheduler import DelayInjectingScheduler
from repro.workloads.generator import WorkloadSpec


def spec(scheduler="delay", updates=20, **config):
    """A paper-schema scenario of ``updates`` Poisson arrivals at rate 2."""
    return ScenarioSpec(
        workload=WorkloadSpec(
            updates=updates,
            rate=config.pop("rate", 2.0),
            mix=config.pop("mix", (0.6, 0.2, 0.2)),
            multi_update_fraction=config.pop("multi_update_fraction", 0.0),
            arrivals="poisson",
        ),
        config={**SCENARIO_CONFIG, **config},
        scheduler=scheduler,
    )


def naive_spec():
    return spec(updates=12, mix=(0.7, 0.15, 0.15), manager_kind="naive")


class TestOracle:
    def test_effective_levels_weakest_of_manager_and_merge(self):
        system = spec(
            "fifo",
            manager_kinds={"V1": "complete", "V2": "strong", "V3": "convergent"},
        ).build()
        levels, fleet = promise(system)
        # merge "auto" picks the weakest algorithm for the whole group, so
        # even the complete manager's view is capped by the merge level.
        assert levels["V3"] == "convergent"
        assert fleet == system.expected_level() == "convergent"

    def test_naive_fleet_promises_nothing(self):
        system = spec("fifo", manager_kind="naive").build()
        levels, fleet = promise(system)
        assert fleet is None and system.expected_level() is None
        assert set(levels.values()) == {None}

    def test_conformant_run_has_no_violations(self):
        system = spec(
            "fifo", updates=8, manager_kind="complete", merge_algorithm="spa"
        ).build()
        system.run()
        assert check_run(system) == []


class TestNegativeOracle:
    """Satellite: the explorer finds a naive-fleet violation within budget."""

    def test_naive_fleet_caught_within_200_seeds(self):
        explorer = Explorer(naive_spec(), seeds=200, level="strong")
        findings = explorer.explore()
        assert findings, "no violation found in 200 seeds"
        finding = findings[0]
        assert finding.violations
        assert all(isinstance(v, Violation) for v in finding.violations)

    def test_crashes_are_findings(self):
        """A run that raises is reported, not propagated."""
        # High-rate naive workloads double-apply deltas and crash the
        # warehouse; hunt until we see one.
        explorer = Explorer(
            spec(rate=4.0, manager_kind="naive"), seeds=60, level="strong"
        )
        for seed in range(60):
            result = explorer.execute(seed)
            if any(v.level == "execution" for v in result.violations):
                assert result.violations[0].scope == "run"
                return
        pytest.skip("no crashing seed in range (workload drifted)")


class TestShrinkAndReplay:
    def test_shrunk_reproducer_replays_byte_for_byte(self, tmp_path):
        explorer = Explorer(naive_spec(), seeds=200, level="strong")
        finding = explorer.explore()[0]
        reproducer = explorer.shrink(finding)
        # Satellite acceptance: minimal schedules are tiny.
        assert len(reproducer.perturbations) <= 10
        path = reproducer.save(tmp_path / "repro.json")
        loaded = Reproducer.load(path)
        assert loaded.to_dict() == reproducer.to_dict()
        result = replay(loaded)
        assert result.reproduced
        assert result.digest_matches
        assert result.trace_digest == reproducer.trace_sha256

    def test_full_decision_replay_equals_explore_run(self):
        explorer = Explorer(naive_spec(), seeds=200, level="strong")
        finding = explorer.explore()[0]
        again = explorer.execute(
            finding.seed,
            scheduler=DelayInjectingScheduler.replay(finding.perturbations),
        )
        assert again.trace_digest == finding.trace_digest

    def test_reproducer_format_guard(self):
        # an unknown format, and the /1 files whose scenario copied the
        # config field by field
        for fmt in ("something-else/9", "mvc-conformance-repro/1"):
            with pytest.raises(ReproError, match="format"):
                Reproducer.from_dict({"format": fmt})

    def test_time_budget_caps_the_hunt(self):
        explorer = Explorer(
            spec(updates=8, manager_kind="complete", merge_algorithm="spa"),
            seeds=10_000, time_budget=1.5,
        )
        explorer.explore()
        assert explorer.runs_executed < 10_000


class TestPositiveHunts:
    def test_spa_fleet_survives_a_short_hunt(self):
        explorer = Explorer(
            spec(updates=10, multi_update_fraction=0.2,
                 manager_kind="complete", merge_algorithm="spa"),
            seeds=5, stop_on_first=False,
        )
        assert explorer.explore() == []

    def test_pa_fleet_survives_a_short_hunt(self):
        explorer = Explorer(
            spec(updates=10, multi_update_fraction=0.2,
                 manager_kind="strong", merge_algorithm="pa"),
            seeds=5, stop_on_first=False,
        )
        assert explorer.explore() == []
