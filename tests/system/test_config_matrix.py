"""The promise matrix: every (manager kind x safe policy) combination
must verify the MVC level the configuration promises.

This is the compact end-to-end contract of the whole library: whatever
knobs a user turns (within the safe set), `expected_level()` states the
guarantee and the run delivers it.  The full grid at the end drops "within
the safe set": every registered name combination is either refused when
it is constructed or keeps its promise.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.oracle import check_run
from repro.errors import ReproError
from repro.merge.selection import ALGORITHMS, at_least
from repro.merge.submission import POLICIES
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.viewmgr import MANAGERS
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    paper_views_example2,
    paper_views_example3,
    paper_world,
)

KINDS = ("complete", "strong", "complete-n", "periodic", "convergent")
SAFE_POLICIES = (
    "sequential",
    "dependency-sequenced",
    "dbms-dependency",
    "batching",
)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("policy", SAFE_POLICIES)
def test_promise_matrix(kind, policy):
    world = paper_world()
    spec = WorkloadSpec(updates=25, rate=2.0, seed=13,
                        mix=(0.6, 0.2, 0.2), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world,
        paper_views_example2(),
        SystemConfig(
            manager_kind=kind,
            submission_policy=policy,
            block_size=4,
            refresh_period=15.0,
            seed=13,
            trace_kinds=frozenset(),
        ),
    )
    post_stream(system, stream)
    system.run()
    promised = system.expected_level()
    report = system.check_mvc(promised)
    assert report, (
        f"{kind} managers under the {policy} policy promised "
        f"{promised} but failed: {report.reason}"
    )


@given(
    kind=st.sampled_from(KINDS),
    policy=st.sampled_from(SAFE_POLICIES),
    mode=st.sampled_from(["cached", "snapshot", "compensate"]),
    groups=st.sampled_from([1, 4]),
    filtering=st.booleans(),
    executors=st.sampled_from([1, 3]),
    seed=st.integers(min_value=0, max_value=5_000),
)
@settings(max_examples=30, deadline=None)
def test_randomized_safe_configurations_meet_their_promise(
    kind, policy, mode, groups, filtering, executors, seed
):
    """The capstone property: ANY safe configuration delivers its promise."""
    if kind in ("periodic", "convergent"):
        mode = "cached"  # these managers recompute/derive locally
    world = paper_world()
    spec = WorkloadSpec(updates=15, rate=2.0, seed=seed,
                        mix=(0.6, 0.2, 0.2), arrivals="poisson")
    stream = UpdateStreamGenerator(world, spec).transactions()
    system = WarehouseSystem(
        world,
        paper_views_example3(),
        SystemConfig(
            manager_kind=kind,
            submission_policy=policy,
            manager_mode=mode,
            merge_groups=groups,
            use_selection_filtering=filtering,
            warehouse_executors=executors,
            block_size=3,
            refresh_period=12.0,
            seed=seed,
            trace_kinds=frozenset(),
        ),
    )
    post_stream(system, stream)
    system.run()
    # Per view, pairwise, per shard and fleet-wide: one replay decides all.
    violations = check_run(system)
    assert violations == [], (
        f"kind={kind} policy={policy} mode={mode} groups={groups} "
        f"filtering={filtering} executors={executors} seed={seed}: "
        f"promised {system.expected_level()}, got: "
        f"{[str(v) for v in violations]}"
    )


@pytest.mark.parametrize("algorithm", list(ALGORITHMS))
@pytest.mark.parametrize("kind", list(MANAGERS))
def test_full_grid_is_refused_or_keeps_its_promise(kind, algorithm):
    """Every registered kind x algorithm x policy x merge_groups in {1, 4}.

    A configuration is refused with a ``ReproError`` when it is constructed
    exactly when its managers' level is below what the algorithm requires;
    every other one drains 40 updates without an exception and keeps every
    promise the oracle reads off it (per view, pairwise, per shard, fleet).
    A naive fleet promises nothing: its drain is the anomaly demo and may
    end at a refused warehouse transaction or an inconsistent warehouse,
    but it ends.
    """
    level = MANAGERS[kind].level
    algorithm_cls = ALGORITHMS[algorithm]
    refused = (
        algorithm_cls is not None
        and level != "broken"
        and not at_least(level, algorithm_cls.requires_level)
    )
    for policy, groups in itertools.product(POLICIES, (1, 4)):
        where = f"{kind} / {algorithm} / {policy} / merge_groups={groups}"
        world = paper_world()
        try:
            system = WarehouseSystem(
                world,
                paper_views_example3(),
                SystemConfig(
                    manager_kind=kind,
                    merge_algorithm=algorithm,
                    submission_policy=policy,
                    merge_groups=groups,
                    refresh_period=12.0,
                    seed=13,
                    trace_kinds=frozenset(),
                ),
            )
        except ReproError:
            assert refused, f"{where}: refused"
            continue
        assert not refused, f"{where}: accepted"
        spec = WorkloadSpec(updates=40, rate=2.0, seed=13,
                            mix=(0.6, 0.2, 0.2), arrivals="poisson")
        post_stream(system, UpdateStreamGenerator(world, spec).transactions())
        system.run()
        promised = system.expected_level()
        assert (promised is None) == (level == "broken"), where
        violations = check_run(system)
        assert violations == [], (
            f"{where}: promised {promised}, got: {[str(v) for v in violations]}"
        )
