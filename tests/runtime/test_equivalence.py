"""Runtime equivalence: parallel runs end where the DES run ends.

A wall-clock runtime may interleave work differently from the DES
kernel (that's the point), but per-source FIFO and per-process
serialization guarantee every backend drives the base relations through
the same final state — so the final warehouse stores must be
bag-identical, and every real-runtime history must pass the conformance
oracle at the level the configuration advertises.  One table, every
runtime in ``RUNTIMES`` but ``des``: a runtime added there is held to it.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.oracle import check_real_run
from repro.system.builder import WarehouseSystem
from repro.system.config import RUNTIMES, SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import (
    clustered_views,
    clustered_world,
    paper_views_example2,
    paper_world,
)


def final_stores(system: WarehouseSystem) -> dict[str, list[tuple]]:
    state = system.store.history[-1]
    return {
        d.name: sorted(tuple(r.values()) for r in state.view(d.name))
        for d in system.definitions
    }


def run_once(
    runtime: str,
    updates: int,
    seed: int,
    manager: str = "complete",
    merges: int = 1,
    workers: int | None = None,
    clusters: int = 0,
    rate: float = 2.0,
):
    if clusters:
        world, views = clustered_world(clusters), clustered_views(clusters, 3)
    else:
        world, views = paper_world(), paper_views_example2()
    config = SystemConfig(
        manager_kind=manager,
        merge_groups=merges,
        merge_router="hash" if merges > 1 else "coalesce",
        runtime=runtime,
        workers=None if runtime == "des" else workers,
        seed=seed,
        trace_kinds=None,  # the digest covers every kind
    )
    system = WarehouseSystem(world, views, config)
    spec = WorkloadSpec(
        updates=updates, rate=rate, seed=seed, mix=(0.6, 0.2, 0.2),
        arrivals="poisson",
    )
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    report = check_real_run(system)
    stores = final_stores(system)
    system.close()
    return report, stores


#: every runtime that executes for real, each held to the DES result
REAL_RUNTIMES = [name for name in RUNTIMES if name != "des"]

#: scenario -> run_once arguments: paper views (one merge, then complete-N
#: whose trailing block only the end-of-stream flush closes) and clustered
#: views hash-routed over three merges (per-shard ``shard:`` oracle scopes),
#: then the same shape at B0's size (``clustered-36``: 36 views, 630 pairs),
#: which the 40-update one stood in for while the oracle cost 39 s a run
SCENARIOS = {
    "paper": dict(updates=40, seed=7, workers=2),
    "paper-complete-n": dict(
        updates=24, seed=5, manager="complete-n", workers=2
    ),
    "sharded-clustered": dict(
        updates=40, seed=11, merges=3, workers=3, clusters=3
    ),
    "sharded-clustered-b0": dict(
        updates=700, seed=3, merges=4, workers=2, clusters=12, rate=40.0
    ),
}


@pytest.mark.parametrize("runtime", REAL_RUNTIMES)
class TestRuntimeEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_matches_des(self, runtime, scenario):
        des_report, des_stores = run_once("des", **SCENARIOS[scenario])
        real_report, real_stores = run_once(runtime, **SCENARIOS[scenario])
        assert real_stores == des_stores
        assert des_report.ok, [str(v) for v in des_report.violations]
        assert real_report.ok, [str(v) for v in real_report.violations]
        assert real_report.runtime == runtime
        assert real_report.digest  # the history reduced to a pinning digest

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        updates=st.integers(min_value=5, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        manager=st.sampled_from(["complete", "strong", "convergent"]),
        workers=st.sampled_from([1, 2, 4]),
    )
    def test_random_workloads_bag_identical(
        self, runtime, updates, seed, manager, workers
    ):
        des_report, des_stores = run_once("des", updates, seed, manager)
        real_report, real_stores = run_once(
            runtime, updates, seed, manager, workers=workers
        )
        assert real_stores == des_stores
        assert des_report.ok, [str(v) for v in des_report.violations]
        assert real_report.ok, [str(v) for v in real_report.violations]


class TestDesDefaultUnchanged:
    def test_des_remains_bit_for_bit(self):
        # Same config + seed on the DES backend: identical digests.  The
        # golden digests in tests/conformance/test_determinism.py pin the
        # absolute values; this pins that the runtime split kept the DES
        # path on the exact historical code path.
        a, _ = run_once("des", 25, 42)
        b, _ = run_once("des", 25, 42)
        assert a.digest == b.digest
        assert a.runtime == "des"


class TestSourceCommitsUnderThreads:
    def test_200_runs_commit_in_clock_order(self):
        """Sources on different workers commit into one world: each must
        read its clock and commit as one step.  With the interpreter
        switching threads every microsecond, a clock read outside the
        world's commit lock is overtaken within a few dozen runs
        (``SourceError: commit at time ... precedes last commit``)."""
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(200):
                world = paper_world()
                system = WarehouseSystem(
                    world, paper_views_example2(),
                    SystemConfig(runtime="threads", workers=2, seed=seed),
                )
                spec = WorkloadSpec(
                    updates=40, rate=0.2, seed=seed, mix=(0.3, 0.5, 0.2),
                    value_range=40, arrivals="poisson",
                )
                post_stream(
                    system, UpdateStreamGenerator(world, spec).transactions()
                )
                try:
                    system.run()
                finally:
                    system.close()
                times = [committed.commit_time for committed in world.log]
                assert len(times) == 40 and times == sorted(times), seed
        finally:
            sys.setswitchinterval(previous)
