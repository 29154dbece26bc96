"""End-to-end fault recovery: MVC must survive an actively hostile network.

These are the acceptance tests for the fault-injection layer: a full
Figure-1 system run under a :class:`FaultPlan` (message drops, duplicates,
delay spikes, and a merge-process crash/restart) must still satisfy the
paper's multiple-view consistency definitions, because the reliable
channels and merge checkpoints recover exactly the guarantees the paper
assumes.  With ``reliable=False`` the same faults must be *detected* —
either a protocol error or an MVC violation — never silently absorbed.
"""

import pytest

from repro.cache.keys import artifact_key
from repro.cache.store import CacheConfig
from repro.conformance.oracle import check_run
from repro.errors import ReproError
from repro.faults import CrashSpec, FaultPlan
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example1, paper_world


def faulted_system(plan, seed=3, updates=25, cache=False):
    world = paper_world()
    spec = WorkloadSpec(updates=updates, rate=2.0, seed=seed, mix=(0.7, 0.15, 0.15))
    system = WarehouseSystem(
        world, paper_views_example1(),
        SystemConfig(manager_kind="complete", seed=seed, fault_plan=plan,
                     cache=CacheConfig() if cache else None),
    )
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    return system


CRASH_PLAN = FaultPlan(
    seed=17,
    drop_rate=0.02,
    duplicate_rate=0.01,
    delay_spike_rate=0.02,
    delay_spike=8.0,
    crashes=(CrashSpec("merge", at=12.0, restart_after=4.0),),
)


class TestRecovery:
    def test_mvc_preserved_under_drops_and_merge_crash(self):
        """The headline guarantee: >=1% drops plus a merge crash/restart,
        and the run is still MVC-complete."""
        system = faulted_system(CRASH_PLAN)
        system.run()
        merge = system.merge_processes[0]
        assert merge.crashes == 1
        assert merge.restores == 1
        assert merge.checkpoints_taken > 0
        assert system.check_mvc("complete").ok
        assert system.classify() == "complete"

    def test_faults_actually_fired(self):
        """The run above is only meaningful if the network really misbehaved."""
        system = faulted_system(CRASH_PLAN)
        system.run()
        drops = len(system.sim.trace.of_kind("msg_drop"))
        retransmissions = len(system.sim.trace.of_kind("msg_retransmit"))
        assert drops > 0
        assert retransmissions > 0

    def test_deterministic_under_faults(self):
        def run_once():
            system = faulted_system(CRASH_PLAN)
            system.run()
            return system.report(classify=False).to_json()

        assert run_once() == run_once()

    def test_clean_plan_matches_no_plan_semantics(self):
        """A zero-rate reliable plan still runs to a complete state."""
        system = faulted_system(FaultPlan(seed=1))
        system.run()
        assert system.check_mvc("complete").ok

    def test_heavier_faults_still_recover(self):
        plan = FaultPlan(seed=23, drop_rate=0.05, duplicate_rate=0.02,
                         delay_spike_rate=0.03, delay_spike=10.0)
        system = faulted_system(plan, updates=20)
        system.run()
        assert system.check_mvc("complete").ok


class TestUnreliableBaseline:
    def test_raw_lossy_network_breaks_loudly(self):
        """Without the recovery layer the paper's delivery assumptions are
        simply violated: the run must fail loudly (protocol error) or fail
        the MVC check — never pretend to be consistent."""
        plan = FaultPlan(seed=17, drop_rate=0.05, reliable=False)
        system = faulted_system(plan)
        try:
            system.run()
        except ReproError:
            return  # a dropped protocol message tripped an invariant: good
        assert not system.check_mvc("complete").ok

    def test_crash_without_checkpointing_channels_detected(self):
        plan = FaultPlan(
            seed=17, drop_rate=0.03, reliable=False,
            crashes=(CrashSpec("merge", at=12.0, restart_after=4.0),),
        )
        system = faulted_system(plan)
        try:
            system.run()
        except ReproError:
            return
        assert not system.check_mvc("complete").ok


class TestCrashScheduling:
    def test_unknown_process_name_rejected(self):
        from repro.errors import FaultError

        plan = FaultPlan(crashes=(CrashSpec("no-such-process", at=1.0),))
        with pytest.raises(FaultError, match="no-such-process"):
            faulted_system(plan)

    def test_view_manager_crash_recovers(self):
        """Crashing a stateless-ish process (a view manager) also recovers:
        its unacked input is simply retransmitted."""
        plan = FaultPlan(
            seed=5, drop_rate=0.01,
            crashes=(CrashSpec("vm:V1", at=8.0, restart_after=3.0),),
        )
        system = faulted_system(plan, updates=15)
        system.run()
        assert system.process_by_name("vm:V1").crashes == 1
        assert system.check_mvc("complete").ok

    def test_convergent_manager_crashed_before_emit_sends_its_lists_once(self):
        """A cache-backed convergent manager dies between computing a batch
        and emitting it.  The restart re-schedules the checkpointed emit
        and the pre-crash emit event still fires afterwards: the
        stale-epoch guard must drop it, or the deletion and the insertion
        list of the batch reach the merge twice."""

        def drive(crashes=()):
            system = WarehouseSystem(
                paper_world(), paper_views_example1(),
                SystemConfig(manager_kind="convergent", cache=CacheConfig(),
                             fault_plan=FaultPlan(seed=5, crashes=crashes),
                             trace_kinds=None),
            )
            system.post_update(Update.insert("S", {"B": 2, "C": 3}), 1.0)
            # V1 = R JOIN S loses [1,2,3] and gains [1,2,5]: two lists.
            system.post_update(
                Update.modify("S", {"B": 2, "C": 3}, {"B": 2, "C": 5}), 10.0
            )
            system.post_update(Update.insert("S", {"B": 2, "C": 7}), 20.0)
            try:
                system.run()
            finally:
                system.close()
            return system

        clean = drive()
        compute = next(
            event for event in clean.sim.trace.of_kind("vm_compute")
            if event.process == "vm:V1" and event.detail["covered"] == (2,)
        )
        assert compute.detail["delta"] == 2  # one deletion, one insertion
        cost = compute.detail["cost"]
        # Down at the middle of the compute delay, up again before its end.
        crashed = drive(
            (CrashSpec("vm:V1", at=compute.time + cost / 2,
                       restart_after=cost / 4),)
        )
        manager = crashed.process_by_name("vm:V1")
        assert (manager.crashes, manager.cache_restores) == (1, 1)
        assert manager.cache_fallbacks == 0
        untouched = clean.process_by_name("vm:V1")
        assert manager.action_lists_sent == untouched.action_lists_sent == 4
        assert (
            crashed.merge_processes[0].algorithm.als_received
            == clean.merge_processes[0].algorithm.als_received
        )
        assert crashed.check_mvc("convergent").ok
        for view in ("V1", "V2"):
            assert crashed.store.view(view) == clean.store.view(view)


CACHED_CRASH_PLAN = FaultPlan(
    seed=17,
    drop_rate=0.02,
    duplicate_rate=0.01,
    crashes=(
        CrashSpec("vm:V1", at=8.0, restart_after=3.0),
        CrashSpec("merge", at=12.0, restart_after=4.0),
    ),
)


class TestCachedRecovery:
    """Warm restart: crashed processes recover from the artifact store.

    The PR-1 path above replays lost work from retransmitted messages;
    with ``SystemConfig(cache=...)`` the crashed view manager and merge
    process instead restore the nearest published artifact and only
    replay what the artifact did not cover.  Same oracle, different
    recovery channel — and corruption must demote, not break."""

    def test_vm_and_merge_restore_from_artifacts(self):
        system = faulted_system(CACHED_CRASH_PLAN, cache=True)
        try:
            system.run()
            vm = system.process_by_name("vm:V1")
            merge = system.merge_processes[0]
            assert vm.crashes == 1
            assert vm.cache_restores == 1
            assert vm.cache_fallbacks == 0
            assert merge.crashes == 1
            assert merge.cache_restores == 1
            assert len(system.sim.trace.of_kind("cache_restore")) >= 1
            assert system.check_mvc("complete").ok
            assert system.classify() == "complete"
        finally:
            system.close()

    def test_cached_run_matches_uncached_semantics(self):
        def stores(cache):
            system = faulted_system(CACHED_CRASH_PLAN, cache=cache)
            try:
                system.run()
                assert system.check_mvc("complete").ok
                return {
                    name: dict(
                        system.warehouse.store.view(name).counts_view()
                    )
                    for name in system.warehouse.store.view_names
                }
            finally:
                system.close()

        assert stores(cache=True) == stores(cache=False)

    def test_cached_run_is_deterministic(self):
        def run_once():
            system = faulted_system(CACHED_CRASH_PLAN, cache=True)
            try:
                system.run()
                return system.report(classify=False).to_json()
            finally:
                system.close()

        assert run_once() == run_once()

    def test_corrupted_artifacts_fall_back_to_replay(self):
        """Every artifact is corrupted between crash and restart: the
        restore must *detect* the damage (verified reads), fall back to
        the PR-1 replay path, and still converge to MVC-complete."""
        plan = FaultPlan(
            seed=17,
            crashes=(CrashSpec("vm:V1", at=8.0, restart_after=3.0),),
        )
        system = faulted_system(plan, cache=True)

        def corrupt_every_artifact():
            store = system.cache_store
            for key in store.keys():
                path = store._object_path(key)
                raw = bytearray(path.read_bytes())
                raw[-1] ^= 0xFF
                path.write_bytes(bytes(raw))

        # Between the crash (8.0) and the restart (11.0).
        system.sim.schedule_at(9.5, corrupt_every_artifact)
        try:
            system.run()
            vm = system.process_by_name("vm:V1")
            assert vm.crashes == 1
            assert vm.cache_restores == 0
            assert vm.cache_fallbacks == 1
            assert len(system.sim.trace.of_kind("cache_fallback")) == 1
            assert system.cache_store.integrity_failures >= 1
            assert system.check_mvc("complete").ok
        finally:
            system.close()


    @pytest.mark.parametrize("name, planted_at", [("vm:V1", 9.5), ("merge", 14.0)])
    def test_unloadable_artifacts_fall_back(self, name, planted_at):
        """A digest-valid payload this code cannot unpickle (an artifact
        written by other code) is planted under the crashed process's ref
        between its crash and its restart (V1: 8.0-11.0, merge:
        12.0-16.0): the restart counts it as a miss and falls back, a view
        manager to replay, the merge to its in-memory checkpoint, and the
        run still holds the promised level."""
        system = faulted_system(CACHED_CRASH_PLAN, cache=True)
        process = system.process_by_name(name)

        def plant():
            store = system.cache_store
            suffix = "/vm/V1" if name == "vm:V1" else f"/merge/{name}"
            (ref,) = [n for n in store.refs() if n.endswith(suffix)]
            store.set_ref(ref, store.put(artifact_key("test", {"ref": ref}),
                                         b"not a pickle"))

        system.sim.schedule_at(planted_at, plant)
        try:
            system.run()
            assert (process.crashes, process.cache_restores,
                    process.cache_fallbacks) == (1, 0, 1)
            assert system.check_mvc("complete").ok
            assert system.report().verified
        finally:
            system.close()


class TestCrashBetweenRuns:
    """Crash/restart driven directly between two ``run()`` calls, with no
    fault plan: the kernel is idle then, which is when a real deployment
    would observe a dead process, and the full history-level oracle
    judges the result."""

    def _split_system(self, cache, seed=7, updates=24):
        world = paper_world()
        system = WarehouseSystem(
            world, paper_views_example1(),
            SystemConfig(
                manager_kind="complete", seed=seed,
                cache=CacheConfig() if cache else None,
            ),
        )
        spec = WorkloadSpec(updates=updates, rate=2.0, seed=seed,
                            mix=(0.7, 0.15, 0.15))
        stream = list(UpdateStreamGenerator(world, spec).transactions())
        half = len(stream) // 2
        return system, stream[:half], stream[half:]

    @staticmethod
    def _resume(system, stream):
        """Post ``stream`` shifted to start one time unit after the clock
        the first drain left behind."""
        start = stream[0][0] - system.sim.now - 1.0
        post_stream(system, [(time - start, txn) for time, txn in stream])

    @pytest.mark.parametrize("cache", [False, True], ids=["replay", "cached"])
    def test_view_manager_crash_between_runs(self, cache):
        system, first, second = self._split_system(cache)
        try:
            post_stream(system, first)
            system.run()
            vm = system.process_by_name("vm:V1")
            vm.crash()
            vm.restart()
            self._resume(system, second)
            system.run()
            assert vm.crashes == 1
            if cache:
                assert vm.cache_restores == 1
            assert check_run(system) == []
        finally:
            system.close()

    def test_merge_crash_between_runs_with_cache(self):
        system, first, second = self._split_system(cache=True)
        try:
            post_stream(system, first)
            system.run()
            merge = system.merge_processes[0]
            merge.crash()
            merge.restart()
            self._resume(system, second)
            system.run()
            assert merge.crashes == 1
            assert merge.cache_restores == 1
            assert check_run(system) == []
        finally:
            system.close()
