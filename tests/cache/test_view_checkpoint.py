"""A view manager's durable state is one record: ``ViewCheckpoint``.

``ViewManager.checkpoint()`` writes every slot, ``ViewManager.restore()``
reads every slot, and a manager restored from its own checkpoint — in
memory or through real store bytes — goes on exactly as one that was
never touched.  Under a view's ref, anything but a ``ViewCheckpoint`` is
a miss: the restart falls back to the crash-time checkpoint.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache.artifacts import PAYLOAD_FORMAT
from repro.cache.keys import artifact_key
from repro.cache.store import CacheConfig
from repro.faults.plan import CrashSpec, FaultPlan
from repro.merge.process import MergeCheckpoint
from repro.relational.parser import parse_view
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig, manager_class
from repro.viewmgr.base import ViewCheckpoint
from repro.workloads.generator import (
    UpdateStreamGenerator,
    WorkloadSpec,
    post_stream,
)
from repro.workloads.schemas import paper_world

KINDS = ("complete", "periodic", "complete-n")


def views():
    """A join with an auxiliary input and a group-by: both plan-aux kinds."""
    return [parse_view("V1 = SELECT * FROM R JOIN S JOIN T"),
            parse_view("V2 = SELECT B, count(*) AS n FROM R JOIN S GROUP BY B")]


def build(kind, fault_plan=None):
    return WarehouseSystem(paper_world(), views(), SystemConfig(
        manager_kind=kind, block_size=3, refresh_period=3.0,
        cache=CacheConfig(), fault_plan=fault_plan,
    ))


def drive(system, updates=30, seed=8):
    spec = WorkloadSpec(updates=updates, rate=3.0, seed=seed,
                        mix=(0.6, 0.2, 0.2))
    post_stream(system, UpdateStreamGenerator(paper_world(), spec).transactions())
    system.run()


def final_views(system):
    store = system.warehouse.store
    return {name: dict(store.view(name).counts_view())
            for name in store.view_names}


def run(kind, round_trip=None):
    """Every action list each manager sends, the final views and the final
    checkpoints; ``round_trip(vm)`` runs after each handled message."""
    with build(kind) as system:
        sent = {name: [] for name in system.view_managers}
        for name, vm in system.view_managers.items():
            def build_lists(covered, delta, vm=vm, log=sent[name]):
                lists = type(vm).build_action_lists(vm, covered, delta)
                log.extend(lists)
                return lists

            vm.build_action_lists = build_lists
            if round_trip is not None:
                def on_handled(message, sender, vm=vm):
                    type(vm).on_handled(vm, message, sender)
                    round_trip(vm)

                vm.on_handled = on_handled
        drive(system)
        assert system.check_mvc("auto"), system.check_mvc("auto").reason
        return sent, final_views(system), {
            name: vm.checkpoint() for name, vm in system.view_managers.items()
        }


def in_memory(vm):
    vm.restore(vm.checkpoint())


def through_store(vm):
    checkpoint = vm.checkpoint()
    vm._checkpoints.publish(checkpoint)
    restored = vm._checkpoints.resolve(ViewCheckpoint)
    assert restored == checkpoint and restored is not checkpoint
    vm.restore(restored)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("round_trip", [in_memory, through_store],
                         ids=["memory", "store"])
def test_restore_of_own_checkpoint_is_invisible(kind, round_trip, monkeypatch):
    extras = []
    cls = manager_class(kind)
    restore_extra = cls.restore_extra_state

    def spy(vm, state):
        extras.append(dict(state))
        restore_extra(vm, state)

    untouched = run(kind)
    monkeypatch.setattr(cls, "restore_extra_state", spy)
    restored = run(kind, round_trip)
    assert all(untouched[0].values())  # every manager sent action lists
    assert restored == untouched
    assert extras
    if kind != "complete":  # the subclass hooks carry the manager's own state
        assert all(extra for extra in extras)


def test_every_slot_is_written_and_read():
    """A checkpoint with no slot at its default restores into a fresh
    manager as itself, and restore reads every slot."""
    found = []

    def watch(vm):
        checkpoint = vm.checkpoint()
        if not found and all(getattr(checkpoint, name)
                             for name in ViewCheckpoint._fields):
            found.append(checkpoint)

    with build("periodic") as system:
        vm = system.view_managers["V1"]

        def on_handled(message, sender):
            type(vm).on_handled(vm, message, sender)
            watch(vm)

        vm.on_handled = on_handled
        drive(system, updates=40)
    assert found, "no checkpoint had every slot set"
    (checkpoint,) = found

    class Reads:
        def __init__(self, record):
            self.record, self.names = record, set()

        def __getattr__(self, name):
            self.names.add(name)
            return getattr(self.record, name)

    with build("periodic") as fresh_system:
        fresh = fresh_system.view_managers["V1"]
        assert fresh.checkpoint() != checkpoint
        reads = Reads(checkpoint)
        fresh.restore(reads)
        assert reads.names == set(ViewCheckpoint._fields)
        assert fresh.checkpoint() == checkpoint


CRASH = FaultPlan(seed=17, crashes=(CrashSpec("vm:V1", at=8.0, restart_after=3.0),))


def parent_shaped(stash):
    """A checkpoint as a plain dict, the way it was stored before it
    became a record."""
    return {"format": PAYLOAD_FORMAT, "kind": "checkpoint", "view": "V1",
            "vv": {}, **{name: getattr(stash, name)
                         for name in ViewCheckpoint._fields}}


def merge_checkpoint(system) -> MergeCheckpoint:
    return system.merge_processes[0]._checkpoint


@pytest.mark.parametrize("plant", [parent_shaped, merge_checkpoint],
                         ids=["dict", "merge-checkpoint"])
def test_other_payloads_under_a_view_ref_are_a_miss(plant):
    def crashed_run(payload=None):
        with build("complete", CRASH) as system:
            vm = system.process_by_name("vm:V1")

            def plant_under_ref():
                store = system.cache_store
                record = payload(vm._stash if payload is parent_shaped else system)
                assert record is not None
                ref = "default/vm/V1"
                assert store.ref(ref) is not None
                store.set_ref(ref, store.put(
                    artifact_key("test", {"ref": ref}), pickle.dumps(record)
                ))

            if payload is not None:  # between the crash (8.0) and restart (11.0)
                system.sim.schedule_at(9.5, plant_under_ref)
            drive(system, updates=25, seed=3)
            verdict = system.check_mvc("complete")
            return (vm.crashes, vm.cache_restores, vm.cache_fallbacks), \
                verdict.ok, final_views(system)

    counts, ok, stores = crashed_run(plant)
    assert counts == (1, 0, 1)
    clean_counts, clean_ok, clean_stores = crashed_run()
    assert clean_counts == (1, 1, 0)
    assert ok and clean_ok
    assert stores == clean_stores
