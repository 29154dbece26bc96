"""Crash-recovery properties: warm restart ≡ uninterrupted replay.

The load-bearing claim of ``repro.cache`` is that a maintenance plan
rebuilt from a content-addressed artifact is indistinguishable — delta
for delta, row for row — from one that never crashed.  Hypothesis
drives that claim over random SPJ and aggregate views, random delta
batches (inserts *and* deletes of live rows), and a random crash point:

* the **artifact level** round-trips the replica and the plan's
  auxiliary state through real store bytes (the plain-data shape a view
  checkpoint has: ``(layout, counts)`` per relation plus
  ``export_aux()``, pickled → ``put`` → ``get`` →
  ``MaintenancePlan(..., preload=...)``) at a crash point mid-stream and
  demands bag-identical view deltas, view contents, and replicas after
  the remaining batches;
* the **system level** crashes a live view manager and merge process
  under the DES kernel with the cache enabled and demands the final
  warehouse views match an uncached, uncrashed run of the same
  workload, with MVC-complete intact.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.keys import artifact_key, relation_digest
from repro.cache.store import ArtifactStore, CacheConfig
from repro.faults.plan import CrashSpec, FaultPlan
from repro.relational.columnar import counts_to_rows, layout_of
from repro.relational.database import Database
from repro.relational.delta import Delta
from repro.relational.expressions import (
    Aggregate,
    AggregateSpec,
    BaseRelation,
    Join,
    Project,
    Select,
)
from repro.relational.plan import MaintenancePlan
from repro.relational.predicates import Attr, Comparison, Const
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig, manager_class
from repro.workloads.generator import (
    UpdateStreamGenerator,
    WorkloadSpec,
    post_stream,
)
from repro.workloads.schemas import paper_views_example1, paper_world

# ---------------------------------------------------------------------------
# random views over R(A, B) ⋈ S(B, C)
# ---------------------------------------------------------------------------

SCHEMAS = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}
ATTRS = {"R": ("A", "B"), "S": ("B", "C")}

R, S = BaseRelation("R"), BaseRelation("S")

small_int = st.integers(min_value=0, max_value=4)


def _spj_views():
    return st.one_of(
        st.just(Join(R, S)),
        st.sampled_from(
            [
                Project(("A", "C"), Join(R, S)),
                Project(("B",), Join(R, S)),
                Project(("A",), R),
            ]
        ),
        small_int.map(
            lambda c: Select(Comparison(Attr("B"), "<=", Const(c)), Join(R, S))
        ),
        small_int.map(
            lambda c: Select(Comparison(Attr("A"), ">", Const(c)), R)
        ),
    )


def _aggregate_views():
    return st.sampled_from(
        [
            Aggregate(
                ("B",),
                (
                    AggregateSpec("count", "n"),
                    AggregateSpec("sum", "total_a", "A"),
                ),
                R,
            ),
            Aggregate(
                ("B",),
                (
                    AggregateSpec("count", "n"),
                    AggregateSpec("sum", "total_c", "C"),
                ),
                Join(R, S),
            ),
            Aggregate((), (AggregateSpec("count", "n"),), Join(R, S)),
        ]
    )


views = st.one_of(_spj_views(), _aggregate_views())

# One op: insert a fresh random row, or delete some currently-live row
# (the index is taken modulo the live bag at execution time, so every
# generated delete is valid by construction).
ops = st.lists(
    st.tuples(
        st.sampled_from(("R", "S")),
        st.tuples(small_int, small_int),
        st.booleans(),  # is_delete
        st.integers(min_value=0, max_value=63),  # delete index
    ),
    max_size=24,
)


def _materialize_batches(op_stream, batch_count, initial):
    """Turn the op stream into valid per-batch deltas against ``initial``."""
    live = {name: dict(initial[name]) for name in SCHEMAS}
    batches = [{} for _ in range(batch_count)]
    total = len(op_stream)
    for i, (relation, values, is_delete, index) in enumerate(op_stream):
        row = Row(dict(zip(ATTRS[relation], values)))
        if is_delete:
            candidates = sorted(live[relation], key=repr)
            if not candidates:
                continue
            row = candidates[index % len(candidates)]
            delta = Delta.delete(row)
            live[relation][row] -= 1
            if live[relation][row] == 0:
                del live[relation][row]
        else:
            delta = Delta.insert(row)
            live[relation][row] = live[relation].get(row, 0) + 1
        # Contiguous chunks, not round-robin: a delete must land in the
        # same batch as — or a later batch than — the insert it undoes.
        batch = batches[i * batch_count // total]
        batch[relation] = batch.get(relation, Delta()).combined(delta)
    return [b for b in batches if b]


def _fresh_db(initial):
    db = Database()
    for name, schema in SCHEMAS.items():
        rows = [r for r, c in initial[name].items() for _ in range(c)]
        db.create_relation(name, schema, rows)
    return db


def _apply_view_delta(bag, delta):
    for row, count in delta.counts().items():
        bag[row] = bag.get(row, 0) + count
        if bag[row] == 0:
            del bag[row]


def _replay(expr, initial, batches):
    """Uninterrupted reference run; returns (view bag, replica counts)."""
    db = _fresh_db(initial)
    plan = MaintenancePlan(expr, db)
    bag = {}
    for deltas in batches:
        view_delta = plan.propagate(deltas)
        db.apply_deltas(deltas)
        plan.advance()
        _apply_view_delta(bag, view_delta)
    replica = {
        name: dict(db.relation(name).counts_view()) for name in SCHEMAS
    }
    return bag, replica


def _crash_and_restore(expr, initial, batches, crash_at, store):
    """Apply ``crash_at`` batches, round-trip state through the store as a
    real artifact, rebuild, and finish the stream on the restored plan."""
    db = _fresh_db(initial)
    plan = MaintenancePlan(expr, db)
    bag = {}
    for deltas in batches[:crash_at]:
        view_delta = plan.propagate(deltas)
        db.apply_deltas(deltas)
        plan.advance()
        _apply_view_delta(bag, view_delta)

    # -- crash: everything live is lost except the published artifact ----
    layouts = {name: layout_of(SCHEMAS[name].names) for name in SCHEMAS}
    replica_counts = {
        name: (layouts[name], dict(db.relation(name).columnar().counts_view()))
        for name in SCHEMAS
    }
    key = artifact_key(
        "view-checkpoint",
        {
            "view": "V",
            "expr": str(expr),
            "vv": {
                name: relation_digest(layout, counts)
                for name, (layout, counts) in sorted(replica_counts.items())
            },
        },
    )
    store.put(
        key,
        pickle.dumps({"replica": replica_counts, "aux": plan.export_aux()}),
    )
    del db, plan

    # -- restart: rebuild replica + plan from verified store bytes --------
    decoded = pickle.loads(store.get(key))
    restored = Database()
    for name, (layout, counts) in decoded["replica"].items():
        decoded_bag = counts_to_rows(tuple(layout), counts)
        restored.create_relation(
            name,
            SCHEMAS[name],
            (row for row, c in decoded_bag.items() for _ in range(c)),
        )
    plan = MaintenancePlan(expr, restored, preload=decoded["aux"])
    for deltas in batches[crash_at:]:
        view_delta = plan.propagate(deltas)
        restored.apply_deltas(deltas)
        plan.advance()
        _apply_view_delta(bag, view_delta)
    replica = {
        name: dict(restored.relation(name).counts_view()) for name in SCHEMAS
    }
    return bag, replica


@pytest.fixture(scope="module")
def module_store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("prop-store"))


class TestArtifactLevelRecovery:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        expr=views,
        initial_ops=ops,
        stream=ops,
        batch_count=st.integers(min_value=1, max_value=5),
        crash_fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_restore_is_bag_identical_to_replay(
        self,
        module_store,
        expr,
        initial_ops,
        stream,
        batch_count,
        crash_fraction,
    ):
        initial = {name: {} for name in SCHEMAS}
        for relation, values, _d, _i in initial_ops:
            row = Row(dict(zip(ATTRS[relation], values)))
            initial[relation][row] = initial[relation].get(row, 0) + 1
        batches = _materialize_batches(stream, batch_count, initial)
        crash_at = round(crash_fraction * len(batches))

        expected_bag, expected_replica = _replay(expr, initial, batches)
        restored_bag, restored_replica = _crash_and_restore(
            expr, initial, batches, crash_at, module_store
        )
        assert restored_bag == expected_bag
        assert restored_replica == expected_replica


# ---------------------------------------------------------------------------
# system level: a live crash under the DES kernel
# ---------------------------------------------------------------------------


def _final_views(system):
    return {
        name: dict(system.warehouse.store.view(name).counts_view())
        for name in system.warehouse.store.view_names
    }


def _run_workload(seed, fault_plan=None, cache=False):
    world = paper_world()
    config = SystemConfig(
        manager_kind="complete",
        seed=seed,
        fault_plan=fault_plan,
        cache=CacheConfig() if cache else None,
    )
    system = WarehouseSystem(world, paper_views_example1(), config)
    spec = WorkloadSpec(updates=12, rate=2.0, seed=seed, mix=(0.7, 0.15, 0.15))
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    try:
        system.run()
        report = system.check_mvc("complete")
        return _final_views(system), report
    finally:
        system.close()


class TestSystemLevelRecovery:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        vm_crash=st.floats(min_value=1.0, max_value=7.0),
        merge_crash=st.floats(min_value=1.0, max_value=7.0),
    )
    def test_cached_crash_run_matches_pristine_run(
        self, seed, vm_crash, merge_crash
    ):
        plan = FaultPlan(
            seed=seed,
            crashes=(
                CrashSpec("vm:V1", at=vm_crash, restart_after=1.5),
                CrashSpec("merge", at=merge_crash, restart_after=2.0),
            ),
        )
        crashed_views, crashed_report = _run_workload(
            seed, fault_plan=plan, cache=True
        )
        pristine_views, pristine_report = _run_workload(seed)
        assert crashed_report, crashed_report.reason
        assert pristine_report, pristine_report.reason
        assert crashed_views == pristine_views


class TestSubclassStateRecovery:
    """A periodic and a complete-N manager carry state of their own through
    a checkpoint (``extra_durable_state``) and get it back on a warm
    restart (``restore_extra_state``); the crashed run ends with the store
    of an uncrashed one."""

    @pytest.mark.parametrize("kind, key", [
        ("periodic", "refresh_due"),
        ("complete-n", "closed_through"),
    ])
    def test_warm_restart_restores_the_managers_own_state(
        self, kind, key, monkeypatch
    ):
        restored = []
        cls = manager_class(kind)
        restore = cls.restore_extra_state

        def spy(vm, state):
            restored.append((vm.name, dict(state)))
            restore(vm, state)

        monkeypatch.setattr(cls, "restore_extra_state", spy)

        def run(fault_plan=None, cache=None):
            world = paper_world()
            config = SystemConfig(manager_kind=kind, seed=4, block_size=3,
                                  refresh_period=3.0, fault_plan=fault_plan,
                                  cache=cache)
            with WarehouseSystem(world, paper_views_example1(), config) as system:
                spec = WorkloadSpec(updates=15, rate=2.0, seed=4,
                                    mix=(0.7, 0.15, 0.15))
                post_stream(system, UpdateStreamGenerator(world, spec).transactions())
                system.run()
                assert system.check_mvc("auto"), system.check_mvc("auto").reason
                return system, _final_views(system)

        plan = FaultPlan(seed=4, crashes=(
            CrashSpec("vm:V1", at=4.0, restart_after=1.5),))
        crashed, crashed_views = run(plan, CacheConfig())
        assert crashed.view_managers["V1"].cache_restores == 1
        assert [name for name, _ in restored] == ["vm:V1"]
        assert set(restored[0][1]) == {key}
        _, pristine_views = run()
        assert crashed_views == pristine_views
