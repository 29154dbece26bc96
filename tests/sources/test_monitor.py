"""Tests for legacy-source monitoring (snapshot-diff wrappers)."""

import pytest

from repro.errors import SourceError
from repro.messages import UpdateNotification
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sources.monitor import SilentSource, SnapshotDiffMonitor
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.schemas import paper_views_example1, paper_world


class Sink(Process):
    def __init__(self, sim):
        super().__init__(sim, "integrator")
        self.reports = []

    def handle(self, message, sender):
        assert isinstance(message, UpdateNotification)
        self.reports.append((self.sim.now, message.transaction))


@pytest.fixture
def rig():
    sim = Simulator()
    world = SourceWorld()
    world.create_relation("L", Schema(["a"]), "legacy", [Row(a=1)])
    source = SilentSource(sim, "legacy", world)
    sink = Sink(sim)
    monitor = SnapshotDiffMonitor(sim, source, period=10.0, stop_after=100.0)
    monitor.connect(sink, 1.0)
    return sim, world, source, monitor, sink


class TestSilentSource:
    def test_commits_without_reporting(self, rig):
        sim, world, source, _monitor, sink = rig
        sim.schedule(1.0, source.execute_update, Update.insert("L", {"a": 2}))
        sim.run(until=5.0)
        assert world.version == 1
        assert sink.reports == []

    def test_ownership_checks(self, rig):
        _sim, _world, source, _monitor, _sink = rig
        with pytest.raises(SourceError):
            source.execute(
                SourceTransaction.single("other", Update.insert("L", {"a": 9}))
            )

    def test_rejects_unknown_relation(self, rig):
        _sim, world, source, _monitor, _sink = rig
        txn = SourceTransaction.single("legacy", Update.insert("Z", {"a": 9}))
        with pytest.raises(SourceError, match=r"does not own \['Z'\]"):
            source.execute(txn)
        assert world.version == 0


class TestMonitor:
    def test_diff_reported_once_per_poll(self, rig):
        sim, _world, source, monitor, sink = rig
        sim.schedule(1.0, source.execute_update, Update.insert("L", {"a": 2}))
        sim.schedule(2.0, source.execute_update, Update.insert("L", {"a": 3}))
        sim.run()
        # Both changes fall in the first poll interval -> one batch.
        assert len(sink.reports) == 1
        _time, txn = sink.reports[0]
        assert len(txn.updates) == 2
        assert txn.origin == "legacy"

    def test_changes_across_intervals_reported_separately(self, rig):
        sim, _world, source, monitor, sink = rig
        sim.schedule(1.0, source.execute_update, Update.insert("L", {"a": 2}))
        sim.schedule(15.0, source.execute_update, Update.insert("L", {"a": 3}))
        sim.run()
        assert len(sink.reports) == 2

    def test_cancelling_changes_invisible(self, rig):
        """Insert+delete within one interval is never observed."""
        sim, _world, source, monitor, sink = rig
        sim.schedule(1.0, source.execute_update, Update.insert("L", {"a": 9}))
        sim.schedule(2.0, source.execute_update, Update.delete("L", {"a": 9}))
        sim.run()
        assert sink.reports == []

    def test_quiet_polls_report_nothing(self, rig):
        sim, _world, _source, monitor, sink = rig
        sim.run()
        assert monitor.polls == 10  # until stop_after
        assert sink.reports == []

    def test_modify_observed_as_delete_plus_insert(self, rig):
        sim, _world, source, _monitor, sink = rig
        sim.schedule(
            1.0, source.execute_update,
            Update.modify("L", {"a": 1}, {"a": 7}),
        )
        sim.run()
        kinds = sorted(u.kind.value for u in sink.reports[0][1].updates)
        assert kinds == ["delete", "insert"]

    def test_bad_period(self, rig):
        sim, _world, source, _monitor, _sink = rig
        with pytest.raises(SourceError):
            SnapshotDiffMonitor(sim, source, period=0.0)


class TestMonitoredWarehouse:
    def test_monitored_legacy_source_feeds_a_consistent_warehouse(self):
        """End to end: a silent source behind a monitor still yields an
        MVC-complete warehouse w.r.t. the observed (batched) schedule."""
        world = paper_world()
        system = WarehouseSystem(
            world, paper_views_example1(),
            SystemConfig(manager_kind="complete"),
        )
        # Replace S's reporting path: drive S through a silent source and
        # let a monitor observe it.  The silent source shares the real
        # owner's identity (process names are labels; nothing routes to
        # sources), so ownership checks and diffs see S.
        owner = world.owner_of("S")
        silent = SilentSource(system.sim, owner, world)
        monitor = SnapshotDiffMonitor(
            system.sim, silent, period=5.0, stop_after=40.0
        )
        monitor.connect(system.integrator, 1.0)

        system.sim.schedule(
            1.0, silent.execute_update, Update.insert("S", Row(B=2, C=3))
        )
        system.sim.schedule(
            12.0, silent.execute_update, Update.insert("S", Row(B=2, C=4))
        )
        system.run()
        assert monitor.reports == 2
        report = system.check_mvc("complete")
        assert report, report.reason
        assert len(system.store.view("V1")) == 2
