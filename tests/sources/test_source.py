"""Tests for source processes and the global coordinator."""

import pytest

from repro.errors import SourceError
from repro.messages import UpdateNotification
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sources.multisource import GlobalTransactionCoordinator
from repro.sources.source import Source
from repro.sources.transactions import SourceTransaction
from repro.sources.update import Update
from repro.sources.world import SourceWorld


class FakeIntegrator(Process):
    def __init__(self, sim):
        super().__init__(sim, "integrator")
        self.notifications = []

    def handle(self, message, sender):
        self.notifications.append((self.sim.now, message, sender.name))


@pytest.fixture
def setup():
    sim = Simulator()
    world = SourceWorld()
    world.create_relation("R", Schema(["a"]), "alpha")
    world.create_relation("S", Schema(["b"]), "beta")
    integrator = FakeIntegrator(sim)
    alpha = Source(sim, "alpha", world)
    alpha.connect(integrator, 1.0)
    return sim, world, integrator, alpha


class TestSource:
    def test_execute_commits_and_reports(self, setup):
        sim, world, integrator, alpha = setup
        sim.schedule(2.0, alpha.execute_update, Update.insert("R", {"a": 1}))
        sim.run()
        assert len(world.current.relation("R")) == 1
        assert len(integrator.notifications) == 1
        time, message, sender = integrator.notifications[0]
        assert isinstance(message, UpdateNotification)
        assert time == 3.0  # commit at 2.0 + channel latency 1.0
        assert message.commit_time == 2.0

    def test_rejects_foreign_origin(self, setup):
        _sim, _world, _integrator, alpha = setup
        txn = SourceTransaction.single("beta", Update.insert("S", {"b": 1}))
        with pytest.raises(SourceError, match="beta"):
            alpha.execute(txn)

    def test_rejects_foreign_relation(self, setup):
        _sim, _world, _integrator, alpha = setup
        txn = SourceTransaction.single("alpha", Update.insert("S", {"b": 1}))
        with pytest.raises(SourceError, match="does not own"):
            alpha.execute(txn)

    def test_rejects_unknown_relation(self, setup):
        _sim, world, _integrator, alpha = setup
        txn = SourceTransaction.single("alpha", Update.insert("Z", {"b": 1}))
        with pytest.raises(SourceError, match=r"does not own relations \['Z'\]"):
            alpha.execute(txn)
        assert world.version == 0

    def test_reports_in_commit_order(self, setup):
        sim, _world, integrator, alpha = setup
        for i in range(5):
            sim.schedule(float(i + 1), alpha.execute_update, Update.insert("R", {"a": i}))
        sim.run()
        rows = [
            m.transaction.updates[0].row["a"]
            for _t, m, _s in integrator.notifications
        ]
        assert rows == [0, 1, 2, 3, 4]

    def test_sources_do_not_receive_messages(self, setup):
        sim, _world, _integrator, alpha = setup
        other = FakeIntegrator(sim)
        other.connect(alpha, 0.0)
        sim.schedule(0.0, other.send, "alpha", "bogus")
        with pytest.raises(SourceError):
            sim.run()


class TestCoordinator:
    def test_multi_source_transaction(self, setup):
        sim, world, integrator, _alpha = setup
        coordinator = GlobalTransactionCoordinator(sim, world)
        coordinator.connect(integrator, 1.0)
        sim.schedule(
            1.0,
            coordinator.execute,
            (Update.insert("R", {"a": 1}), Update.insert("S", {"b": 2})),
        )
        sim.run()
        assert len(world.current.relation("R")) == 1
        assert len(world.current.relation("S")) == 1
        assert len(integrator.notifications) == 1
        message = integrator.notifications[0][1]
        assert message.transaction.relations == frozenset({"R", "S"})
