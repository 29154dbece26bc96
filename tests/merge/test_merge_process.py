"""Tests for the simulated merge process wrapper."""

import pytest

from repro.errors import MergeError
from repro.merge.process import MergeProcess
from repro.merge.spa import SimplePaintingAlgorithm
from repro.merge.submission import SequentialPolicy
from repro.messages import (
    ActionListMessage,
    CommitNotification,
    RelMessage,
    WarehouseTransactionMsg,
)
from repro.sim.kernel import Simulator
from repro.sim.process import Process

from tests.conftest import make_al


class FakeWarehouse(Process):
    def __init__(self, sim):
        super().__init__(sim, "warehouse")
        self.received = []

    def handle(self, message, sender):
        assert isinstance(message, WarehouseTransactionMsg)
        self.received.append(message)


class Driver(Process):
    def __init__(self, sim):
        super().__init__(sim, "driver")

    def handle(self, message, sender):
        pass


@pytest.fixture
def rig():
    sim = Simulator()
    warehouse = FakeWarehouse(sim)
    merge = MergeProcess(
        sim,
        SimplePaintingAlgorithm(("V1",)),
        name="merge",
        policy=SequentialPolicy(),
    )
    merge.connect(warehouse, 1.0)
    driver = Driver(sim)
    driver.connect(merge, 0.0)
    return sim, warehouse, merge, driver


class TestMergeProcess:
    def test_ready_unit_becomes_numbered_txn(self, rig):
        sim, warehouse, merge, driver = rig
        sim.schedule(0.0, driver.send, "merge", RelMessage(1, frozenset({"V1"})))
        sim.schedule(
            0.1, driver.send, "merge", ActionListMessage(make_al("V1", [1]))
        )
        sim.run()
        assert len(warehouse.received) == 1
        txn = warehouse.received[0].txn
        assert txn.txn_id == 1
        assert txn.covered_rows == (1,)
        assert txn.merge_name == "merge"

    def test_commit_notification_reaches_policy(self, rig):
        sim, warehouse, merge, driver = rig
        for row in (1, 2):
            sim.schedule(0.0, driver.send, "merge", RelMessage(row, frozenset({"V1"})))
        sim.schedule(0.1, driver.send, "merge", ActionListMessage(make_al("V1", [1])))
        sim.schedule(0.2, driver.send, "merge", ActionListMessage(make_al("V1", [2])))
        sim.run()
        assert len(warehouse.received) == 1  # sequential: 2nd waits
        sim.schedule(0.0, driver.send, "merge", CommitNotification(1, sim.now))
        sim.run()
        assert len(warehouse.received) == 2

    def test_txn_id_stride_for_distributed_merges(self):
        sim = Simulator()
        warehouse = FakeWarehouse(sim)
        merge = MergeProcess(
            sim,
            SimplePaintingAlgorithm(("V1",)),
            name="merge1",
            txn_id_start=2,
            txn_id_step=3,
        )
        merge.connect(warehouse, 0.0)
        assert merge._allocate_txn_id() == 2
        assert merge._allocate_txn_id() == 5

    def test_unknown_message_rejected(self, rig):
        sim, _warehouse, merge, driver = rig
        sim.schedule(0.0, driver.send, "merge", "garbage")
        with pytest.raises(MergeError):
            sim.run()

    def test_per_message_cost_delays_handling(self):
        sim = Simulator()
        warehouse = FakeWarehouse(sim)
        merge = MergeProcess(
            sim,
            SimplePaintingAlgorithm(("V1",)),
            name="merge",
            per_message_cost=5.0,
        )
        merge.connect(warehouse, 0.0)
        driver = Driver(sim)
        driver.connect(merge, 0.0)
        sim.schedule(0.0, driver.send, "merge", RelMessage(1, frozenset({"V1"})))
        sim.schedule(0.0, driver.send, "merge", ActionListMessage(make_al("V1", [1])))
        sim.run()
        # Two messages at 5.0 each -> txn submitted at t=10, delivered t=10.
        assert sim.now >= 10.0
        assert merge.busy_time == 10.0

    def test_vut_size_traced(self, rig):
        sim, _warehouse, merge, driver = rig
        sim.schedule(0.0, driver.send, "merge", RelMessage(1, frozenset({"V1"})))
        sim.run()
        samples = sim.metrics.get("merge_vut_size", merge="merge").samples
        assert samples and samples[-1] == (0.0, 1)
        assert not sim.trace.of_kind("vut_size")  # the gauge keeps the series

    def test_flush_releases_algorithm_and_policy_holdings(self):
        """flush() drains complete-N trailing blocks AND batched policies."""
        from repro.merge.complete_n import CompleteNMerge
        from repro.merge.submission import BatchingPolicy

        sim = Simulator()
        warehouse = FakeWarehouse(sim)
        merge = MergeProcess(
            sim,
            CompleteNMerge(("V1",), n=4),
            name="merge",
            policy=BatchingPolicy(batch_size=10),
        )
        merge.connect(warehouse, 0.0)
        driver = Driver(sim)
        driver.connect(merge, 0.0)
        # Two updates: block [1..4] never closes, batch of 10 never fills.
        for row in (1, 2):
            sim.schedule(0.0, driver.send, "merge", RelMessage(row, frozenset({"V1"})))
            sim.schedule(
                0.1, driver.send, "merge",
                ActionListMessage(make_al("V1", [row])),
            )
        sim.run()
        assert warehouse.received == []
        merge.flush()
        sim.run()
        assert len(warehouse.received) == 1
        assert warehouse.received[0].txn.covered_rows == (1, 2)
        assert merge.idle()

    def test_idle(self, rig):
        sim, _warehouse, merge, driver = rig
        assert merge.idle()
        sim.schedule(0.0, driver.send, "merge", RelMessage(1, frozenset({"V1"})))
        sim.run()
        assert not merge.idle()


class TestCheckpointRecovery:
    """Crash/restart with checkpoints + reliable channels loses nothing."""

    @staticmethod
    def build(sim, crash_at=None, restart_after=3.0):
        from repro.merge.submission import EagerPolicy
        from repro.sim.network import ReliableChannel

        warehouse = FakeWarehouse(sim)
        merge = MergeProcess(
            sim,
            SimplePaintingAlgorithm(("V1",)),
            name="merge",
            policy=EagerPolicy(),
            per_message_cost=0.2,
            checkpointing=True,
        )
        merge.attach(ReliableChannel(sim, merge, warehouse, latency=1.0))
        driver = Driver(sim)
        driver.attach(ReliableChannel(sim, driver, merge, latency=0.5))
        for row in range(1, 6):
            sim.schedule(float(row), driver.send, "merge",
                         RelMessage(row, frozenset({"V1"})))
            sim.schedule(float(row) + 0.25, driver.send, "merge",
                         ActionListMessage(make_al("V1", [row])))
        if crash_at is not None:
            sim.schedule_at(crash_at, merge.crash)
            sim.schedule_at(crash_at + restart_after, merge.restart)
        return warehouse, merge, driver

    def test_checkpoints_taken_per_handled_message(self):
        sim = Simulator()
        warehouse, merge, _driver = self.build(sim)
        sim.run()
        assert merge.checkpoints_taken == merge.messages_handled
        assert merge.checkpoints_taken > 0

    def test_crash_mid_stream_loses_no_transactions(self):
        clean_sim = Simulator()
        clean_wh, _m, _d = self.build(clean_sim)
        clean_sim.run()

        crashed_sim = Simulator()
        crashed_wh, merge, _d = self.build(crashed_sim, crash_at=3.1)
        crashed_sim.run()

        assert merge.crashes == 1 and merge.restores == 1
        summary = [
            (m.txn.txn_id, m.txn.covered_rows) for m in crashed_wh.received
        ]
        clean_summary = [
            (m.txn.txn_id, m.txn.covered_rows) for m in clean_wh.received
        ]
        assert summary == clean_summary  # same txns, same ids, no dup/loss
        assert len(summary) == 5

    def test_restart_without_checkpoint_stays_pristine(self):
        sim = Simulator()
        merge = MergeProcess(
            sim, SimplePaintingAlgorithm(("V1",)), name="merge",
        )
        merge.crash()
        merge.restart()  # no checkpoint ever taken: must not blow up
        assert merge.restores == 0

    def test_checkpoint_is_isolated_from_live_state(self):
        """Mutating the live algorithm after a checkpoint must not leak into
        the snapshot (deepcopy, not aliasing)."""
        sim = Simulator()
        merge = MergeProcess(
            sim, SimplePaintingAlgorithm(("V1",)), name="merge",
            checkpointing=True,
        )
        checkpoint = merge.take_checkpoint()
        merge.algorithm.receive_rel(1, frozenset({"V1"}))
        assert len(merge.algorithm.vut) == 1
        assert len(checkpoint.algorithm.vut) == 0
        # And the policy is rebound to the live process after the deepcopy.
        assert merge.policy._submit is not None
