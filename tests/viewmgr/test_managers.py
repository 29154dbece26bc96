"""Behavioural tests for the view-manager classes."""

import pytest

from repro import messages
from repro.errors import ViewManagerError
from repro.integrator.basedata import BaseDataService
from repro.messages import ActionListMessage, NumberedUpdate, UpdateForView
from repro.relational.algebra import evaluate
from repro.relational.database import Database
from repro.relational.parser import parse_view
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sources.update import Update
from repro.viewmgr.complete import CompleteViewManager
from repro.viewmgr.complete_n import CompleteNViewManager, EndOfBlock
from repro.viewmgr.convergent import ConvergentViewManager
from repro.viewmgr.naive import NaiveViewManager
from repro.viewmgr.periodic import PeriodicRefreshManager
from repro.viewmgr.strong import StrongViewManager

SCHEMAS = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}
VIEW = parse_view("V = SELECT * FROM R JOIN S")


class MergeSink(Process):
    def __init__(self, sim):
        super().__init__(sim, "merge")
        self.lists = []

    def handle(self, message, sender):
        assert isinstance(message, ActionListMessage)
        self.lists.append((self.sim.now, message.action_list))


def initial_db() -> Database:
    db = Database()
    db.create_relation("R", SCHEMAS["R"], [Row(A=1, B=2)])
    db.create_relation("S", SCHEMAS["S"])
    return db


def rig(manager_cls, sim=None, mode="cached", **kwargs):
    sim = sim or Simulator()
    merge = MergeSink(sim)
    manager = manager_cls(sim, VIEW, SCHEMAS, mode=mode, **kwargs) \
        if mode is not None else manager_cls(sim, VIEW, SCHEMAS, **kwargs)
    manager.connect(merge, 1.0)
    service = BaseDataService(sim)
    service.seed(initial_db(), SCHEMAS)
    manager.connect(service, 1.0)
    service.connect(manager, 1.0)
    if mode == "cached":
        manager.seed_replica(initial_db())
    driver = MergeSink(sim)  # reused as a dumb sender
    driver.name = "driver"
    driver.connect(manager, 0.0)
    driver.connect(service, 0.0)
    return sim, manager, merge, service, driver


def send_update(sim, driver, manager, update_id, update, at=0.0, feed_service=True):
    if feed_service:
        sim.schedule(at, driver.send, "basedata", NumberedUpdate(update_id, (update,)))
    sim.schedule(
        at, driver.send, manager.name, UpdateForView(update_id, "V", (update,))
    )


class TestCompleteManager:
    def test_one_action_list_per_update(self):
        sim, manager, merge, _service, driver = rig(CompleteViewManager)
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 3}))
        send_update(sim, driver, manager, 2, Update.insert("S", {"B": 2, "C": 4}), at=0.1)
        sim.run()
        assert [al.covered for _t, al in merge.lists] == [(1,), (2,)]

    def test_delta_content_correct(self):
        sim, manager, merge, _service, driver = rig(CompleteViewManager)
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 3}))
        sim.run()
        al = merge.lists[0][1]
        assert al.net_delta().counts() == {Row(A=1, B=2, C=3): 1}

    def test_empty_delta_still_sent(self):
        sim, manager, merge, _service, driver = rig(CompleteViewManager)
        # B=99 joins nothing in R.
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 99, "C": 3}))
        sim.run()
        assert merge.lists[0][1].is_empty

    def test_replica_advances(self):
        sim, manager, merge, _service, driver = rig(CompleteViewManager)
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 3}))
        send_update(sim, driver, manager, 2, Update.delete("S", {"B": 2, "C": 3}), at=0.1)
        sim.run()
        deltas = [al.net_delta() for _t, al in merge.lists]
        assert deltas[0].counts() == {Row(A=1, B=2, C=3): 1}
        assert deltas[1].counts() == {Row(A=1, B=2, C=3): -1}

    def test_unseeded_cached_mode_raises(self):
        sim = Simulator()
        merge = MergeSink(sim)
        manager = CompleteViewManager(sim, VIEW, SCHEMAS, mode="cached")
        manager.connect(merge, 0.0)
        driver = MergeSink(sim)
        driver.name = "driver"
        driver.connect(manager, 0.0)
        sim.schedule(
            0.0, driver.send, manager.name,
            UpdateForView(1, "V", (Update.insert("S", {"B": 1, "C": 1}),)),
        )
        with pytest.raises(ViewManagerError, match="seed_replica"):
            sim.run()

    def test_wrong_view_rejected(self):
        sim, manager, _merge, _service, driver = rig(CompleteViewManager)
        sim.schedule(
            0.0, driver.send, manager.name,
            UpdateForView(1, "Other", (Update.insert("S", {"B": 1, "C": 1}),)),
        )
        with pytest.raises(ViewManagerError):
            sim.run()

    def test_snapshot_mode_round_trip(self):
        sim, manager, merge, service, driver = rig(
            CompleteViewManager, mode="snapshot"
        )
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 3}))
        sim.run()
        assert merge.lists[0][1].net_delta().counts() == {Row(A=1, B=2, C=3): 1}
        assert service.queries_answered >= 1

    def test_invalid_mode_rejected(self):
        sim = Simulator()
        with pytest.raises(ViewManagerError):
            CompleteViewManager(sim, VIEW, SCHEMAS, mode="telepathy")


class TestStrongManager:
    def test_batches_backlog(self):
        # Slow compute: updates pile up while the first is processed.
        sim, manager, merge, _service, driver = rig(
            StrongViewManager, compute_cost=(10.0, 0.0, 0.0)
        )
        for i in range(4):
            send_update(
                sim, driver, manager, i + 1,
                Update.insert("S", {"B": 2, "C": i}), at=float(i) * 0.5,
            )
        sim.run()
        covered = [al.covered for _t, al in merge.lists]
        assert covered[0] == (1,)
        assert covered[1] == (2, 3, 4)  # everything queued went in one batch

    def test_compensate_mode_reconstructs_pre_state(self):
        """The current-state read is rolled back to the batch start."""
        sim, manager, merge, service, driver = rig(
            StrongViewManager, mode="compensate"
        )
        # Feed the service two updates but route only the first to the
        # manager *initially* — the second is a later, intertwined update
        # the compensation must subtract from the current state.
        first = Update.insert("S", {"B": 2, "C": 3})
        second = Update.insert("S", {"B": 2, "C": 4})
        sim.schedule(0.0, driver.send, "basedata", NumberedUpdate(1, (first,)))
        sim.schedule(0.0, driver.send, "basedata", NumberedUpdate(2, (second,)))
        sim.schedule(5.0, driver.send, manager.name, UpdateForView(1, "V", (first,)))
        sim.schedule(20.0, driver.send, manager.name, UpdateForView(2, "V", (second,)))
        sim.run()
        deltas = [al.net_delta().counts() for _t, al in merge.lists]
        assert deltas[0] == {Row(A=1, B=2, C=3): 1}
        assert deltas[1] == {Row(A=1, B=2, C=4): 1}


class TestNaiveManager:
    def test_naive_double_counts_intertwined_update(self):
        """The Problem-3 anomaly: reading a too-new state corrupts the delta."""
        sim = Simulator()
        merge = MergeSink(sim)
        manager = NaiveViewManager(sim, VIEW, SCHEMAS)
        manager.connect(merge, 1.0)
        service = BaseDataService(sim)
        service.seed(initial_db(), SCHEMAS)
        manager.connect(service, 1.0)
        service.connect(manager, 1.0)
        driver = MergeSink(sim)
        driver.name = "driver"
        driver.connect(manager, 0.0)
        driver.connect(service, 0.0)
        # Exactly the paper's Example-1 dilemma: while computing U1's join
        # of the new S tuple with R, "if R is updated before we read it, we
        # may get fewer or more tuples than what we wanted."  U2's R row is
        # already visible when the manager reads base data for U1.
        u1 = Update.insert("S", {"B": 2, "C": 3})
        u2 = Update.insert("R", {"A": 7, "B": 2})
        sim.schedule(0.0, driver.send, "basedata", NumberedUpdate(1, (u1,)))
        sim.schedule(0.0, driver.send, "basedata", NumberedUpdate(2, (u2,)))
        sim.schedule(0.0, driver.send, manager.name, UpdateForView(1, "V", (u1,)))
        sim.schedule(9.0, driver.send, manager.name, UpdateForView(2, "V", (u2,)))
        sim.run()
        first_delta = merge.lists[0][1].net_delta().counts()
        # Correct delta for U1 alone is {(1,2,3): +1}; the naive read also
        # joined U2's too-new R row.
        assert first_delta == {Row(A=1, B=2, C=3): 1, Row(A=7, B=2, C=3): 1}
        # And U2's own delta repeats the pair: the view double-counts, so
        # the naive manager is not even convergent.
        second_delta = merge.lists[1][1].net_delta().counts()
        assert second_delta.get(Row(A=7, B=2, C=3)) == 1


class TestCompleteNManager:
    def test_flushes_at_block_boundaries(self):
        sim, manager, merge, _service, driver = rig(
            CompleteNViewManager, n=2
        )
        for i in range(4):
            send_update(
                sim, driver, manager, i + 1,
                Update.insert("S", {"B": 2, "C": i}), at=float(i),
            )
            if (i + 1) % 2 == 0:
                block = (i + 1) // 2
                sim.schedule(
                    float(i) + 0.5, driver.send, manager.name,
                    EndOfBlock(block, i + 1),
                )
        sim.run()
        assert [al.covered for _t, al in merge.lists] == [(1, 2), (3, 4)]

    def test_waits_for_block_close(self):
        sim, manager, merge, _service, driver = rig(CompleteNViewManager, n=3)
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 1}))
        sim.run()
        assert merge.lists == []  # block 1 never closed

    def test_bad_n(self):
        sim = Simulator()
        with pytest.raises(ViewManagerError):
            CompleteNViewManager(sim, VIEW, SCHEMAS, n=0)

    def test_a_block_marker_is_told_by_its_class_not_its_name(self):
        """Every manager is sent the markers and all but complete-N ignore
        them; a message of another class that happens to be called
        ``EndOfBlock`` is as unknown as any."""
        assert EndOfBlock is messages.EndOfBlock
        look_alike = type("EndOfBlock", (), {})()
        sim, manager, merge, _service, driver = rig(StrongViewManager)
        sim.schedule(0.0, driver.send, manager.name, EndOfBlock(1, 2))
        sim.run()
        assert merge.lists == [] and manager.idle()
        sim.schedule(1.0, driver.send, manager.name, look_alike)
        with pytest.raises(ViewManagerError, match="cannot handle EndOfBlock"):
            sim.run()


class TestPeriodicManager:
    def test_refresh_replaces_view(self):
        sim, manager, merge, _service, driver = rig(
            PeriodicRefreshManager, mode=None, period=10.0
        )
        manager.seed_replica(initial_db())
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 3}))
        sim.run()
        time, al = merge.lists[0]
        assert time >= 10.0
        assert al.actions[0].kind.value == "replace"
        assert al.actions[0].replacement.counts_view() == {Row(A=1, B=2, C=3): 1}

    def test_every_refresh_ships_the_recompute_oracle(self):
        sim, manager, merge, _service, driver = rig(
            PeriodicRefreshManager, mode=None, period=10.0
        )
        manager.seed_replica(initial_db())
        updates = [
            (0.0, Update.insert("S", {"B": 2, "C": 3})),
            (3.0, Update.insert("S", {"B": 2, "C": 3})),  # a duplicate row
            (12.0, Update.insert("R", {"A": 5, "B": 2})),
            (14.0, Update.delete("S", {"B": 2, "C": 3})),
            (31.0, Update.delete("R", {"A": 1, "B": 2})),
            (47.0, Update.delete("S", {"B": 2, "C": 3})),  # empties the view
        ]
        for update_id, (at, update) in enumerate(updates, start=1):
            send_update(sim, driver, manager, update_id, update, at=at)
        sim.run()
        assert manager.refreshes == len(merge.lists) >= 3
        assert merge.lists[-1][1].covered[-1] == len(updates)
        for _time, action_list in merge.lists:
            truth = initial_db()
            for _at, update in updates[: action_list.covered[-1]]:
                update.as_delta().apply_to(truth.relation(update.relation))
            expected = evaluate(VIEW.expression, truth)
            (action,) = action_list.actions
            assert action.kind.value == "replace"
            assert action.replacement == expected

    def test_quiet_period_ships_nothing(self):
        sim, manager, merge, _service, _driver = rig(
            PeriodicRefreshManager, mode=None, period=5.0
        )
        manager.seed_replica(initial_db())
        sim.run(until=50.0)
        assert merge.lists == []

    def test_bad_period(self):
        sim = Simulator()
        with pytest.raises(ViewManagerError):
            PeriodicRefreshManager(sim, VIEW, SCHEMAS, period=0.0)


class TestConvergentManager:
    def test_splits_modify_into_two_lists(self):
        sim, manager, merge, _service, driver = rig(ConvergentViewManager)
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 2, "C": 3}))
        send_update(
            sim, driver, manager, 2,
            Update.modify("S", {"B": 2, "C": 3}, {"B": 2, "C": 4}), at=1.0,
        )
        sim.run()
        lists = [al for _t, al in merge.lists]
        # Update 2 produced separate deletion and insertion lists.
        u2_lists = [al for al in lists if al.covered == (2,)]
        assert len(u2_lists) == 2
        assert u2_lists[0].net_delta().deletions()
        assert u2_lists[1].net_delta().insertions()

    def test_no_effect_update_sends_empty_list(self):
        sim, manager, merge, _service, driver = rig(ConvergentViewManager)
        send_update(sim, driver, manager, 1, Update.insert("S", {"B": 99, "C": 3}))
        sim.run()
        assert len(merge.lists) == 1
        assert merge.lists[0][1].is_empty
