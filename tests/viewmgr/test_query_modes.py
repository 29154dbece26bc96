"""Deeper tests of the snapshot / compensate query pipelines."""

import pytest

from repro.errors import ViewManagerError
from repro.integrator.basedata import BaseDataService
from repro.messages import (
    ActionListMessage,
    NumberedUpdate,
    SnapshotResponse,
    UpdateForView,
)
from repro.relational.database import Database
from repro.relational.parser import parse_view
from repro.relational.relation import Relation
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sources.update import Update
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.viewmgr.complete import CompleteViewManager
from repro.viewmgr.strong import StrongViewManager
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world

SCHEMAS = {"R": Schema(["A", "B"]), "S": Schema(["B", "C"])}
VIEW = parse_view("V = SELECT * FROM R JOIN S")


class MergeSink(Process):
    def __init__(self, sim, name="merge"):
        super().__init__(sim, name)
        self.lists = []

    def handle(self, message, sender):
        if isinstance(message, ActionListMessage):
            self.lists.append((self.sim.now, message.action_list))


def initial_db() -> Database:
    db = Database()
    db.create_relation("R", SCHEMAS["R"], [Row(A=1, B=2)])
    db.create_relation("S", SCHEMAS["S"])
    return db


def build(manager_cls, mode, query_latency=2.0, **kwargs):
    sim = Simulator()
    merge = MergeSink(sim)
    manager = manager_cls(sim, VIEW, SCHEMAS, mode=mode, **kwargs)
    manager.connect(merge, 1.0)
    service = BaseDataService(sim)
    service.seed(initial_db(), SCHEMAS)
    manager.connect(service, query_latency)
    service.connect(manager, query_latency)
    driver = MergeSink(sim, "driver")
    driver.connect(manager, 0.0)
    driver.connect(service, 0.0)
    return sim, manager, merge, service, driver


def feed(sim, driver, manager, update_id, update, at):
    sim.schedule(at, driver.send, "basedata", NumberedUpdate(update_id, (update,)))
    sim.schedule(at, driver.send, manager.name, UpdateForView(update_id, "V", (update,)))


class TestSnapshotBurst:
    def test_burst_of_updates_processed_serially_and_correctly(self):
        """Several updates queue while the first snapshot query is in
        flight; each must be computed against its own pre-state."""
        sim, manager, merge, service, driver = build(
            CompleteViewManager, "snapshot", query_latency=5.0
        )
        for index in range(3):
            feed(
                sim, driver, manager, index + 1,
                Update.insert("S", {"B": 2, "C": index}), at=0.1 * index,
            )
        sim.run()
        covered = [al.covered for _t, al in merge.lists]
        assert covered == [(1,), (2,), (3,)]
        deltas = [al.net_delta().counts() for _t, al in merge.lists]
        assert deltas[0] == {Row(A=1, B=2, C=0): 1}
        assert deltas[1] == {Row(A=1, B=2, C=1): 1}
        assert deltas[2] == {Row(A=1, B=2, C=2): 1}
        # Three round trips happened (one per update).
        assert service.queries_answered == 3

    def test_snapshot_query_deferred_until_service_catches_up(self):
        """The manager's query can reach the service before the numbered
        update does; the service must defer, not answer stale."""
        sim, manager, merge, service, driver = build(
            CompleteViewManager, "snapshot", query_latency=0.0
        )
        update = Update.insert("S", {"B": 2, "C": 9})
        # Route the update to the manager immediately but delay the
        # service's copy: the manager will ask for version 0 (fine) —
        # so instead process update 2 whose pre-state (version 1) the
        # service hasn't seen yet.
        first = Update.insert("S", {"B": 2, "C": 1})
        sim.schedule(0.0, driver.send, manager.name, UpdateForView(1, "V", (first,)))
        sim.schedule(0.0, driver.send, manager.name, UpdateForView(2, "V", (update,)))
        sim.schedule(6.0, driver.send, "basedata", NumberedUpdate(1, (first,)))
        sim.schedule(7.0, driver.send, "basedata", NumberedUpdate(2, (update,)))
        sim.run()
        assert [al.covered for _t, al in merge.lists] == [(1,), (2,)]
        assert service.queries_deferred >= 1


class TestCompensateDeletes:
    def test_compensation_rolls_back_interleaved_delete(self):
        """A delete committed after the batch start must be re-added when
        reconstructing the pre-state."""
        sim, manager, merge, service, driver = build(
            StrongViewManager, "compensate", query_latency=4.0
        )
        insert_s = Update.insert("S", {"B": 2, "C": 7})
        delete_r = Update.delete("R", {"A": 1, "B": 2})
        # Both reach the service quickly; the manager only processes U1
        # (the S insert) and reads a current state where R is already
        # empty — compensation must restore R's row for U1's pre-state.
        sim.schedule(0.0, driver.send, "basedata", NumberedUpdate(1, (insert_s,)))
        sim.schedule(0.1, driver.send, "basedata", NumberedUpdate(2, (delete_r,)))
        sim.schedule(0.0, driver.send, manager.name, UpdateForView(1, "V", (insert_s,)))
        sim.schedule(20.0, driver.send, manager.name, UpdateForView(2, "V", (delete_r,)))
        sim.run()
        deltas = [al.net_delta().counts() for _t, al in merge.lists]
        # U1: against pre-state (R has its row) the join produces one row.
        assert deltas[0] == {Row(A=1, B=2, C=7): 1}
        # U2: deleting R's row removes the joined row again.
        assert deltas[1] == {Row(A=1, B=2, C=7): -1}


class TestStaleResponseGuard:
    def test_unexpected_response_rejected(self):
        sim, manager, _merge, _service, driver = build(
            CompleteViewManager, "snapshot"
        )
        rogue = SnapshotResponse(999, 0, {})
        sim.schedule(0.0, driver.send, manager.name, rogue)
        with pytest.raises(ViewManagerError, match="stale snapshot"):
            sim.run()


class QuerySink(Process):
    """A base-data service that records the queries and never answers."""

    def __init__(self, sim, name="basedata"):
        super().__init__(sim, name)
        self.queries = []

    def handle(self, message, sender):
        self.queries.append(message)


def asked(mode, view=VIEW):
    """A manager that has sent query 1 for one insert into S and waits."""
    sim = Simulator()
    merge = MergeSink(sim)
    service = QuerySink(sim)
    manager = StrongViewManager(sim, view, SCHEMAS, mode=mode)
    manager.connect(merge, 1.0)
    manager.connect(service, 0.0)
    driver = MergeSink(sim, "driver")
    driver.connect(manager, 0.0)
    update = Update.insert("S", {"B": 2, "C": 7})
    driver.send(manager.name, UpdateForView(1, view.name, (update,)))
    sim.run()
    return sim, manager, merge, service, driver


class TestMalformedResponse:
    """A response must answer its query: every relation asked for (the old
    sides the delta rules read), nothing else, and no undo update of a
    relation not asked for.  A bad one raises and sends nothing."""

    @pytest.mark.parametrize("mode", ["snapshot", "compensate", "naive"])
    def test_response_lacking_a_base_relation_is_rejected(self, mode):
        """An absent relation is not an empty one: computing on would send
        a wrong action list, so the manager raises and sends nothing.  The
        batch changes S, so R is the one old side asked for."""
        sim, manager, merge, service, driver = asked(mode)
        assert service.queries[0].relations == {"R"}
        driver.send(manager.name, SnapshotResponse(1, 0, {}))
        with pytest.raises(
            ViewManagerError, match=r"vm:V: snapshot response 1 lacks .*'R'"
        ):
            sim.run()
        sim.run()  # nothing was scheduled behind the failure
        assert merge.lists == [] and manager.action_lists_sent == 0

    @pytest.mark.parametrize("mode", ["snapshot", "compensate", "naive"])
    def test_response_with_an_unrequested_relation_is_rejected(self, mode):
        sim, manager, merge, _service, driver = asked(mode)
        extra = SnapshotResponse(1, 0, {
            "R": (("A", "B"), {(1, 2): 1}),
            "S": (("B", "C"), {}),
        })
        driver.send(manager.name, extra)
        with pytest.raises(
            ViewManagerError,
            match=r"vm:V: snapshot response 1 carries \['S'\], which its query",
        ):
            sim.run()
        sim.run()
        assert merge.lists == [] and manager.action_lists_sent == 0

    def test_undo_update_on_an_unrequested_relation_is_rejected(self):
        sim, manager, merge, _service, driver = asked("compensate")
        undo = ((1, Update.insert("S", {"B": 2, "C": 7})),)
        response = SnapshotResponse(1, 1, {"R": (("A", "B"), {(1, 2): 1})}, undo)
        driver.send(manager.name, response)
        with pytest.raises(ViewManagerError, match=r"carries \['S'\]"):
            sim.run()
        sim.run()
        assert merge.lists == [] and manager.action_lists_sent == 0

    @pytest.mark.parametrize("mode", ["snapshot", "compensate", "naive"])
    def test_view_reading_no_old_side_asks_for_nothing(self, mode):
        """``V3 = Q`` reads no pre-state: its query names no relation, and
        the empty answer still yields the batch's action list."""
        view = parse_view("W = SELECT * FROM S")
        sim, manager, merge, service, driver = asked(mode, view)
        assert service.queries[0].relations == frozenset()
        driver.send(manager.name, SnapshotResponse(1, 1, {}))
        sim.run()
        assert [al.covered for _t, al in merge.lists] == [(1,)]
        assert merge.lists[0][1].net_delta().counts() == {Row(B=2, C=7): 1}

    def test_read_set_bug_fails_loudly(self, monkeypatch):
        """A pre-state holds only what was asked for: a rule reading any
        other relation raises instead of computing on an empty one."""
        monkeypatch.setattr(
            "repro.viewmgr.base.pre_state_reads", lambda expr, changed: frozenset()
        )
        sim, manager, merge, service, driver = asked("snapshot")
        assert service.queries[0].relations == frozenset()
        driver.send(manager.name, SnapshotResponse(1, 0, {}))
        with pytest.raises(ViewManagerError, match=r"vm:V: the pre-state holds no 'R'"):
            sim.run()
        assert merge.lists == [] and manager.action_lists_sent == 0


def test_query_back_loads_only_the_old_sides_read(monkeypatch):
    """The ``ex2-queryback`` benchmark's config over 400 updates: each
    batch loads the old sides its delta rules read (none for ``V3 = Q``,
    one of ``R``/``S`` for ``V1``), not every base relation of its view.
    When each batch still loaded every one, this run made 1 040 loads."""
    world = paper_world()
    config = SystemConfig(manager_kind="strong", manager_mode="compensate", seed=3)
    system = WarehouseSystem(world, paper_views_example2(), config)
    spec = WorkloadSpec(updates=400, rate=0.5, arrivals="poisson",
                        mix=(0.3, 0.5, 0.2), value_range=40, seed=3)
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    loads = []
    load = Relation.from_tuple_counts

    def counted(*args):
        loads.append(args[0])
        return load(*args)

    monkeypatch.setattr(Relation, "from_tuple_counts", staticmethod(counted))
    system.run()
    assert system.service.queries_answered == 465
    assert len(loads) == 635
    assert system.check_mvc("strong").ok
