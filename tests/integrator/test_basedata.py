"""Tests for the base-data service."""

import pytest

from repro.errors import SourceError
from repro.integrator.basedata import BaseDataService
from repro.messages import NumberedUpdate, SnapshotQuery, SnapshotResponse
from repro.relational.database import Database
from repro.relational.rows import Row
from repro.relational.schema import Schema
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sources.update import Update

SCHEMAS = {"R": Schema(["A"])}


class Client(Process):
    def __init__(self, sim, name="vm:V1"):
        super().__init__(sim, name)
        self.responses = []

    def handle(self, message, sender):
        assert isinstance(message, SnapshotResponse)
        self.responses.append((self.sim.now, message))


@pytest.fixture
def rig():
    sim = Simulator()
    service = BaseDataService(sim)
    initial = Database()
    initial.create_relation("R", SCHEMAS["R"], [Row(A=0)])
    service.seed(initial, SCHEMAS)
    client = Client(sim)
    client.connect(service, 0.0)
    service.connect(client, 0.0)
    driver = Client(sim, "driver")
    driver.connect(service, 0.0)
    return sim, service, client, driver


def push(sim, driver, update_id, row, at=0.0):
    sim.schedule(
        at,
        driver.send,
        "basedata",
        NumberedUpdate(update_id, (Update.insert("R", {"A": row}),)),
    )


class TestVersioning:
    def test_applies_numbered_updates_in_order(self, rig):
        sim, service, _client, driver = rig
        push(sim, driver, 1, 1)
        push(sim, driver, 2, 2, at=1.0)
        sim.run()
        assert service.version == 2

    def test_out_of_order_update_rejected(self, rig):
        sim, _service, _client, driver = rig
        push(sim, driver, 2, 1)
        with pytest.raises(SourceError, match="out of order"):
            sim.run()


class TestQueries:
    def test_current_state_query(self, rig):
        sim, _service, client, driver = rig
        push(sim, driver, 1, 1)
        sim.schedule(
            1.0,
            driver.send,
            "basedata",
            SnapshotQuery(1, "vm:V1", frozenset({"R"}), version=None),
        )
        sim.run()
        _time, response = client.responses[0]
        assert response.version == 1
        assert response.contents["R"] == (("A",), {(0,): 1, (1,): 1})

    def test_historic_version_query(self, rig):
        sim, _service, client, driver = rig
        push(sim, driver, 1, 1)
        push(sim, driver, 2, 2, at=1.0)
        sim.schedule(
            2.0,
            driver.send,
            "basedata",
            SnapshotQuery(1, "vm:V1", frozenset({"R"}), version=1),
        )
        sim.run()
        response = client.responses[0][1]
        assert response.version == 1
        assert response.contents["R"] == (("A",), {(0,): 1, (1,): 1})

    def test_future_version_query_deferred(self, rig):
        sim, service, client, driver = rig
        sim.schedule(
            0.0,
            driver.send,
            "basedata",
            SnapshotQuery(1, "vm:V1", frozenset({"R"}), version=1),
        )
        push(sim, driver, 1, 1, at=5.0)
        sim.run()
        assert service.queries_deferred == 1
        time, response = client.responses[0]
        assert time >= 5.0
        assert response.version == 1

    def test_undo_information(self, rig):
        sim, _service, client, driver = rig
        push(sim, driver, 1, 1)
        push(sim, driver, 2, 2, at=1.0)
        push(sim, driver, 3, 3, at=2.0)
        sim.schedule(
            3.0,
            driver.send,
            "basedata",
            SnapshotQuery(
                1, "vm:V1", frozenset({"R"}), version=None, undo_from=1
            ),
        )
        sim.run()
        response = client.responses[0][1]
        assert [u for u, _up in response.undo_updates] == [2, 3]

    def test_undo_window_equals_a_scan_of_the_whole_log(self):
        """Multi-update transactions, several relations, every window."""
        service = BaseDataService(Simulator())
        service._log = [
            (update_id, Update.insert(relation, {"A": update_id}))
            for update_id in range(1, 9)
            for relation in ("R", "S", "R")[: 1 + update_id % 3]
        ]
        for after in range(0, 10):
            for through in range(0, 10):
                for wanted in ({"R"}, {"S"}, {"R", "S"}, set()):
                    assert service._undo_since(after, through, wanted) == tuple(
                        (update_id, update)
                        for update_id, update in service._log
                        if after < update_id <= through
                        and update.relation in wanted
                    )

    def test_query_cost_delays_response(self, rig):
        sim, service, client, driver = rig
        service.per_query_cost = 4.0
        sim.schedule(
            0.0,
            driver.send,
            "basedata",
            SnapshotQuery(1, "vm:V1", frozenset({"R"}), version=0),
        )
        sim.run()
        assert client.responses[0][0] == 4.0

    def test_retain_window_prunes(self, rig):
        sim, service, _client, driver = rig
        service.retain_window = 1
        for i in range(1, 5):
            push(sim, driver, i, i, at=float(i))
        sim.run()
        assert 1 not in service._db.retained_versions()

    def test_unknown_message_rejected(self, rig):
        sim, _service, _client, driver = rig
        sim.schedule(0.0, driver.send, "basedata", "junk")
        with pytest.raises(SourceError):
            sim.run()
