"""Unit tests for the parallel kernel: mailboxes, affinity, quiescence."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import SimulationError
from repro.runtime.parallel import Mailbox, ParallelKernel


class Actor:
    """A minimal stand-in for a Process: state mutated only via events."""

    def __init__(self) -> None:
        self.seen: list[int] = []
        self.counter = 0

    def record(self, value: int) -> None:
        self.seen.append(value)
        # A deliberately non-atomic read-modify-write: if two events of
        # this actor ever ran concurrently, increments would be lost.
        current = self.counter
        time.sleep(0.0005)
        self.counter = current + 1


class TestMailbox:
    def test_fifo(self):
        box = Mailbox()
        for i in range(5):
            box.put(i)
        assert [box.get() for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_bounded_put_times_out(self):
        box = Mailbox(capacity=1, name="tiny")
        box.put("a")
        with pytest.raises(SimulationError, match="tiny"):
            box.put("b", timeout=0.05)

    def test_bounded_put_unblocks_when_drained(self):
        box = Mailbox(capacity=1)
        box.put("a")
        drained = []

        def drain():
            time.sleep(0.05)
            drained.append(box.get())

        thread = threading.Thread(target=drain)
        thread.start()
        box.put("b", timeout=5.0)  # must unblock once the getter runs
        thread.join()
        assert drained == ["a"]
        assert box.get() == "b"

    def test_capacity_validation(self):
        with pytest.raises(SimulationError):
            Mailbox(capacity=0)


class TestParallelKernel:
    def test_rejects_virtual_time_bounds(self):
        kernel = ParallelKernel(workers=1)
        with pytest.raises(SimulationError):
            kernel.run(until=10.0)
        with pytest.raises(SimulationError):
            kernel.run(max_events=5)
        with pytest.raises(SimulationError):
            kernel.step()

    def test_runs_to_quiescence_and_counts(self):
        kernel = ParallelKernel(workers=2)
        actor = Actor()
        for i in range(10):
            kernel.schedule(0.0, actor.record, i)
        executed = kernel.run()
        assert executed == 10
        assert kernel.events_executed == 10
        assert kernel.pending_events == 0
        assert actor.seen == list(range(10))

    def test_staged_events_inject_in_time_order(self):
        kernel = ParallelKernel(workers=1)
        actor = Actor()
        # Stage out of time order; injection must sort by (time, seq).
        kernel.schedule_at(3.0, actor.record, 3)
        kernel.schedule_at(1.0, actor.record, 1)
        kernel.schedule_at(2.0, actor.record, 2)
        kernel.run()
        assert actor.seen == [1, 2, 3]

    def test_events_are_callback_and_args_not_closures(self):
        kernel = ParallelKernel(workers=1)
        actor = Actor()
        kernel.schedule_at(2.0, actor.record, "late", lane=("a", "b"))
        kernel.schedule(0.0, actor.record, "early")
        assert [entry[2] for entry in kernel._staged] == [
            (actor.record, ("late",)), (actor.record, ("early",)),
        ]
        assert kernel.run() == 2
        assert actor.seen == ["early", "late"]

    def test_per_actor_serialization_under_many_workers(self):
        kernel = ParallelKernel(workers=4)
        actors = [Actor() for _ in range(3)]
        per_actor = 40
        for i in range(per_actor):
            for actor in actors:
                kernel.schedule(0.0, actor.record, i)
        kernel.run()
        for actor in actors:
            # FIFO per actor AND no lost increments: both fail if two of
            # one actor's events ever overlapped.
            assert actor.seen == list(range(per_actor))
            assert actor.counter == per_actor

    def test_events_scheduled_during_run_execute(self):
        kernel = ParallelKernel(workers=2)
        actor = Actor()

        def fan_out():
            for i in range(5):
                kernel.schedule(0.0, actor.record, i)

        kernel.schedule(0.0, fan_out)
        executed = kernel.run()
        assert executed == 6
        assert sorted(actor.seen) == list(range(5))

    def test_worker_exception_propagates(self):
        kernel = ParallelKernel(workers=2)

        def boom():
            raise ValueError("kaboom")

        kernel.schedule(0.0, boom)
        with pytest.raises(ValueError, match="kaboom"):
            kernel.run()

    def test_multiple_runs_accumulate(self):
        kernel = ParallelKernel(workers=2)
        actor = Actor()
        kernel.schedule(0.0, actor.record, 0)
        assert kernel.run() == 1
        kernel.schedule(0.0, actor.record, 1)
        assert kernel.run() == 1
        assert kernel.events_executed == 2
        assert actor.seen == [0, 1]

    def test_negative_delay_rejected(self):
        kernel = ParallelKernel(workers=1)
        with pytest.raises(SimulationError):
            kernel.schedule(-1.0, lambda: None)

    def test_wall_clock_advances(self):
        kernel = ParallelKernel(workers=1)
        before = kernel.now
        time.sleep(0.01)
        assert kernel.now > before

    def test_channel_affinity_routes_to_destination(self):
        kernel = ParallelKernel(workers=4)

        class FakeChannel:
            def __init__(self, destination):
                self.destination = destination

            def deliver(self, value):
                self.destination.record(value)

        actor = Actor()
        channels = [FakeChannel(actor) for _ in range(3)]
        # Three channels into one actor: all their deliveries must land
        # on the actor's single home worker (no lost increments).
        for i in range(30):
            kernel.schedule(0.0, channels[i % 3].deliver, i)
        kernel.run()
        assert actor.counter == 30


class TestDeadlines:
    """``timeout`` bounds the time without progress, and shutdown itself."""

    def test_healthy_run_may_outlast_the_timeout(self):
        kernel = ParallelKernel(workers=1, timeout=0.3)
        for _ in range(20):
            kernel.schedule(0.0, time.sleep, 0.04)
        started = time.monotonic()
        assert kernel.run() == 20
        assert time.monotonic() - started > 0.3

    def test_stuck_handler_reported_within_about_one_timeout(self):
        kernel = ParallelKernel(workers=2, timeout=0.5)
        release = threading.Event()
        kernel.schedule(0.0, release.wait, 30.0)
        started = time.monotonic()
        try:
            with pytest.raises(SimulationError, match="repro-worker0") as stuck:
                kernel.run()
        finally:
            release.set()
        assert time.monotonic() - started < 1.5
        assert "finished no event" in str(stuck.value.__cause__)

    def test_shutdown_gets_past_a_full_mailbox(self):
        # Three events for one worker whose mailbox holds one: the first
        # blocks, the second fills the mailbox, the third cannot be
        # staged.  Shutdown then has to reach a worker that frees no room.
        kernel = ParallelKernel(workers=1, mailbox_capacity=1, timeout=0.3)
        release = threading.Event()
        for _ in range(3):
            kernel.schedule(0.0, release.wait, 30.0)
        started = time.monotonic()
        try:
            with pytest.raises(SimulationError, match="repro-worker0") as stuck:
                kernel.run()
        finally:
            release.set()
        assert time.monotonic() - started < 3.0
        assert isinstance(stuck.value.__cause__, SimulationError)
        assert "stayed full" in str(stuck.value.__cause__)
