"""Tests for the discrete-event kernel."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "first")
        sim.schedule(1.0, log.append, "second")
        sim.run()
        assert log == ["first", "second"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: sim.schedule_at(4.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [4.0]

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        log = []
        def cascade():
            log.append("outer")
            sim.schedule(1.0, log.append, "inner")
        sim.schedule(1.0, cascade)
        sim.run()
        assert log == ["outer", "inner"]


class TestRunBounds:
    def test_until_stops_and_advances_clock(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(10.0, log.append, "b")
        sim.run(until=5.0)
        assert log == ["a"]
        assert sim.pending_events == 1

    def test_until_with_empty_queue_advances_time(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_until_advances_time_with_events_beyond_horizon(self):
        """Regression: the clock must reach ``until`` even when events remain
        past the horizon, so two runs with the same horizon agree on ``now``."""
        busy = Simulator()
        busy.schedule(1.0, lambda: None)
        busy.schedule(10.0, lambda: None)  # beyond the horizon
        busy.run(until=5.0)

        idle = Simulator()
        idle.schedule(1.0, lambda: None)
        idle.run(until=5.0)

        assert busy.now == 5.0
        assert busy.now == idle.now
        assert busy.pending_events == 1

    def test_until_advances_time_when_no_event_before_horizon(self):
        sim = Simulator()
        sim.schedule(10.0, lambda: None)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_max_events_stop_does_not_jump_clock(self):
        """Stopping on the event cap must not pretend the horizon was reached."""
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=100.0, max_events=1)
        assert sim.now == 1.0

    def test_event_exactly_at_until_runs(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, "edge")
        sim.run(until=5.0)
        assert log == ["edge"]

    def test_max_events(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), log.append, i)
        executed = sim.run(max_events=2)
        assert executed == 2
        assert log == [0, 1]

    def test_step(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "x")
        assert sim.step() is True
        assert sim.step() is False
        assert log == ["x"]

    def test_reentrant_run_rejected(self):
        sim = Simulator()
        def bad():
            sim.run()
        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_executed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_executed == 3

    def test_determinism_across_instances(self):
        def run_once():
            sim, rng = Simulator(), random.Random(42)
            values = []
            for _ in range(5):
                sim.schedule(rng.random(), values.append, rng.random())
            sim.run()
            return values
        assert run_once() == run_once()
