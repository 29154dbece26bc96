"""The kernel hot-loop fast path must be invisible except in speed.

Events under the *exact* default :class:`Scheduler` skip the ``adjust()``
call, and an ordered lane's clamp is one float compare.  Any Scheduler
subclass — even a trivial one — must take the slow path, because
subclasses may carry per-event state.  Either way the execution order is
identical (``tests/sim/test_hot_path.py`` drives both in lockstep).
"""

from __future__ import annotations

from repro.sim.kernel import Simulator
from repro.sim.scheduler import Scheduler


class TrivialScheduler(Scheduler):
    """Behaviourally identical to the default, but a distinct type."""


def drive(sim: Simulator) -> list[tuple[str, float]]:
    log: list[tuple[str, float]] = []

    def tick(tag: str) -> None:
        log.append((tag, sim.now))
        if tag == "a" and sim.now < 3.0:
            sim.schedule(1.0, tick, "a")

    sim.schedule(0.0, tick, "a")
    sim.schedule(0.5, tick, "b")
    sim.schedule_at(2.0, tick, "c", lane="wire")
    sim.schedule_at(2.0, tick, "d", lane="wire")
    sim.schedule_at(2.0, tick, "e")  # same instant, laneless
    sim.run()
    return log


class TestFastPathGate:
    def test_default_scheduler_takes_fast_path(self):
        assert Simulator()._default_scheduler is True

    def test_subclass_takes_slow_path(self):
        assert Simulator(scheduler=TrivialScheduler())._default_scheduler is False


class TestFastPathEquivalence:
    def test_identical_execution_order(self):
        fast = drive(Simulator())
        slow = drive(Simulator(scheduler=TrivialScheduler()))
        assert fast == slow
        # Same-instant ties resolve by insertion order on both paths.
        tail = [tag for tag, when in fast if when == 2.0]
        assert tail == ["c", "d", "e", "a"]

    def test_lane_events_still_clamped_on_fast_kernel(self):
        # Lane-tagged events take the fast path too, and the FIFO clamp
        # still runs for them.
        sim = Simulator()
        order: list[int] = []
        sim.schedule_at(1.0, order.append, 1, lane="w")
        sim.schedule_at(1.0, order.append, 2, lane="w")
        sim.run()
        assert order == [1, 2]
