"""Scheduler plumbing: FIFO default, perturbation replay, causal safety."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.scenario import decode, encode
from repro.errors import SimulationError
from repro.faults.plan import ChannelFaultModel
from repro.sim.kernel import Simulator
from repro.sim.network import Channel, ReliableChannel
from repro.sim.process import Process
from repro.sim.scheduler import (
    DelayInjectingScheduler,
    Perturbation,
    RandomScheduler,
    Scheduler,
)
from repro.system.config import SystemConfig
from repro.system.builder import WarehouseSystem
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world


def run_system(scheduler=None, seed=0):
    world = paper_world()
    config = SystemConfig(manager_kind="complete", seed=seed, scheduler=scheduler,
                          trace_kinds=None)
    system = WarehouseSystem(world, paper_views_example2(), config)
    spec = WorkloadSpec(updates=15, rate=2.0, seed=seed, mix=(0.6, 0.2, 0.2))
    post_stream(system, UpdateStreamGenerator(world, spec).transactions())
    system.run()
    return system


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle(self, message, sender):
        self.received.append(message)


class TestDefaultScheduler:
    def test_explicit_default_matches_implicit(self):
        """SystemConfig(scheduler=Scheduler()) is bit-for-bit the legacy run."""
        legacy = run_system(scheduler=None)
        explicit = run_system(scheduler=Scheduler())
        assert legacy.sim.trace.digest() == explicit.sim.trace.digest()

    def test_adjust_is_identity_with_zero_tiebreak(self):
        assert Scheduler().adjust(3.5, ("a", "b")) == (3.5, 0.0)
        assert Scheduler().adjust(0.0, None) == (0.0, 0.0)


class TestRandomScheduler:
    def test_same_seed_same_run(self):
        one = run_system(scheduler=RandomScheduler(seed=7))
        two = run_system(scheduler=RandomScheduler(seed=7))
        assert one.sim.trace.digest() == two.sim.trace.digest()

    def test_some_seed_changes_the_interleaving(self):
        baseline = run_system(scheduler=None).sim.trace.digest()
        digests = {
            run_system(scheduler=RandomScheduler(seed=s)).sim.trace.digest()
            for s in range(5)
        }
        assert digests != {baseline}

    def test_guarantee_survives_the_shuffle(self):
        for seed in range(3):
            system = run_system(scheduler=RandomScheduler(seed=seed))
            assert system.check_mvc("complete").ok


class TestSchedulerContract:
    def test_moving_an_event_earlier_is_rejected(self):
        class TimeTraveler(Scheduler):
            def adjust(self, time, lane):
                return (time - 1.0, 0.0)

        sim = Simulator(scheduler=TimeTraveler())
        with pytest.raises(SimulationError, match="earlier"):
            sim.schedule(5.0, lambda: None)

    def test_reset_called_on_adoption(self):
        scheduler = DelayInjectingScheduler(seed=1)
        scheduler.decisions.append(Perturbation("delay", ("x", "y"), 0, 1.0))
        Simulator(scheduler=scheduler)
        assert scheduler.decisions == []


class TestPerturbation:
    def test_round_trip(self):
        p = Perturbation("delay", ("a", "b"), 3, 1.25)
        assert decode(Perturbation, json.loads(json.dumps(encode(p)))) == p

    def test_validation(self):
        with pytest.raises(SimulationError):
            Perturbation("teleport", ("a", "b"), 0, 1.0)
        with pytest.raises(SimulationError):
            Perturbation("delay", ("a", "b"), -1, 1.0)
        with pytest.raises(SimulationError):
            Perturbation("reorder", ("a", "b"), 0, -0.5)

    def test_list_lane_normalized_to_tuple(self):
        p = Perturbation("delay", ["a", "b"], 0, 1.0)
        assert p.lane == ("a", "b")


class TestDelayInjectingScheduler:
    def test_rates_validated(self):
        with pytest.raises(SimulationError):
            DelayInjectingScheduler(delay_rate=1.5)
        with pytest.raises(SimulationError):
            DelayInjectingScheduler(max_delay=-1.0)

    def test_replaying_full_decisions_reproduces_the_run(self):
        explore = run_system(
            scheduler=DelayInjectingScheduler(
                seed=3, delay_rate=0.4, reorder_rate=0.4
            )
        )
        decisions = explore.sim.scheduler.decisions
        assert decisions, "expected some perturbations at these rates"
        replayed = run_system(
            scheduler=DelayInjectingScheduler.replay(decisions)
        )
        assert explore.sim.trace.digest() == replayed.sim.trace.digest()

    def test_replay_applies_nothing_beyond_the_list(self):
        empty = run_system(scheduler=DelayInjectingScheduler.replay([]))
        legacy = run_system(scheduler=None)
        assert empty.sim.trace.digest() == legacy.sim.trace.digest()

    def test_internal_events_untouched(self):
        scheduler = DelayInjectingScheduler(seed=0, delay_rate=1.0, reorder_rate=1.0)
        assert scheduler.adjust(2.0, None) == (2.0, 0.0)
        assert scheduler.decisions == []


class TestCausalOrderSafety:
    """Satellite: no scheduler may reorder same-channel, same-sender events."""

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=2,
            max_size=12,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_ordered_lane_never_reorders(self, seed, gaps):
        """Adversarial delays/reorders on one FIFO lane preserve send order."""
        sim = Simulator(
            scheduler=DelayInjectingScheduler(
                seed=seed, delay_rate=0.9, max_delay=5.0, reorder_rate=0.9
            )
        )
        order = []
        time = 0.0
        for i, gap in enumerate(gaps):
            time += gap
            sim.schedule_at(time, order.append, i, lane=("src", "dst"))
        sim.run()
        assert order == list(range(len(gaps)))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_channel_fifo_under_adversarial_scheduler(self, seed):
        """A plain Channel delivers in send order under any scheduler."""
        sim = Simulator(
            scheduler=DelayInjectingScheduler(
                seed=seed, delay_rate=0.8, max_delay=4.0, reorder_rate=0.8
            )
        )
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = Channel(sim, a, b, latency=1.0)
        for i in range(8):
            channel.send(i)
            sim.run(until=sim.now + 0.25)
        sim.run()
        assert b.received == list(range(8))

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_reliable_channel_exactly_once_in_order(self, seed):
        """ReliableChannel keeps FIFO-exactly-once under faults *and* an
        adversarial scheduler (the lossy transport legitimately reorders;
        recovery must still converge)."""
        sim = Simulator(
            scheduler=DelayInjectingScheduler(
                seed=seed, delay_rate=0.6, max_delay=3.0, reorder_rate=0.6
            )
        )
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = ReliableChannel(
            sim,
            a,
            b,
            latency=1.0,
            faults=ChannelFaultModel(
                drop_rate=0.2, duplicate_rate=0.2, seed=seed
            ),
        )
        a.attach(channel)
        for i in range(8):
            channel.send(i)
            sim.run(until=sim.now + 0.5)
        sim.run()
        assert b.received == list(range(8))
        assert channel.unacked == 0
