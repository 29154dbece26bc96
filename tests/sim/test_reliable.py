"""Tests for ReliableChannel: FIFO-exactly-once over a lossy transport."""

import pytest

from repro.errors import SimulationError
from repro.faults.plan import ChannelFaultModel
from repro.sim.kernel import Simulator
from repro.sim.network import ReliableChannel, Transmission
from repro.sim.process import Process


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle(self, message, sender):
        self.received.append(message)


class ScriptedFaults:
    def __init__(self, decisions):
        self._decisions = list(decisions)

    def next_transmission(self):
        if self._decisions:
            return self._decisions.pop(0)
        return Transmission()


def make_pair(sim, **kwargs):
    a, b = Recorder(sim, "a"), Recorder(sim, "b")
    channel = ReliableChannel(sim, a, b, **kwargs)
    a.attach(channel)
    return a, b, channel


class TestValidation:
    def test_bad_timeout(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        with pytest.raises(SimulationError):
            ReliableChannel(sim, a, b, timeout=0.0)

    def test_bad_backoff(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        with pytest.raises(SimulationError):
            ReliableChannel(sim, a, b, backoff_factor=0.5)

    def test_cap_below_timeout(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        with pytest.raises(SimulationError):
            ReliableChannel(sim, a, b, timeout=4.0, timeout_cap=2.0)


class TestCleanNetwork:
    def test_in_order_delivery(self):
        sim = Simulator()
        a, b, channel = make_pair(sim, latency=1.0)
        for i in range(5):
            channel.send(i)
        sim.run()
        assert b.received == [0, 1, 2, 3, 4]
        assert channel.unacked == 0
        assert channel.retransmissions == 0

    def test_acks_clear_sender_buffer(self):
        sim = Simulator()
        _a, _b, channel = make_pair(sim, latency=1.0)
        channel.send("x")
        assert channel.unacked == 1
        sim.run()
        assert channel.unacked == 0
        assert channel.acks_sent == 1


class TestLossRecovery:
    def test_dropped_frame_retransmitted(self):
        sim = Simulator()
        a, b, channel = make_pair(
            sim, latency=1.0, faults=ScriptedFaults([Transmission(drop=True)])
        )
        channel.send("x")
        sim.run()
        assert b.received == ["x"]
        assert channel.retransmissions == 1
        assert channel.unacked == 0

    def test_dropped_frame_does_not_block_successors(self):
        """Frame 1 is dropped; frames 2..4 arrive first but are held in the
        reorder buffer until the retransmitted frame 1 lands."""
        sim = Simulator()
        a, b, channel = make_pair(
            sim, latency=1.0, faults=ScriptedFaults([Transmission(drop=True)])
        )
        for i in range(1, 5):
            channel.send(i)
        sim.run()
        assert b.received == [1, 2, 3, 4]

    def test_duplicate_frames_suppressed(self):
        sim = Simulator()
        a, b, channel = make_pair(
            sim, latency=1.0, faults=ScriptedFaults([Transmission(duplicates=2)])
        )
        channel.send("x")
        sim.run()
        assert b.received == ["x"]
        assert channel.duplicates_suppressed == 2

    def test_delay_spike_reordered_back_into_sequence(self):
        sim = Simulator()
        a, b, channel = make_pair(
            sim,
            latency=1.0,
            timeout=100.0,
            timeout_cap=100.0,
            faults=ScriptedFaults([Transmission(extra_delay=10.0)]),
        )
        channel.send("first")
        channel.send("second")
        sim.run()
        # Raw transport delivered "second" first; the channel re-sequenced.
        assert b.received == ["first", "second"]

    def test_lost_ack_triggers_retransmit_and_dedup(self):
        sim = Simulator()
        a, b, channel = make_pair(
            sim,
            latency=1.0,
            ack_faults=ScriptedFaults([Transmission(drop=True)]),
        )
        channel.send("x")
        sim.run()
        assert b.received == ["x"]  # exactly once despite the retransmit
        assert channel.retransmissions >= 1
        assert channel.duplicates_suppressed >= 1
        assert channel.unacked == 0

    def test_exactly_once_under_heavy_random_faults(self):
        sim = Simulator()
        model = ChannelFaultModel(
            drop_rate=0.3, duplicate_rate=0.2, delay_spike_rate=0.2,
            delay_spike=15.0, seed=1234,
        )
        ack_model = ChannelFaultModel(drop_rate=0.3, seed=4321)
        a, b, channel = make_pair(
            sim, latency=1.0, faults=model, ack_faults=ack_model,
            timeout=5.0, timeout_cap=20.0,
        )
        n = 60
        for i in range(n):
            sim.schedule(float(i), channel.send, i)
        sim.run()
        assert b.received == list(range(n))  # FIFO, exactly once
        assert channel.unacked == 0
        assert channel.retransmissions > 0


class TestBackoff:
    def test_retransmit_intervals_grow_and_cap(self):
        """With every frame copy dropped, retransmit times follow the capped
        exponential schedule: t, t*f, t*f^2, ... clamped at the cap."""
        sim = Simulator()

        class DropAll:
            def next_transmission(self):
                return Transmission(drop=True)

        a, b, channel = make_pair(
            sim, latency=1.0, faults=DropAll(),
            timeout=2.0, backoff_factor=2.0, timeout_cap=8.0,
        )
        channel.send("x")
        sim.run(until=60.0)
        times = [r.time for r in sim.trace.of_kind("msg_retransmit")]
        gaps = [round(t1 - t0, 6) for t0, t1 in zip([0.0] + times, times)]
        # 2, 4, 8, then capped at 8 forever.
        assert gaps[:4] == [2.0, 4.0, 8.0, 8.0]
        assert all(g == 8.0 for g in gaps[3:])


class TestSenderState:
    def test_state_roundtrip_retransmits_backlog(self):
        sim = Simulator()

        class DropAll:
            def __init__(self):
                self.active = True

            def next_transmission(self):
                return Transmission(drop=self.active)

        faults = DropAll()
        a, b, channel = make_pair(sim, latency=1.0, faults=faults, timeout=50.0,
                                  timeout_cap=50.0)
        channel.send("p")
        channel.send("q")
        state = channel.sender_state()
        assert state[0] == 3 and set(state[1]) == {1, 2}

        # Heal the network, wipe the live buffer, restore the checkpoint.
        faults.active = False
        channel._unacked.clear()
        channel.restore_sender_state(state)
        sim.run(until=40.0)
        assert b.received == ["p", "q"]
        assert channel.unacked == 0

    def test_restore_of_already_acked_frames_is_harmless(self):
        sim = Simulator()
        a, b, channel = make_pair(sim, latency=1.0)
        channel.send("p")
        state = channel.sender_state()  # taken before the ack arrives
        sim.run()
        assert b.received == ["p"]
        channel.restore_sender_state(state)  # resurrects an acked frame
        sim.run(until=sim.now + 20.0)
        assert b.received == ["p"]  # suppressed, re-acked
        assert channel.unacked == 0


class TestDestinationCrash:
    def test_unprocessed_frames_redelivered_after_restart(self):
        sim = Simulator()

        class Sluggish(Recorder):
            def service_time(self, message):
                return 2.0

        a = Recorder(sim, "a")
        b = Sluggish(sim, "b")
        channel = ReliableChannel(sim, a, b, latency=1.0, timeout=6.0,
                                  timeout_cap=12.0)
        a.attach(channel)
        for i in range(4):
            channel.send(i)
        # Crash after message 0 is processed but 1..3 still queue/serve.
        sim.schedule_at(4.0, b.crash)
        sim.schedule_at(8.0, b.restart)
        sim.run()
        assert b.received == [0, 1, 2, 3]  # exactly once, in order
        assert b.crashes == 1
        assert channel.unacked == 0
        assert channel.retransmissions >= 1

    def test_frames_arriving_while_crashed_are_dropped_then_recovered(self):
        sim = Simulator()
        a, b, channel = make_pair(sim, latency=1.0, timeout=5.0, timeout_cap=10.0)
        sim.schedule_at(0.5, b.crash)
        sim.schedule_at(3.0, b.restart)
        channel.send("x")  # arrives at t=1 while b is down
        sim.run()
        assert b.received == ["x"]
        assert b.messages_lost >= 1
        assert channel.unacked == 0
