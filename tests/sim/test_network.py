"""Tests for channels and their fixed latencies."""

import pytest

from repro.errors import SimulationError
from repro.faults.plan import ChannelFaultModel
from repro.sim.kernel import Simulator
from repro.sim.network import Channel, LossyChannel, ReliableChannel, Transmission
from repro.sim.process import Process
from repro.sim.scheduler import DelayInjectingScheduler


class Recorder(Process):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle(self, message, sender):
        self.received.append((self.sim.now, message, sender.name))


class TestLatencyModels:
    """A channel's latency model is one fixed delay."""

    def test_fixed(self):
        sim = Simulator()
        channel = Channel(sim, Recorder(sim, "a"), Recorder(sim, "b"), 2.5)
        assert [channel.send(i) for i in range(3)] == [2.5, 2.5, 2.5]

    def test_fixed_rejects_negative(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            Channel(sim, Recorder(sim, "a"), Recorder(sim, "b"), -1)


class TestChannel:
    def test_delivery_after_latency(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = Channel(sim, a, b, 3.0)
        channel.send("hello")
        sim.run()
        assert b.received == [(3.0, "hello", "a")]

    def test_float_latency_coerced(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = Channel(sim, a, b, 1)
        assert type(channel.latency) is float and channel.latency == 1.0

    def test_latency_is_read_only(self):
        """The direct push's FIFO argument needs a latency fixed for life."""
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        for channel in (Channel(sim, a, b, 2.0), LossyChannel(sim, a, b, 2.0)):
            with pytest.raises(AttributeError):
                channel.latency = 0.5
            assert channel.latency == 2.0 and channel.send("x") == 2.0

    def test_fifo_under_random_latency(self):
        """Deliveries on one channel never reorder, whatever delays the
        scheduler injects: the channel's lane is clamped by the kernel."""
        sim = Simulator(scheduler=DelayInjectingScheduler(
            3, delay_rate=1.0, max_delay=10.0))
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = Channel(sim, a, b, 0.0)
        for i in range(30):
            sim.schedule(float(i) * 0.1, channel.send, i)
        sim.run()
        payloads = [m for _t, m, _s in b.received]
        assert payloads == list(range(30))

    def test_messages_counted_and_traced(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = Channel(sim, a, b, 0.0)
        channel.send("x")
        sim.run()
        assert channel.messages_sent == 1
        [hop] = sim.trace.of_kind("proc_msg")  # the hop's one record
        assert (hop.process, hop.detail["sender"]) == ("b", "a")

    def test_independent_channels_can_reorder(self):
        sim = Simulator()
        a, b, c = Recorder(sim, "a"), Recorder(sim, "b"), Recorder(sim, "c")
        slow = Channel(sim, a, c, 10.0)
        fast = Channel(sim, b, c, 1.0)
        slow.send("slow")
        fast.send("fast")
        sim.run()
        assert [m for _t, m, _s in c.received] == ["fast", "slow"]


class ScriptedFaults:
    """A fault model replaying a fixed list of Transmission decisions."""

    def __init__(self, decisions):
        self._decisions = list(decisions)

    def next_transmission(self):
        if self._decisions:
            return self._decisions.pop(0)
        return Transmission()


class TestLossyChannel:
    def test_clean_faults_behave_like_delivery(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = LossyChannel(sim, a, b, 1.0)
        channel.send("x")
        sim.run()
        assert [m for _t, m, _s in b.received] == ["x"]

    def test_drop(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = LossyChannel(sim, a, b, 1.0, faults=ScriptedFaults([Transmission(drop=True)]))
        channel.send("lost")
        sim.run()
        assert b.received == []
        assert channel.messages_dropped == 1
        assert len(sim.trace.of_kind("msg_drop")) == 1

    def test_duplicate(self):
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = LossyChannel(
            sim, a, b, 1.0, faults=ScriptedFaults([Transmission(duplicates=1)])
        )
        channel.send("x")
        sim.run()
        assert [m for _t, m, _s in b.received] == ["x", "x"]
        assert channel.messages_duplicated == 1

    def test_delay_spike_reorders_within_channel(self):
        """No FIFO clamp: a spiked message arrives after its successor."""
        sim = Simulator()
        a, b = Recorder(sim, "a"), Recorder(sim, "b")
        channel = LossyChannel(
            sim, a, b, 1.0,
            faults=ScriptedFaults([Transmission(extra_delay=10.0), Transmission()]),
        )
        channel.send("first")
        channel.send("second")
        sim.run()
        assert [m for _t, m, _s in b.received] == ["second", "first"]

    def test_deterministic_fault_model(self):
        def run_once():
            sim = Simulator()
            a, b = Recorder(sim, "a"), Recorder(sim, "b")
            model = ChannelFaultModel(drop_rate=0.3, duplicate_rate=0.2, seed=99)
            channel = LossyChannel(sim, a, b, 1.0, faults=model)
            for i in range(50):
                sim.schedule(float(i), channel.send, i)
            sim.run()
            return [m for _t, m, _s in b.received]

        assert run_once() == run_once()


# -- a hop is one record ----------------------------------------------------------

LATENCY = 1.5
SERVICE = 2.0
SEND_TIMES = (0.0, 10.0, 20.0)


class SlowRecorder(Recorder):
    def service_time(self, message):
        return SERVICE


def crashed_between_sends(sim, a, b):
    sim.schedule(5.0, b.crash)
    sim.schedule(15.0, b.restart)
    return Channel(sim, a, b, LATENCY)


@pytest.mark.parametrize("build, arrivals, faults", [
    (lambda sim, a, b: Channel(sim, a, b, LATENCY),
     [1.5, 11.5, 21.5],
     {}),

    # clean, dropped, duplicated: the copy waits out the original's service
    (lambda sim, a, b: LossyChannel(
        sim, a, b, LATENCY, faults=ScriptedFaults(
            [Transmission(), Transmission(drop=True),
             Transmission(duplicates=1)])),
     [1.5, 21.5, 21.5],
     {"msg_drop": 1}),

    # the first two messages each arrive by their retransmission at +4;
    # the last one's timer fires at 24, before its ack lands at 25, and
    # the receiver suppresses that copy
    (lambda sim, a, b: ReliableChannel(
        sim, a, b, LATENCY, faults=ScriptedFaults(
            [Transmission(drop=True), Transmission(),
             Transmission(drop=True)])),
     [5.5, 15.5, 21.5],
     {"msg_drop": 2, "msg_retransmit": 3}),

    # the second message reaches a crashed process and is lost
    (crashed_between_sends,
     [1.5, 21.5],
     {"msg_lost": 1, "crash": 1, "restart": 1}),
])
def test_a_hop_is_one_proc_msg_record(build, arrivals, faults):
    sim = Simulator()
    a, b = Recorder(sim, "a"), SlowRecorder(sim, "b")
    channel = build(sim, a, b)
    for i, at in enumerate(SEND_TIMES):
        sim.schedule(at, channel.send, f"m{i}")
    sim.run()

    kinds = {event.kind for event in sim.trace}
    assert not kinds & {"msg_send", "msg_recv", "vut_size"}
    hops = sim.trace.of_kind("proc_msg")
    assert len(hops) == b.messages_handled == len(arrivals)
    assert [h.time - h.detail["service"] - h.detail["wait"]
            for h in hops] == arrivals
    assert {k: len(sim.trace.of_kind(k)) for k in faults} == faults
