"""The fixed per-message path: same behaviour, fewer objects and events.

Five rewrites share these tests: closure-free kernel events with a float
lane clamp under the default scheduler, load statistics kept in plain
attributes and published when the registry is read, flat trace records,
the zero-service delivery an idle receiver serves in place, and channel
deliveries pushed straight onto the heap.  None of them may be visible in
a trace, a registry dump or a verdict; only ``events_executed`` and the
number of objects a run leaves behind may move.
"""

from __future__ import annotations

import gc
import hashlib
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import Histogram, MetricsRegistry
from repro.sim.kernel import Simulator
from repro.sim.network import ReliableChannel
from repro.sim.process import Process
from repro.sim.scheduler import Scheduler
from repro.sim.tracing import Trace
from repro.system.builder import WarehouseSystem
from repro.system.config import SystemConfig
from repro.workloads.generator import UpdateStreamGenerator, WorkloadSpec, post_stream
from repro.workloads.schemas import paper_views_example2, paper_world
from tests.sim.reference_process import ReferenceProcess
from tests.sim.trace_records import to_records


class GeneralPathScheduler(Scheduler):
    """The default's behaviour under another type: no fast path, no fusion."""


def events_of(sim) -> list[tuple]:
    return [(e.time, e.kind, e.process, e.detail) for e in sim.trace]


def histogram_values(registry) -> dict[str, tuple]:
    return {m.key: m.values() for m in registry if isinstance(m, Histogram)}


# -- (a) lockstep: fast path + fusion against the general path ----------------

def flooding(base: type) -> type:
    """A process of class ``base`` that forwards ``ttl - 1`` to every peer."""

    class Node(base):
        fused = 0  # deliveries served inside deliver(), all nodes together

        def __init__(self, sim, name, service=0.0):
            super().__init__(sim, name)
            self.service = service
            self._delivering = False

        def service_time(self, message):
            return self.service

        def handle(self, message, sender):
            if message > 0:
                for peer in self.peers():
                    self.send(peer, message - 1)

        def deliver(self, *args, **kwargs):
            self._delivering = True
            super().deliver(*args, **kwargs)
            self._delivering = False

        def _serve(self, *args):
            Node.fused += self._delivering  # not from a _finish event
            self._delivering = False
            super()._serve(*args)

    return Node


LATENCIES = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 0.25]),
    st.floats(0.0, 2.0),
)


@st.composite
def graphs(draw):
    size = draw(st.integers(2, 4))
    services = draw(st.lists(st.sampled_from([0.0, 0.0, 0, 0.5, 1.5]),
                             min_size=size, max_size=size))
    pairs = [(a, b) for a in range(size) for b in range(size) if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5,
                          unique=True))
    return {
        "services": services,
        "edges": [(a, b, draw(LATENCIES)) for a, b in edges],
        "reliable": draw(st.sampled_from([-1, -1, 0])),  # -1: none
        # several injections at one instant: the second finds an event due
        "injections": draw(st.lists(
            st.tuples(st.sampled_from([0.0, 1.0, 1.0, 2.5]),
                      st.integers(0, len(edges) - 1), st.integers(0, 5)),
            min_size=1, max_size=4)),
        "probe": draw(st.sampled_from([False, False, True])),
    }


def run_graph(graph, scheduler, base=Process):
    Node = flooding(base)
    sim = Simulator(scheduler=scheduler)
    nodes = [Node(sim, f"n{i}", s) for i, s in enumerate(graph["services"])]
    channels = []
    for index, (a, b, latency) in enumerate(graph["edges"]):
        if index == graph["reliable"]:
            channels.append(nodes[a].attach(
                ReliableChannel(sim, nodes[a], nodes[b], latency)))
        else:
            channels.append(nodes[a].connect(nodes[b], latency))
    samples = []
    if graph["probe"]:
        sim.add_probe(
            lambda: samples.append(tuple(n.queue_length for n in nodes)))
    for when, edge, ttl in graph["injections"]:
        sim.schedule_at(when, channels[edge].send, ttl)
    sim.run(max_events=20_000)
    assert sim.pending_events == 0
    return sim, Node.fused, samples


class TestLockstep:
    @settings(max_examples=120, deadline=None)
    @given(graphs())
    def test_fast_and_general_path_agree(self, graph):
        fast, fused, fast_samples = run_graph(graph, None)
        slow, unfused, slow_samples = run_graph(graph, GeneralPathScheduler())
        assert unfused == 0
        assert events_of(fast) == events_of(slow)
        assert fast.metrics.to_dict() == slow.metrics.to_dict()
        assert histogram_values(fast.metrics) == histogram_values(slow.metrics)
        assert fast.now == slow.now
        assert slow.events_executed - fast.events_executed == fused
        # A fused delivery probes between its halves, where the kernel would.
        assert fast_samples == slow_samples

    @pytest.mark.parametrize("probe", [False, True])
    def test_fusion_happens_and_is_counted(self, probe):
        graph = {"services": [0.0, 0.0], "edges": [(0, 1, 1.0), (1, 0, 1.0)],
                 "reliable": -1, "injections": [(0.0, 0, 3)], "probe": probe}
        fast, fused, samples = run_graph(graph, None)
        slow, _, slow_samples = run_graph(graph, GeneralPathScheduler())
        assert fused == 4 and slow.events_executed - fast.events_executed == 4
        # The probe saw every queued message between arrival and handling.
        assert samples == slow_samples and sum(map(sum, samples)) == 4 * probe

    def test_no_fusion_outside_run_or_behind_a_due_event(self):
        Node = flooding(Process)
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        b.deliver(0, a)  # no run() is executing
        assert Node.fused == 0 and b.queue_length == 1
        sim.schedule(1.0, b.deliver, 0, a)
        sim.schedule(1.0, b.deliver, 0, a)
        sim.run(until=1.5)
        assert Node.fused == 0  # the first still had its twin due at 1.0
        sim.schedule(1.0, b.deliver, 0, a)
        sim.run()
        assert Node.fused == 1 and b.messages_handled == 4

    @pytest.mark.parametrize("key", [
        ("complete", "dependency-sequenced", 13),
        ("strong", "batching", 7),
        ("convergent", "sequential", 3),
    ])
    def test_whole_system_agrees_on_golden_configurations(self, key):
        manager, policy, seed = key

        def run(scheduler):
            world = paper_world()
            system = WarehouseSystem(world, paper_views_example2(), SystemConfig(
                manager_kind=manager, submission_policy=policy, seed=seed,
                scheduler=scheduler, trace_kinds=None))
            spec = WorkloadSpec(updates=30, rate=2.0, seed=seed,
                                mix=(0.6, 0.2, 0.2), arrivals="poisson",
                                multi_update_fraction=0.2)
            post_stream(system, UpdateStreamGenerator(world, spec).transactions())
            system.run()
            return system

        fast, slow = run(None), run(GeneralPathScheduler())
        assert fast.sim.trace.digest() == slow.sim.trace.digest()
        assert fast.sim.metrics.to_dict() == slow.sim.metrics.to_dict()
        assert repr(fast.report()) == repr(slow.report())
        assert fast.sim.events_executed < slow.sim.events_executed


# -- (b) the lane clamp on the fast path ---------------------------------------

class TestLaneClamp:
    @pytest.mark.parametrize("scheduler", [None, GeneralPathScheduler()])
    def test_ordered_lane_runs_in_scheduling_order(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        log = []
        note = lambda tag: log.append((tag, sim.now))  # noqa: E731
        sim.schedule_at(5.0, note, "first", lane=("a", "b"))
        sim.schedule_at(3.0, note, "second", lane=("a", "b"))
        sim.schedule_at(4.0, note, "other lane", lane=("a", "c"))
        sim.schedule_at(3.5, note, "laneless")
        sim.schedule_at(6.0, note, "third", lane=("a", "b"))
        sim.run()
        assert log == [("laneless", 3.5), ("other lane", 4.0), ("first", 5.0),
                       ("second", 5.0), ("third", 6.0)]

    @pytest.mark.parametrize("scheduler", [None, GeneralPathScheduler()])
    def test_unordered_lane_events_are_not_clamped(self, scheduler):
        sim = Simulator(scheduler=scheduler)
        log = []
        note = lambda tag: log.append((tag, sim.now))  # noqa: E731
        sim.schedule_at(5.0, note, "late", lane="L", ordered=False)
        sim.schedule_at(3.0, note, "early", lane="L", ordered=False)
        sim.schedule_at(4.0, note, "ordered", lane="L")  # unordered set no mark
        sim.run()
        assert log == [("early", 3.0), ("ordered", 4.0), ("late", 5.0)]


# -- (b') channel deliveries pushed straight onto the heap --------------------------

class Logged(Process):
    """Logs each arrival, as ``deliver`` sees it, in a list shared by all."""

    def __init__(self, sim, name, log):
        super().__init__(sim, name)
        self.log = log

    def deliver(self, message, sender, on_processed=None):
        self.log.append((sender.name, self.name, message, self.sim.now))
        super().deliver(message, sender, on_processed)

    def handle(self, message, sender):
        pass


def send_storm(scheduler, latencies, sends):
    """``sends``: (time, channel index) pairs; each message is its send count
    on its channel, so every channel's messages are 0, 1, 2, ..."""
    sim, log = Simulator(scheduler=scheduler), []
    nodes = [Logged(sim, f"n{i}", log) for i in range(3)]
    pairs = [(a, b) for a in range(3) for b in range(3) if a != b]
    channels = [nodes[a].connect(nodes[b], latency)
                for (a, b), latency in zip(pairs, latencies)]
    counts = [0] * len(channels)

    def send(index):
        channels[index].send(counts[index])
        counts[index] += 1

    for when, index in sends:
        sim.schedule_at(when, send, index)
    sim.run()
    return sim, log


class TestDirectPush:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(LATENCIES, min_size=6, max_size=6),
           st.lists(st.tuples(st.floats(0.0, 5.0), st.integers(0, 5)),
                    min_size=1, max_size=40))
    def test_plain_channels_deliver_in_send_order_without_lane_marks(
            self, latencies, sends):
        sim, log = send_storm(None, latencies, sends)
        _, general_log = send_storm(GeneralPathScheduler(), latencies, sends)
        assert sim._lane_marks == {}  # no clamp was needed, none was kept
        for pair in {(src, dst) for src, dst, *_ in log}:
            arrived = [m for src, dst, m, _ in log if (src, dst) == pair]
            assert arrived == list(range(len(arrived)))
        assert log == general_log  # the general path clamps: same order
        assert len(log) == len(sends)

    def test_events_executed_is_exact_after_a_handler_raises(self):
        sim, ran = Simulator(), []

        def boom():
            raise RuntimeError("boom")

        for i in range(5):
            sim.schedule(float(i), ran.append, i)
        sim.schedule(2.5, boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert ran == [0, 1, 2] and sim.events_executed == 3  # boom uncounted
        assert sim.run(max_events=1) == 1 and sim.events_executed == 4
        sim.schedule(0.5, boom)
        with pytest.raises(RuntimeError):
            sim.run(until=10.0)
        assert sim.events_executed == 4 and sim.now == 3.5
        assert sim.run(until=10.0) == 1 and sim.events_executed == 5
        assert sim.now == 10.0


# -- (c) publish on read against per-message feeding ------------------------------

def run_ring(base, reads_at=(), crash_at=None, services=(0.4, 0.0, 1.1)):
    """Three nodes flooding over channels of uniformly drawn latencies.

    ``reads_at``: virtual times at which the registry is dumped mid-run.
    """
    Node = flooding(base)
    sim, rng = Simulator(), random.Random(11)
    nodes = [Node(sim, f"n{i}", s) for i, s in enumerate(services)]
    for a, b in [(0, 1), (1, 2), (2, 0), (0, 2)]:
        nodes[a].connect(nodes[b], rng.uniform(0.1, 0.9))
    for when, ttl in [(0.0, 6), (0.0, 5), (0.7, 6)]:
        sim.schedule_at(when, nodes[0].send, "n1", ttl)
    if crash_at is not None:
        sim.schedule_at(crash_at, nodes[2].crash)
        sim.schedule_at(crash_at + 1.0, nodes[2].restart)
    dumps = []
    for when in reads_at:
        sim.run(until=when)
        dumps.append(sim.metrics.to_dict())
    sim.run()
    return sim, nodes, dumps


class TestPublishOnRead:
    def test_final_registry_is_bit_identical_to_feeding(self):
        sim, nodes, _ = run_ring(Process)
        ref, ref_nodes, _ = run_ring(ReferenceProcess)
        dump = sim.metrics.to_dict()
        assert dump == ref.metrics.to_dict()
        assert repr(dump) == repr(ref.metrics.to_dict())  # 3 is not 3.0 here
        assert histogram_values(sim.metrics) == histogram_values(ref.metrics)
        waits = sim.metrics.get("proc_queue_wait", process="n2").values()
        assert len({w for w in waits if w > 0}) > 5  # non-trivial floats
        for node, ref_node in zip(nodes, ref_nodes):
            assert node.messages_handled == ref_node.messages_handled > 0
            assert node.busy_time == ref_node.busy_time
            assert node.max_queue_length == ref_node.max_queue_length
            assert node.queue_wait_stats() == ref_node.queue_wait_stats()
            assert node.mean_queue_length() == ref_node.mean_queue_length()
            assert node.utilisation() == ref_node.utilisation()
        assert events_of(sim) == events_of(ref)

    def test_reading_twice_changes_nothing(self):
        sim, _, _ = run_ring(Process)
        first = sim.metrics.to_dict()
        values = histogram_values(sim.metrics)
        assert sim.metrics.to_dict() == first
        assert [m.key for m in sim.metrics] == [m.key for m in sim.metrics]
        assert sim.metrics.format() == sim.metrics.format()
        assert histogram_values(sim.metrics) == values

    def test_mid_run_reads_match_and_do_not_disturb_the_end(self):
        reads = (0.9, 2.0, 3.3)
        sim, _, dumps = run_ring(Process, reads_at=reads)
        ref, _, ref_dumps = run_ring(ReferenceProcess, reads_at=reads)
        unread, _, _ = run_ring(Process)
        assert dumps == ref_dumps and dumps[0] != dumps[1] != dumps[2]
        assert sim.metrics.to_dict() == ref.metrics.to_dict()
        assert sim.metrics.to_dict() == unread.metrics.to_dict()
        assert histogram_values(sim.metrics) == histogram_values(ref.metrics)

    def test_crash_mid_queue_publishes_the_same_gauge(self):
        sim, nodes, _ = run_ring(Process, crash_at=2.0)
        ref, ref_nodes, _ = run_ring(ReferenceProcess, crash_at=2.0)
        assert nodes[2].messages_lost == ref_nodes[2].messages_lost > 0
        assert nodes[2].crashes == 1
        gauge = sim.metrics.get("proc_queue_length", process="n2")
        ref_gauge = ref.metrics.get("proc_queue_length", process="n2")
        assert gauge.summary() == ref_gauge.summary()
        assert (gauge.min, gauge.max) == (0, ref_gauge.max) and gauge.max > 1
        assert sim.metrics.to_dict() == ref.metrics.to_dict()

    def test_an_unused_process_leaves_its_gauge_unset(self):
        sim = Simulator()
        Process(sim, "idle")
        ref = Simulator()
        ReferenceProcess(ref, "idle")
        assert sim.metrics.to_dict() == ref.metrics.to_dict()
        crashed, ref_crashed = Process(sim, "c"), ReferenceProcess(ref, "c")
        crashed.crash()
        ref_crashed.crash()
        assert sim.metrics.to_dict() == ref.metrics.to_dict()

    def test_every_query_publishes(self):
        for query in (
            lambda r: r.value("proc_messages_handled", process="n1"),
            lambda r: r.get("proc_messages_handled", process="n1").value,
            lambda r: r.family("proc_messages_handled")[1].value,
            lambda r: next(m for m in r
                           if m.key == "proc_messages_handled{process=n1}").value,
            lambda r: r.to_dict()["proc_messages_handled{process=n1}"]["value"],
        ):
            sim, nodes, _ = run_ring(Process)
            assert query(sim.metrics) == nodes[1].messages_handled > 0
        sim, nodes, _ = run_ring(Process)
        sent = nodes[0].channel_to("n1").messages_sent
        lines = [line.split() for line in sim.metrics.format("chan_").splitlines()]
        assert ["chan_messages_sent{dst=n1,src=n0}", "counter",
                f"value={sent}"] in lines
        assert sim.metrics.value(
            "chan_messages_sent", src="n0", dst="n1") == sent > 3

    def test_channels_sharing_an_endpoint_pair_add_up(self):
        sim = Simulator()
        a, b = flooding(Process)(sim, "a"), flooding(Process)(sim, "b")
        old = a.connect(b)
        old.send(0)
        new = a.connect(b)  # replaces the channel, same registry counter
        new.send(0)
        new.send(0)
        assert sim.metrics.value("chan_messages_sent", src="a", dst="b") == 3.0
        assert sim.metrics.value("chan_messages_sent", src="a", dst="b") == 3.0

    def test_bounded_histograms_keep_the_fed_reservoir(self):
        def run(base):
            sim = Simulator()
            for name in ("proc_queue_wait", "proc_service_time"):
                for node in ("n0", "n1"):  # the nodes get these instruments
                    sim.metrics.histogram(name, bound=5, process=node)
            Node = flooding(base)
            nodes = [Node(sim, f"n{i}", s) for i, s in enumerate((0.3, 0.0))]
            nodes[0].connect(nodes[1], 0.37)
            nodes[1].connect(nodes[0], 0.81)
            sim.schedule(0.0, nodes[0].send, "n1", 40)
            sim.run()
            return sim, nodes

        sim, nodes = run(Process)
        ref, _ = run(ReferenceProcess)
        assert sim.metrics.get("proc_queue_wait", process="n0").count == 20
        assert sim.metrics.to_dict() == ref.metrics.to_dict()
        assert histogram_values(sim.metrics) == histogram_values(ref.metrics)
        # Nobody read the registry during the run: the owners published.
        assert all(len(n._observed) < 2 * 5 for n in nodes)

    def test_a_counter_total_cannot_fall_back(self):
        counter = MetricsRegistry().counter("c")
        counter.advance_to(3)
        assert counter.summary() == {"type": "counter", "value": 3.0}
        with pytest.raises(ValueError, match="fall back"):
            counter.advance_to(2.5)


# -- (d) flat trace records ---------------------------------------------------------

DETAILS = [
    {},
    {"to": "merge", "message": "RelMessage"},
    {"ids": (1, 2), "txn": (7,)},
    {"rows": [1, 2], "nested": {"a": (1, [2])}, "none": None},
    {"wait": 0.25, "service": 0, "flag": True},
    {"kind_of": "x", "time_of": 3.5},  # keys that resemble the fixed fields
]


def oracle_digest(events) -> str:
    h = hashlib.sha256()
    for time, kind, process, detail in events:
        h.update(repr((time, kind, process, sorted(detail.items()))).encode())
    return h.hexdigest()


def put(trace, entry: str, time: float, kind: str, process: str,
        detail: dict) -> None:
    """Record one event through the named entry point of ``trace``."""
    if entry == "record":
        trace.record(time, kind, process, **detail)
    else:
        trace.record_fields(time, kind, process, tuple(detail), *detail.values())


ENTRIES = ("record", "record_fields")


class TestFlatRecords:
    def recorded(self, trace_type=Trace, entry="record"):
        trace = trace_type()
        oracle = []
        for i, detail in enumerate(DETAILS * 2):
            event = (float(i), f"k{i % 3}", f"p{i % 2}", detail)
            put(trace, entry, *event)
            oracle.append(event)
        return trace, oracle

    @pytest.mark.parametrize("trace_type, entry", [
        pytest.param(Trace, "record", id="Trace"),
        pytest.param(Trace, "record_fields", id="Trace-record_fields"),
    ])
    def test_round_trip(self, trace_type, entry):
        trace, oracle = self.recorded(trace_type, entry)
        assert len(trace) == len(oracle)
        assert trace.raw_events_since(0) == (len(oracle), oracle)
        assert trace.digest() == oracle_digest(oracle)
        assert [(e.time, e.kind, e.process, e.detail) for e in trace] == oracle
        assert [list(e.detail) for e in trace] == [list(d) for *_, d in oracle]
        assert to_records(trace) == [
            {"time": t, "kind": k, "process": p, **d} for t, k, p, d in oracle]
        assert to_records(trace, "k1") == [
            {"time": t, "kind": k, "process": p, **d}
            for t, k, p, d in oracle if k == "k1"]
        assert trace[3].detail["nested"] == {"a": (1, [2])}

    def test_raw_reads_and_cursors_across_a_materialisation(self):
        for entry in ENTRIES:
            self.check_raw_reads_and_cursors(entry)

    def check_raw_reads_and_cursors(self, entry):
        trace, oracle = self.recorded(entry=entry)
        wanted = [e for e in oracle if e[1] in ("k0", "k2")]
        assert trace.raw_events_since(0, ("k0", "k2")) == (len(oracle), wanted)
        cursor, first = trace.raw_events_since(0)
        assert trace._pending and not trace._events  # nothing was built
        put(trace, entry, 99.0, "k0", "late", {"n": 1})
        events = list(trace)  # materialises everything
        later = len(events)
        assert [(e.time, e.detail) for e in events[cursor:]] == [
            (99.0, {"n": 1})]
        put(trace, entry, 100.0, "k1", "later", {})
        put(trace, entry, 101.0, "k0", "latest", {"ids": (4,)})
        assert trace._events and trace._pending  # built and pending mixed
        assert trace.raw_events_since(later) == (
            later + 2, [(100.0, "k1", "later", {}),
                        (101.0, "k0", "latest", {"ids": (4,)})])
        assert trace.raw_events_since(cursor, ("k0",))[1] == [
            (99.0, "k0", "late", {"n": 1}),
            (101.0, "k0", "latest", {"ids": (4,)})]
        assert trace.raw_events_since(3, ("k1",))[1] == [
            e for e in oracle[3:] if e[1] == "k1"
        ] + [(100.0, "k1", "later", {})]
        assert trace.raw_events_since(later + 2) == (later + 2, [])
        assert trace.digest() == oracle_digest(
            oracle + [(99.0, "k0", "late", {"n": 1}),
                      (100.0, "k1", "later", {}),
                      (101.0, "k0", "latest", {"ids": (4,)})])

    def test_atomic_records_leave_the_collectors_lists(self):
        trace = Trace()
        for i in range(200):
            trace.record(float(i), "msg_send", f"p{i}", to="merge",
                         message="RelMessage", seq=i, wait=i / 7)
            trace.record_fields(float(i), "proc_msg", f"p{i}", ("ids",),
                                (i, i + 1))
        trace.record(1.0, "boxed", "p", rows=[1, 2])
        # One list, one array, one list of kinds: no object per record.
        assert len(trace._pending) == 200 * (3 + 8) + 200 * (3 + 2) + 5
        assert len(trace._starts) == len(trace._pending_kinds) == 401

        def tracked_kinds() -> set[str]:
            return {raw[1] for raw in trace._records()
                    if any(map(gc.is_tracked, raw))}

        # Only a value that is itself a container can be tracked.
        assert tracked_kinds() <= {"proc_msg", "boxed"}
        gc.collect()
        assert tracked_kinds() == {"boxed"}  # a list stays tracked

    def test_a_record_of_atoms_adds_nothing_to_the_young_generation(self):
        trace = Trace()
        keys = ("to", "message", "seq")
        enabled = gc.isenabled()
        gc.disable()
        try:
            # Warm the interpreter's free lists before counting.
            trace.record(0.0, "msg_send", "p", to="m", message="M", seq=0)
            trace.record_fields(0.0, "msg_recv", "q", keys, "m", "M", 0)
            before = gc.get_count()[0]
            for i in range(10_000):
                trace.record(float(i), "msg_send", "p", to="merge",
                             message="RelMessage", seq=i)
            for i in range(10_000):
                trace.record_fields(float(i), "msg_recv", "q", keys, "merge",
                                    "RelMessage", i)
            after = gc.get_count()[0]
        finally:
            if enabled:
                gc.enable()
        assert after == before
        assert len(trace) == 20_002


# -- (e) what a run leaves behind, counted -----------------------------------------

class TestAllocations:
    def test_example_2_adds_at_most_20_tracked_objects_an_update(self):
        updates = 500
        world = paper_world()
        system = WarehouseSystem(world, paper_views_example2(),
                                 SystemConfig(seed=3, trace_kinds=None))
        spec = WorkloadSpec(updates=updates, rate=0.2, arrivals="poisson",
                            mix=(0.3, 0.5, 0.2), value_range=40, seed=3)
        post_stream(system, UpdateStreamGenerator(world, spec).transactions())
        gc.collect()
        before = len(gc.get_objects())
        system.run()
        gc.collect()
        added = len(gc.get_objects()) - before
        assert system.warehouse.commits == updates
        # the trace was on: one proc_msg per handled message
        assert len(system.sim.trace.of_kind("proc_msg")) == sum(
            p.messages_handled for p in system.processes.values())
        # 42 per update while every trace record held a dict
        assert added / updates <= 20, added / updates

    def test_scheduling_an_event_allocates_no_function(self):
        sim = Simulator()
        sink = []

        def functions() -> int:
            return sum(type(o) is types.FunctionType for o in gc.get_objects())

        gc.collect()  # a collection in the loop must not free unrelated ones
        before = functions()
        for i in range(500):
            sim.schedule(1.0, sink.append, i)
            sim.schedule_at(2.0, sink.append, i, lane=("a", "b"))
        assert functions() == before
        sim.run()
        assert sink == list(range(500)) * 2
