"""Posted arrivals wait off the heap, and the event order is the heap's.

Under the default scheduler a laneless ``schedule_at`` no earlier than the
last one posted joins a FIFO whose head alone sits on the heap
(:mod:`repro.sim.kernel`).  :class:`HeapOnlySimulator` is the kernel
without that FIFO: every ``schedule_at`` is pushed onto the heap.  The
property drives both with the same random program (sorted, equal-time and
out-of-order posts; posts between ``run(until=)`` slices and from inside
handlers; ``schedule``; channel sends; crash and restart events; a handler
that raises) and requires the same callbacks in the same order, and the
same ``events_executed``, ``now`` and ``pending_events`` after every step.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.explorer import Explorer
from repro.conformance.scenario import SCENARIO_CONFIG, ScenarioSpec
from repro.errors import SimulationError
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.workloads.generator import WorkloadSpec


class HeapOnlySimulator(Simulator):
    """Every ``schedule_at`` pushed onto the heap."""

    def schedule_at(self, time, callback, *args, lane=None, ordered=True):
        if time < self._now:
            raise SimulationError(f"cannot schedule at {time}, now is {self._now}")
        self._push(time, callback, args, lane, ordered)


class Boom(Exception):
    """What the raising handler raises."""


class Node(Process):
    """Logs what it handles and passes a positive count on, minus one."""

    def __init__(self, sim, name, log):
        super().__init__(sim, name)
        self.log = log

    def service_time(self, message):
        return 0.25 if message % 3 == 0 else 0.0

    def handle(self, message, sender):
        self.log.append(("handled", self.name, message, sender.name, self.sim.now))
        if message > 0:
            self.send(self.next_hop, message - 1)


OFFSETS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.25, 5.0])
ACTIONS = st.one_of(
    st.just(("log",)),
    st.tuples(st.just("post"), OFFSETS),
    st.tuples(st.just("send"), st.integers(0, 2), st.integers(0, 4)),
    st.just(("raise",)),
    st.tuples(st.just("toggle"), st.integers(0, 2)),
)
OPS = st.one_of(
    st.tuples(st.just("post"), OFFSETS, ACTIONS),
    st.tuples(st.just("posts"), OFFSETS, st.integers(1, 6),
              st.sampled_from([0.0, 0.25, 1.0]), ACTIONS),
    st.tuples(st.just("schedule"), OFFSETS, ACTIONS),
    st.tuples(st.just("send"), st.integers(0, 2), st.integers(0, 4)),
    st.tuples(st.just("run"), st.one_of(st.none(), OFFSETS),
              st.one_of(st.none(), st.integers(1, 5))),
)


def play(sim: Simulator, ops: list) -> list:
    """Run ``ops`` on ``sim``; returns everything observable, in order."""
    log: list = []
    nodes = [Node(sim, f"n{i}", log) for i in range(3)]
    for node, after in zip(nodes, nodes[1:] + nodes[:1]):
        node.connect(after, 1.0)
        node.next_hop = after.name
    labels = iter(range(10**6))

    def act(label, action):
        log.append(("fired", label, sim.now))
        kind = action[0]
        if kind == "post":
            sim.schedule_at(sim.now + action[1], act, next(labels), ("log",))
        elif kind == "send":
            nodes[action[1]].send(nodes[action[1]].next_hop, action[2])
        elif kind == "raise":
            raise Boom(label)
        elif kind == "toggle":
            node = nodes[action[1]]
            node.restart() if node.crashed else node.crash()

    def observe(step):
        log.append((step, sim.events_executed, sim.now, sim.pending_events))

    def run(**bounds):
        try:
            sim.run(**bounds)
        except Boom as error:
            log.append(("raised", error.args[0], sim.now))

    for op in ops:
        kind = op[0]
        if kind == "post":
            sim.schedule_at(sim.now + op[1], act, next(labels), op[2])
        elif kind == "posts":
            _, start, count, step, action = op
            for i in range(count):
                sim.schedule_at(sim.now + start + i * step, act, next(labels), action)
        elif kind == "schedule":
            sim.schedule(op[1], act, next(labels), op[2])
        elif kind == "send":
            nodes[op[1]].send(nodes[op[1]].next_hop, op[2])
        else:
            horizon, max_events = op[1], op[2]
            run(until=None if horizon is None else sim.now + horizon,
                max_events=max_events)
        observe(kind)
    for _ in range(6 * len(ops) + 1):  # each raising handler stops one drain
        run()
    observe("drained")
    return log


@settings(max_examples=300, deadline=None)
@given(ops=st.lists(OPS, max_size=25))
def test_posted_fifo_keeps_the_heap_order(ops):
    fifo, heap = Simulator(), HeapOnlySimulator()
    assert play(fifo, ops) == play(heap, ops)
    assert fifo.pending_events == 0


def test_a_sorted_stream_waits_off_the_heap():
    sim = Simulator()
    fired = []
    for i in range(100):
        sim.schedule_at(float(i // 2), fired.append, i)
    assert len(sim._queue) == 1 and sim.pending_events == 100
    sim.schedule_at(3.0, fired.append, "late")  # out of order: onto the heap
    assert len(sim._queue) == 2 and sim.pending_events == 101
    sim.run(until=10.0)
    assert sim.pending_events == 78
    assert fired[:9] == [0, 1, 2, 3, 4, 5, 6, 7, "late"]
    sim.run()
    assert fired[9:] == list(range(8, 100)) and sim.pending_events == 0


#: ``trace_sha256`` of the shrunk reproducer of the first violation a
#: ``random``-scheduler hunt finds (naive fleet, level strong, 12 Poisson
#: updates), recorded before posted arrivals left the heap.
RANDOM_REPRODUCERS = {
    2.0: "bd660958f04304a6547053b5f5a340313f151cf864e210700ff215c201899ab3",
    3.0: "51982c0b6ede510ea47ab63f70148b87e3096510de2e9444ee4c019eb3f4f2dc",
}


def test_random_scheduler_reproducers_replay_unchanged():
    for rate, digest in RANDOM_REPRODUCERS.items():
        spec = ScenarioSpec(
            workload=WorkloadSpec(updates=12, rate=rate, mix=(0.7, 0.15, 0.15),
                                  arrivals="poisson"),
            config={**SCENARIO_CONFIG, "manager_kind": "naive"},
            scheduler="random",
        )
        explorer = Explorer(spec, seeds=200, level="strong")
        reproducer = explorer.shrink(explorer.explore()[0])
        assert reproducer.trace_sha256 == digest
