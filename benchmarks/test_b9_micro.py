"""B9 — Microbenchmarks: VUT operations and painting-algorithm event cost.

The merge process must keep up with REL/AL traffic, so the per-event cost
of the data structure and of both algorithms matters.  These are true
microbenchmarks (many rounds) over synthetic event streams:

* VUT allocate/color/purge cycle,
* SPA end-to-end event processing (n updates x 3 views),
* SPA per event at two depths: that 3-view table, and a deep one (36
  views in 12 clusters of 3, 600 RELs outstanding, per-view FIFO action
  lists interleaved at random), whose ratio shows whether a probe's cost
  grows with the table,
* PA with batch-2 action lists over the same pattern.

Paper question: §4 (implicitly) — is per-event merge bookkeeping cheap
enough to keep up with REL/AL traffic?  Reads: wall-clock per operation
from ``pytest-benchmark``; no simulation metrics are involved.
"""

import random

from repro.merge.pa import PaintingAlgorithm
from repro.merge.spa import SimplePaintingAlgorithm
from repro.merge.vut import Color, ViewUpdateTable
from repro.relational.delta import Delta
from repro.relational.rows import Row
from repro.viewmgr.actions import ActionList

VIEWS = ("V1", "V2", "V3")
N_UPDATES = 60


def _emit(bench_out, name: str, benchmark, question: str):
    """Write BENCH_b9_<name>.json from pytest-benchmark's own stats."""
    stats = benchmark.stats.stats
    bench_out(f"b9_{name}", {
        "benchmark": f"b9_{name}",
        "question": question,
        "units": "seconds_per_round",
        "rounds": stats.rounds,
        "arms": {name: {"mean": stats.mean, "min": stats.min,
                        "stddev": stats.stddev}},
    })


def make_al(view, covered):
    return ActionList.from_delta(
        view, view, tuple(covered), Delta.insert(Row(x=covered[-1]))
    )


def test_b9_vut_cycle(benchmark, bench_out):
    def cycle():
        vut = ViewUpdateTable(VIEWS)
        for row in range(1, N_UPDATES + 1):
            vut.allocate_row(row, frozenset(VIEWS))
            for view in VIEWS:
                vut.set_color(row, view, Color.RED)
            for view in VIEWS:
                vut.set_color(row, view, Color.GRAY)
            vut.purge(row)
        return vut

    vut = benchmark(cycle)
    assert len(vut) == 0
    _emit(bench_out, "vut_cycle", benchmark,
          "per-round cost of the VUT allocate/color/purge cycle")


def _spa_events():
    rng = random.Random(9)
    rels = [(i, frozenset(v for v in VIEWS if rng.random() < 0.7) or
             frozenset({"V1"})) for i in range(1, N_UPDATES + 1)]
    return rels


def test_b9_spa_event_processing(benchmark, bench_out):
    rels = _spa_events()

    def run():
        spa = SimplePaintingAlgorithm(VIEWS)
        units = 0
        for update_id, views in rels:
            spa.receive_rel(update_id, views)
        # Deliver lists view by view (worst-case holding pattern).
        for view in VIEWS:
            for update_id, views in rels:
                if view in views:
                    units += len(spa.receive_action_list(make_al(view, [update_id])))
        assert spa.idle()
        return units

    units = benchmark(run)
    assert units > 0
    _emit(bench_out, "spa_events", benchmark,
          "per-round cost of SPA end-to-end event processing")


def _deep_events(clusters: int = 12, width: int = 3, rels: int = 600):
    """RELs 1..rels, each relevant to views of one random cluster, then
    every view's action lists in FIFO order, interleaved at random."""
    rng = random.Random(9)
    views = tuple(f"V{c}_{w}" for c in range(clusters) for w in range(width))
    queues: dict[str, list[int]] = {view: [] for view in views}
    events: list[tuple] = []
    for update_id in range(1, rels + 1):
        start = rng.randrange(clusters) * width
        cluster = views[start:start + width]
        relevant = (frozenset(v for v in cluster if rng.random() < 0.7)
                    or frozenset(cluster[:1]))
        events.append((update_id, relevant))
        for view in relevant:
            queues[view].append(update_id)
    while any(queues.values()):
        view = rng.choice([v for v, queue in queues.items() if queue])
        events.append(make_al(view, [queues[view].pop(0)]))
    return views, events


def _shallow_events():
    rels = _spa_events()
    als = [make_al(view, [update_id])
           for view in VIEWS for update_id, views in rels if view in views]
    return VIEWS, [*rels, *als]


def test_b9_spa_deep_vut(benchmark, bench_out):
    """SPA ns per event with few rows outstanding and with 600: an indexed
    table's probes do not walk columns, so the two should stay close.
    Reported, not gated (the count-guards elsewhere pin behaviour)."""
    import time

    arms = {"shallow_3_views": _shallow_events(), "deep_36_views": _deep_events()}
    best = dict.fromkeys(arms, float("inf"))

    def both():
        for arm, (views, events) in arms.items():
            spa = SimplePaintingAlgorithm(views)
            start = time.perf_counter()
            for event in events:
                if isinstance(event, tuple):
                    spa.receive_rel(*event)
                else:
                    spa.receive_action_list(event)
            elapsed = time.perf_counter() - start
            assert spa.idle()
            best[arm] = min(best[arm], elapsed / len(events))

    benchmark.pedantic(both, rounds=9, iterations=1)
    ns = {arm: round(seconds * 1e9) for arm, seconds in best.items()}
    bench_out("b9_spa_deep", {
        "benchmark": "b9_spa_deep",
        "question": "does SPA's cost per event grow with the VUT's depth?",
        "units": "ns_per_event",
        "arms": {arm: {"ns_per_event": value} for arm, value in ns.items()},
        "events": {arm: len(events) for arm, (_, events) in arms.items()},
        "deep_over_shallow": round(ns["deep_36_views"] / ns["shallow_3_views"], 3),
    })


def test_b9_pa_event_processing_batched(benchmark, bench_out):
    rels = _spa_events()

    def run():
        pa = PaintingAlgorithm(VIEWS)
        units = 0
        for update_id, views in rels:
            pa.receive_rel(update_id, views)
        for view in VIEWS:
            mine = [u for u, views in rels if view in views]
            for start in range(0, len(mine), 2):
                batch = mine[start:start + 2]
                units += len(pa.receive_action_list(make_al(view, batch)))
        assert pa.idle()
        return units

    units = benchmark(run)
    assert units > 0
    _emit(bench_out, "pa_events_batched", benchmark,
          "per-round cost of PA with batch-2 action lists")


def test_b9_kernel_fast_path_guard(benchmark, bench_out):
    """The default-scheduler fast path must not be slower than the
    general path it bypasses (``Simulator._push`` skips ``adjust()`` and
    clamps an ordered lane with one float compare only under the exact
    default Scheduler).  Two arms: laneless events, and lane-tagged ones
    as every channel delivery is (most events of a real run).
    Timing guard is loose (0.9x) — this catches the fast path rotting
    into a pessimisation, not micro-regressions.  Each arm starts from a
    collected heap and counts its best round: until the interpreter's
    first full collection a drain is half as slow again, whichever path
    it takes.  A third arm, reported only, is one message hop: a ring of
    four processes, ``Process.send`` -> ``Channel.send`` -> ``deliver`` ->
    ``handle``, in microseconds per hop.  A fourth, reported only, is one
    posted arrival (``posted_us``): time-sorted ``schedule_at`` deliveries
    to the same ring, posted before the drain as a workload's stream is,
    whose handlers send nothing on."""
    import gc
    import time

    from repro.sim.kernel import Simulator
    from repro.sim.process import Process
    from repro.sim.scheduler import Scheduler

    class TrivialScheduler(Scheduler):
        """Same behaviour, different type: forces the general path."""

    events = 20_000
    lanes = [("src", f"dst{i}") for i in range(8)]

    def drive(sim, tagged):
        noop = lambda: None
        gc.collect()
        start = time.perf_counter()
        if tagged:
            for i in range(events):
                sim.schedule_at(float(i % 7), noop, lane=lanes[i % 8])
        else:
            for i in range(events):
                sim.schedule(float(i % 7), noop)
        sim.run()
        return time.perf_counter() - start

    class Hop(Process):
        def handle(self, message, sender):
            if message:
                self.send(self.next_hop, message - 1)

    hops = 20_000

    def ring():
        sim = Simulator()
        nodes = [Hop(sim, f"n{i}") for i in range(4)]
        for node, after in zip(nodes, nodes[1:] + nodes[:1]):
            node.connect(after, 1.0)
            node.next_hop = after.name
        sim.schedule(0.0, nodes[0].send, "n1", hops - 1)
        gc.collect()
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert sum(n.messages_handled for n in nodes) == hops
        return elapsed

    def posted():
        sim = Simulator()
        nodes = [Hop(sim, f"n{i}") for i in range(4)]
        for i in range(hops):
            sim.schedule_at(i * 0.01, nodes[i % 4].deliver, 0, nodes[i % 4 - 1])
        gc.collect()
        start = time.perf_counter()
        sim.run()
        elapsed = time.perf_counter() - start
        assert sum(n.messages_handled for n in nodes) == hops
        return elapsed

    rounds = []

    def all_arms():
        # The fast and general arms swap order from round to round (as
        # B24's arms alternate), so neither always runs on the warmer heap.
        general_first = len(rounds) % 2
        seconds = {}
        for tagged in (False, True):
            for general in (general_first, not general_first):
                scheduler = TrivialScheduler() if general else None
                seconds[tagged, general] = drive(Simulator(scheduler=scheduler), tagged)
        rounds.append([seconds[tagged, general]
                       for tagged in (False, True)
                       for general in (False, True)] + [ring(), posted()])

    benchmark.pedantic(all_arms, rounds=7, iterations=1)
    fast_s, slow_s, fast_lane_s, slow_lane_s, ring_s, posted_s = map(min, zip(*rounds))
    rates = {
        "fast_path": events / fast_s,
        "general_path": events / slow_s,
        "fast_path_lane_tagged": events / fast_lane_s,
        "general_path_lane_tagged": events / slow_lane_s,
    }

    bench_out("b9_kernel_fast_path", {
        "benchmark": "b9_kernel_fast_path",
        "question": "does the default-scheduler fast path beat the general "
                    "scheduling path, for laneless and lane-tagged events?",
        "units": "events_per_wall_second",
        "arms": {
            arm: {"events_per_sec": round(rate)} for arm, rate in rates.items()
        },
        "ratio": round(rates["fast_path"] / rates["general_path"], 3),
        "ratio_lane_tagged": round(
            rates["fast_path_lane_tagged"] / rates["general_path_lane_tagged"], 3),
        "hop_us": round(ring_s / hops * 1e6, 3),
        "posted_us": round(posted_s / hops * 1e6, 3),
    })

    for arm in ("", "_lane_tagged"):
        fast, slow = rates["fast_path" + arm], rates["general_path" + arm]
        assert fast >= 0.9 * slow, (
            f"fast path{arm} ({fast:.0f} ev/s) fell behind the general path "
            f"({slow:.0f} ev/s) — the bypass is now a pessimisation"
        )
