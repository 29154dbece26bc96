"""B18 — Observability overhead: what does watching the run cost?

Paper question: none directly — this is infrastructure due diligence for
every *other* experiment.  The §7 study's numbers (B1–B17) are read off
traces and registry instruments; those instruments are only trustworthy
if recording them does not meaningfully distort the run being measured.

This experiment runs the B1 throughput workload (80 updates at rate 10
on the paper schema, seed 21) twice per round — every trace kind
(``trace_kinds=None``, what analysis and export opt in to) vs none
(``trace_kinds=frozenset()``) — interleaved, best-of-N CPU time (scheduler
preemption must not count against tracing, and GC pauses are excluded
from the timed region because their *timing* is nondeterministic even
though the allocation cost they amortise is measured), and asserts

* opting in to every kind slows the run by **less than 15%** against
  recording nothing (a default run, which records only the two
  freshness endpoints, sits between the arms),
* tracing does not change the *simulation* at all: identical virtual
  makespan and warehouse transaction count in both arms (observation
  must not perturb the observed system),
* the traced arm actually recorded what the money is paid for: ``proc_msg``
  events (the lineage carriers, read by ``Lineage.for_update``) and
  registry instruments (``proc_*``, ``chan_*``, ``merge_vut_size``).

Metrics/lineage fields read: CPU time only for the overhead ratio;
``sim.now``, ``warehouse.commits``, ``len(sim.trace)`` and
``len(sim.metrics)`` for the invariance checks.
"""

from __future__ import annotations

import gc
import time

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

UPDATES = 80
RATE = 10.0
ROUNDS = 6  # interleaved on/off pairs; best-of-N defeats scheduler noise
MAX_OVERHEAD = 0.15


ALL_KINDS = None
NO_KINDS = frozenset()


def _run_once(trace_kinds: frozenset[str] | None):
    config = SystemConfig(seed=21, trace_kinds=trace_kinds)
    spec = WorkloadSpec(updates=UPDATES, rate=RATE, seed=21,
                        mix=(0.6, 0.2, 0.2))
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        system = run_system(paper_world(), paper_views_example2(), config,
                            spec)
        elapsed = time.process_time() - started
    finally:
        gc.enable()
    return elapsed, system


def test_b18_observability_overhead(benchmark, report):
    def experiment():
        _run_once(ALL_KINDS)  # warm-up: imports, allocator, branch caches
        _run_once(NO_KINDS)
        on_times, off_times = [], []
        for _ in range(ROUNDS):
            elapsed_off, base = _run_once(NO_KINDS)
            elapsed_on, traced = _run_once(ALL_KINDS)
            off_times.append(elapsed_off)
            on_times.append(elapsed_on)
        return min(off_times), min(on_times), base, traced

    off, on, base, traced = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    overhead = on / off - 1.0

    report(f"B18 — tracing overhead on the B1 workload "
           f"({UPDATES} updates, rate {RATE}, best of {ROUNDS}):")
    report(fmt_table(
        ["arm", "cpu ms", "trace events", "registry instruments"],
        [
            ["no kinds", f"{off * 1e3:.1f}", len(base.sim.trace),
             len(base.sim.metrics)],
            ["every kind", f"{on * 1e3:.1f}", len(traced.sim.trace),
             len(traced.sim.metrics)],
        ],
    ))
    report(f"overhead: {overhead * 100:+.1f}%  (budget {MAX_OVERHEAD:.0%})")

    # Observation must not perturb the simulation itself.
    assert base.sim.now == traced.sim.now
    assert base.warehouse.commits == traced.warehouse.commits

    # The traced arm must have bought full observability ...
    assert traced.sim.trace.of_kind("proc_msg")
    assert traced.sim.trace.of_kind("wh_commit")
    assert traced.sim.metrics.value(
        "proc_messages_handled", process="integrator"
    ) == UPDATES
    # ... while the untraced arm still keeps registry instruments
    # (metrics are always on; only the event log is optional).
    assert len(base.sim.trace) == 0
    assert base.sim.metrics.value(
        "proc_messages_handled", process="integrator"
    ) == UPDATES

    assert overhead < MAX_OVERHEAD, (
        f"full tracing costs {overhead:.1%} on the B1 workload "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
