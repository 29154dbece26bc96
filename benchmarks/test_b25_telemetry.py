"""B25 — Telemetry overhead.

Paper question: none directly — like B18 this is infrastructure due
diligence, now for the live telemetry layer.  B18 bounded the cost of the
passive trace/registry; B25 bounds the cost of the active instruments
added on top of it: the live freshness/SLO monitor (probed after every
DES event) and the per-plan-node profiler (a staging dict lookup per
operator call plus timing when armed).

Method (B18's discipline): the B1 workload (80 updates at rate 10, seed
21) twice per round — everything enabled (freshness monitor + SLO
evaluator + plan profiler) vs everything off — interleaved best-of-N CPU
time with GC disabled, asserting

* full telemetry slows the run by **less than 15%** (B18's bar),
* telemetry does not perturb the simulation: identical virtual makespan
  and warehouse transaction count in both arms,
* the instrumented arm actually bought the goods: monitor samples,
  ``view_staleness`` gauges, ``plan_node_*`` counters.

Metrics read: CPU time for the ratio; ``sim.now``/``warehouse.commits``
for invariance; ``view_staleness``/``plan_node_calls``/
``vm_compute_batches`` for the payoff checks.
"""

from __future__ import annotations

import gc
import time

from repro.obs.freshness import SloPolicy
from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

UPDATES = 80
RATE = 10.0
ROUNDS = 6  # interleaved on/off pairs; best-of-N defeats scheduler noise
MAX_OVERHEAD = 0.15

#: thresholds no healthy run crosses — the evaluator runs, never fires
QUIET_SLO = SloPolicy(max_staleness=1e9, max_queue_depth=10_000,
                      max_vut=10_000)


def _run_once(telemetry: bool):
    config = SystemConfig(
        seed=21,
        freshness_tick=0.5 if telemetry else None,
        slo=QUIET_SLO if telemetry else None,
        profile_plans=telemetry,
    )
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


def test_b25_telemetry_overhead(benchmark, report, bench_out):
    def experiment():
        _run_once(True)  # warm-up: imports, allocator, branch caches
        _run_once(False)
        on_times, off_times = [], []
        for _ in range(ROUNDS):
            elapsed_off, base = _run_once(False)
            elapsed_on, instrumented = _run_once(True)
            off_times.append(elapsed_off)
            on_times.append(elapsed_on)
        return min(off_times), min(on_times), base, instrumented

    off, on, base, instrumented = benchmark.pedantic(
        experiment, rounds=1, iterations=1
    )
    overhead = on / off - 1.0
    monitor = instrumented.monitor

    report(f"B25 — live telemetry overhead on the B1 workload "
           f"({UPDATES} updates, rate {RATE}, best of {ROUNDS}):")
    report(fmt_table(
        ["arm", "cpu ms", "monitor samples", "profiled nodes",
         "registry instruments"],
        [
            ["telemetry off", f"{off * 1e3:.1f}", 0, 0,
             len(base.sim.metrics)],
            ["monitor+slo+profiler", f"{on * 1e3:.1f}", monitor.samples,
             instrumented.plan_profiler.enabled_nodes,
             len(instrumented.sim.metrics)],
        ],
    ))
    report(f"overhead: {overhead * 100:+.1f}%  (budget {MAX_OVERHEAD:.0%})")

    # Observation must not perturb the simulation itself.
    assert base.sim.now == instrumented.sim.now
    assert base.warehouse.commits == instrumented.warehouse.commits

    # The instrumented arm must have bought live telemetry ...
    assert monitor is not None and monitor.samples > 10
    assert monitor.breaches == 0  # QUIET_SLO: evaluated, never fired
    registry = instrumented.sim.metrics
    for view in instrumented.view_managers:
        assert registry.get("view_staleness", view=view) is not None
        assert registry.value("vm_compute_batches", view=view) > 0
    assert registry.family("plan_node_calls")
    # ... while the plain arm keeps its registry free of telemetry
    assert base.monitor is None
    assert not base.sim.metrics.family("plan_node_calls")

    bench_out("b25", {
        "b25_overhead": {
            "workload": {"updates": UPDATES, "rate": RATE, "seed": 21,
                         "rounds": ROUNDS},
            "cpu_ms_off": round(off * 1e3, 3),
            "cpu_ms_on": round(on * 1e3, 3),
            "overhead": round(overhead, 4),
            "budget": MAX_OVERHEAD,
            "monitor_samples": monitor.samples,
            "profiled_nodes": instrumented.plan_profiler.enabled_nodes,
        },
    })

    assert overhead < MAX_OVERHEAD, (
        f"live telemetry costs {overhead:.1%} on the B1 workload "
        f"(budget {MAX_OVERHEAD:.0%})"
    )
