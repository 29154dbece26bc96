"""B17 — The price of reliability: MVC under an actively faulty network.

The paper *assumes* reliable FIFO delivery (§4).  This experiment drops
the assumption and measures what winning it back costs: a full Figure-1
system runs under fault plans with increasing message-drop rates (plus
proportional duplication and delay spikes), with the reliable-channel
recovery layer switched on.  For each rate we report staleness,
throughput and the recovery work performed (retransmissions, suppressed
duplicates).  A second scenario adds a merge-process crash/restart on top
of the faults.

Shape claims:

* every faulted run still satisfies MVC-complete (recovery works),
* staleness rises monotonically-ish with the fault rate (retransmit
  latency is the price), while every update still gets through,
* for a fixed seed each configuration is bit-for-bit reproducible.

Paper question: §4's delivery assumption, inverted — what does winning
reliability back cost when the network is faulty?  Reads:
``RunReport.mean_staleness`` / ``p95_staleness`` / throughput, channel
``retransmissions`` / ``duplicates_suppressed`` (registry
``chan_retransmissions`` / ``chan_duplicates_suppressed``), and the
``msg_drop`` / ``msg_retransmit`` trace events per drop rate.
"""

from repro.faults import CrashSpec, FaultPlan
from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example1, paper_world

from benchmarks.conftest import fmt_table, run_system

DROP_RATES = (0.0, 0.01, 0.05)
UPDATES = 60


def plan_for(drop_rate: float, crash: bool = False) -> FaultPlan | None:
    if drop_rate == 0.0 and not crash:
        return None  # plain channels: the no-fault baseline
    crashes = (CrashSpec("merge", at=15.0, restart_after=4.0),) if crash else ()
    return FaultPlan(
        seed=17,
        drop_rate=drop_rate,
        duplicate_rate=drop_rate / 2,
        delay_spike_rate=drop_rate / 2,
        delay_spike=8.0,
        crashes=crashes,
    )


def run_once(drop_rate: float, crash: bool = False):
    spec = WorkloadSpec(
        updates=UPDATES, rate=2.0, seed=8, mix=(0.7, 0.15, 0.15),
        arrivals="poisson",
    )
    config = SystemConfig(
        manager_kind="complete", seed=8, fault_plan=plan_for(drop_rate, crash)
    )
    system = run_system(paper_world(), paper_views_example1(), config, spec)
    retransmissions = len(system.sim.trace.of_kind("msg_retransmit"))
    drops = len(system.sim.trace.of_kind("msg_drop"))
    metrics = system.report()
    return {
        "metrics": metrics,
        "mvc_ok": system.check_mvc("complete").ok,
        "classify": metrics.achieved,
        "drops": drops,
        "retransmissions": retransmissions,
        "merge_crashes": system.merge_processes[0].crashes,
        "merge_restores": system.merge_processes[0].restores,
        "fingerprint": metrics.to_json(),
    }


def test_b17_faults(benchmark, report):
    def experiment():
        results = {}
        for rate in DROP_RATES:
            results[rate] = run_once(rate)
        results["crash"] = run_once(0.02, crash=True)
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for key in (*DROP_RATES, "crash"):
        r = results[key]
        m = r["metrics"]
        label = "0.02+crash" if key == "crash" else f"{key:g}"
        rows.append([
            label,
            "yes" if r["mvc_ok"] else "NO",
            f"{m.mean_staleness:.2f}",
            f"{m.p95_staleness:.2f}",
            f"{m.throughput:.3f}",
            r["drops"],
            r["retransmissions"],
            r["merge_restores"],
        ])
    report("B17 — MVC under message faults (reliable channels on):")
    report(fmt_table(
        ["drop rate", "MVC", "mean stale", "p95 stale", "throughput",
         "drops", "retransmits", "restores"],
        rows,
    ))
    report("")
    report("Shape: recovery preserves MVC at every fault rate; staleness "
           "is the price, paid in retransmission round-trips.")

    # 1. Recovery works: every run, including the crash run, is consistent.
    for key in (*DROP_RATES, "crash"):
        assert results[key]["mvc_ok"], f"MVC lost at {key}"
        assert results[key]["classify"] == "complete"
        assert results[key]["metrics"].updates_committed == UPDATES

    # 2. Faults really fired, and recovery work scales with the rate.
    assert results[0.0]["drops"] == 0 and results[0.0]["retransmissions"] == 0
    assert results[0.01]["drops"] > 0
    assert results[0.05]["drops"] > results[0.01]["drops"]
    assert results[0.05]["retransmissions"] >= results[0.01]["retransmissions"]

    # 3. Retransmit latency costs freshness at the heaviest rate.
    assert (
        results[0.05]["metrics"].mean_staleness
        > results[0.0]["metrics"].mean_staleness
    )

    # 4. The crash scenario actually crashed and recovered.
    crash = results["crash"]
    assert crash["merge_crashes"] == 1 and crash["merge_restores"] == 1


def test_b17_determinism(benchmark, report):
    """Same plan, same seed: bit-identical metrics, run-to-run."""

    def experiment():
        return [
            (run_once(rate)["fingerprint"], run_once(rate)["fingerprint"])
            for rate in DROP_RATES
        ] + [(run_once(0.02, crash=True)["fingerprint"],
              run_once(0.02, crash=True)["fingerprint"])]

    pairs = benchmark.pedantic(experiment, rounds=1, iterations=1)
    for first, second in pairs:
        assert first == second
    report("B17 determinism: identical metrics across repeated runs "
           f"for drop rates {DROP_RATES} and the crash scenario.")
