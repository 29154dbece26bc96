"""B13 — Pre-state acquisition ablation (the §1.1 Problem-3 design space).

Delta computation needs the base state *as of* the update being processed.
Three correct disciplines are implemented (DESIGN.md):

* ``cached``     — local replicas maintained from the update stream
  (no queries, most state);
* ``snapshot``   — multiversion reads from the base-data service;
* ``compensate`` — current-state reads rolled back with undo information
  (the Strobe-flavoured autonomous-source mode).

The experiment runs the same workload under each and compares service
query traffic, staleness and makespan — and confirms all three verify the
same MVC level.  The broken fourth option (``naive``: current-state reads,
no compensation) is measured too, as the cautionary row.

Paper question: §1.1 Problem 3 — where does delta computation get its
pre-state?  Reads: ``RunReport.makespan`` / ``mean_staleness`` and
service query counts per acquisition mode.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system

MODES = (
    ("cached", "complete"),
    ("snapshot", "complete"),
    ("compensate", "strong"),
)


def run_mode(mode: str, kind: str):
    spec = WorkloadSpec(updates=60, rate=2.0, seed=41, mix=(0.6, 0.2, 0.2),
                        arrivals="poisson")
    system = run_system(
        paper_world(),
        paper_views_example2(),
        SystemConfig(
            manager_kind=kind,
            manager_mode=mode,
            service_query_cost=0.2,
            seed=41,
        ),
        spec,
    )
    metrics = system.report()
    # A cached fleet never queries back, so it has no base-data service.
    service = system.service
    return (
        metrics.achieved,
        service.queries_answered if service is not None else 0,
        metrics.mean_staleness,
        metrics.makespan,
    )


def run_naive():
    spec = WorkloadSpec(updates=60, rate=2.0, seed=41, mix=(1.0, 0.0, 0.0),
                        arrivals="poisson")
    system = run_system(
        paper_world(),
        paper_views_example2(),
        SystemConfig(manager_kind="naive", seed=41),
        spec,
    )
    return system.classify(), system.service.queries_answered


def test_b13_prestate_modes(benchmark, report):
    def experiment():
        results = {}
        for mode, kind in MODES:
            results[mode] = run_mode(mode, kind)
        results["naive"] = run_naive() + (float("nan"), float("nan"))
        return results

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for mode in ("cached", "snapshot", "compensate", "naive"):
        level, queries, staleness, makespan = results[mode]
        rows.append(
            [
                mode,
                level,
                queries,
                "-" if staleness != staleness else f"{staleness:.1f}",
                "-" if makespan != makespan else f"{makespan:.0f}",
            ]
        )
    report("B13 — how view managers obtain their pre-state:")
    report(fmt_table(
        ["mode", "MVC level", "service queries", "mean staleness", "makespan"],
        rows,
    ))
    report("")
    report("Shape: cached needs no queries; snapshot/compensate trade query "
           "round-trips for statelessness and stay correct; naive reads of "
           "the moving current state corrupt the warehouse (Problem 3).")

    assert results["cached"][0] == "complete"
    assert results["snapshot"][0] == "complete"
    assert results["compensate"][0] == "strong"
    assert results["naive"][0] in ("convergent", "inconsistent")
    assert results["cached"][1] == 0
    assert results["snapshot"][1] > 0 and results["compensate"][1] > 0
