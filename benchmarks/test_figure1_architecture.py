"""F1 — Figure 1: the warehouse architecture, assembled and exercised.

Builds exactly the topology of Figure 1 — data sources -> integrator ->
view managers -> merge process -> warehouse — runs a workload through it,
and prints the component census plus the message flows over each hop.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import paper_views_example2, paper_world

from benchmarks.conftest import fmt_table, run_system


def test_figure1_architecture(benchmark, report):
    spec = WorkloadSpec(updates=60, rate=2.0, seed=1, arrivals="poisson",
                        mix=(0.6, 0.2, 0.2))
    system = benchmark.pedantic(
        lambda: run_system(
            paper_world(), paper_views_example2(),
            SystemConfig(manager_kind="complete", seed=1), spec,
        ),
        rounds=1, iterations=1,
    )

    report("Figure 1 — component census:")
    rows = [
        ["data sources", ", ".join(sorted(system.sources))],
        ["integrator", system.integrator.name],
        ["view managers", ", ".join(sorted(system.view_managers))],
        ["merge process", ", ".join(m.name for m in system.merge_processes)],
        ["warehouse", system.warehouse.name],
    ]
    if system.service is not None:  # built only for managers that query back
        rows.append(["base-data service", system.service.name])
    report(fmt_table(["component", "instances"], rows))

    metrics = system.report()
    report("")
    report("Message traffic per process:")
    traffic = [
        [name, stats.messages_handled, f"{stats.utilisation:.1%}"]
        for name, stats in sorted(metrics.processes.items())
    ]
    report(fmt_table(["process", "messages", "utilisation"], traffic))
    report("")
    report(f"updates: {metrics.updates_committed}, warehouse txns: "
           f"{metrics.warehouse_transactions}, MVC: {metrics.achieved}")

    # Shape claims: all Figure-1 boxes exist and carried traffic; the run
    # is MVC-complete.
    assert len(system.sources) == 4
    assert len(system.view_managers) == 3
    assert len(system.merge_processes) == 1
    assert metrics.processes["integrator"].messages_handled == 60
    assert metrics.processes["merge"].messages_handled > 60  # RELs + ALs
    assert metrics.processes["warehouse"].messages_handled > 0
    assert system.check_mvc("complete")
