"""B6 — Relevance filtering ablation (§3.2's pointer to [7]).

"We could be more discerning by using selection conditions in the view
definitions to rule out irrelevant updates."

The experiment drives the star-schema workload (two selective views)
through the integrator with the base-relation relevance test only, then
with selection-condition filtering, and compares routed update copies,
action-list traffic, and total work.

Expected shape: filtering removes a substantial share of view routings for
selective views while leaving results identical (both runs MVC-complete
with identical final views).

Paper question: §3.2 — how much update traffic can selection-condition
relevance filtering remove?  Reads: integrator ``update_copies_sent``
and ``filtered_out``, per-manager ``messages_handled`` (registry
``proc_messages_handled``), and ``RunReport.makespan``.
"""

from repro.system.config import SystemConfig
from repro.workloads.generator import WorkloadSpec
from repro.workloads.schemas import star_views, star_world

from benchmarks.conftest import fmt_table, run_system


def run(filtering: bool):
    spec = WorkloadSpec(
        updates=120, rate=2.0, seed=19, mix=(0.7, 0.15, 0.15),
        value_range=12, arrivals="poisson",
    )
    system = run_system(
        star_world(),
        star_views(selective=True),
        SystemConfig(
            manager_kind="complete",
            use_selection_filtering=filtering,
            seed=19,
        ),
        spec,
    )
    assert system.check_mvc("complete")
    return system


def test_b6_relevance_filtering(benchmark, report):
    plain, filtered = benchmark.pedantic(
        lambda: (run(False), run(True)), rounds=1, iterations=1
    )

    def row(label, system):
        metrics = system.report(classify=False)
        return [
            label,
            system.integrator.update_copies_sent,
            system.integrator.filtered_out,
            metrics.processes["merge"].messages_handled,
            f"{metrics.makespan:.0f}",
        ]

    report("B6 — selection-condition relevance filtering [Blakeley et al.]:")
    report(fmt_table(
        ["relevance test", "update copies to VMs", "routings filtered",
         "merge messages", "makespan"],
        [row("base-relation only", plain), row("+ selection conditions", filtered)],
    ))
    report("")
    report("Shape: filtering cuts view-manager and merge traffic on "
           "selective views; both runs end in identical, MVC-complete "
           "warehouse states.")

    assert filtered.integrator.filtered_out > 0
    assert (
        filtered.integrator.update_copies_sent
        < plain.integrator.update_copies_sent
    )
    # Same final contents either way.
    for name in ("SaleDetail", "RegionalSales", "BigTickets", "CheapCatalog"):
        assert plain.store.view(name) == filtered.store.view(name)
